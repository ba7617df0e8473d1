"""Normalized spherical Bessel function, Dunkl kernel, and LCDT kernel.

j_nu(u) = Gamma(nu+1) (2/u)^nu J_nu(u) has two evaluators. Both sum a
Kahan-summed power series where |u| <= 7.5 or u^2 <= 16(nu+1), where its
terms stay moderate; they differ beyond it. j_{-1/2} is cos in both.

``bessel_j_grid``, the pointwise evaluator, takes J_nu from scipy.special
(AMOS, Amos, "Algorithm 644", ACM TOMS 12, 1986), through spherical_jn at
half-integer orders; scipy is imported by the first call that reaches
that branch. It serves ``bessel_j_norm``, symbolic Bessel factors and
``dunkl_kernel_dx``, whose n = 0 terms are the one kernel formula that
``dunkl_kernel`` and ``lcdt_kernel`` evaluate.

The transform's kernel tables are piecewise Chebyshev interpolants: at
every order but -1/2, ``_panel_fit`` evaluates j_nu only at Chebyshev
points on panels of width at most 1/2, from a table's max|u| alone, with
J_nu from ``_jv``, a numpy evaluator (Hankel's expansion and Miller's
recurrence), so no table build imports scipy; ``_clenshaw`` sums each
panel's series over the table, in place and point by point, in chunks of
_CHUNK points, so a table can be filled block by block.
``regularized_gamma`` (quadrature calibration, tail bounds) needs no scipy.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError

__all__ = [
    "CanonicalMatrix",
    "bessel_j_norm",
    "bessel_j_grid",
    "dunkl_kernel",
    "dunkl_kernel_dx",
    "lcdt_kernel",
    "principal_power",
    "regularized_gamma",
]

DET_TOL = 1e-12
B_MIN = 1e-9


def kval(k) -> float:
    """The multiplicity k of the Dunkl weight |x|^(2k+1) as a float, checked: finite and k >= -1/2."""
    k = float(k)
    if not math.isfinite(k) or k < -0.5:
        raise ParameterError(f"Dunkl parameter must satisfy k >= -1/2, got {k}")
    return k


@dataclass(frozen=True)
class CanonicalMatrix:
    """Unimodular 2x2 parameter (a, b; c, d) of the transform, b != 0."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        a, b, c, d = (float(v) for v in (self.a, self.b, self.c, self.d))
        if not all(math.isfinite(v) for v in (a, b, c, d)):
            raise ParameterError("matrix entries must be finite")
        if abs(a * d - b * c - 1.0) > DET_TOL:
            raise ParameterError(f"matrix.det: a*d - b*c = {a * d - b * c!r} (must be 1)")
        if abs(b) < B_MIN:
            raise ParameterError(f"matrix.b: |b| = {abs(b)!r} below {B_MIN} (b != 0 required)")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "d", d)

    def inverse(self) -> "CanonicalMatrix":
        return CanonicalMatrix(self.d, -self.b, -self.c, self.a)

    @staticmethod
    def rotation(theta: float) -> "CanonicalMatrix":
        return CanonicalMatrix(math.cos(theta), -math.sin(theta), math.sin(theta), math.cos(theta))


def matval(M) -> CanonicalMatrix:
    if isinstance(M, CanonicalMatrix):
        return M
    return CanonicalMatrix(*M)


def principal_power(z: complex, p: float) -> complex:
    """z**p on the principal log branch (arg in (-pi, pi])."""
    return cmath.exp(p * cmath.log(z))


def regularized_gamma(a: float, x: float):
    """(P, Q) = (gamma(a, x), Gamma(a, x)) / Gamma(a) for a > 0, x >= 0, from math alone.

    The series of DLMF 8.7.1 below x = a + 1, else the continued fraction of
    DLMF 8.9.2 (modified Lentz); the smaller of P and Q keeps its relative accuracy.
    """
    if x <= 0.0:
        return 0.0, 1.0
    log_front = a * math.log(x) - x - math.lgamma(a)  # log of x^a e^(-x) / Gamma(a)
    if x < a + 1.0:
        term = total = 1.0 / a
        for n in range(1, 10000):
            term *= x / (a + n)
            total += term
            if term < 1e-17 * total:
                break
        p = math.exp(log_front + math.log(total))
        return p, 1.0 - p
    b, c = x + 1.0 - a, math.inf
    h = d = 1.0 / b
    for n in range(1, 10000):
        b += 2.0
        d = 1.0 / (n * (a - n) * d + b or 1e-300)
        c = b + n * (a - n) / c or 1e-300
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            break
    q = math.exp(log_front + math.log(h))
    return 1.0 - q, q


# ---------------------------------------------------------------------------
# normalized Bessel evaluation

SERIES_CUT = 7.5
U_MAX = 2000.0


def _series(nu: float, u: np.ndarray) -> np.ndarray:
    # Kahan-summed power series: it keeps absolute accuracy at the unit
    # kernel scale even where j itself is many orders smaller
    z = -0.25 * u * u
    term = np.ones_like(u)
    s = np.ones_like(u)
    c = np.zeros_like(u)
    for n in range(1, 500):
        term = term * (z / (n * (nu + n)))
        y = term - c
        t = s + y
        c = (t - s) - y
        s = t
        if np.max(np.abs(term)) < 1e-18 * (1.0 + np.max(np.abs(s))):
            break
    return s


def _j_values(nu: float, ua: np.ndarray, beyond) -> np.ndarray:
    """j_nu, nu > -1/2, at the magnitudes ua (finite, at most U_MAX).

    The power series where |u| <= SERIES_CUT or u^2 <= 16(nu+1), else
    beyond(t, scale) with scale = Gamma(nu+1) (2/t)^nu; a scale past the
    double range (large nu) raises RangeError.
    """
    out = np.empty_like(ua)
    series = (ua <= SERIES_CUT) | (ua * ua <= 16.0 * (nu + 1.0))
    if series.any():
        out[series] = _series(nu, ua[series])
    rest = ~series
    if rest.any():
        t = ua[rest]
        with np.errstate(over="ignore", invalid="ignore"):
            # Gamma(nu+1) (2/t)^nu as one exp: each factor alone overflows at large nu
            scale = np.exp(math.lgamma(nu + 1.0) + nu * np.log(2.0 / t))
        if not np.all(np.isfinite(scale)):
            raise RangeError(f"order nu = {nu} too large for |x| = {float(t.max())}: j_nu leaves double range")
        out[rest] = beyond(t, scale)
    return out


def bessel_j_grid(nu: float, u) -> np.ndarray:
    """j_nu at every element of u (even in u; j_nu(0) = 1)."""
    nu = float(nu)
    if not (math.isfinite(nu) and nu >= -0.5):
        raise ParameterError(f"order must be finite and satisfy nu >= -1/2, got {nu}")
    ua = np.abs(np.asarray(u, dtype=np.float64))
    if ua.size and not np.all(np.isfinite(ua)):
        raise ParameterError("bessel argument must be finite")
    umax = float(ua.max()) if ua.size else 0.0
    if umax > U_MAX:
        raise RangeError(f"|x| = {umax} beyond supported range {U_MAX}")
    if nu == -0.5:
        return np.cos(ua, out=np.empty_like(ua))

    def amos(t, scale):
        from scipy.special import jv, spherical_jn
        if (nu - 0.5).is_integer():
            return scale * np.sqrt(2.0 * t / math.pi) * spherical_jn(int(nu - 0.5), t)
        return scale * jv(nu, t)

    return _j_values(nu, ua, amos)


# The panel fits' J_nu past the series, in numpy. Hankel's expansion
# (DLMF 10.17.3) at mu = nu - round(nu) and mu + 1 where t >= _HANKEL_CUT,
# since there, for |mu| <= 3/2, its terms fall below 1e-17 before they
# grow, and the first omitted term bounds the remainder (DLMF 10.17(iii));
# then forward recurrence in the order, stable while nu < t. Elsewhere
# Miller's backward recurrence, normalized by Neumann's sum
# (t/2)^mu = sum_k (mu + 2k) Gamma(mu + k) / k! J_{mu+2k}(t) (Gautschi,
# "Computational aspects of three-term recurrence relations", SIAM Rev. 9,
# 1967), started where J_top(t) is below 1e-17 relative to its maximum.
_HANKEL_CUT = 20.0


def _hankel(mu: float, t: np.ndarray):
    """(J_mu(t), J_{mu+1}(t)) on t >= _HANKEL_CUT."""
    phi = (0.5 * mu + 0.25) * math.pi
    c, s = np.cos(t), np.sin(t)
    cw, sw = c * math.cos(phi) + s * math.sin(phi), s * math.cos(phi) - c * math.sin(phi)  # of t - phi
    z = 8.0 * t
    out = []
    for m in (mu, mu + 1.0):
        # term k is a_k(m) / t^k with the sign of (-1)^floor(k/2): even k sum to P, odd k to Q
        term, pq = np.ones_like(t), [np.ones_like(t), np.zeros_like(t)]
        for k in range(1, 64):
            term = term * ((4.0 * m * m - (2 * k - 1) ** 2) / (k if k % 2 else -k)) / z
            pq[k % 2] += term
            if np.max(np.abs(term)) < 1e-17:
                break
        out.append(pq)
    (p0, q0), (p1, q1) = out
    r = np.sqrt(2.0 / (math.pi * t))
    return r * (p0 * cw - q0 * sw), r * (p1 * sw + q1 * cw)


def _miller(mu: float, m: int, t: np.ndarray) -> np.ndarray:
    """J_{mu+m}(t) by backward recurrence from one start for all t."""
    tmax = float(t.max())
    top = int(max(tmax, m)) + 20 + int(12.0 * tmax ** (1.0 / 3.0))  # past the turning point by 12 Airy scales
    top += top % 2
    weights = [math.gamma(mu + 1.0)]  # the Neumann weights, each from the last
    g = weights[0]
    for k in range(1, top // 2 + 1):
        weights.append((mu + 2 * k) * g)
        g *= (mu + k) / (k + 1)
    inv = 2.0 / t
    f0, f1 = np.ones_like(t), np.zeros_like(t)  # f_n and f_{n+1}, n = top
    total, val = np.zeros_like(t), np.zeros_like(t)
    for n in range(top, -1, -1):
        if n == m:
            val = f0.copy()
        if n % 2 == 0:
            total += weights[n // 2] * f0
        if n:
            f0, f1 = (mu + n) * inv * f0 - f1, f0
        if n % 16 == 0:  # keep the growing solution in range, point by point
            big = np.abs(f0) > 1e200
            if big.any():
                for a in (f0, f1, total, val):
                    a[big] *= 1e-200
    return val / total * (0.5 * t) ** mu


def _jv(nu: float, t: np.ndarray) -> np.ndarray:
    """J_nu(t) for nu >= -1/2 and t past the series; the fits' evaluator, tested on nu <= 151."""
    m = round(nu)
    mu = nu - m
    out = np.empty_like(t)
    hankel = (t >= _HANKEL_CUT) & (t > nu)
    if hankel.any():
        th = t[hankel]
        a, b = _hankel(mu, th)
        for n in range(1, m):
            a, b = b, (2.0 * (mu + n) / th) * b - a
        out[hankel] = b if m else a
    if not hankel.all():
        out[~hankel] = _miller(mu, m, t[~hankel])
    return out


# Piecewise Chebyshev interpolation of the kernel tables. Every derivative
# of j_nu is bounded by 1 for nu >= -1/2 (Poisson integral), so m points of
# the first kind on panels of width h <= PANEL_WIDTH interpolate j_nu within
# (h/2)^m / (2^(m-1) m!) ~ 5e-16 (Trefethen, "Approximation Theory and
# Approximation Practice", SIAM 2013, ch. 7-8).
PANEL_WIDTH = 0.5
PANEL_NODES = 10
_CHUNK = 1 << 13
_THETA = math.pi * (np.arange(PANEL_NODES) + 0.5) / PANEL_NODES
# node values -> Chebyshev coefficients (a DCT-II), the constant term halved
_TO_COEFFS = np.cos(np.outer(np.arange(PANEL_NODES), _THETA)) * (2.0 / PANEL_NODES)
_TO_COEFFS[0] *= 0.5


def _panel_fit(nu: float, umax: float):
    """(c, span): j_nu on [0, span] as (degree, panel) Chebyshev coefficients c, span = umax (PANEL_WIDTH at 0).

    The ceil(span / PANEL_WIDTH) equal panels each take j_nu at PANEL_NODES
    points, from the series and _jv, with bessel_j_grid's RangeErrors: an
    umax beyond U_MAX, and an order whose j_nu leaves double range. None
    at nu = -1/2, where the table is bessel_j_grid's cos (exact; the sum
    loses ~1e-13 to argument reduction near |u| = 2000).
    """
    if not umax <= U_MAX:
        raise RangeError(f"|x| = {umax} beyond supported range {U_MAX}")
    if nu == -0.5:
        return None
    span = umax or PANEL_WIDTH
    n = math.ceil(span / PANEL_WIDTH)
    nodes = (np.arange(n)[:, None] + 0.5 * (1.0 + np.cos(_THETA))) * (span / n)
    vals = _j_values(nu, nodes, lambda t, scale: scale * _jv(nu, t))
    return _TO_COEFFS @ vals.T, span  # one row per degree, so each is one 1-D gather


def _clenshaw(series, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Fill out (C-contiguous, u's shape) with a _panel_fit at |u|, |u| within its span.

    One Clenshaw sum per point, in chunks of _CHUNK points. A value depends
    on its point and the series alone, so block by block fills bit for bit.
    """
    c, span = series
    n = c.shape[1]
    flat, dst = u.reshape(-1), out.reshape(-1)
    for lo in range(0, flat.size, _CHUNK):
        y = np.abs(flat[lo:lo + _CHUNK])
        y *= n / span
        panel = np.minimum(y.astype(np.intp), n - 1)
        s = 2.0 * (y - panel) - 1.0
        s2 = 2.0 * s
        b1, b2 = c[-1].take(panel), 0.0
        for d in range(PANEL_NODES - 2, 0, -1):
            b1, b2 = s2 * b1 - b2 + c[d].take(panel), b1
        dst[lo:lo + _CHUNK] = s * b1 - b2 + c[0].take(panel)
    return out


def bessel_j_norm(k, x: float) -> float:
    """Normalized spherical Bessel function j_k(x), j_k(0) = 1.

    The absolute error stays below 1e-12 * max(1, |j_k|) on the supported
    |x| <= 2000 for k in [-1/2, 151] (measured against mpmath); the
    relative error is ~1e-12 wherever |j_k| is not vanishingly small.
    """
    return float(bessel_j_grid(k, np.array([x]))[0])


# ---------------------------------------------------------------------------
# Dunkl kernel and LCDT kernel

def dunkl_kernel(k, lam: float, x: float) -> complex:
    """Dunkl kernel E_k(i*lam, x) = j_k(lam x) + i lam x j_{k+1}(lam x)/(2(k+1))."""
    return complex(dunkl_kernel_dx(k, 0, lam, x))


def lcdt_kernel(k, M, lam: float, x: float) -> complex:
    """LCDT kernel: chirps in lam and x times E_k(-i lam/b, x)."""
    kk = kval(k)
    m = matval(M)
    chirp = cmath.exp(0.5j * ((m.d / m.b) * lam * lam + (m.a / m.b) * x * x))
    return chirp * dunkl_kernel(kk, -lam / m.b, x)


# n-th x-derivative of E_k(i lam, .): lam^n * sum_t c_t (lam x)^{a_t} j_{k+i_t}(lam x),
# starting from E_k(i lam, x) = j_k(lam x) + i lam x j_{k+1}(lam x) / (2(k+1)) at n = 0,
# generated by d/dx[(lam x)^a j_{k+i}] = lam [a (lam x)^{a-1} j_{k+i}
#                                             - (lam x)^{a+1} j_{k+i+1} / (2(k+i+1))]
def _kernel_dx_terms(k: float, n: int):
    terms = {(0, 0): 1.0 + 0.0j, (1, 1): 0.5j / (k + 1.0)}
    for _ in range(n):
        new: dict = {}
        for (a, i), c in terms.items():
            if a >= 1:
                key = (a - 1, i)
                new[key] = new.get(key, 0.0j) + c * a
            key = (a + 1, i + 1)
            new[key] = new.get(key, 0.0j) - c / (2.0 * (k + i + 1.0))
        terms = new
    return terms


def _integer(n, what: str) -> int:
    """A count n as an int (numpy integers too); a bool or a float, even 2.0, raises ParameterError naming what."""
    if not isinstance(n, bool):
        try:
            return operator.index(n)
        except TypeError:
            pass
    raise ParameterError(f"{what} must be an integer, got {n!r}")


def dunkl_kernel_dx(k, n: int, lam, x) -> np.ndarray:
    """n-th derivative in x of the Dunkl kernel E_k(i*lam, x).

    Broadcasts lam and x. Satisfies |d^n/dx^n E_k(i lam, x)| <= |lam|^n.
    """
    kk = kval(k)
    n = _integer(n, "derivative order")
    if n < 0:
        raise ParameterError("derivative order must be >= 0")
    lam = np.asarray(lam, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    u = lam * x
    # each Bessel order once, on the distinct |u| only (j is even)
    t, inv = np.unique(np.abs(u), return_inverse=True)
    inv = inv.reshape(u.shape)
    bessel: dict = {}
    out = np.zeros(u.shape, dtype=np.complex128)
    for (a, i), c in _kernel_dx_terms(kk, n).items():
        if i not in bessel:
            bessel[i] = bessel_j_grid(kk + i, t)
        out += c * u**a * bessel[i][inv]
    if n:
        out *= np.broadcast_to(lam, out.shape) ** n
    return out
