"""Normalized spherical Bessel function, Dunkl kernel, and LCDT kernel.

The workhorse is ``bessel_j_grid``: j_nu(u) = Gamma(nu+1) (2/u)^nu J_nu(u)
over arrays. A Kahan-summed power series covers |u| <= 7.5 or
u^2 <= 16(nu+1), where its terms stay moderate; beyond, the classical
J_nu comes from scipy.special (AMOS, Amos, "Algorithm 644", ACM TOMS 12,
1986), through spherical_jn at half-integer orders; scipy is imported by
the first call that reaches that branch. j_{-1/2} is cos.

The transform's kernel tables are piecewise Chebyshev interpolants: at
every order but -1/2, ``_panel_fit`` runs ``bessel_j_grid`` only at
Chebyshev points on panels of width at most 1/2, from a table's max|u|
alone, and ``_clenshaw`` sums each panel's series over the table, in
place and point by point, in chunks of _CHUNK points, so a table can be
filled block by block. cos (nu = -1/2) stays on ``bessel_j_grid``, as do
``bessel_j_norm`` and ``dunkl_kernel_dx``, whose n = 0 terms are the one
kernel formula that ``dunkl_kernel`` and ``lcdt_kernel`` evaluate.
``regularized_gamma`` (quadrature calibration, tail bounds) needs no scipy.
"""

import cmath
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, RangeError

__all__ = [
    "DunklParameter",
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


@dataclass(frozen=True)
class DunklParameter:
    """Multiplicity parameter of the Dunkl weight |x|^(2k+1)."""

    k: float

    def __post_init__(self):
        k = float(self.k)
        if not math.isfinite(k) or k < -0.5:
            raise ParameterError(f"Dunkl parameter must satisfy k >= -1/2, got {self.k}")
        object.__setattr__(self, "k", k)


def kval(k) -> float:
    """Accept a DunklParameter or a bare float; return the validated float."""
    if isinstance(k, DunklParameter):
        return k.k
    return DunklParameter(float(k)).k


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

    def as_tuple(self):
        return (self.a, self.b, self.c, self.d)


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
    out = np.empty_like(ua)
    if nu == -0.5:
        return np.cos(ua, out=out)
    series = (ua <= SERIES_CUT) | (ua * ua <= 16.0 * (nu + 1.0))
    if series.any():
        out[series] = _series(nu, ua[series])
    rest = ~series
    if rest.any():
        from scipy.special import jv, spherical_jn
        t = ua[rest]
        with np.errstate(over="ignore", invalid="ignore"):
            # Gamma(nu+1) (2/t)^nu as one exp: each factor alone overflows at large nu
            scale = np.exp(math.lgamma(nu + 1.0) + nu * np.log(2.0 / t))
            if (nu - 0.5).is_integer():
                vals = scale * np.sqrt(2.0 * t / math.pi) * spherical_jn(int(nu - 0.5), t)
            else:
                vals = scale * jv(nu, t)
        if not np.all(np.isfinite(vals)):
            raise RangeError(f"order nu = {nu} too large for |x| = {umax}: j_nu leaves double range")
        out[rest] = vals
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

    The ceil(span / PANEL_WIDTH) equal panels each cost bessel_j_grid at
    PANEL_NODES points. An umax beyond U_MAX raises bessel_j_grid's
    RangeError here, as no node lies past umax. None at nu = -1/2, where
    the table is bessel_j_grid's cos (exact; the sum loses ~1e-13 to
    argument reduction near |u| = 2000).
    """
    if not umax <= U_MAX:
        raise RangeError(f"|x| = {umax} beyond supported range {U_MAX}")
    if nu == -0.5:
        return None
    span = umax or PANEL_WIDTH
    n = math.ceil(span / PANEL_WIDTH)
    nodes = (np.arange(n)[:, None] + 0.5 * (1.0 + np.cos(_THETA))) * (span / n)
    return _TO_COEFFS @ bessel_j_grid(nu, nodes).T, span  # one row per degree, so each is one 1-D gather


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
    nu = kval(k) if isinstance(k, DunklParameter) else float(k)
    return float(bessel_j_grid(nu, np.array([x]))[0])


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
    """A count n as an int (numpy integers too); a float, even 2.0, raises ParameterError naming what."""
    try:
        return operator.index(n)
    except TypeError:
        raise ParameterError(f"{what} must be an integer, got {n!r}") from None


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
