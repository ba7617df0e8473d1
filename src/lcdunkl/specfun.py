"""Normalized spherical Bessel function, Dunkl kernel, and LCDT kernel.

The workhorse is ``bessel_j_grid``: j_nu(u) = Gamma(nu+1) (2/u)^nu J_nu(u)
over arrays. A Kahan-summed power series covers |u| <= 7.5 or
u^2 <= 16(nu+1), where its terms stay moderate; beyond, the classical
J_nu comes from scipy.special (AMOS, Amos, "Algorithm 644", ACM TOMS 12,
1986), through spherical_jn at half-integer orders. j_{-1/2} is cos.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import jv, spherical_jn

from .errors import ParameterError, RangeError

__all__ = [
    "DunklParameter",
    "CanonicalMatrix",
    "bessel_j_norm",
    "bessel_j_grid",
    "dunkl_kernel",
    "dunkl_kernel_grid",
    "dunkl_kernel_dx",
    "lcdt_kernel",
    "principal_power",
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
    if nu < -0.5:
        raise ParameterError(f"order must satisfy nu >= -1/2, got {nu}")
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


def bessel_j_norm(k, x: float) -> float:
    """Normalized spherical Bessel function j_k(x), j_k(0) = 1.

    The absolute error stays below 1e-12 * max(1, |j_k|) on the supported
    |x| <= 2000 for k in [-1/2, 151] (measured against mpmath); the
    relative error is ~1e-12 wherever |j_k| is not vanishingly small.
    """
    nu = kval(k) if isinstance(k, DunklParameter) else float(k)
    if nu < -0.5:
        raise ParameterError(f"order must satisfy k >= -1/2, got {nu}")
    if not math.isfinite(x):
        raise ParameterError("x must be finite")
    return float(bessel_j_grid(nu, np.array([x]))[0])


# ---------------------------------------------------------------------------
# Dunkl kernel and LCDT kernel

def dunkl_kernel(k, lam: float, x: float) -> complex:
    """Dunkl kernel E_k(i*lam, x) = j_k(lam x) + i lam x j_{k+1}(lam x)/(2(k+1))."""
    kk = kval(k)
    u = lam * x
    j0 = bessel_j_norm(kk, u)
    j1 = bessel_j_norm(kk + 1.0, u)
    return complex(j0, u * j1 / (2.0 * (kk + 1.0)))


def dunkl_kernel_grid(k, u) -> np.ndarray:
    """E_k(i, .) over an array of products u = lam*x (complex output)."""
    kk = kval(k)
    u = np.asarray(u, dtype=np.float64)
    j0 = bessel_j_grid(kk, u)
    j1 = bessel_j_grid(kk + 1.0, u)
    return j0 + 1j * u * j1 / (2.0 * (kk + 1.0))


def lcdt_kernel(k, M, lam: float, x: float) -> complex:
    """LCDT kernel: chirps in lam and x times E_k(-i lam/b, x)."""
    kk = kval(k)
    m = matval(M)
    chirp = cmath.exp(0.5j * ((m.d / m.b) * lam * lam + (m.a / m.b) * x * x))
    return chirp * dunkl_kernel(kk, -lam / m.b, x)


# n-th x-derivative of E_k(i lam, .): lam^n * sum_t c_t (lam x)^{a_t} j_{k+i_t}(lam x),
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


def dunkl_kernel_dx(k, n: int, lam, x) -> np.ndarray:
    """n-th derivative in x of the Dunkl kernel E_k(i*lam, x).

    Broadcasts lam and x. Satisfies |d^n/dx^n E_k(i lam, x)| <= |lam|^n.
    """
    kk = kval(k)
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
