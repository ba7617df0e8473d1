"""Normalized spherical Bessel function, Dunkl kernel, and LCDT kernel.

The workhorse is ``bessel_j_grid``: j_nu evaluated over arrays with a
tiered strategy (power series where it is cancellation-free, an
order-shift recurrence over the awkward mid band at small orders, the
large-argument expansion for small orders, and a Gauss-Jacobi
discretization of the Poisson integral elsewhere). Each tier was tuned
so neighbouring tiers agree to ~1e-12 on their overlap, and the
combined evaluator keeps the Dunkl kernel accurate at its unit scale.
"""

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_jacobi

from . import _kernels
from ._kernels import BAND_CUT, BAND_NODES, HANKEL_NU_MAX, SERIES_CUT, U_MAX
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

_rule_cache: dict = {}


def _poisson_rule(nu: float, n: int):
    key = (round(nu, 12), n)
    got = _rule_cache.get(key)
    if got is None:
        t, w = roots_jacobi(n, nu - 0.5, nu - 0.5)
        cnu = math.exp(math.lgamma(nu + 1.0) - math.lgamma(nu + 0.5)) / math.sqrt(math.pi)
        got = (np.ascontiguousarray(t), np.ascontiguousarray(w * cnu))
        _rule_cache[key] = got
    return got


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
    shape = ua.shape
    flat = np.ascontiguousarray(ua.ravel())
    out = np.empty_like(flat)

    if nu == -0.5:
        np.cos(flat, out=out)
        return out.reshape(shape)
    if nu == 0.5:
        small = flat == 0.0
        np.divide(np.sin(flat), flat, out=out, where=~small)
        out[small] = 1.0
        return out.reshape(shape)

    m_series = (flat <= SERIES_CUT) | (flat * flat <= 16.0 * (nu + 1.0))
    m_band = ~m_series & (flat <= BAND_CUT)
    m_far = ~m_series & ~m_band

    if m_series.any():
        sub = np.ascontiguousarray(flat[m_series])
        res = np.empty_like(sub)
        _kernels.series_eval(nu, sub, res)
        out[m_series] = res
    if m_band.any():
        sub = np.ascontiguousarray(flat[m_band])
        if nu < 0.35:
            # near-singular Jacobi weights are inaccurate here; shift the
            # order up twice and come back down one recurrence step
            a = bessel_j_grid(nu + 1.0, sub)
            b = bessel_j_grid(nu + 2.0, sub)
            out[m_band] = a - sub * sub * b / (4.0 * (nu + 1.0) * (nu + 2.0))
        else:
            t, w = _poisson_rule(nu, BAND_NODES)
            res = np.empty_like(sub)
            _kernels.poisson_eval(sub, t, w, res)
            out[m_band] = res
    if m_far.any():
        sub = np.ascontiguousarray(flat[m_far])
        res = np.empty_like(sub)
        if nu <= HANKEL_NU_MAX:
            _kernels.hankel_eval(nu, sub, res)
        else:
            t, w = _poisson_rule(nu, _kernels.poisson_node_count(float(sub.max())))
            _kernels.poisson_eval(sub, t, w, res)
        out[m_far] = res
    return out.reshape(shape)


def bessel_j_norm(k, x: float) -> float:
    """Normalized spherical Bessel function j_k(x), j_k(0) = 1.

    Relative accuracy is ~1e-12 wherever |j_k| is not vanishingly
    small and |x| <= 50; elsewhere the error stays at ~1e-13 of the
    unit kernel scale.
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
