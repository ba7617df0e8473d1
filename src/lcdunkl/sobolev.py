"""Sobolev norms, Schwartz seminorm families, and spectral differentiation.

The W^s norm weighs the transform by (1+lam^2)^(s/2); its operator-sum
counterpart adds squared norms of operator powers. Both are equivalent
rather than equal: the toolkit reports measured ratios instead of
pretending the constants away. The operator-sum norm reads its terms off
the p = 2 norm sequence of `operators._sequence`.

Spectral differentiation reads its plain Dunkl values off
`transform.lcdt_forward` at (0, b; -1/b, 0), whose chirps are 1, and
divides its prefactor c = (ib)^(-(k+1)) out. So it samples through
`transform._sampled` (the same tail-bound warnings, the same refusal of
rules built for another k) and contracts through `transform._lcdt_folded`
on the table pair cached for the same rule pair and |b|, as every
forward transform does, without calling either itself.
"""

import math

import numpy as np

from .errors import ParameterError
from .operators import _mult_i, _sequence, spectrum_of
from .quadrature import QuadratureRule, SampledFunction, lp_norm
from .specfun import CanonicalMatrix, _integer, dunkl_kernel_dx, kval, matval, principal_power
from .symfun import SymExpr, Term, differentiate, evaluate, iterate_op
from .transform import lcdt_forward

__all__ = [
    "sobolev_norm",
    "sobolev_opsum_norm",
    "seminorm_S",
    "seminorm_R",
    "seminorm_op",
    "derivative_via_spectrum",
    "sup_grid",
]

MAX_OPSUM_ORDER = 6
MAX_SEMINORM_POWER = 12
MAX_SPECTRAL_DERIVATIVE = 4


def sup_grid(rule: QuadratureRule) -> np.ndarray:
    """Quadrature nodes plus a 4x refined uniform overlay for sup norms."""
    overlay = np.linspace(-rule.X, rule.X, 4 * len(rule) + 1)
    return np.union1d(rule.nodes, overlay)


def sobolev_norm(f, k, M, s: float, lam_rule=None, x_rule=None) -> float:
    """W^s norm: L^2 norm of (1+lam^2)^(s/2) times the transform."""
    kk = kval(k)
    mm = matval(M)
    g = spectrum_of(f, kk, mm, lam_rule, x_rule=x_rule)
    lam = g.rule.nodes
    weight = (1.0 + lam * lam) ** s
    return float(math.sqrt(np.sum(g.rule.weights * weight * np.abs(g.values) ** 2)))


def sobolev_opsum_norm(f, k, M, m: int, lam_rule=None, x_rule=None) -> float:
    """sqrt of the sum over n <= m of squared L^2 operator-power norms."""
    if not 0 <= _integer(m, "operator-sum order") <= MAX_OPSUM_ORDER:
        raise ParameterError(f"operator-sum order must lie in [0, {MAX_OPSUM_ORDER}]")
    _, seq = _sequence(f, k, M, 2.0, max(m, 1), lam_rule, x_rule, _mult_i)
    return math.sqrt(float(np.sum(np.exp(2.0 * seq.lognorm[: m + 1]))))


def seminorm_S(phi: SymExpr, n: int, m: int, x_rule: QuadratureRule) -> float:
    """sup over the grid of (1+x^2)^n |d^m phi/dx^m|."""
    if n < 0 or m < 0:
        raise ParameterError("seminorm indices must be >= 0")
    e = phi
    for _ in range(m):
        e = differentiate(e)
    xs = sup_grid(x_rule)
    return float(np.max((1.0 + xs * xs) ** n * np.abs(evaluate(e, xs))))


def seminorm_R(phi: SymExpr, p: int, q: int, x_rule: QuadratureRule) -> float:
    """sup over the grid of |d^p/dx^p ((1+x^2)^q phi)|."""
    if p < 0 or q < 0:
        raise ParameterError("seminorm indices must be >= 0")
    poly = SymExpr([Term(math.comb(q, j), m=2 * j) for j in range(q + 1)])
    e = poly * phi
    for _ in range(p):
        e = differentiate(e)
    xs = sup_grid(x_rule)
    return float(np.max(np.abs(evaluate(e, xs))))


def seminorm_op(phi: SymExpr, k, M, r: int, p: int, x_rule: QuadratureRule) -> float:
    """L^2 norm of (1+x^2)^(r/2) times the p-th inverse-matrix operator power."""
    if p < 0 or p > MAX_SEMINORM_POWER:
        raise ParameterError(f"operator seminorm power must lie in [0, {MAX_SEMINORM_POWER}]")
    if r < 0:
        raise ParameterError("weight exponent must be >= 0")
    kk = kval(k)
    mm = matval(M)
    e = iterate_op(kk, mm.inverse(), phi, p)
    x = x_rule.nodes
    vals = (1.0 + x * x) ** (0.5 * r) * evaluate(e, x)
    return lp_norm(SampledFunction(x_rule, vals), 2.0)


def derivative_via_spectrum(f, k, M, n: int, x_grid, lam_rule: QuadratureRule, x_rule=None):
    """Reconstruct d^n f/dx^n on x_grid from the plain Dunkl spectrum of f.

    Uses f^(n)(x) = |b|^(-(2k+2)) * integral over the frequency rule of
    D_k(f)(lam/b) times the n-th x-derivative of E_k(i lam/b, x); kernel
    derivatives come from the Bessel order-raising recurrence. Returns a
    SampledFunction when x_grid is a QuadratureRule, else the value array.
    """
    n = _integer(n, "derivative order")
    if n < 0 or n > MAX_SPECTRAL_DERIVATIVE:
        raise ParameterError(f"spectral derivative order must lie in [0, {MAX_SPECTRAL_DERIVATIVE}]")
    kk = kval(k)
    mm = matval(M)
    g = lcdt_forward(f, kk, CanonicalMatrix(0.0, mm.b, -1.0 / mm.b, 0.0), lam_rule, x_rule)
    mu = lam_rule.nodes / mm.b
    out_rule = x_grid if isinstance(x_grid, QuadratureRule) else None
    xs = out_rule.nodes if out_rule is not None else np.asarray(x_grid, dtype=np.float64)
    kermat = dunkl_kernel_dx(kk, n, mu[:, None], xs[None, :])
    pref = abs(mm.b) ** (-(2.0 * kk + 2.0)) / principal_power(1j * mm.b, -(kk + 1.0))
    vals = pref * ((lam_rule.weights * g.values) @ kermat)
    if out_rule is not None:
        return SampledFunction(out_rule, vals, label=getattr(f, "label", ""))
    return vals
