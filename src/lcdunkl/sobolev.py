"""Sobolev norms and spectral differentiation.

The W^s norm weighs the transform by (1+lam^2)^(s/2); its operator-sum
counterpart adds squared norms of operator powers. Both are equivalent
rather than equal: the toolkit reports measured ratios instead of
pretending the constants away. Both read their L^2 norms off the p = 2
norm sequence of `operators._sequence`, the one setup and the one L^2
spectral sum: the W^s norm is its n = 1 entry under the multiplier
(1+lam^2)^(s/2), the operator-sum norm adds its entries n <= m under the
inverse-matrix operator's.

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

from .errors import ComputationError, ParameterError
from .operators import LOG_FLOAT_MAX, _mult_i, _mult_sobolev, _sequence
from .quadrature import QuadratureRule
from .specfun import CanonicalMatrix, _integer, dunkl_kernel_dx, kval, matval, principal_power
from .transform import lcdt_forward

__all__ = [
    "sobolev_norm",
    "sobolev_opsum_norm",
    "derivative_via_spectrum",
]

MAX_OPSUM_ORDER = 6
MAX_SPECTRAL_DERIVATIVE = 4


def sobolev_norm(f, k, M, s: float, lam_rule=None, x_rule=None) -> float:
    """W^s norm: L^2 norm of (1+lam^2)^(s/2) times the transform; s must be finite."""
    if not math.isfinite(s):
        raise ParameterError(f"Sobolev order s must be finite, got {s!r}")
    _, seq = _sequence(f, k, M, 2.0, 1, lam_rule, x_rule, _mult_sobolev(s, matval(M).b))
    if seq.lognorm[1] > LOG_FLOAT_MAX:
        raise ComputationError(f"W^{s} norm passes the double range (log norm {seq.lognorm[1]:.6g})")
    return math.exp(seq.lognorm[1])


def sobolev_opsum_norm(f, k, M, m: int, lam_rule=None, x_rule=None) -> float:
    """sqrt of the sum over n <= m of squared L^2 operator-power norms."""
    if not 0 <= _integer(m, "operator-sum order") <= MAX_OPSUM_ORDER:
        raise ParameterError(f"operator-sum order must lie in [0, {MAX_OPSUM_ORDER}]")
    _, seq = _sequence(f, k, M, 2.0, max(m, 1), lam_rule, x_rule, _mult_i)
    log_norm = 0.5 * float(np.logaddexp.reduce(2.0 * seq.lognorm[: m + 1]))  # the squares summed in log space
    if log_norm > LOG_FLOAT_MAX:
        raise ComputationError(f"operator-sum norm passes the double range (log norm {log_norm:.6g})")
    return math.exp(log_norm)


def derivative_via_spectrum(f, k, M, n: int, x_grid, lam_rule: QuadratureRule, x_rule=None):
    """Reconstruct d^n f/dx^n on x_grid from the plain Dunkl spectrum of f.

    Uses f^(n)(x) = |b|^(-(2k+2)) * integral over the frequency rule of
    D_k(f)(lam/b) times the n-th x-derivative of E_k(i lam/b, x); kernel
    derivatives come from the Bessel order-raising recurrence. x_grid is a
    1-D array of points; returns the complex values there.
    """
    n = _integer(n, "derivative order")
    if n < 0 or n > MAX_SPECTRAL_DERIVATIVE:
        raise ParameterError(f"spectral derivative order must lie in [0, {MAX_SPECTRAL_DERIVATIVE}]")
    kk = kval(k)
    mm = matval(M)
    g = lcdt_forward(f, kk, CanonicalMatrix(0.0, mm.b, -1.0 / mm.b, 0.0), lam_rule, x_rule)
    mu = lam_rule.nodes / mm.b
    kermat = dunkl_kernel_dx(kk, n, mu[:, None], np.asarray(x_grid, dtype=np.float64)[None, :])
    pref = abs(mm.b) ** (-(2.0 * kk + 2.0)) / principal_power(1j * mm.b, -(kk + 1.0))
    return pref * ((lam_rule.weights * g.values) @ kermat)
