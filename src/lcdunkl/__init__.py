"""Toolkit for the linear canonical Dunkl transform (LCDT).

Quadrature against the Dunkl measure, exact symbolic operator calculus,
the forward/inverse transform with a chirp-factorized cross-check,
Sobolev-norm machinery, and spectral-support estimators built on
real Paley-Wiener limits.
"""

from .errors import (
    AccuracyWarning,
    ComputationError,
    ParameterError,
    RangeError,
    ResourceBudgetError,
    ShapeMismatchError,
)
from .operators import (
    NormSequence,
    RealPolynomial,
    apply_poly_op,
    apply_power_spectral,
    heat_semigroup,
    norm_sequence,
)
from .paleywiener import (
    Estimate,
    compact_spectrum_test,
    estimate_delta,
    estimate_sigma,
    poly_domain_test,
    support_radius_oracle,
    vanishing_interval_detect,
)
from .quadrature import (
    QuadratureRule,
    SampledFunction,
    build_rule,
    build_rule_from_edges,
    inner_product,
    integrate,
    lp_norm,
)
from .sobolev import (
    derivative_via_spectrum,
    seminorm_R,
    seminorm_S,
    seminorm_op,
    sobolev_norm,
    sobolev_opsum_norm,
)
from .specfun import (
    CanonicalMatrix,
    DunklParameter,
    bessel_j_grid,
    bessel_j_norm,
    dunkl_kernel,
    dunkl_kernel_dx,
    lcdt_kernel,
)
from .symfun import (
    SymExpr,
    apply_dunkl,
    apply_lcd,
    bessel_factor,
    differentiate,
    dunkl_kernel_expr,
    evaluate,
    expr_from_json,
    expr_to_json,
    gaussian,
    iterate_op,
    lcdt_kernel_expr,
    monomial,
    odd_quotient,
    reflect,
)
from .transform import (
    Spectrum,
    chirp_factorized_forward,
    dunkl_transform,
    lcdt_forward,
    lcdt_inverse,
)

__version__ = "0.1.0"
