"""Operator powers, polynomial multipliers, the heat semigroup, and norm sequences.

Everything here has a spectral route (multiplier on the transform side,
computed in log space so sigma^n growth never overflows) and, where the
input is symbolic, an exact physical route through the operator calculus.
Operator powers are powers of the inverse-matrix operator: the transform
turns that operator into multiplication by (i lam / b). The multipliers
m(mu), mu = lam / b, of the operator, of P(i Lambda), of the Laplacian,
of the heat flow and of the W^s weight are defined here once, as
mu -> (log|m|, m/|m|). `_resolved` is the one input resolver: it turns
any input into (k, M, x rule, spectrum). `_power` applies m^n to its
spectrum, and `_sequence` is the one setup of every spectral entry point
(`norm_sequence`, both Sobolev norms, every estimator): it checks p and
n_max before anything is transformed, then takes the log-norms of
inverse(m^n g), n <= n_max. At p = 2 those stay spectral (Parseval), the
one L^2 spectral sum; at p != 2 `transform._lcdt_lp_norms` reads them
off one folded contraction of the n_max + 1 multiplied spectra.
"""

import math
import sys
import warnings as _warnings
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyWarning, ComputationError, ParameterError
from .quadrature import SampledFunction, _csv_text, lp_norm
from .specfun import _integer, kval, matval
from .symfun import SymExpr, apply_lcd, evaluate
from .transform import Spectrum, _lcdt_apply, _lcdt_lp_norms, lcdt_forward

__all__ = [
    "RealPolynomial",
    "NormSequence",
    "apply_power_spectral",
    "apply_poly_op",
    "heat_semigroup",
    "norm_sequence",
]

MAX_N_SPECTRAL = 60
MAX_N_SYMBOLIC = 20
SERIES_TAIL_TOL = 1e-12
# beyond this, float64 cancellation noise in the alternating heat series
# exceeds the 1e-6 agreement target: partial sums reach exp(q)
SERIES_Q_MAX = 21.0
EDGE_WARN_FRACTION = 1e-8
LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class RealPolynomial:
    """Real polynomial by ascending coefficients."""

    coefficients: tuple

    def __post_init__(self):
        coeffs = tuple(float(c) for c in self.coefficients)
        while len(coeffs) > 1 and coeffs[-1] == 0.0:
            coeffs = coeffs[:-1]
        if not coeffs or not all(map(math.isfinite, coeffs)):
            raise ParameterError("polynomial needs at least one coefficient, all finite")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def degree(self) -> int:
        return len(self.coefficients) - 1

    def require_nonconstant(self) -> "RealPolynomial":
        if self.degree < 1:
            raise ParameterError("polynomial domain requires a non-constant polynomial")
        return self

    def __call__(self, t):
        return np.polynomial.polynomial.polyval(t, self.coefficients)


@dataclass(frozen=True, eq=False)
class NormSequence:
    """(n, log norm, norm^(1/n), norm_n / norm_(n-1)) diagnostics."""

    p: float
    path: str
    n: np.ndarray
    lognorm: np.ndarray
    root: np.ndarray
    ratio: np.ndarray

    @classmethod
    def from_lognorms(cls, p, path, lognorms) -> "NormSequence":
        lognorms = np.asarray(lognorms, dtype=np.float64)
        n = np.arange(lognorms.shape[0])
        with np.errstate(invalid="ignore", over="ignore"):
            root = np.exp(lognorms / np.maximum(n, 1))
            d = np.diff(lognorms, prepend=np.nan)
            ratio = np.exp(d)
        both_zero = np.isneginf(lognorms) & np.isneginf(np.roll(lognorms, 1))
        ratio[both_zero] = 0.0
        root[np.isneginf(lognorms)] = 0.0
        root[0] = np.nan
        return cls(p=p, path=path, n=n, lognorm=lognorms, root=root, ratio=ratio)

    def is_zero(self) -> bool:
        return bool(np.all(np.isneginf(self.lognorm)))

    def to_csv_text(self) -> str:
        return _csv_text("n,lognorm,root,ratio", self.n, self.lognorm, self.root, self.ratio)

    def consistency_residual(self) -> float:
        """Max mismatch between stored root/ratio and the log-norm column."""
        res = 0.0
        for i in range(1, self.n.shape[0]):
            if np.isfinite(self.lognorm[i]):
                res = max(res, abs(math.log(self.root[i]) - self.lognorm[i] / self.n[i]))
                if np.isfinite(self.lognorm[i - 1]) and self.ratio[i] > 0:
                    res = max(res, abs(math.log(self.ratio[i]) - (self.lognorm[i] - self.lognorm[i - 1])))
        return res


def _resolved(f, k, M, lam_rule, x_rule, need_x=True):
    """k, M, the x rule (x_rule, else the rule f is sampled on; None only if not need_x) and the spectrum of f."""
    kk, mm = kval(k), matval(M)
    xr = f.rule if x_rule is None and isinstance(f, SampledFunction) else x_rule
    if xr is None and (need_x or isinstance(f, SymExpr)):
        raise ParameterError("x_rule is required when the input carries no physical grid")
    if isinstance(f, Spectrum):
        if f.k != kk or f.M != mm:
            raise ParameterError(f"spectrum is for k = {f.k!r}, M = {f.M}; got k = {kk!r}, M = {mm}")
        return kk, mm, xr, f
    if lam_rule is None:
        raise ParameterError("a frequency rule is required for physical-side input")
    return kk, mm, xr, lcdt_forward(f, kk, mm, lam_rule, x_rule=xr)


def _log_abs(values):
    with np.errstate(divide="ignore"):
        return np.log(np.abs(values))


def _mult_i(mu):  # the inverse-matrix operator
    return _log_abs(mu), 1j * np.sign(mu)


def _mult_poly(P):  # P(i Lambda)
    def mult(mu):
        pvals = P(mu)
        return _log_abs(pvals), np.sign(pvals)
    return mult


def _mult_laplacian(mu):  # -mu^2
    return 2.0 * _log_abs(mu), -np.ones_like(mu)


def _mult_heat(mu):  # exp(-mu^2), the heat flow at time 1
    return -(mu**2), np.ones_like(mu)


def _mult_sobolev(s, b):  # (1 + lam^2)^(s/2) at lam = b mu, the W^s weight
    return lambda mu: (0.5 * s * np.log1p((b * mu) ** 2), np.ones_like(mu))


def _log_powers(log_mult, ns):
    """Rows n * log_mult for n in ns; the n = 0 row is 0 even where log_mult = -inf."""
    with np.errstate(invalid="ignore"):
        out = np.multiply.outer(np.asarray(ns, dtype=np.float64), log_mult)
    out[np.asarray(ns) == 0] = 0.0
    return out


def _warn_if_edge_heavy(g: Spectrum, log_mult, ns):
    """Warn when some |mult|^n g, n in ns, n > 0, is not negligible at the grid edge (n = 0 is g itself)."""
    L = _log_powers(log_mult, [n for n in ns if n > 0]) + _log_abs(g.values)
    edge = np.abs(g.rule.nodes) >= 0.98 * g.rule.X
    with np.errstate(invalid="ignore"):
        rel = L[:, edge] - np.max(L, axis=1, keepdims=True)
    if np.any(rel > math.log(EDGE_WARN_FRACTION)):
        _warnings.warn(
            "spectral multiplier is not negligible at the grid edge; "
            "operator power may be under-resolved",
            AccuracyWarning,
        )


def _apply_multiplier(g: Spectrum, log_mult, phase, n, x_rule):
    """Inverse transform of phase^n |mult|^n g on x_rule."""
    _warn_if_edge_heavy(g, log_mult, [n])
    cols, (mx,) = _scaled_powers(g, log_mult, phase, [n])
    if mx == -math.inf:
        return np.zeros(len(x_rule), dtype=np.complex128)
    if mx <= LOG_FLOAT_MAX:
        out = _lcdt_apply(g.k, g.M.inverse(), x_rule, g.rule, cols[:, 0]) * math.exp(mx)
        if np.all(np.isfinite(out)):
            return out
    raise ComputationError("operator power overflowed; use norm_sequence for large n")


def _scaled_powers(g: Spectrum, log_mult, phase, ns):
    """Columns phase^n |mult|^n g / e^(mx_n) for the n in ns with mx_n > -inf, and mx.

    log_mult and phase give log|mult| and mult/|mult| on the nodes of g;
    mx_n is the largest log|mult^n g|, -inf where the product vanishes.
    phase is 1, -1, i or -i (0 where mult is): its powers repeat with period 4.
    """
    ns = np.asarray(ns)
    L = _log_powers(log_mult, ns) + _log_abs(g.values)
    mx = np.max(L, axis=1)
    live = np.isfinite(mx)
    with np.errstate(invalid="ignore"):
        ang = np.exp(1j * np.angle(g.values))
    powers = np.cumprod([np.ones_like(phase), phase, phase, phase], axis=0)  # exact products
    scaled = np.exp(L[live] - mx[live, None]) * powers[ns[live] % 4] * ang
    return np.ascontiguousarray(scaled.T), mx


def _multiplier_lognorms(g: Spectrum, log_mult, phase, p, n_max, x_rule):
    """log ||inverse(mult^n g)||_p for n = 0..n_max; p = 2 stays spectral (Parseval)."""
    ns = np.arange(n_max + 1)
    if p == 2.0:
        L = 2.0 * _log_powers(log_mult, ns) + (2.0 * _log_abs(g.values) + _log_abs(g.rule.weights))
        mx = np.max(L, axis=1)
        with np.errstate(invalid="ignore"):
            sums = np.sum(np.exp(L - mx[:, None]), axis=1)
        return [0.5 * (m + math.log(s)) if np.isfinite(m) else -math.inf for m, s in zip(mx, sums)]
    cols, mx = _scaled_powers(g, log_mult, phase, ns)
    norms = np.zeros(ns.size)
    if cols.shape[1]:
        norms[np.isfinite(mx)] = _lcdt_lp_norms(g.k, g.M.inverse(), x_rule, g.rule, cols, p)
    return [m + math.log(v) if v > 0 else -math.inf for m, v in zip(mx, norms)]


def _power(f, k, M, n, multiplier, lam_rule, x_rule) -> SampledFunction:
    """Inverse transform of m^n times the spectrum of f, with (log|m|, m/|m|) = multiplier(lam/b)."""
    _, mm, xr, g = _resolved(f, k, M, lam_rule, x_rule)
    out = _apply_multiplier(g, *multiplier(g.rule.nodes / mm.b), n, xr)
    return SampledFunction(xr, out, label=getattr(f, "label", ""))


def _sequence(f, k, M, p, n_max, lam_rule, x_rule, multiplier, n_min=1):
    """Spectrum g of f and the norms of inverse(m^n g), n <= n_max, with (log|m|, m/|m|) = multiplier(lam/b).

    p and n_max in [n_min, MAX_N_SPECTRAL] are checked before anything is transformed.
    """
    if not n_min <= _integer(n_max, "n_max") <= MAX_N_SPECTRAL:
        raise ParameterError(f"n_max must be >= {n_min} and <= {MAX_N_SPECTRAL}, got {n_max!r}")
    if not p >= 1:
        raise ParameterError(f"p must satisfy p >= 1 or p = inf, got {p}")
    _, mm, xr, g = _resolved(f, k, M, lam_rule, x_rule, need_x=p != 2.0)
    log_mult, phase = multiplier(g.rule.nodes / mm.b)
    return g, NormSequence.from_lognorms(p, "spectral", _multiplier_lognorms(g, log_mult, phase, p, n_max, xr))


def apply_power_spectral(f, k, M, n: int, lam_rule=None, x_rule=None) -> SampledFunction:
    """n-th power of the inverse-matrix operator via the (i lam/b)^n multiplier."""
    if _integer(n, "operator power") < 0:
        raise ParameterError("operator power must be >= 0")
    return _power(f, k, M, n, _mult_i, lam_rule, x_rule)


def apply_poly_op(f, k, M, P: RealPolynomial, n: int, lam_rule=None, x_rule=None) -> SampledFunction:
    """P(i Lambda)^n realized as the spectral multiplier P(lam/b)^n."""
    P.require_nonconstant()
    if _integer(n, "operator power") < 0:
        raise ParameterError("operator power must be >= 0")
    return _power(f, k, M, n, _mult_poly(P), lam_rule, x_rule)


def heat_series_terms_required(q: float) -> int:
    """Smallest truncation with certified factorial tail below 1e-12."""
    if q <= 0:
        return 1
    log_tail = 0.0
    t = 0
    while t < 100000:
        t += 1
        log_tail += math.log(q) - math.log(t)
        if q / (t + 2) < 1.0:
            slack = -math.log(1.0 - q / (t + 2))
            if log_tail + slack < math.log(SERIES_TAIL_TOL):
                return t
    raise ComputationError("heat series failed to certify a truncation")


def heat_semigroup(f, k, M, n: int, mode: str = "multiplier", lam_rule=None, x_rule=None) -> SampledFunction:
    """Heat flow at integer time n: spectral multiplier exp(-n lam^2/b^2).

    Series mode sums the certified truncation of sum_m n^m Delta^m f / m!
    physically, term by term, as an independent route to the same output.
    """
    if _integer(n, "heat time") < 0:
        raise ParameterError("heat time must be >= 0")
    if mode not in ("multiplier", "series"):
        raise ParameterError(f"unknown heat mode {mode!r}")
    if mode == "multiplier":
        return _power(f, k, M, n, _mult_heat, lam_rule, x_rule)
    kk, mm, xr, g = _resolved(f, k, M, lam_rule, x_rule)
    mu2 = (g.rule.nodes / mm.b) ** 2
    q = float(n) * float(np.max(mu2))
    if q > SERIES_Q_MAX:
        raise ParameterError(
            f"series mode needs n*(lam_max/b)^2 <= {SERIES_Q_MAX} to keep float64 "
            f"cancellation below tolerance; got {q:.2f} (shrink the frequency rule or n)"
        )
    series_terms = heat_series_terms_required(q)
    coeffs = np.cumprod([1.0] + [n / m for m in range(1, series_terms + 1)])
    laplacian_powers = np.power.outer(-mu2, np.arange(series_terms + 1)) * g.values[:, None]
    terms = _lcdt_apply(kk, mm.inverse(), xr, g.rule, laplacian_powers)
    return SampledFunction(xr, terms @ coeffs, label=getattr(f, "label", ""))


def norm_sequence(f, k, M, p: float, n_max: int, path: str = "spectral",
                  lam_rule=None, x_rule=None) -> NormSequence:
    """L^p norms of operator powers of f, accumulated in log space."""
    if path == "spectral":
        g, seq = _sequence(f, k, M, p, n_max, lam_rule, x_rule, _mult_i)
        if p != 2.0:
            _warn_if_edge_heavy(g, _mult_i(g.rule.nodes / g.M.b)[0], range(n_max + 1))
        return seq
    if path == "symbolic":
        if not 0 <= _integer(n_max, "n_max") <= MAX_N_SYMBOLIC:
            raise ParameterError(f"symbolic path supports n_max in [0, {MAX_N_SYMBOLIC}], got {n_max!r}")
        if not isinstance(f, SymExpr) or x_rule is None:
            raise ParameterError("the symbolic path needs a symbolic input and an x_rule")
        kk, minv = kval(k), matval(M).inverse()
        lognorms = []
        e = f
        for n in range(n_max + 1):
            if n:
                e = apply_lcd(kk, minv, e)
            nrm = lp_norm(SampledFunction(x_rule, evaluate(e, x_rule.nodes)), p)
            lognorms.append(math.log(nrm) if nrm > 0 else -math.inf)
        return NormSequence.from_lognorms(p, "symbolic", lognorms)
    raise ParameterError(f"unknown path {path!r}")
