"""Spectral-support estimators built on real Paley-Wiener limits.

Each estimator turns a norm sequence into a support statistic. The
sequence comes from `operators._sequence` with one of the multipliers
defined in `operators`; each extrapolation below is one least-squares
fit (`_tail_fit`) over a tail window of the sequence.

* sigma (support radius): the 1/n-th roots of operator-power norms
  converge to sup |lam/b| over the spectral support. The root method
  reports the least-squares extrapolation of root against 1/n over the
  last third of the sequence (the raw n^(1/n) limit converges too slowly
  for desk-scale n); the ratio method extrapolates consecutive norm
  ratios against n^(-1/2), which is tight even when the spectral density
  vanishes at the support edge.
* polynomial domain: same machinery with the multiplier P(lam/b).
* compact spectrum: the Laplacian iterates, whose roots approach sigma^2.
* delta (spectral gap): heat-semigroup norms decay like exp(-n delta);
  -log ||h_n|| / n is extrapolated with its Laplace-type correction
  terms [1, n^(-1/2), log(n)/n, 1/n]. One gap estimate (`_gap`) serves
  both estimate_delta and vanishing_interval_detect, which reports
  r_hat = sqrt(delta_hat) with the same diagnostics.

Every estimator returns one `Estimate`: its headline values (which
`to_report` leads with and which also read as attributes), the norm
sequence, a convergence flag and diagnostics.

Divergence (sigma = infinity) is declared when the root sequence keeps
climbing at the end (terminal slope test) or lands at the resolved band
edge; a truncated grid cannot distinguish "support beyond the edge"
from "unbounded support", and the flag says exactly that.

Noise note: frequency-side data produced by a forward transform carries
a floor from x-truncation. On a bump at X = 320 (`corpus.bump_profile`) the
round-trip error is 1.1e-6 to 1.6e-6 of the peak at k = 0.5, and up to
4.8e-5 at |lam| < 0.3 for k = 2. Root-type estimators are insensitive
to it (it enters the root as a 1/n-th power), but the heat detector
compares exponentially small norms against it, so gap estimates from
physical-side data saturate near log(1/floor)/n_max. Pass the
constructed Spectrum when the gap matters; the zero gap band is then
exact.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ParameterError
from .operators import NormSequence, RealPolynomial, _mult_heat, _mult_i, _mult_laplacian, _mult_poly, _sequence
from .transform import Spectrum

__all__ = [
    "Estimate",
    "support_radius_oracle",
    "estimate_sigma",
    "poly_domain_test",
    "compact_spectrum_test",
    "estimate_delta",
    "vanishing_interval_detect",
]

METHODS = ("root", "ratio")
POLY_SCORE_TOL = 0.02
CONVERGED_REL_CHANGE = 0.01
DIVERGENCE_SLOPE = 0.15
# Laplacian iterates converge with twice the sqrt-n correction, so their
# terminal slope sits higher while still converging
DIVERGENCE_SLOPE_SQUARED = 0.6
EDGE_FRACTION = 0.9
# fewest n_max for which every fit below has as many points as columns
MIN_N_FIT = 4


# tail windows (first index, fewest points, share num/den): a fit keeps
# the indices from max(first, len - max(fewest, num * len // den)) on
_ROOT_WINDOW = (2, 6, (1, 3))
_RATIO_WINDOW = (1, 8, (1, 2))
_LOG_RATIO_WINDOW = (1, 10, (3, 4))
_HEAT_WINDOW = (0, 10, (2, 3))


def _tail_fit(ns, vals, window, basis):
    """Coefficients and rms residual of the least-squares fit vals ~ basis(n) over a tail window of ns."""
    first, fewest, (num, den) = window
    lo = max(first, len(ns) - max(fewest, num * len(ns) // den))
    n = ns[lo:].astype(float)
    v = vals[lo:]
    cols = basis(n)
    if len(v) < len(cols):
        raise ParameterError(f"{len(v)} points cannot fit {len(cols)} columns; n_max must be >= {MIN_N_FIT}")
    A = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(A, v, rcond=None)
    resid = v - A @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def _accel_basis(n):
    """a + b n^(-1/2) + c/n: ratio limits with a square-root correction."""
    return [np.ones_like(n), n**-0.5, 1.0 / n]


def _grid_limit(g: Spectrum) -> float:
    return float(np.max(np.abs(g.rule.nodes)) / abs(g.M.b))


@dataclass(frozen=True, eq=False)
class Estimate:
    """One estimator's answer: headline values, the norm sequence behind them, diagnostics.

    The headline values also read as attributes (``est.sigma_hat``). They are
    sigma_hat, method, p (estimate_sigma); inside, score (poly_domain_test);
    compact, sigma2_hat (compact_spectrum_test); delta_hat (estimate_delta);
    r_hat (vanishing_interval_detect).
    """

    values: dict
    n_used: int
    sequence: NormSequence
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def __getattr__(self, name):
        values = self.__dict__.get("values", {})
        if name in values:
            return values[name]
        raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")

    def to_report(self) -> dict:
        return {**self.values, "n_used": self.n_used, "converged": self.converged, "diagnostics": self.diagnostics}


def support_radius_oracle(g: Spectrum, threshold: float) -> float:
    """Largest |lam/b| whose magnitude exceeds threshold times the peak."""
    if not 0.0 < threshold < 1.0:
        raise ParameterError("threshold must lie in (0, 1)")
    mags = np.abs(g.values)
    peak = float(np.max(mags)) if mags.size else 0.0
    if peak == 0.0:
        return 0.0
    hot = np.abs(g.rule.nodes)[mags > threshold * peak]
    return float(np.max(hot) / abs(g.M.b)) if hot.size else 0.0


def _zero_input(n_max, seq, **values) -> Estimate:
    return Estimate(values, n_max, seq, True, {"zero_input": True})


def estimate_sigma(f, k, M, p: float = 2.0, n_max: int = 30, method: str = "ratio",
                   lam_rule=None, x_rule=None) -> Estimate:
    """Support radius via the Paley-Wiener limit of operator-power norms."""
    if method not in METHODS:
        raise ParameterError(f"unknown method {method!r}")
    g, seq = _sequence(f, k, M, p, n_max, lam_rule, x_rule, _mult_i)
    if seq.is_zero():
        return _zero_input(n_max, seq, sigma_hat=0.0, method=method, p=p)
    ns = seq.n[1:]
    roots = seq.root[1:]
    glim = _grid_limit(g)
    slope = float(_tail_fit(ns, roots, _ROOT_WINDOW, lambda n: [np.ones_like(n), n])[0][1])
    last_root = float(roots[-1])
    if method == "root":
        coef, rms = _tail_fit(ns, roots, _ROOT_WINDOW, lambda n: [np.ones_like(n), 1.0 / n])
        est = float(coef[0])
        converged = abs(est - last_root) < CONVERGED_REL_CHANGE * max(abs(est), 1e-300)
        diag = {"last_root": last_root, "terminal_slope": slope, "fit_rms": rms, "grid_limit": glim}
    else:
        ratios = seq.ratio[1:]
        coef, rms = _tail_fit(ns, ratios, _RATIO_WINDOW, _accel_basis)
        est = float(coef[0])
        last = float(ratios[-1])
        converged = abs(est - last) < CONVERGED_REL_CHANGE * max(abs(est), 1e-300) or rms < 1e-3 * abs(est)
        diag = {"last_ratio": last, "fit_rms": rms, "grid_limit": glim}
    if n_max * slope / max(last_root, 1e-300) > DIVERGENCE_SLOPE or est >= EDGE_FRACTION * glim:
        est, converged = math.inf, False
    return Estimate({"sigma_hat": est, "method": method, "p": p}, n_max, seq, converged, diag)


def _ratio_limit(seq):
    """exp of the extrapolated log-ratio limit, its fit rms, the final root, and whether the two agree.

    In log space: squared multipliers have corrections too large for the linearized fit.
    """
    with np.errstate(invalid="ignore"):
        logratios = np.diff(seq.lognorm)
    coef, rms = _tail_fit(seq.n[1:], logratios, _LOG_RATIO_WINDOW, _accel_basis)
    lim = float(math.exp(coef[0]))
    last = float(seq.root[-1])
    return lim, rms, last, abs(lim - last) < 0.15 * max(abs(lim), 1e-300) or rms < 1e-3


def poly_domain_test(f, k, M, P: RealPolynomial, p: float = 2.0, n_max: int = 40,
                     lam_rule=None, x_rule=None) -> Estimate:
    """Is the spectrum inside {lam : |P(lam/b)| <= 1}? Score -> sup |P(lam/b)|."""
    P.require_nonconstant()
    _, seq = _sequence(f, k, M, p, n_max, lam_rule, x_rule, _mult_poly(P))
    if seq.is_zero():
        return _zero_input(n_max, seq, inside=True, score=0.0)
    score, rms, last, converged = _ratio_limit(seq)
    return Estimate({"inside": bool(score <= 1.0 + POLY_SCORE_TOL), "score": score}, n_max, seq, converged,
                    {"final_root": last, "fit_rms": rms})


def compact_spectrum_test(f, k, M, p: float = 2.0, n_max: int = 40,
                          lam_rule=None, x_rule=None) -> Estimate:
    """Laplacian-iterate roots: finite limit means compact spectrum (= sigma^2)."""
    g, seq = _sequence(f, k, M, p, n_max, lam_rule, x_rule, _mult_laplacian)
    if seq.is_zero():
        return _zero_input(n_max, seq, compact=True, sigma2_hat=0.0)
    slope = float(_tail_fit(seq.n[1:], seq.root[1:], _ROOT_WINDOW, lambda n: [np.ones_like(n), n])[0][1])
    sigma2, rms, last, converged = _ratio_limit(seq)
    glim2 = _grid_limit(g) ** 2
    diag = {"final_root": last, "terminal_slope": slope, "fit_rms": rms, "grid_limit_sq": glim2}
    compact = not (n_max * slope / max(last, 1e-300) > DIVERGENCE_SLOPE_SQUARED or sigma2 >= (EDGE_FRACTION**2) * glim2)
    if not compact:
        sigma2, converged = math.inf, False
    return Estimate({"compact": compact, "sigma2_hat": sigma2}, n_max, seq, converged, diag)


def _gap(f, k, M, p, n_max, lam_rule, x_rule) -> Estimate:
    """Heat-decay gap: L = lim -log||h_n|| / n, delta_hat = max(0, L); converged is judged on L.

    The fit carries the Laplace-type corrections [1, n^(-1/2), log(n)/n, 1/n].
    """
    _, seq = _sequence(f, k, M, p, n_max, lam_rule, x_rule, _mult_heat)
    if seq.is_zero():
        return _zero_input(n_max, seq, delta_hat=math.inf)
    ns = seq.n[1:]
    d = -seq.lognorm[1:] / ns
    coef, rms = _tail_fit(ns, d, _HEAT_WINDOW, lambda n: [np.ones_like(n), n**-0.5, np.log(n) / n, 1.0 / n])
    lim, last = float(coef[0]), float(d[-1])
    scale = max(lim, 1.0)  # a negative limit (no gap) gets no wider tolerance
    converged = abs(lim - last) < CONVERGED_REL_CHANGE * scale or rms < 2e-3 * scale
    return Estimate({"delta_hat": max(0.0, lim)}, n_max, seq, converged,
                    {"limit_value": lim, "last_value": last, "fit_rms": rms})


def estimate_delta(f, k, M, p: float = 2.0, n_max: int = 40,
                   lam_rule=None, x_rule=None) -> Estimate:
    """Spectral gap inf |lam/b|^2 via heat-semigroup norm decay."""
    return _gap(f, k, M, p, n_max, lam_rule, x_rule)


def vanishing_interval_detect(g, k, M, p: float = 2.0, n_max: int = 40,
                              lam_rule=None, x_rule=None) -> Estimate:
    """Radius of the detected gap: the estimate_delta Estimate with r_hat = sqrt(delta_hat) as its value.

    The input is treated as data; apply it to the transform of f when
    asking whether f itself vanishes near the origin (transform-side
    statement, exposed both ways).
    """
    est = _gap(g, k, M, p, n_max, lam_rule, x_rule)
    return replace(est, values={"r_hat": math.sqrt(est.delta_hat)})
