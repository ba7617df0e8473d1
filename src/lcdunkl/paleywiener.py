"""Spectral-support estimators built on real Paley-Wiener limits.

Each estimator turns a norm sequence into a support statistic:

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
  terms [1, n^(-1/2), log(n)/n, 1/n].

Divergence (sigma = infinity) is declared when the root sequence keeps
climbing at the end (terminal slope test) or lands at the resolved band
edge; a truncated grid cannot distinguish "support beyond the edge"
from "unbounded support", and the flag says exactly that.

Noise note: frequency-side data produced by a forward transform carries
a stopband floor (grid truncation, ~1e-7 relative at the default
profiles). Root-type estimators are insensitive to it (it enters the
root as a 1/n-th power), but the heat detector compares exponentially
small norms against it, so gap estimates from physical-side data
saturate near log(1/floor)/n_max. Pass the constructed Spectrum when
the gap matters; the zero gap band is then exact.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ParameterError
from .operators import NormSequence, RealPolynomial, _log_abs, _multiplier_lognorms, spectrum_of
from .quadrature import SampledFunction
from .specfun import kval, matval
from .transform import Spectrum

__all__ = [
    "SupportEstimate",
    "GapEstimate",
    "PolyDomainResult",
    "CompactSpectrumResult",
    "VanishingResult",
    "support_radius_oracle",
    "estimate_sigma",
    "poly_domain_test",
    "compact_spectrum_test",
    "estimate_delta",
    "vanishing_interval_detect",
]

POLY_SCORE_TOL = 0.02
CONVERGED_REL_CHANGE = 0.01
DIVERGENCE_SLOPE = 0.15
# Laplacian iterates converge with twice the sqrt-n correction, so their
# terminal slope sits higher while still converging
DIVERGENCE_SLOPE_SQUARED = 0.6
EDGE_FRACTION = 0.9


def _ls_fit(ns, vals, cols):
    A = np.stack(cols, axis=1)
    coef, *_ = np.linalg.lstsq(A, vals, rcond=None)
    resid = vals - A @ coef
    return coef, float(np.sqrt(np.mean(resid**2)))


def _root_extrapolate(ns, roots):
    """Intercept of root ~ a + s/n over the last third, plus terminal slope."""
    lo = max(2, len(ns) - max(6, len(ns) // 3))
    n = ns[lo:].astype(float)
    v = roots[lo:]
    coef, rms = _ls_fit(n, v, [np.ones_like(n), 1.0 / n])
    lin, _ = _ls_fit(n, v, [np.ones_like(n), n])
    return float(coef[0]), float(lin[1]), rms


def _accel_extrapolate(ns, vals):
    """Intercept of vals ~ a + b n^(-1/2) + c/n over the last half."""
    lo = max(1, len(ns) - max(8, len(ns) // 2))
    n = ns[lo:].astype(float)
    v = vals[lo:]
    coef, rms = _ls_fit(n, v, [np.ones_like(n), n**-0.5, 1.0 / n])
    return float(coef[0]), rms


def _accel_extrapolate_log(ns, logvals):
    """exp of the intercept of logvals ~ a + b n^(-1/2) + c/n.

    Used for squared-multiplier sequences whose corrections are too large
    for the linearized fit; the exponential model is exact in log space.
    """
    lo = max(1, len(ns) - max(10, 3 * len(ns) // 4))
    n = ns[lo:].astype(float)
    v = logvals[lo:]
    coef, rms = _ls_fit(n, v, [np.ones_like(n), n**-0.5, 1.0 / n])
    return float(math.exp(coef[0])), rms


def _heat_extrapolate(ns, vals):
    """Laplace-corrected intercept: [1, n^(-1/2), log n / n, 1/n]."""
    lo = max(0, len(ns) - max(10, 2 * len(ns) // 3))
    n = ns[lo:].astype(float)
    v = vals[lo:]
    coef, rms = _ls_fit(n, v, [np.ones_like(n), n**-0.5, np.log(n) / n, 1.0 / n])
    return float(coef[0]), rms


def _grid_limit(g: Spectrum) -> float:
    return float(np.max(np.abs(g.rule.nodes)) / abs(g.M.b))


@dataclass(frozen=True)
class SupportEstimate:
    sigma_hat: float
    method: str
    p: float
    n_used: int
    sequence: NormSequence
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "sigma_hat": self.sigma_hat,
            "method": self.method,
            "p": self.p,
            "n_used": self.n_used,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class GapEstimate:
    delta_hat: float
    n_used: int
    sequence: NormSequence
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "delta_hat": self.delta_hat,
            "n_used": self.n_used,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class PolyDomainResult:
    inside: bool
    score: float
    n_used: int
    sequence: NormSequence
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "inside": self.inside,
            "score": self.score,
            "n_used": self.n_used,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class CompactSpectrumResult:
    compact: bool
    sigma2_hat: float
    n_used: int
    sequence: NormSequence
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "compact": self.compact,
            "sigma2_hat": self.sigma2_hat,
            "n_used": self.n_used,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


@dataclass(frozen=True)
class VanishingResult:
    r_hat: float
    n_used: int
    sequence: NormSequence
    converged: bool
    diagnostics: dict = field(default_factory=dict)

    def to_report(self) -> dict:
        return {
            "r_hat": self.r_hat,
            "n_used": self.n_used,
            "converged": self.converged,
            "diagnostics": self.diagnostics,
        }


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


def _resolve(f, k, M, lam_rule, x_rule):
    kk = kval(k)
    mm = matval(M)
    if isinstance(f, SampledFunction) and x_rule is None:
        x_rule = f.rule
    g = spectrum_of(f, kk, mm, lam_rule, x_rule=x_rule)
    return kk, mm, g, x_rule


def estimate_sigma(f, k, M, p: float = 2.0, n_max: int = 30, method: str = "ratio",
                   lam_rule=None, x_rule=None) -> SupportEstimate:
    """Support radius via the Paley-Wiener limit of operator-power norms."""
    if method not in ("root", "ratio"):
        raise ParameterError(f"unknown method {method!r}")
    kk, mm, g, x_rule = _resolve(f, k, M, lam_rule, x_rule)
    mu = g.rule.nodes / mm.b
    lognorms = _multiplier_lognorms(g, _log_abs(mu), 1j * np.sign(mu), p, n_max, x_rule)
    seq = NormSequence.from_lognorms(p, "spectral", lognorms)
    if seq.is_zero():
        return SupportEstimate(0.0, method, p, n_max, seq, True, {"zero_input": True})
    ns = seq.n[1:]
    roots = seq.root[1:]
    glim = _grid_limit(g)
    if method == "root":
        est, slope, rms = _root_extrapolate(ns, roots)
        last = float(roots[-1])
        diverging = n_max * slope / max(last, 1e-300) > DIVERGENCE_SLOPE or est >= EDGE_FRACTION * glim
        converged = abs(est - last) < CONVERGED_REL_CHANGE * max(abs(est), 1e-300)
        diag = {"last_root": last, "terminal_slope": slope, "fit_rms": rms, "grid_limit": glim}
        if diverging:
            return SupportEstimate(math.inf, method, p, n_max, seq, False, diag)
        return SupportEstimate(est, method, p, n_max, seq, converged, diag)
    ratios = seq.ratio[1:]
    est, rms = _accel_extrapolate(ns, ratios)
    last = float(ratios[-1])
    _, slope, _ = _root_extrapolate(ns, roots)
    diverging = n_max * slope / max(float(roots[-1]), 1e-300) > DIVERGENCE_SLOPE or est >= EDGE_FRACTION * glim
    converged = abs(est - last) < CONVERGED_REL_CHANGE * max(abs(est), 1e-300) or rms < 1e-3 * abs(est)
    diag = {"last_ratio": last, "fit_rms": rms, "grid_limit": glim}
    if diverging:
        return SupportEstimate(math.inf, method, p, n_max, seq, False, diag)
    return SupportEstimate(est, method, p, n_max, seq, converged, diag)


def poly_domain_test(f, k, M, P: RealPolynomial, p: float = 2.0, n_max: int = 40,
                     lam_rule=None, x_rule=None) -> PolyDomainResult:
    """Is the spectrum inside {lam : |P(lam/b)| <= 1}? Score -> sup |P(lam/b)|."""
    P.require_nonconstant()
    kk, mm, g, x_rule = _resolve(f, k, M, lam_rule, x_rule)
    pvals = P(g.rule.nodes / mm.b)
    lognorms = _multiplier_lognorms(g, _log_abs(pvals), np.sign(pvals), p, n_max, x_rule)
    seq = NormSequence.from_lognorms(p, "spectral", lognorms)
    if seq.is_zero():
        return PolyDomainResult(True, 0.0, n_max, seq, True, {"zero_input": True})
    ns = seq.n[1:]
    with np.errstate(invalid="ignore"):
        logratios = np.diff(seq.lognorm)
    score, rms = _accel_extrapolate_log(ns, logratios)
    last = float(seq.root[-1])
    converged = abs(score - last) < 0.15 * max(abs(score), 1e-300) or rms < 1e-3
    return PolyDomainResult(
        bool(score <= 1.0 + POLY_SCORE_TOL),
        score,
        n_max,
        seq,
        converged,
        {"final_root": last, "fit_rms": rms},
    )


def compact_spectrum_test(f, k, M, p: float = 2.0, n_max: int = 40,
                          lam_rule=None, x_rule=None) -> CompactSpectrumResult:
    """Laplacian-iterate roots: finite limit means compact spectrum (= sigma^2)."""
    kk, mm, g, x_rule = _resolve(f, k, M, lam_rule, x_rule)
    mu = g.rule.nodes / mm.b
    lognorms = _multiplier_lognorms(g, 2.0 * _log_abs(mu), -np.ones_like(mu), p, n_max, x_rule)
    seq = NormSequence.from_lognorms(p, "spectral", lognorms)
    if seq.is_zero():
        return CompactSpectrumResult(True, 0.0, n_max, seq, True, {"zero_input": True})
    ns = seq.n[1:]
    roots = seq.root[1:]
    _, slope, _ = _root_extrapolate(ns, roots)
    with np.errstate(invalid="ignore"):
        logratios = np.diff(seq.lognorm)
    sigma2, rms = _accel_extrapolate_log(ns, logratios)
    last = float(roots[-1])
    glim2 = _grid_limit(g) ** 2
    diverging = n_max * slope / max(last, 1e-300) > DIVERGENCE_SLOPE_SQUARED or sigma2 >= (EDGE_FRACTION**2) * glim2
    diag = {"final_root": last, "terminal_slope": slope, "fit_rms": rms, "grid_limit_sq": glim2}
    if diverging:
        return CompactSpectrumResult(False, math.inf, n_max, seq, False, diag)
    converged = abs(sigma2 - last) < 0.15 * max(abs(sigma2), 1e-300) or rms < 1e-3
    return CompactSpectrumResult(True, sigma2, n_max, seq, converged, diag)


def _heat_sequence(f, k, M, p, n_max, lam_rule, x_rule):
    kk, mm, g, x_rule = _resolve(f, k, M, lam_rule, x_rule)
    mu2 = (g.rule.nodes / mm.b) ** 2
    lognorms = _multiplier_lognorms(g, -mu2, np.ones_like(mu2), p, n_max, x_rule)
    return NormSequence.from_lognorms(p, "spectral", lognorms)


def estimate_delta(f, k, M, p: float = 2.0, n_max: int = 40,
                   lam_rule=None, x_rule=None) -> GapEstimate:
    """Spectral gap inf |lam/b|^2 via heat-semigroup norm decay."""
    seq = _heat_sequence(f, k, M, p, n_max, lam_rule, x_rule)
    if seq.is_zero():
        return GapEstimate(math.inf, n_max, seq, True, {"zero_input": True})
    ns = seq.n[1:]
    d = -seq.lognorm[1:] / ns
    est, rms = _heat_extrapolate(ns, d)
    est = max(0.0, est)
    last = float(d[-1])
    converged = abs(est - last) < CONVERGED_REL_CHANGE * max(abs(est), 1.0) or rms < 2e-3 * max(abs(est), 1.0)
    return GapEstimate(est, n_max, seq, converged, {"last_value": last, "fit_rms": rms})


def vanishing_interval_detect(g, k, M, p: float = 2.0, n_max: int = 40,
                              lam_rule=None, x_rule=None) -> VanishingResult:
    """Radius of the detected gap: r_hat = sqrt(lim -log||h_n|| / n).

    The input is treated as data; apply it to the transform of f when
    asking whether f itself vanishes near the origin (transform-side
    statement, exposed both ways).
    """
    seq = _heat_sequence(g, k, M, p, n_max, lam_rule, x_rule)
    if seq.is_zero():
        return VanishingResult(math.inf, n_max, seq, True, {"zero_input": True})
    ns = seq.n[1:]
    d = -seq.lognorm[1:] / ns
    est, rms = _heat_extrapolate(ns, d)
    r_hat = math.sqrt(max(0.0, est))
    last = float(d[-1])
    converged = abs(est - last) < CONVERGED_REL_CHANGE * max(abs(est), 1.0) or rms < 2e-3 * max(abs(est), 1.0)
    return VanishingResult(r_hat, n_max, seq, converged, {"limit_value": est, "fit_rms": rms})
