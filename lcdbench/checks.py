"""Independent references and the checks the workloads apply to outputs.

Nothing in this module imports lcdunkl. Every reference is computed here
from its closed form: the smooth bump exp(-1/(1-t^2)) that defines the
compact spectra, the Dunkl-measure Gaussian mass that validates a
quadrature rule, and the Gaussian-family members x^m exp(alpha x^2),
whose L^2 norms follow from the Gamma function and whose derivatives are
a polynomial times the same exponential.

A check is a (name, measured, tolerance) triple; it passes when the
measured value is finite and at most the tolerance.
"""

import math
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc

# Tolerances. The bump-spectrum tolerance sits near the floor of the round
# trip inverse -> forward on the bump grids: 2.2e-7 at k = 0.5, up to
# 1.05e-6 at k in [1.6, 2.1]. The estimator tolerances are the ones the
# program's own verify suite holds the Paley-Wiener limits to.
SPECTRUM_RTOL = 3e-6
SIGMA_RTOL = 0.02
GAP_RTOL = 0.02
POLY_RTOL = 0.02
COMPACT_RTOL = 0.03
P_INDEPENDENCE_RTOL = 0.10
ROOT_SANITY_RTOL = 0.15
CALIBRATION_RTOL = 1e-9
PLANCHEREL_RTOL = 1e-6
CHIRP_RTOL = 1e-9
INTERTWINING_RTOL = 1e-7
DUAL_PATH_TOL = 1e-5
DERIVATIVE_ATOL = 1e-6
NESTING_TOL = 1e-12


class Check(NamedTuple):
    name: str
    measured: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return math.isfinite(self.measured) and self.measured <= self.tolerance


def rel_dev(got, want) -> float:
    """|got - want| / |want|, infinite when got is not a finite number."""
    try:
        got = float(got)
    except (TypeError, ValueError):
        return math.inf
    if not math.isfinite(got):
        return math.inf
    return abs(got - want) / abs(want)


# ---------------------------------------------------------------------------
# references

def bump_values(lam, intervals) -> np.ndarray:
    """Sum over intervals of exp(-1/(1-t^2)), t mapping [lo, hi] onto [-1, 1]."""
    lam = np.asarray(lam, dtype=np.float64)
    out = np.zeros(lam.shape)
    for lo, hi in intervals:
        t = (2.0 * lam - (lo + hi)) / (hi - lo)
        inside = np.abs(t) < 1.0
        out[inside] += np.exp(-1.0 / (1.0 - t[inside] ** 2))
    return out


def support_extremes(intervals, b) -> tuple:
    """(min, max) of |lam / b| over the union of the intervals."""
    ends = [abs(e) / abs(b) for pair in intervals for e in pair]
    straddles = any(lo < 0.0 < hi for lo, hi in intervals)
    return (0.0 if straddles else min(ends)), max(ends)


def poly_sup(coeffs, intervals, b, samples=4001) -> float:
    """sup |P(lam/b)| over the support, by dense sampling plus the endpoints."""
    t = np.concatenate([np.linspace(lo / b, hi / b, samples) for lo, hi in intervals])
    return float(np.max(np.abs(np.polynomial.polynomial.polyval(t, coeffs))))


def dunkl_gauss_mass(k: float, X: float) -> float:
    """integral over [-X, X] of exp(-x^2) |x|^(2k+1) dx / (2^(k+1) Gamma(k+1))."""
    return float(gammainc(k + 1.0, X * X)) / 2.0 ** (k + 1.0)


def gauss_member_l2(k: float, m: int, alpha: complex) -> float:
    """L^2(mu_k) norm of x^m exp(alpha x^2) over the whole line (Re alpha < 0).

    |f|^2 = x^(2m) exp(2 Re(alpha) x^2); with c = -2 Re(alpha) and
    s = m + k + 1 the integral is Gamma(s) / c^s / (2^(k+1) Gamma(k+1)).
    """
    c = -2.0 * complex(alpha).real
    s = m + k + 1.0
    log_sq = math.lgamma(s) - s * math.log(c) - (k + 1.0) * math.log(2.0) - math.lgamma(k + 1.0)
    return math.exp(0.5 * log_sq)


def gauss_member_derivative(m: int, alpha: complex, n: int, x) -> np.ndarray:
    """n-th derivative of x^m exp(alpha x^2), as poly(x) exp(alpha x^2).

    d/dx [q(x) e^{alpha x^2}] = (q'(x) + 2 alpha x q(x)) e^{alpha x^2}.
    """
    q = np.zeros(m + 1, dtype=np.complex128)
    q[m] = 1.0
    for _ in range(n):
        dq = np.polynomial.polynomial.polyder(q) if q.size > 1 else np.zeros(1, dtype=np.complex128)
        xq = np.concatenate([[0.0], 2.0 * alpha * q])
        dq = np.concatenate([dq, np.zeros(xq.size - dq.size)])
        q = dq + xq
    x = np.asarray(x, dtype=np.float64)
    return np.polynomial.polynomial.polyval(x, q) * np.exp(alpha * x * x)


# ---------------------------------------------------------------------------
# checks on program outputs

def check_rule(nodes, weights, k, X) -> Check:
    """A Dunkl-measure rule on [-X, X] must integrate exp(-x^2) to its closed-form mass."""
    nodes = np.asarray(nodes, dtype=np.float64)
    got = float(np.sum(np.asarray(weights) * np.exp(-nodes * nodes)))
    return Check("rule_calibration", rel_dev(got, dunkl_gauss_mass(k, X)), CALIBRATION_RTOL)


def check_bump_spectrum(nodes, weights, values, intervals) -> Check:
    """Dunkl-weighted relative L^2 distance to the constructed bump spectrum."""
    ref = bump_values(nodes, intervals)
    w = np.asarray(weights, dtype=np.float64)
    err = math.sqrt(float(np.sum(w * np.abs(np.asarray(values) - ref) ** 2)))
    norm = math.sqrt(float(np.sum(w * ref * ref)))
    return Check("spectrum_vs_bump", err / norm, SPECTRUM_RTOL)


def check_sigma(sigma_hat, intervals, b) -> Check:
    return Check("sigma_vs_support", rel_dev(sigma_hat, support_extremes(intervals, b)[1]), SIGMA_RTOL)


def check_root_sigma(sigma_hat, intervals, b) -> Check:
    """Root extrapolations at p != 2 converge slowly; a loose sanity band."""
    return Check("root_sigma_vs_support", rel_dev(sigma_hat, support_extremes(intervals, b)[1]), ROOT_SANITY_RTOL)


def check_p_independence(sigma_p1, sigma_pinf) -> Check:
    """The Paley-Wiener limit does not depend on p: both roots agree."""
    try:
        lo, hi = sorted((float(sigma_p1), float(sigma_pinf)))
    except (TypeError, ValueError):
        return Check("p_independence", math.inf, P_INDEPENDENCE_RTOL)
    if not (math.isfinite(hi) and lo > 0.0):
        return Check("p_independence", math.inf, P_INDEPENDENCE_RTOL)
    return Check("p_independence", (hi - lo) / lo, P_INDEPENDENCE_RTOL)


def check_delta(delta_hat, intervals, b) -> Check:
    return Check("delta_vs_gap", rel_dev(delta_hat, support_extremes(intervals, b)[0] ** 2), GAP_RTOL)


def check_vanishing(r_hat, intervals, b) -> Check:
    return Check("r_vs_gap", rel_dev(r_hat, support_extremes(intervals, b)[0]), GAP_RTOL)


def check_poly(score, inside, coeffs, intervals, b) -> list:
    want = poly_sup(coeffs, intervals, b)
    flag_ok = isinstance(inside, bool) and inside == (want <= 1.0)
    return [
        Check("poly_score_vs_sup", rel_dev(score, want), POLY_RTOL),
        Check("poly_inside_flag", 0.0 if flag_ok else 1.0, 0.5),
    ]


def check_compact(compact, sigma2_hat, intervals, b) -> list:
    return [
        Check("compact_flag", 0.0 if compact is True else 1.0, 0.5),
        Check("sigma2_vs_support", rel_dev(sigma2_hat, support_extremes(intervals, b)[1] ** 2), COMPACT_RTOL),
    ]


def check_plancherel(spec_weights, spec_values, k, m, alpha) -> Check:
    got = math.sqrt(float(np.sum(np.asarray(spec_weights) * np.abs(spec_values) ** 2)))
    return Check("plancherel", rel_dev(got, gauss_member_l2(k, m, alpha)), PLANCHEREL_RTOL)


def check_chirp_route(direct, chirped) -> Check:
    direct = np.asarray(direct)
    dev = float(np.max(np.abs(direct - np.asarray(chirped)))) / float(np.max(np.abs(direct)))
    return Check("chirp_cross_check", dev, CHIRP_RTOL)


def check_intertwining(iterate_spectra, base_values, mu) -> Check:
    """F(Lambda^n f) = (i mu)^n F(f) for each n = 1, 2, ..."""
    worst = 0.0
    for n, got in enumerate(iterate_spectra, start=1):
        want = (1j * np.asarray(mu)) ** n * np.asarray(base_values)
        worst = max(worst, float(np.max(np.abs(np.asarray(got) - want)) / np.max(np.abs(want))))
    return Check("intertwining", worst, INTERTWINING_RTOL)


def check_dual_path(spectral_lognorms, symbolic_lognorms) -> Check:
    a = np.asarray(spectral_lognorms, dtype=np.float64)
    b = np.asarray(symbolic_lognorms, dtype=np.float64)
    dev = float(np.max(np.abs(np.exp(a - b) - 1.0))) if a.shape == b.shape else math.inf
    return Check("dual_path_norms", dev, DUAL_PATH_TOL)


def check_derivative(values, m, alpha, n, x) -> Check:
    dev = float(np.max(np.abs(np.asarray(values) - gauss_member_derivative(m, alpha, n, x))))
    return Check(f"spectral_derivative_{n}", dev, DERIVATIVE_ATOL)


def check_nesting(norms) -> Check:
    """W^s norms are nondecreasing in s."""
    norms = [float(v) for v in norms]
    drop = max(0.0, max(norms[i] - norms[i + 1] for i in range(len(norms) - 1)))
    return Check("sobolev_nesting", drop / norms[0], NESTING_TOL)
