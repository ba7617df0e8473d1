"""Built-in verification suites: every documented invariant as a named check.

Each check yields a dict with the measured value, its tolerance, and a
pass flag; `run` collects them per suite. All randomness is seeded and
all loops are ordered, so two runs produce identical reports.
"""

import cmath
import itertools
import math

import numpy as np

from .corpus import (
    SWEEP_K,
    SWEEP_M,
    bump_profile,
    bump_spectrum_values,
    gauss_profile,
    realize_bump,
    standard_corpus,
)
from .operators import heat_semigroup, norm_sequence
from .paleywiener import estimate_delta, estimate_sigma
from .quadrature import SampledFunction, build_rule, inner_product, lp_norm
from .sobolev import derivative_via_spectrum, sobolev_norm
from .specfun import (
    CanonicalMatrix,
    bessel_j_grid,
    bessel_j_norm,
    dunkl_kernel,
    dunkl_kernel_dx,
)
from .symfun import (
    apply_dunkl,
    apply_lcd,
    bessel_factor,
    evaluate,
    gaussian,
    iterate_op,
)
from .transform import Spectrum, _bessel_tables, lcdt_forward

SUITES = ("specfun", "transform", "operators", "sobolev", "pw")


def _check(name, suite, measured, tolerance, passed=None, detail=""):
    if passed is None:
        passed = bool(measured <= tolerance)
    return {
        "name": name,
        "suite": suite,
        "measured": float(measured),
        "tolerance": float(tolerance),
        "passed": bool(passed),
        "detail": detail,
    }


_profile_cache: dict = {}


def _gauss(k):
    key = ("gauss", k)
    if key not in _profile_cache:
        _profile_cache[key] = gauss_profile(k)
    return _profile_cache[key]


def _bump(k, intervals, b):
    key = ("bump", k, intervals, b)
    if key not in _profile_cache:
        _profile_cache[key] = bump_profile(k, intervals, b=b)
    return _profile_cache[key]


# ---------------------------------------------------------------------------
# specfun + quadrature + symfun foundations

def checks_specfun():
    out = []
    rng = np.random.default_rng(2024)

    xs = np.linspace(0.1, 40.0, 80)
    worst = max(
        float(np.max(np.abs(bessel_j_grid(nu, xs) - bessel_j_grid(nu, -xs))))
        for nu in (0.0, 0.7, 2.0, 3.0)
    )
    out.append(_check("bessel_parity", "specfun", worst, 1e-12))

    # the interpolated pair lcdt_forward caches for the Gaussian profiles at
    # |b| = 1, j_k(t) and t j_{k+1}(t) / (2(k+1)), fitted from the numpy J_nu,
    # against the pointwise evaluator (scipy's J_nu past the series)
    worst = 0.0
    for k in (0.0, 0.5, 2.0):
        prof = _gauss(k)
        fa, xa = prof.lam_rule.fold[0], prof.x_rule.fold[0]
        t = np.multiply.outer(fa, xa)
        wants = bessel_j_grid(k, t), t * bessel_j_grid(k + 1.0, t) * (0.5 / (k + 1.0))
        for vals, want in zip(_bessel_tables(k, fa, xa, 1.0), wants):
            worst = max(worst, float(np.max(np.abs(vals - want) / np.maximum(1.0, np.abs(want)))))
    out.append(_check("bessel_table_interpolation", "specfun", worst, 1e-12))

    lam = rng.uniform(-8, 8, 300)
    x = rng.uniform(-8, 8, 300)
    worst = 0.0
    for k in SWEEP_K:
        vals = np.array([dunkl_kernel(k, lo, xo) for lo, xo in zip(lam, x)])
        worst = max(worst, float(np.max(np.abs(vals))) - 1.0)
    out.append(_check("kernel_modulus_bound", "specfun", worst, 1e-12))

    worst = 0.0
    for k in (0.0, 0.5, 2.0):
        for lo, xo in zip(lam[:60], x[:60]):
            worst = max(worst, abs(dunkl_kernel(k, lo, -xo) - dunkl_kernel(k, lo, xo).conjugate()))
    out.append(_check("kernel_reflection_conjugation", "specfun", worst, 1e-12))

    h = 1e-6
    worst = 0.0
    for k in (0.0, 0.5, 2.0):
        for c in (0.8, 2.0):
            for xv in (0.3, 1.1, 4.0):
                fd = (bessel_j_norm(k, c * (xv + h)) - bessel_j_norm(k, c * (xv - h))) / (2 * h)
                exact = -(c**2) * xv * bessel_j_norm(k + 1.0, c * xv) / (2 * (k + 1.0))
                worst = max(worst, abs(fd - exact) / max(1.0, abs(exact)))
    out.append(_check("bessel_derivative_recurrence", "specfun", worst, 1e-6))

    worst = 0.0
    for lo, xo in zip(lam[:80], x[:80]):
        worst = max(worst, abs(dunkl_kernel(-0.5, lo, xo) - cmath.exp(1j * lo * xo)))
    out.append(_check("kernel_fourier_reduction", "specfun", worst, 1e-12))

    # quadrature exactness against the Gamma-moment closed form
    worst = 0.0
    for k in SWEEP_K:
        rule = build_rule(k, 9.0, 36, 16)
        for m in range(7):
            want = math.gamma(m + k + 1.0) / (2.0 ** (k + 1.0) * math.gamma(k + 1.0))
            got = float(np.sum(rule.weights * rule.nodes ** (2 * m) * np.exp(-rule.nodes**2)))
            worst = max(worst, abs(got - want) / want)
    out.append(_check("quadrature_moment_exactness", "specfun", worst, 1e-10))

    rule = build_rule(0.5, 8.0, 32, 14)
    odd = SampledFunction(rule, rule.nodes * np.exp(-rule.nodes**2))
    out.append(
        _check(
            "quadrature_odd_symmetry",
            "specfun",
            abs(complex(np.sum(rule.weights * odd.values))),
            1e-12 * lp_norm(odd, 1.0),
        )
    )

    vals = [
        float(np.sum(build_rule(0.5, X, 16, 12).weights * np.exp(-np.abs(build_rule(0.5, X, 16, 12).nodes))))
        for X in (2.0, 4.0, 8.0)
    ]
    out.append(
        _check(
            "quadrature_monotone_in_X",
            "specfun",
            max(0.0, max(vals[i] - vals[i + 1] for i in range(2))),
            1e-15,
            detail="integral of a nonnegative function never decreases with X",
        )
    )

    # symbolic derivatives against Richardson finite differences
    exprs = [
        gaussian(-0.5),
        gaussian(-1.0 + 0.25j, m=3),
        gaussian(-0.3, beta=0.7j),
        bessel_factor(0.7, 1.3, m=2, alpha=-0.4),
    ]
    worst = 0.0
    hh = 1e-4
    for e in exprs:
        d = e.diff()
        for xv in (-2.1, -0.4, 0.2, 1.7):
            f1 = (evaluate(e, xv + hh / 2) - evaluate(e, xv - hh / 2)) / hh
            f2 = (evaluate(e, xv + hh) - evaluate(e, xv - hh)) / (2 * hh)
            ref = (4.0 * f1 - f2) / 3.0
            worst = max(worst, abs(evaluate(d, xv) - ref) / (1.0 + abs(ref)))
    out.append(_check("symbolic_derivative_vs_fd", "specfun", worst, 1e-8))

    rule = build_rule(0.5, 10.0, 40, 16)
    f = gaussian(-0.7, m=1, coeff=1.0 + 0.3j)
    g = gaussian(-0.4, m=2)
    worst = 0.0
    for MM in SWEEP_M[1:]:
        lf = SampledFunction(rule, evaluate(apply_lcd(0.5, MM, f), rule.nodes))
        lg = SampledFunction(rule, evaluate(apply_lcd(0.5, MM, g), rule.nodes))
        sf = SampledFunction(rule, evaluate(f, rule.nodes))
        sg = SampledFunction(rule, evaluate(g, rule.nodes))
        resid = abs(inner_product(lf, sg) + inner_product(sf, lg))
        worst = max(worst, resid / (lp_norm(sf, 2.0) * lp_norm(sg, 2.0)))
    out.append(_check("operator_antisymmetry", "specfun", worst, 1e-8))

    worst = 0.0
    for e in (gaussian(-0.5, beta=0.3), gaussian(-1.0, m=1), bessel_factor(0.5, 1.2, m=2)):
        o = apply_dunkl(0.7, e)
        v0 = evaluate(o, 0.0)
        for xv in (1e-6, -1e-6):
            worst = max(worst, abs(evaluate(o, xv) - v0) / (1.0 + abs(v0)))
    out.append(_check("removable_singularity", "specfun", worst, 1e-5))
    return out


# ---------------------------------------------------------------------------
# transform suite

def _corpus_samples(k, M):
    """(label, SampledFunction, x_rule, lam_rule) for the six members."""
    sym, bumps = standard_corpus()
    prof = _gauss(k)
    items = []
    for m in sym:
        vals = evaluate(m.expr, prof.x_rule.nodes)
        items.append((m.name, SampledFunction(prof.x_rule, vals, label=m.name), prof))
    for bm in bumps:
        bprof = _bump(k, bm.intervals, M.b)
        f, _ = realize_bump(k, M, bm.intervals, bprof, label=bm.name)
        items.append((bm.name, f, bprof))
    return items


def checks_transform():
    out = []
    worst_pl, worst_pa, worst_hy, worst_rl = 0.0, 0.0, -math.inf, 0.0
    for k in SWEEP_K:
        for M in SWEEP_M:
            items = _corpus_samples(k, M)
            specs = []
            for name, f, prof in items:
                g = lcdt_forward(f, k, M, prof.lam_rule)
                specs.append((name, f, g, prof))
                nf = lp_norm(f, 2.0)
                worst_pl = max(worst_pl, abs(lp_norm(g.as_sampled(), 2.0) - nf) / nf)
                # Hausdorff-Young for p in {1, 4/3, 2}
                for p in (1.0, 4.0 / 3.0, 2.0):
                    q = math.inf if p == 1.0 else p / (p - 1.0)
                    expo = 1.0 if q == math.inf else (1.0 - 2.0 / q)
                    bound = abs(M.b) ** (-(k + 1.0) * expo)
                    slack = bound * lp_norm(f, p) - lp_norm(g.as_sampled(), q)
                    worst_hy = max(worst_hy, -slack)
                if not name.startswith("bump"):
                    # decay applies to the smooth members; realized bumps
                    # carry a truncation floor by construction
                    edge = np.abs(g.values[np.abs(g.rule.nodes) > 0.92 * g.rule.X])
                    worst_rl = max(worst_rl, float(np.max(edge)) / lp_norm(f, 1.0))
            # Parseval on the two Gaussian-profile members sharing a rule
            (_, f1, g1, _), (_, f2, g2, _) = specs[0], specs[2]
            lhs = inner_product(f1, f2)
            rhs = inner_product(g1.as_sampled(), g2.as_sampled())
            worst_pa = max(worst_pa, abs(lhs - rhs) / abs(lhs))
    out.append(_check("plancherel", "transform", worst_pl, 1e-6))
    out.append(_check("parseval", "transform", worst_pa, 1e-6))
    out.append(_check("hausdorff_young_slack", "transform", worst_hy, 1e-9, detail="max violation of the L^p -> L^q bound"))
    out.append(_check("riemann_lebesgue_decay", "transform", worst_rl, 1e-8))

    # intertwining with symbolic iterates, n <= 6; beta != 0 runs through SymExpr.reflected
    worst = 0.0
    for k in SWEEP_K:
        prof = _gauss(k)
        for M, f in itertools.product(SWEEP_M, (gaussian(-1.0, m=2), gaussian(-1.0, m=2, beta=0.3))):
            base = lcdt_forward(f, k, M, prof.lam_rule, x_rule=prof.x_rule)
            mu = prof.lam_rule.nodes / M.b
            for n in (1, 3, 6):
                it = iterate_op(k, M.inverse(), f, n)
                got = lcdt_forward(it, k, M, prof.lam_rule, x_rule=prof.x_rule)
                want = (1j * mu) ** n * base.values
                worst = max(worst, float(np.max(np.abs(got.values - want)) / np.max(np.abs(want))))
    out.append(_check("intertwining", "transform", worst, 1e-7))
    return out


# ---------------------------------------------------------------------------
# operators suite

def checks_operators():
    out = []
    worst = 0.0
    for k in (0.0, 0.5):
        prof = _gauss(k)
        for M, p in itertools.product(SWEEP_M[1:], (1.0, 2.0, 3.0, math.inf)):
            spec = norm_sequence(gaussian(-1.0, m=2), k, M, p, 12, path="spectral",
                                 lam_rule=prof.lam_rule, x_rule=prof.x_rule)
            sym = norm_sequence(gaussian(-1.0, m=2), k, M, p, 12, path="symbolic", x_rule=prof.x_rule)
            for n in range(13):
                worst = max(worst, abs(math.exp(spec.lognorm[n] - sym.lognorm[n]) - 1.0))
    out.append(_check("dual_path_operator_norms", "operators", worst, 1e-5))

    prof = _gauss(0.5)
    seq = norm_sequence(gaussian(-0.5), 0.5, SWEEP_M[1], 2.0, 10, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    out.append(_check("log_space_consistency", "operators", seq.consistency_residual(), 1e-12))

    lam_small = build_rule(0.5, 2.6, 26, 12)
    f = gaussian(-0.5)
    one = heat_semigroup(f, 0.5, SWEEP_M[2], 1, lam_rule=lam_small, x_rule=prof.x_rule)
    two = heat_semigroup(one, 0.5, SWEEP_M[2], 2, lam_rule=lam_small)
    direct = heat_semigroup(f, 0.5, SWEEP_M[2], 3, lam_rule=lam_small, x_rule=prof.x_rule)
    out.append(_check("heat_semigroup_law", "operators", float(np.max(np.abs(two.values - direct.values))), 1e-6))

    norms = [
        lp_norm(heat_semigroup(f, 0.5, SWEEP_M[1], n, lam_rule=lam_small, x_rule=prof.x_rule), 2.0)
        for n in range(4)
    ]
    growth = max(0.0, max(norms[i + 1] - norms[i] for i in range(3)))
    out.append(_check("heat_monotone_decay", "operators", growth, 1e-12))
    return out


# ---------------------------------------------------------------------------
# sobolev suite

def checks_sobolev():
    out = []
    k = 0.0
    prof = _gauss(k)
    sym, _ = standard_corpus()
    M = SWEEP_M[2]

    f = gaussian(-0.5)
    sf = SampledFunction(prof.x_rule, evaluate(f, prof.x_rule.nodes))
    got = sobolev_norm(f, k, M, 0.0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    out.append(_check("w0_equals_l2", "sobolev", abs(got - lp_norm(sf, 2.0)) / lp_norm(sf, 2.0), 1e-8))

    worst = 0.0
    for m in sym:
        vals = [sobolev_norm(m.expr, k, M, s, lam_rule=prof.lam_rule, x_rule=prof.x_rule) for s in (0.0, 1.0, 2.0)]
        worst = max(worst, max(0.0, vals[0] - vals[1], vals[1] - vals[2]))
    out.append(_check("sobolev_nesting", "sobolev", worst, 1e-12))

    xs = np.linspace(-4.0, 4.0, 81)
    worst = 0.0
    for m in sym:
        for n in (1, 2):
            d = derivative_via_spectrum(m.expr, k, M, n, xs, prof.lam_rule, x_rule=prof.x_rule)
            e = m.expr
            for _ in range(n):
                e = e.diff()
            worst = max(worst, float(np.max(np.abs(d - evaluate(e, xs)))))
    out.append(_check("derivative_dual_path", "sobolev", worst, 1e-6))

    rng = np.random.default_rng(7)
    lam = rng.uniform(-20.0, 20.0, 10_000)
    x = rng.uniform(-20.0, 20.0, 10_000)
    worst = -math.inf
    for n in range(4):
        vals = dunkl_kernel_dx(0.5, n, lam, x)
        worst = max(worst, float(np.max(np.abs(vals) - np.abs(lam) ** n)))
    out.append(_check("kernel_derivative_bound", "sobolev", worst, 1e-10))

    # embedding stability: sup|f^(n)| <= C ||f||_{W^s}, C measured per corpus on
    # xs and on a refined grid; the refinement moves C by < 5%
    s = k + 2.0 + 1.0 + 0.5
    grids = (xs, np.linspace(-4.0, 4.0, 161))
    ratios = ([], [])
    for m in sym:
        w = sobolev_norm(m.expr, k, M, s, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
        for grid, out_ratios in zip(grids, ratios):
            for n in (0, 1, 2):
                d = derivative_via_spectrum(m.expr, k, M, n, grid, prof.lam_rule, x_rule=prof.x_rule)
                out_ratios.append(float(np.max(np.abs(d))) / w)
    C, C2 = map(max, ratios)
    out.append(_check("embedding_constant_stability", "sobolev", abs(C2 - C) / C, 0.05,
                      detail=f"measured C={C:.6g}"))
    return out


# ---------------------------------------------------------------------------
# Paley-Wiener suite

def checks_pw():
    out = []
    k = 0.5
    intervals = ((1.0, 2.0),)

    worst_ratio, worst_root = 0.0, 0.0
    for M in SWEEP_M:
        prof = _bump(k, intervals, M.b)
        f, _ = realize_bump(k, M, intervals, prof)
        sup = 2.0 / abs(M.b)  # the exact support radius max|edge| / |b|
        est = estimate_sigma(f, k, M, p=2.0, n_max=30, method="ratio", lam_rule=prof.lam_rule)
        worst_ratio = max(worst_ratio, abs(est.sigma_hat - sup) / sup)
        for p in (1.0, 2.0, math.inf):
            est = estimate_sigma(f, k, M, p=p, n_max=50, method="root", lam_rule=prof.lam_rule)
            worst_root = max(worst_root, abs(est.sigma_hat - sup) / sup)
    out.append(_check("sigma_ratio_vs_support", "pw", worst_ratio, 0.02))
    out.append(_check("sigma_root_vs_support", "pw", worst_root, 0.10))

    M = SWEEP_M[1]
    prof = _bump(k, intervals, M.b)
    f, _ = realize_bump(k, M, intervals, prof)
    ests = [
        estimate_sigma(f, k, M, p=p, n_max=50, method="root", lam_rule=prof.lam_rule).sigma_hat
        for p in (1.0, 2.0, math.inf)
    ]
    out.append(_check("p_independence", "pw", (max(ests) - min(ests)) / min(ests), 0.10))

    M2 = CanonicalMatrix(M.a, 2.0 * M.b, M.c / 2.0, M.d)
    prof2 = _bump(k, intervals, M2.b)
    f2, _ = realize_bump(k, M2, intervals, prof2)
    e1 = estimate_sigma(f, k, M, n_max=30, method="ratio", lam_rule=prof.lam_rule).sigma_hat
    e2 = estimate_sigma(f2, k, M2, n_max=30, method="ratio", lam_rule=prof2.lam_rule).sigma_hat
    out.append(_check("scaling_covariance", "pw", abs(e2 - e1 / 2.0) / (e1 / 2.0), 0.02))

    prof_w = _bump(k, ((1.0, 2.4),), 1.0)
    fw, _ = realize_bump(k, M, ((1.0, 2.4),), prof_w)
    ew = estimate_sigma(fw, k, M, n_max=30, method="ratio", lam_rule=prof_w.lam_rule).sigma_hat
    gap = float(np.max(np.diff(prof_w.lam_rule.nodes)))
    out.append(_check("monotone_support", "pw", max(0.0, e1 - ew - gap), 1e-12,
                      detail="wider support never shrinks the estimate"))

    worst = 0.0
    for (lo, hi) in ((1.0, 2.0), (0.5, 1.0), (2.0, 3.0)):
        profd = _bump(k, ((lo, hi),), 1.0)
        vals = bump_spectrum_values(profd.lam_rule.nodes, ((lo, hi),))
        specd = Spectrum(profd.lam_rule, vals, k, SWEEP_M[1])
        est = estimate_delta(specd, k, SWEEP_M[1], n_max=40)
        worst = max(worst, abs(est.delta_hat - lo * lo) / (lo * lo))
    out.append(_check("heat_detector_consistency", "pw", worst, 0.02))
    return out


def run(suite: str = "all") -> dict:
    """Run one suite (or all) and return the report structure."""
    table = {
        "specfun": checks_specfun,
        "transform": checks_transform,
        "operators": checks_operators,
        "sobolev": checks_sobolev,
        "pw": checks_pw,
    }
    if suite != "all" and suite not in table:
        raise ValueError(f"unknown suite {suite!r}; choose from {('all',) + SUITES}")
    names = SUITES if suite == "all" else (suite,)
    checks = []
    for name in names:
        checks.extend(table[name]())
    return {
        "suite": suite,
        "checks": checks,
        "n_checks": len(checks),
        "n_failed": sum(0 if c["passed"] else 1 for c in checks),
        "passed": all(c["passed"] for c in checks),
    }
