"""Acceptance criteria, one test per criterion, one printed line each.

Sweep: k in {-1/2, 0, 1/2, 2}; matrices (0,1;-1,0), (1,1;0,1), and the
rotation by pi/3. Estimator criteria fix k = 1/2 and sweep the matrix
(they are phrased per swept b).
"""

import cmath
import math

import numpy as np
import pytest

from lcdunkl.corpus import (
    SWEEP_K,
    SWEEP_M,
    bump_profile,
    bump_spectrum_values,
    gauss_profile,
    realize_bump,
    standard_corpus,
)
from lcdunkl.operators import RealPolynomial, heat_semigroup
from lcdunkl.paleywiener import (
    estimate_delta,
    estimate_sigma,
    poly_domain_test,
    support_radius_oracle,
)
from lcdunkl.quadrature import SampledFunction, build_rule, lp_norm
from lcdunkl.sobolev import derivative_via_spectrum, sobolev_norm
from lcdunkl.specfun import dunkl_kernel_dx, principal_power
from lcdunkl.symfun import (
    apply_lcd,
    differentiate,
    evaluate,
    gaussian,
    iterate_op,
    lcdt_kernel_expr,
)
from lcdunkl.transform import Spectrum, lcdt_forward, lcdt_inverse

K_EST = 0.5
ORACLE_THRESHOLD = 1e-10

_gauss_cache = {}
_bump_cache = {}


def gauss(k):
    if k not in _gauss_cache:
        _gauss_cache[k] = gauss_profile(k)
    return _gauss_cache[k]


def bump(k, intervals, b):
    key = (k, intervals, b)
    if key not in _bump_cache:
        _bump_cache[key] = bump_profile(k, intervals, b=b)
    return _bump_cache[key]


def report(name, passed, detail):
    print(f"{name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{name}: {detail}"


def test_ac01_kernel_eigenrelation():
    xs = np.linspace(-5.0, 5.0, 201)
    worst = 0.0
    for k in SWEEP_K:
        for M in SWEEP_M:
            for lam in (0.7, 2.3):
                e = lcdt_kernel_expr(k, M, lam)
                resid = evaluate(apply_lcd(k, M, e), xs) + 1j * (lam / M.b) * evaluate(e, xs)
                worst = max(worst, float(np.max(np.abs(resid))))
    report("AC01 kernel eigenrelation", worst <= 1e-9, f"sup residual {worst:.3e} <= 1e-9")


def test_ac02_gaussian_lct_reduction():
    # independent oracle: closed-form Gaussian integral, principal branches
    worst = 0.0
    prof = gauss(-0.5)
    for M in SWEEP_M:
        g = lcdt_forward(gaussian(-0.5), -0.5, M, prof.lam_rule, x_rule=prof.x_rule)
        p = 0.5 - 0.5j * (M.a / M.b)
        pref = principal_power(1j * M.b, -0.5) / math.sqrt(2.0 * math.pi)
        want = np.array(
            [
                pref
                * cmath.exp(0.5j * (M.d / M.b) * lam * lam)
                * cmath.sqrt(math.pi / p)
                * cmath.exp(-lam * lam / (4.0 * p * M.b * M.b))
                for lam in prof.lam_rule.nodes
            ]
        )
        worst = max(worst, float(np.max(np.abs(g.values - want)) / np.max(np.abs(want))))
    report("AC02 Gaussian LCT reduction", worst <= 1e-8, f"max rel error {worst:.3e} <= 1e-8")


def _corpus_items(k, M):
    sym, bumps = standard_corpus()
    prof = gauss(k)
    items = [
        (m.name, SampledFunction(prof.x_rule, evaluate(m.expr, prof.x_rule.nodes), label=m.name), prof)
        for m in sym
    ]
    for bm in bumps:
        bprof = bump(k, bm.intervals, M.b)
        f, _ = realize_bump(k, M, bm.intervals, bprof, label=bm.name)
        items.append((bm.name, f, bprof))
    return items


def test_ac03_plancherel_and_inversion():
    worst_iso, worst_rt = 0.0, 0.0
    for k in SWEEP_K:
        for M in SWEEP_M:
            for name, f, prof in _corpus_items(k, M):
                g = lcdt_forward(f, k, M, prof.lam_rule)
                nf = lp_norm(f, 2.0)
                worst_iso = max(worst_iso, abs(lp_norm(g.as_sampled(), 2.0) - nf) / nf)
                back = lcdt_inverse(g, f.rule)
                worst_rt = max(worst_rt, float(np.max(np.abs(back.values - f.values))))
    ok = worst_iso <= 1e-6 and worst_rt <= 1e-6
    report("AC03 Plancherel and inversion", ok,
           f"isometry rel {worst_iso:.3e} <= 1e-6, round-trip sup {worst_rt:.3e} <= 1e-6")


def test_ac04_intertwining():
    worst = 0.0
    f = gaussian(-1.0, m=2)
    for k in SWEEP_K:
        prof = gauss(k)
        for M in SWEEP_M:
            base = lcdt_forward(f, k, M, prof.lam_rule, x_rule=prof.x_rule)
            mu = prof.lam_rule.nodes / M.b
            for n in range(1, 7):
                it = iterate_op(k, M.inverse(), f, n)
                got = lcdt_forward(it, k, M, prof.lam_rule, x_rule=prof.x_rule)
                want = (1j * mu) ** n * base.values
                worst = max(worst, float(np.max(np.abs(got.values - want)) / np.max(np.abs(want))))
    report("AC04 intertwining identity", worst <= 1e-7, f"max rel error {worst:.3e} <= 1e-7 for n <= 6")


@pytest.mark.filterwarnings("ignore::lcdunkl.errors.AccuracyWarning")
def test_ac05_heat_identity():
    worst = 0.0
    f = gaussian(-0.5)
    for k in SWEEP_K:
        prof = gauss(k)
        for M in SWEEP_M:
            lam_small = build_rule(k, 2.2 * abs(M.b), 24, 12)
            for n in (1, 2, 3):
                mult = heat_semigroup(f, k, M, n, mode="multiplier", lam_rule=lam_small, x_rule=prof.x_rule)
                ser = heat_semigroup(f, k, M, n, mode="series", lam_rule=lam_small, x_rule=prof.x_rule)
                worst = max(worst, float(np.max(np.abs(mult.values - ser.values))))
    report("AC05 heat identity", worst <= 1e-6, f"sup mode difference {worst:.3e} <= 1e-6")


def test_ac06_hausdorff_young():
    worst = math.inf
    for k in SWEEP_K:
        for M in SWEEP_M:
            for name, f, prof in _corpus_items(k, M):
                g = lcdt_forward(f, k, M, prof.lam_rule).as_sampled()
                for p in (1.0, 4.0 / 3.0, 2.0):
                    q = math.inf if p == 1.0 else p / (p - 1.0)
                    expo = 1.0 if q == math.inf else (1.0 - 2.0 / q)
                    bound = abs(M.b) ** (-(k + 1.0) * expo)
                    worst = min(worst, bound * lp_norm(f, p) - lp_norm(g, q))
    report("AC06 Hausdorff-Young", worst >= -1e-9, f"min slack {worst:.3e} >= -1e-9")


def test_ac07_sigma_estimators():
    intervals = ((1.0, 2.0),)
    worst_ratio, worst_root = 0.0, 0.0
    for M in SWEEP_M:
        prof = bump(K_EST, intervals, M.b)
        f, spec = realize_bump(K_EST, M, intervals, prof)
        oracle = support_radius_oracle(spec, ORACLE_THRESHOLD)
        est = estimate_sigma(f, K_EST, M, p=2.0, n_max=30, method="ratio", lam_rule=prof.lam_rule)
        worst_ratio = max(worst_ratio, abs(est.sigma_hat - oracle) / oracle)
        for p in (1.0, 2.0, math.inf):
            est = estimate_sigma(f, K_EST, M, p=p, n_max=50, method="root", lam_rule=prof.lam_rule)
            worst_root = max(worst_root, abs(est.sigma_hat - oracle) / oracle)
    prof = bump(K_EST, intervals, 1.0)
    zero = SampledFunction(prof.x_rule, np.zeros(len(prof.x_rule)))
    zero_est = estimate_sigma(zero, K_EST, SWEEP_M[1], lam_rule=prof.lam_rule)
    gp = gauss(K_EST)
    ginf = estimate_sigma(gaussian(-0.5), K_EST, SWEEP_M[1], p=2.0, n_max=40, method="root",
                          lam_rule=gp.lam_rule, x_rule=gp.x_rule)
    ok = worst_ratio <= 0.02 and worst_root <= 0.10 and zero_est.sigma_hat == 0.0 and ginf.sigma_hat == math.inf
    report("AC07 support-radius estimators", ok,
           f"ratio {worst_ratio:.3%} <= 2%, root {worst_root:.3%} <= 10%, zero -> 0, Gaussian -> inf")


def test_ac08_polynomial_domain():
    intervals = ((1.0, 2.0),)
    prof = bump(K_EST, intervals, 1.0)
    vals = bump_spectrum_values(prof.lam_rule.nodes, intervals)
    spec = Spectrum(prof.lam_rule, vals, K_EST, SWEEP_M[1])
    sup = support_radius_oracle(spec, ORACLE_THRESHOLD)
    quarter = RealPolynomial((0.0, 0.0, 0.25))
    square = RealPolynomial((0.0, 0.0, 1.0))
    r1 = poly_domain_test(spec, K_EST, SWEEP_M[1], quarter, n_max=40, lam_rule=prof.lam_rule)
    r2 = poly_domain_test(spec, K_EST, SWEEP_M[1], square, n_max=40, lam_rule=prof.lam_rule)
    zero = Spectrum(prof.lam_rule, np.zeros(len(prof.lam_rule)), K_EST, SWEEP_M[1])
    r3 = poly_domain_test(zero, K_EST, SWEEP_M[1], square, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    e1 = abs(r1.score - sup**2 / 4.0) / (sup**2 / 4.0)
    e2 = abs(r2.score - sup**2) / (sup**2)
    ok = r1.inside and not r2.inside and r3.inside and r3.score == 0.0 and e1 <= 0.05 and e2 <= 0.05
    report("AC08 polynomial-domain verdicts", ok,
           f"score errors {e1:.3%}, {e2:.3%} <= 5%; verdicts (in, out, zero-in) correct")


def test_ac09_heat_gap():
    worst = 0.0
    for (lo, hi) in ((1.0, 2.0), (0.5, 1.0), (2.0, 3.0)):
        prof = bump(K_EST, ((lo, hi),), 1.0)
        vals = bump_spectrum_values(prof.lam_rule.nodes, ((lo, hi),))
        spec = Spectrum(prof.lam_rule, vals, K_EST, SWEEP_M[1])
        est = estimate_delta(spec, K_EST, SWEEP_M[1], n_max=40)
        worst = max(worst, abs(est.delta_hat - lo * lo) / (lo * lo))
    report("AC09 heat-semigroup gap", worst <= 0.02, f"max rel error {worst:.3%} <= 2% by n=40")


def test_ac10_sobolev_machinery():
    k = 0.0
    prof = gauss(k)
    M = SWEEP_M[2]
    sym, _ = standard_corpus()
    f = gaussian(-0.5)
    sf = SampledFunction(prof.x_rule, evaluate(f, prof.x_rule.nodes))
    e_l2 = abs(
        sobolev_norm(f, k, M, 0.0, lam_rule=prof.lam_rule, x_rule=prof.x_rule) - lp_norm(sf, 2.0)
    ) / lp_norm(sf, 2.0)
    nest_ok = True
    for m in sym:
        v = [sobolev_norm(m.expr, k, M, s, lam_rule=prof.lam_rule, x_rule=prof.x_rule) for s in (0, 1, 2)]
        nest_ok = nest_ok and v[0] <= v[1] <= v[2]
    xs = np.linspace(-4.0, 4.0, 81)
    worst_d = 0.0
    for m in sym:
        for n in (1, 2):
            d = derivative_via_spectrum(m.expr, k, M, n, xs, prof.lam_rule, x_rule=prof.x_rule)
            e = m.expr
            for _ in range(n):
                e = differentiate(e)
            worst_d = max(worst_d, float(np.max(np.abs(d - evaluate(e, xs)))))
    rng = np.random.default_rng(7)
    lam = rng.uniform(-20.0, 20.0, 10_000)
    x = rng.uniform(-20.0, 20.0, 10_000)
    worst_b = -math.inf
    for n in range(4):
        v = dunkl_kernel_dx(0.5, n, lam, x)
        worst_b = max(worst_b, float(np.max(np.abs(v) - np.abs(lam) ** n)))
    ok = e_l2 <= 1e-6 and nest_ok and worst_d <= 1e-6 and worst_b <= 1e-10
    report("AC10 Sobolev machinery", ok,
           f"s=0 vs L2 {e_l2:.2e} <= 1e-6, nesting {nest_ok}, derivative sup {worst_d:.2e} <= 1e-6, "
           f"kernel bound slack {worst_b:.2e} <= 1e-10")


@pytest.mark.filterwarnings("ignore::lcdunkl.errors.AccuracyWarning")
def test_ac11_determinism(tmp_path):
    from lcdunkl.cli import main

    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["verify", "--suite", "all", "--out", str(out1)]) == 0
    assert main(["verify", "--suite", "all", "--out", str(out2)]) == 0
    r1 = (out1 / "verify_report.json").read_bytes()
    r2 = (out2 / "verify_report.json").read_bytes()
    report("AC11 determinism", r1 == r2, "two verify runs produced byte-identical reports")
