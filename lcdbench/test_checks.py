"""Tests of the benchmark's own references and checks.

    python3 -m pytest -q lcdbench/test_checks.py

The references are compared with mpmath. Each checker must accept what
the program computes today and reject the same output made slightly
wrong: a spectrum scaled by 1+1e-3, an estimate off by 5%, a flipped flag,
a derivative off by 1e-4.
"""

import math
import os
import sys

import mpmath
import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402
from lcdunkl.corpus import bump_profile, gauss_profile, realize_bump  # noqa: E402
from lcdunkl.operators import RealPolynomial, norm_sequence  # noqa: E402
from lcdunkl.paleywiener import (compact_spectrum_test, estimate_delta, estimate_sigma,  # noqa: E402
                                 poly_domain_test, vanishing_interval_detect)
from lcdunkl.sobolev import derivative_via_spectrum, sobolev_norm  # noqa: E402
from lcdunkl.specfun import CanonicalMatrix  # noqa: E402
from lcdunkl.symfun import gaussian, iterate_op  # noqa: E402
from lcdunkl.transform import chirp_factorized_forward, lcdt_forward  # noqa: E402

mpmath.mp.dps = 30


def dunkl_density(k, x):
    return abs(x) ** (2 * k + 1) / (2 ** (k + 1) * mpmath.gamma(k + 1))


# ---------------------------------------------------------------------------
# references against mpmath

def test_bump_formula_matches_mpmath():
    intervals = ((0.7, 1.9), (-2.5, -2.1))
    lam = np.array([-2.4, -2.3, -2.1, -1.0, 0.0, 0.7, 0.71, 1.2, 1.3, 1.89, 1.9, 2.2])
    got = checks.bump_values(lam, intervals)
    for x, v in zip(lam, got):
        want = mpmath.mpf(0)
        for lo, hi in intervals:
            t = (2 * mpmath.mpf(x) - (lo + hi)) / (hi - lo)
            if abs(t) < 1:
                want += mpmath.exp(-1 / (1 - t * t))
        assert abs(v - float(want)) <= 1e-15 * max(1.0, float(want))


@pytest.mark.parametrize("k", [0.5, 1.0, 1.83])
@pytest.mark.parametrize("X", [2.4, 10.0])
def test_gauss_mass_matches_mpmath(k, X):
    want = 2 * mpmath.quad(lambda x: mpmath.exp(-x * x) * dunkl_density(k, x), [0, X])
    assert abs(checks.dunkl_gauss_mass(k, X) - float(want)) <= 1e-13 * float(want)


@pytest.mark.parametrize("k,m,alpha", [(0.5, 0, -0.5), (1.0, 1, -1.0 + 0.25j), (1.83, 2, -0.93), (0.0, 3, -0.7)])
def test_member_l2_matches_mpmath(k, m, alpha):
    c = 2 * complex(alpha).real
    want = mpmath.sqrt(2 * mpmath.quad(lambda x: x ** (2 * m) * mpmath.exp(c * x * x) * dunkl_density(k, x),
                                       [0, 1, 4, mpmath.inf]))
    assert abs(checks.gauss_member_l2(k, m, alpha) - float(want)) <= 1e-13 * float(want)


@pytest.mark.parametrize("m,alpha", [(0, -0.5), (1, -1.0), (2, -0.9 + 0.3j), (0, -1.0 + 0.25j)])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_member_derivative_matches_mpmath(m, alpha, n):
    xs = np.linspace(-3.0, 3.0, 13)
    got = checks.gauss_member_derivative(m, alpha, n, xs)
    a = mpmath.mpc(alpha)
    for x, v in zip(xs, got):
        want = mpmath.diff(lambda t: t**m * mpmath.exp(a * t * t), mpmath.mpf(x), n)
        assert abs(v - complex(want)) <= 1e-12 * max(1.0, abs(complex(want)))


def test_support_extremes_and_poly_sup():
    assert checks.support_extremes(((1.0, 2.0),), -0.5) == (2.0, 4.0)
    assert checks.support_extremes(((-1.0, 2.0),), 1.0) == (0.0, 2.0)
    assert checks.poly_sup((0.0, 0.0, 0.25), ((1.0, 2.0),), 1.0) == pytest.approx(1.0, abs=1e-15)
    assert checks.poly_sup((0.0, 1.0), ((1.0, 2.0),), -1.0) == pytest.approx(2.0, abs=1e-15)


# ---------------------------------------------------------------------------
# checks accept today's outputs and reject wrong ones

K, M, IV = 0.5, CanonicalMatrix(0.6, 1.0, -0.4, 1.0), ((1.0, 2.0),)


@pytest.fixture(scope="module")
def bump():
    prof = bump_profile(K, IV, b=M.b)
    f, spec = realize_bump(K, M, IV, prof)
    return prof, f, spec


def test_spectrum_check(bump):
    prof, f, _ = bump
    g = lcdt_forward(f, K, M, prof.lam_rule)
    rule = g.rule
    assert checks.check_rule(rule.nodes, rule.weights, K, rule.X).ok
    assert not checks.check_rule(rule.nodes, rule.weights * (1 + 1e-6), K, rule.X).ok
    assert checks.check_bump_spectrum(rule.nodes, rule.weights, g.values, IV).ok
    assert not checks.check_bump_spectrum(rule.nodes, rule.weights, g.values * (1 + 1e-3), IV).ok


def test_sigma_checks(bump):
    prof, f, _ = bump
    est = estimate_sigma(f, K, M, p=2.0, n_max=30, method="ratio", lam_rule=prof.lam_rule)
    assert checks.check_sigma(est.sigma_hat, IV, M.b).ok
    assert not checks.check_sigma(est.sigma_hat * 1.05, IV, M.b).ok
    assert not checks.check_sigma(math.inf, IV, M.b).ok
    roots = [estimate_sigma(f, K, M, p=p, n_max=40, method="root", lam_rule=prof.lam_rule).sigma_hat
             for p in (1.0, math.inf)]
    assert all(checks.check_root_sigma(r, IV, M.b).ok for r in roots)
    assert checks.check_p_independence(*roots).ok
    assert not checks.check_p_independence(roots[0], roots[0] * 1.15).ok
    assert not checks.check_p_independence(roots[0], math.inf).ok


def test_gap_checks(bump):
    prof, _, spec = bump
    d = estimate_delta(spec, K, M, p=2.0, n_max=40).delta_hat
    r = vanishing_interval_detect(spec, K, M, p=2.0, n_max=40).r_hat
    assert checks.check_delta(d, IV, M.b).ok and checks.check_vanishing(r, IV, M.b).ok
    assert not checks.check_delta(d * 1.05, IV, M.b).ok
    assert not checks.check_vanishing(r * 0.95, IV, M.b).ok


@pytest.mark.parametrize("sup", [0.6, 1.4])
def test_poly_checks(bump, sup):
    prof, _, spec = bump
    coeffs = (0.0, 0.0, sup / 4.0)
    res = poly_domain_test(spec, K, M, RealPolynomial(coeffs), p=2.0, n_max=40)
    assert all(c.ok for c in checks.check_poly(res.score, res.inside, coeffs, IV, M.b))
    assert not all(c.ok for c in checks.check_poly(res.score, not res.inside, coeffs, IV, M.b))
    assert not all(c.ok for c in checks.check_poly(res.score * 1.05, res.inside, coeffs, IV, M.b))


def test_compact_checks(bump):
    prof, _, spec = bump
    res = compact_spectrum_test(spec, K, M, p=2.0, n_max=40)
    assert all(c.ok for c in checks.check_compact(res.compact, res.sigma2_hat, IV, M.b))
    assert not all(c.ok for c in checks.check_compact(not res.compact, res.sigma2_hat, IV, M.b))
    assert not all(c.ok for c in checks.check_compact(res.compact, res.sigma2_hat * 1.05, IV, M.b))


def test_known_fault_is_rejected():
    """The estimate the warm workload counts as failed is wrong today."""
    fault = workloads.KNOWN_FAULT
    Mf = CanonicalMatrix(*fault["matrix"])
    prof = bump_profile(fault["k"], fault["intervals"], b=Mf.b)
    f, _ = realize_bump(fault["k"], Mf, fault["intervals"], prof)
    est = estimate_sigma(f, fault["k"], Mf, p=2.0, n_max=30, method="ratio", lam_rule=prof.lam_rule)
    assert est.sigma_hat == math.inf
    assert not checks.check_sigma(est.sigma_hat, fault["intervals"], Mf.b).ok


@pytest.mark.parametrize("k,m,alpha", [(0.5, 2, -1.0), (1.0, 0, -1.0 + 0.25j)])
def test_calculus_checks(k, m, alpha):
    prof = gauss_profile(k)
    Mc = CanonicalMatrix(0.3, -0.9, (0.3 * 0.8 - 1.0) / -0.9, 0.8)
    lam, xr = prof.lam_rule, prof.x_rule
    expr = gaussian(alpha, m=m)
    g = lcdt_forward(expr, k, Mc, lam, x_rule=xr)
    assert checks.check_plancherel(lam.weights, g.values, k, m, alpha).ok
    assert not checks.check_plancherel(lam.weights, g.values * (1 + 1e-3), k, m, alpha).ok

    gc = chirp_factorized_forward(expr, k, Mc, lam, xr)
    assert checks.check_chirp_route(g.values, gc.values).ok
    assert not checks.check_chirp_route(g.values, gc.values * (1 + 1e-6)).ok

    mu = lam.nodes / Mc.b
    its = [lcdt_forward(iterate_op(k, Mc.inverse(), expr, n), k, Mc, lam, x_rule=xr).values for n in (1, 2, 3)]
    assert checks.check_intertwining(its, g.values, mu).ok
    assert not checks.check_intertwining(its, g.values * (1 + 1e-6), mu).ok

    sp = norm_sequence(expr, k, Mc, 2.0, 12, path="spectral", lam_rule=lam, x_rule=xr).lognorm
    sy = norm_sequence(expr, k, Mc, 2.0, 12, path="symbolic", x_rule=xr).lognorm
    assert checks.check_dual_path(sp, sy).ok
    assert not checks.check_dual_path(sp + 1e-4, sy).ok

    xs = workloads.CALC_DERIV_X
    for n in (1, 2):
        d = derivative_via_spectrum(expr, k, Mc, n, xs, lam, x_rule=xr)
        assert checks.check_derivative(d, m, alpha, n, xs).ok
        assert not checks.check_derivative(d + 1e-4, m, alpha, n, xs).ok

    sob = [sobolev_norm(expr, k, Mc, s, lam_rule=lam, x_rule=xr) for s in (0.0, 1.0, 2.0)]
    assert checks.check_nesting(sob).ok
    assert not checks.check_nesting(sob[::-1]).ok
