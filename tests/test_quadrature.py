import math

import mpmath as mp
import numpy as np
import pytest

from lcdunkl.errors import ParameterError, ShapeMismatchError
from lcdunkl.quadrature import (
    SampledFunction,
    build_rule,
    build_rule_from_edges,
    gaussian_mass_closed_form,
    inner_product,
    integrate,
    lp_norm,
)

K_SWEEP = [-0.5, 0.0, 0.5, 2.0]


def moment_oracle(k, m):
    # integral of x^(2m) exp(-x^2) d mu_k = Gamma(m+k+1) / (2^(k+1) Gamma(k+1)),
    # cross-checked against mpmath quadrature once below
    return float(mp.gamma(m + k + 1) / (mp.mpf(2) ** (k + 1) * mp.gamma(k + 1)))


def test_moment_oracle_against_mpmath_quad():
    for k in (0.0, 0.5):
        for m in (0, 2):
            direct = mp.quad(
                lambda x: x ** (2 * m) * mp.exp(-(x**2)) * abs(x) ** (2 * k + 1), [-mp.inf, 0, mp.inf]
            ) / (mp.mpf(2) ** (k + 1) * mp.gamma(k + 1))
            assert abs(float(direct) - moment_oracle(k, m)) < 1e-12


def test_gaussian_calibration_k0():
    rule = build_rule(0.0, 8.0, 32, 16)
    got = float(np.sum(rule.weights * np.exp(-rule.nodes**2)))
    assert got == pytest.approx(0.5, rel=1e-10)
    assert got == pytest.approx(gaussian_mass_closed_form(0.0, 8.0), rel=1e-12)


def test_gaussian_calibration_khalf_negative():
    rule = build_rule(-0.5, 10.0, 40, 16)
    got = float(np.sum(rule.weights * np.exp(-rule.nodes**2)))
    assert got == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-10)


def test_zero_function_integrates_to_zero():
    rule = build_rule(0.0, 8.0, 32, 16)
    f = SampledFunction(rule, np.zeros(len(rule)))
    assert integrate(f) == 0


@pytest.mark.parametrize("k", K_SWEEP)
def test_moment_exactness(k):
    rule = build_rule(k, 9.0, 36, 16)
    for m in range(7):
        got = float(np.sum(rule.weights * rule.nodes ** (2 * m) * np.exp(-rule.nodes**2)))
        assert got == pytest.approx(moment_oracle(k, m), rel=1e-10)


def test_odd_function_killed_by_symmetry():
    rule = build_rule(0.5, 6.0, 24, 12)
    vals = rule.nodes * np.exp(-rule.nodes**2)
    f = SampledFunction(rule, vals)
    assert abs(integrate(f)) <= 1e-12 * lp_norm(f, 1)


def test_monotone_in_truncation_radius():
    prev = 0.0
    for X in (2.0, 4.0, 8.0):
        rule = build_rule(0.5, X, 16, 12)
        val = float(np.sum(rule.weights * np.exp(-np.abs(rule.nodes))))
        assert val >= prev - 1e-15
        prev = val


def test_lp_norms():
    rule = build_rule(0.0, 9.0, 72, 16)
    f = SampledFunction(rule, np.exp(-rule.nodes**2 / 2))
    # ||f||_2^2 = 1/2 at k = 0
    assert lp_norm(f, 2.0) == pytest.approx(2.0**-0.5, rel=1e-8)
    # sup norm is the grid maximum; the nearest node to the peak at 0
    # sits ~7e-4 away on this rule
    assert lp_norm(f, math.inf) == pytest.approx(1.0, abs=1e-5)
    zero = SampledFunction(rule, np.zeros(len(rule)))
    for p in (1.0, 2.0, math.inf):
        assert lp_norm(zero, p) == 0.0
    with pytest.raises(ParameterError):
        lp_norm(f, 0.5)


def test_inner_product():
    rule = build_rule(0.0, 9.0, 36, 16)
    f = SampledFunction(rule, np.exp(-rule.nodes**2 / 2))
    assert inner_product(f, f) == pytest.approx(0.5, rel=1e-8)
    odd = SampledFunction(rule, rule.nodes * np.exp(-rule.nodes**2))
    assert abs(inner_product(f, odd)) <= 1e-12
    other = build_rule(0.0, 9.0, 36, 14)
    g = SampledFunction(other, np.exp(-other.nodes**2 / 2))
    with pytest.raises(ShapeMismatchError):
        inner_product(f, g)


def test_parameter_errors():
    with pytest.raises(ParameterError):
        build_rule(0.0, -1.0, 8, 8)
    with pytest.raises(ParameterError):
        build_rule(0.0, 5.0, 8, 1)
    with pytest.raises(ParameterError):
        build_rule(0.0, 5.0, 7, 8)  # odd panel count cannot be symmetric with 0 edge
    with pytest.raises(ParameterError):
        build_rule(0.0, 8.0, 2, 2)  # too coarse: Gaussian calibration must fail


def test_rule_with_overflowing_density_is_refused():
    # |x|^161 passes the largest double past |x| ~ 82: 568 of the 768 weights
    # would be inf, and their calibration sum nan
    with pytest.raises(ParameterError, match="weights must be finite"):
        build_rule(80.0, 320.0, 64, 12)


def test_custom_edges_rule():
    edges = [-4.0, -2.0, -1.0, 0.0, 1.0, 2.0, 4.0]
    rule = build_rule_from_edges(0.0, edges, 14)
    got = float(np.sum(rule.weights * np.exp(-rule.nodes**2)))
    assert got == pytest.approx(gaussian_mass_closed_form(0.0, 4.0), rel=1e-10)


@pytest.mark.parametrize("k", [-0.5, 0.3, 0.8, 2.2])
def test_origin_panels_are_exact_for_the_dunkl_weight(k):
    # one panel each side of 0: Gauss-Jacobi integrates x^(2m) against
    # |x|^(2k+1) exactly up to m = n - 1, whether or not 2k+1 is an integer
    n = 8
    rule = build_rule_from_edges(k, [-1.0, 0.0, 1.0], n)
    norm = 2.0 ** (k + 1.0) * math.gamma(k + 1.0)
    for m in range(n):
        want = 2.0 / ((2 * m + 2.0 * k + 2.0) * norm)
        assert abs(np.sum(rule.weights * rule.nodes ** (2 * m)) - want) <= 1e-14 * want


def test_json_round_trip_bit_exact():
    rule = build_rule(0.5, 7.0, 16, 10)
    vals = np.exp(-rule.nodes**2) * (1.3 + 0.7j) + rule.nodes * 0.1j
    f = SampledFunction(rule, vals, label="round-trip probe")
    g = SampledFunction.from_json_text(f.to_json_text())
    assert g.label == f.label
    assert np.array_equal(g.values, f.values)
    assert np.array_equal(g.rule.nodes, f.rule.nodes)
    assert np.array_equal(g.rule.weights, f.rule.weights)
    assert g.to_json_text() == f.to_json_text()


def test_csv_schema():
    rule = build_rule(0.0, 4.0, 16, 10)
    f = SampledFunction(rule, np.ones(len(rule)) * (1 + 2j))
    lines = f.to_csv_text().strip().splitlines()
    assert lines[0] == "node,re,im"
    assert len(lines) == len(rule) + 1
    assert lines[1].split(",")[1] == "1.0"
