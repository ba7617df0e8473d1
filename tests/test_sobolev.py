import itertools
import math
import warnings

import numpy as np
import pytest

from lcdunkl.corpus import SWEEP_K, SWEEP_M, gauss_profile, symbolic_members
from lcdunkl.errors import AccuracyWarning, ComputationError, ParameterError
from lcdunkl.operators import _mult_heat, _sequence
from lcdunkl.quadrature import SampledFunction, lp_norm
from lcdunkl.sobolev import (
    derivative_via_spectrum,
    sobolev_norm,
    sobolev_opsum_norm,
)
from lcdunkl.specfun import CanonicalMatrix
from lcdunkl.symfun import evaluate, gaussian
from lcdunkl.transform import lcdt_forward

M_SHEAR = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
M_ROT = CanonicalMatrix.rotation(math.pi / 3)
K = 0.0


@pytest.fixture(scope="module")
def prof():
    return gauss_profile(K)


def test_s0_is_l2_norm(prof):
    f = gaussian(-0.5)
    got = sobolev_norm(f, K, M_SHEAR, 0.0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    # ||e^{-x^2/2}||_2 = 2^{-1/2} at k = 0
    assert got == pytest.approx(2.0**-0.5, rel=1e-6)
    sf = SampledFunction(prof.x_rule, evaluate(f, prof.x_rule.nodes))
    assert got == pytest.approx(lp_norm(sf, 2.0), rel=1e-8)


def _gaussian_moment(k, M, j, rate):
    """The integral of lam^(2j) e^(-rate lam^2) |F(lam)|^2 dmu_k(lam), F the LCDT of e^(-x^2/2), in closed form.

    F(lam) = (ib)^(-(k+1)) (2 alpha)^(-(k+1)) e^(-(lam/b)^2 / (4 alpha)) with alpha = 1/2 - ia/(2b), so
    |F|^2 = (|b| |2 alpha|)^(-2(k+1)) e^(-c lam^2), c = Re(1/(2 alpha)) / b^2, and the moments of dmu_k close it.
    """
    alpha = 0.5 - 0.5j * M.a / M.b
    c = (0.5 / alpha).real / M.b**2 + rate
    front = (abs(M.b) * abs(2.0 * alpha)) ** (-2.0 * (k + 1.0))
    return front * math.gamma(j + k + 1.0) / (2.0 ** (k + 1.0) * math.gamma(k + 1.0)) * c ** -(j + k + 1.0)


def test_gaussian_norms_are_their_closed_forms():
    # the W^s norm, sum_j C(s, j) of the moments of lam^(2j), and the spectral heat-flow norms at
    # n <= 3, whose multiplier e^(-n (lam/b)^2) adds 2n / b^2 to the rate; both read about 1e-15
    f = gaussian(-0.5)
    for k, M in itertools.product(SWEEP_K, SWEEP_M):
        prof = gauss_profile(k)
        for s in range(4):
            want = math.sqrt(sum(math.comb(s, j) * _gaussian_moment(k, M, j, 0.0) for j in range(s + 1)))
            got = sobolev_norm(f, k, M, float(s), lam_rule=prof.lam_rule, x_rule=prof.x_rule)
            assert abs(got - want) <= 1e-12 * want, (k, M, s)
        _, heat = _sequence(f, k, M, 2.0, 3, prof.lam_rule, prof.x_rule, _mult_heat)
        want = [0.5 * math.log(_gaussian_moment(k, M, 0, 2.0 * n / M.b**2)) for n in range(4)]
        assert np.max(np.abs(np.expm1(heat.lognorm - want))) <= 1e-12, (k, M)


def test_zero_function_norms(prof):
    z = SampledFunction(prof.x_rule, np.zeros(len(prof.x_rule)))
    for s in (0.0, 1.0, 2.5):
        assert sobolev_norm(z, K, M_SHEAR, s, lam_rule=prof.lam_rule) == 0.0


def test_sobolev_nesting(prof):
    for member in symbolic_members():
        vals = [
            sobolev_norm(member.expr, K, M_ROT, s, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
            for s in (0.0, 1.0, 2.0)
        ]
        assert vals[0] <= vals[1] <= vals[2]


@pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
def test_sobolev_norm_refuses_a_nonfinite_order(prof, s):
    with pytest.raises(ParameterError, match="s must be finite"):
        sobolev_norm(gaussian(-0.5), K, M_SHEAR, s, lam_rule=prof.lam_rule, x_rule=prof.x_rule)


def test_sobolev_norm_beyond_the_double_range_raises():
    prof = gauss_profile(0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ComputationError, match="double range"):
            sobolev_norm(gaussian(-0.5), 0.5, M_SHEAR, 400.0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)


def test_opsum_sums_its_squares_in_log_space():
    # squared operator-power norms near 1e400 would overflow: the sum stays finite, with no warning
    prof = gauss_profile(0.5)
    f, rules = gaussian(-0.5, coeff=1e200), {"lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = sobolev_opsum_norm(f, 0.5, M_SHEAR, 2, **rules)
    unit = sobolev_opsum_norm(gaussian(-0.5), 0.5, M_SHEAR, 2, **rules)
    assert math.isfinite(got) and got == pytest.approx(1e200 * unit, rel=1e-12)


def test_opsum_order_zero(prof):
    f = gaussian(-0.5)
    got = sobolev_opsum_norm(f, K, M_SHEAR, 0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    sf = SampledFunction(prof.x_rule, evaluate(f, prof.x_rule.nodes))
    assert got == pytest.approx(lp_norm(sf, 2.0), rel=1e-8)


def test_opsum_order_must_be_an_integer(prof):
    f, rules = gaussian(-0.5), {"lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    with pytest.raises(ParameterError, match="operator-sum order must be an integer"):
        sobolev_opsum_norm(f, K, M_SHEAR, 2.0, **rules)
    assert sobolev_opsum_norm(f, K, M_SHEAR, np.int64(2), **rules) == sobolev_opsum_norm(f, K, M_SHEAR, 2, **rules)


def test_opsum_collapses_at_b_one(prof):
    # for b = 1 the m = 1 operator sum equals the (1 + lam^2)-weighted
    # spectral integral exactly
    f = gaussian(-0.5)
    got = sobolev_opsum_norm(f, K, M_SHEAR, 1, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    want = sobolev_norm(f, K, M_SHEAR, 1.0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    assert got == pytest.approx(want, rel=1e-6)


def test_opsum_comparable_to_sobolev(prof):
    # two-sided comparability at fixed (k, M, m): the ratio is a stable constant
    ratios = []
    for member in symbolic_members():
        a = sobolev_norm(member.expr, K, M_ROT, 2.0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
        b = sobolev_opsum_norm(member.expr, K, M_ROT, 2, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
        ratios.append((a / b) ** 2)
    assert max(ratios) / min(ratios) < 4.0


def test_derivative_via_spectrum_identity(prof):
    f = gaussian(-0.5)
    xs = np.linspace(-3.0, 3.0, 61)
    got = derivative_via_spectrum(f, K, M_SHEAR, 0, xs, prof.lam_rule, x_rule=prof.x_rule)
    want = evaluate(f, xs)
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("n", [1, 2])
def test_derivative_via_spectrum_matches_symbolic(prof, n):
    f = gaussian(-0.5)
    xs = np.linspace(-3.0, 3.0, 61)
    got = derivative_via_spectrum(f, K, M_ROT, n, xs, prof.lam_rule, x_rule=prof.x_rule)
    e = f
    for _ in range(n):
        e = e.diff()
    want = evaluate(e, xs)
    assert np.max(np.abs(got - want)) <= 1e-6


@pytest.mark.parametrize("n", [1.5, 2.0])
def test_derivative_via_spectrum_refuses_non_integer_order(prof, n):
    xs = np.linspace(-3.0, 3.0, 61)
    with pytest.raises(ParameterError, match="derivative order must be an integer"):
        derivative_via_spectrum(gaussian(-0.5), K, M_ROT, n, xs, prof.lam_rule, x_rule=prof.x_rule)
    got = derivative_via_spectrum(gaussian(-0.5), K, M_ROT, np.int32(2), xs, prof.lam_rule, x_rule=prof.x_rule)
    assert np.array_equal(got, derivative_via_spectrum(gaussian(-0.5), K, M_ROT, 2, xs, prof.lam_rule, x_rule=prof.x_rule))


def test_derivative_via_spectrum_refuses_rules_for_another_k():
    prof = gauss_profile(0.5)
    xs = np.linspace(-3.0, 3.0, 61)
    with pytest.raises(ParameterError, match="different Dunkl parameter"):
        derivative_via_spectrum(gaussian(-0.5), 1.0, M_SHEAR, 1, xs, prof.lam_rule, x_rule=prof.x_rule)


def test_derivative_via_spectrum_warns_as_the_forward_transform(prof):
    # e^(x - 0.01 x^2) grows past X = 10, so the tail has no closed-form bound
    f = gaussian(-0.01, beta=1.0)
    xs = np.linspace(-3.0, 3.0, 61)
    with pytest.warns(AccuracyWarning, match="could not be bounded"):
        lcdt_forward(f, K, M_SHEAR, prof.lam_rule, x_rule=prof.x_rule)
    with pytest.warns(AccuracyWarning, match="could not be bounded"):
        derivative_via_spectrum(f, K, M_SHEAR, 1, xs, prof.lam_rule, x_rule=prof.x_rule)


def test_derivative_bounded_by_sobolev(prof):
    # embedding-flavoured check: sup|f^(n)| <= C ||f||_{W^s} with one
    # measured C stable across the corpus
    s = K + 1.0 + 2.0 + 0.5
    ratios = []
    xs = np.linspace(-6.0, 6.0, 121)
    for member in symbolic_members():
        w = sobolev_norm(member.expr, K, M_ROT, s, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
        for n in (0, 1, 2):
            d = derivative_via_spectrum(member.expr, K, M_ROT, n, xs, prof.lam_rule, x_rule=prof.x_rule)
            assert np.all(np.isfinite(d))
            ratios.append(float(np.max(np.abs(d))) / w)
    C = max(ratios)
    assert math.isfinite(C) and C > 0
