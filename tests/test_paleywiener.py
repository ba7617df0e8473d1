import math
import pickle
import warnings

import numpy as np
import pytest

from lcdunkl import transform
from lcdunkl.corpus import bump_profile, bump_spectrum_values, gauss_profile, realize_bump
from lcdunkl.errors import AccuracyWarning, ParameterError
from lcdunkl.operators import RealPolynomial, norm_sequence
from lcdunkl.paleywiener import (
    compact_spectrum_test,
    estimate_delta,
    estimate_sigma,
    poly_domain_test,
    support_radius_oracle,
    vanishing_interval_detect,
)
from lcdunkl.quadrature import SampledFunction
from lcdunkl.specfun import CanonicalMatrix
from lcdunkl.symfun import gaussian
from lcdunkl.transform import Spectrum

K = 0.5
M_SHEAR = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
THRESH = 1e-10


@pytest.fixture(scope="module")
def pipe12():
    prof = bump_profile(K, ((1.0, 2.0),), b=1.0)
    f, spec = realize_bump(K, M_SHEAR, ((1.0, 2.0),), prof)
    return prof, f, spec


def test_support_radius_oracle(pipe12):
    prof, f, spec = pipe12
    got = support_radius_oracle(spec, THRESH)
    assert got == pytest.approx(2.0, abs=0.05)
    zero = Spectrum(prof.lam_rule, np.zeros(len(prof.lam_rule)), K, M_SHEAR)
    assert support_radius_oracle(zero, THRESH) == 0.0
    with pytest.raises(ParameterError):
        support_radius_oracle(spec, 1.5)


def test_support_radius_oracle_union_scaled():
    M2 = CanonicalMatrix(1.0, 2.0, 0.0, 1.0)
    prof = bump_profile(K, ((-3.0, -1.0), (1.0, 2.0)), b=2.0)
    vals = bump_spectrum_values(prof.lam_rule.nodes, ((-3.0, -1.0), (1.0, 2.0)))
    spec = Spectrum(prof.lam_rule, vals, K, M2)
    assert support_radius_oracle(spec, THRESH) == pytest.approx(1.5, abs=0.05)


def test_sigma_ratio_bump(pipe12):
    prof, f, spec = pipe12
    est = estimate_sigma(f, K, M_SHEAR, p=2.0, n_max=30, method="ratio", lam_rule=prof.lam_rule)
    oracle = support_radius_oracle(spec, THRESH)
    assert abs(est.sigma_hat - oracle) <= 0.02 * oracle


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_sigma_root_bump(pipe12, p):
    prof, f, spec = pipe12
    est = estimate_sigma(f, K, M_SHEAR, p=p, n_max=50, method="root", lam_rule=prof.lam_rule)
    oracle = support_radius_oracle(spec, THRESH)
    assert abs(est.sigma_hat - oracle) <= 0.10 * oracle


def test_sigma_zero_function(pipe12):
    prof, _, _ = pipe12
    z = SampledFunction(prof.x_rule, np.zeros(len(prof.x_rule)))
    est = estimate_sigma(z, K, M_SHEAR, lam_rule=prof.lam_rule)
    assert est.sigma_hat == 0.0
    assert est.converged


def test_sigma_gaussian_flags_infinity():
    prof = gauss_profile(K)
    est = estimate_sigma(gaussian(-0.5), K, M_SHEAR, p=2.0, n_max=40, method="root",
                         lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    assert est.sigma_hat == math.inf
    assert not est.converged


@pytest.mark.parametrize("a", [-0.5, -1.0])
@pytest.mark.parametrize("k", [0.0, 0.5, 2.0])
def test_sigma_ratio_gaussian_flags_infinity(k, a):
    # the ratio branch relies on the terminal-slope test here: without it
    # these estimates come out finite below the grid limit, or negative
    prof = gauss_profile(k)
    for n_max in (5, 10, 30, 60):
        est = estimate_sigma(gaussian(a), k, M_SHEAR, p=2.0, n_max=n_max, method="ratio",
                             lam_rule=prof.lam_rule, x_rule=prof.x_rule)
        assert est.sigma_hat == math.inf, n_max


def test_sigma_rejects_nan_p(pipe12):
    prof, f, _ = pipe12
    with pytest.raises(ParameterError, match="p must satisfy"):
        estimate_sigma(f, K, M_SHEAR, p=float("nan"), lam_rule=prof.lam_rule)


def test_sigma_scaling_covariance(pipe12):
    # replacing b by 2b (c by c/2) halves sigma
    prof1, f1, spec1 = pipe12
    M2 = CanonicalMatrix(M_SHEAR.a, 2.0 * M_SHEAR.b, M_SHEAR.c / 2.0, M_SHEAR.d)
    prof2 = bump_profile(K, ((1.0, 2.0),), b=M2.b)
    f2, spec2 = realize_bump(K, M2, ((1.0, 2.0),), prof2)
    e1 = estimate_sigma(f1, K, M_SHEAR, n_max=30, method="ratio", lam_rule=prof1.lam_rule)
    e2 = estimate_sigma(f2, K, M2, n_max=30, method="ratio", lam_rule=prof2.lam_rule)
    assert e2.sigma_hat == pytest.approx(e1.sigma_hat / 2.0, rel=0.02)
    # oracle edges land on different grids, so agreement is up to spacing
    assert support_radius_oracle(spec2, THRESH) == pytest.approx(
        support_radius_oracle(spec1, THRESH) / 2.0, rel=0.01
    )


def test_sigma_monotone_in_support(pipe12):
    prof1, f1, _ = pipe12
    prof2 = bump_profile(K, ((1.0, 2.4),), b=1.0)
    f2, _ = realize_bump(K, M_SHEAR, ((1.0, 2.4),), prof2)
    e1 = estimate_sigma(f1, K, M_SHEAR, n_max=30, method="ratio", lam_rule=prof1.lam_rule)
    e2 = estimate_sigma(f2, K, M_SHEAR, n_max=30, method="ratio", lam_rule=prof2.lam_rule)
    grid_gap = float(np.max(np.diff(prof2.lam_rule.nodes)))
    assert e2.sigma_hat >= e1.sigma_hat - grid_gap


def test_poly_domain_cases(pipe12):
    # squared multipliers weight the stopband hard: by n ~ 35 the
    # truncation floor of a forward-transformed input would take over,
    # so the detector gets the constructed spectrum (exact zeros there)
    prof, f, spec = pipe12
    oracle_sup = support_radius_oracle(spec, THRESH)
    quarter = RealPolynomial((0.0, 0.0, 0.25))
    est = poly_domain_test(spec, K, M_SHEAR, quarter, n_max=40, lam_rule=prof.lam_rule)
    assert est.inside
    assert est.score == pytest.approx(oracle_sup**2 / 4.0, rel=0.05)
    square = RealPolynomial((0.0, 0.0, 1.0))
    est2 = poly_domain_test(spec, K, M_SHEAR, square, n_max=40, lam_rule=prof.lam_rule)
    assert not est2.inside
    assert est2.score == pytest.approx(oracle_sup**2, rel=0.05)
    z = SampledFunction(prof.x_rule, np.zeros(len(prof.x_rule)))
    est3 = poly_domain_test(z, K, M_SHEAR, square, lam_rule=prof.lam_rule)
    assert est3.inside and est3.score == 0.0


def test_compact_spectrum(pipe12):
    prof, f, spec = pipe12
    est = compact_spectrum_test(spec, K, M_SHEAR, n_max=40, lam_rule=prof.lam_rule)
    oracle = support_radius_oracle(spec, THRESH)
    assert est.compact
    assert est.sigma2_hat == pytest.approx(oracle**2, rel=0.05)
    gp = gauss_profile(K)
    est2 = compact_spectrum_test(gaussian(-0.5), K, M_SHEAR, n_max=40, lam_rule=gp.lam_rule, x_rule=gp.x_rule)
    assert not est2.compact
    z = SampledFunction(prof.x_rule, np.zeros(len(prof.x_rule)))
    est3 = compact_spectrum_test(z, K, M_SHEAR, lam_rule=prof.lam_rule)
    assert est3.compact and est3.sigma2_hat == 0.0


@pytest.mark.parametrize("interval,expect", [((1.0, 2.0), 1.0), ((0.5, 1.0), 0.25), ((2.0, 3.0), 4.0)])
def test_delta_bumps(interval, expect):
    prof = bump_profile(K, (interval,), b=1.0)
    vals = bump_spectrum_values(prof.lam_rule.nodes, (interval,))
    spec = Spectrum(prof.lam_rule, vals, K, M_SHEAR)
    est = estimate_delta(spec, K, M_SHEAR, n_max=40)
    assert abs(est.delta_hat - expect) <= 0.02 * expect


def test_delta_scaled_matrix():
    M2 = CanonicalMatrix(1.0, 2.0, 0.0, 1.0)
    prof = bump_profile(K, ((2.0, 3.0),), b=2.0)
    vals = bump_spectrum_values(prof.lam_rule.nodes, ((2.0, 3.0),))
    spec = Spectrum(prof.lam_rule, vals, K, M2)
    est = estimate_delta(spec, K, M2, n_max=40)
    assert abs(est.delta_hat - 1.0) <= 0.02


def test_delta_support_containing_zero():
    prof = bump_profile(K, ((-0.5, 0.5),), b=1.0)
    vals = bump_spectrum_values(prof.lam_rule.nodes, ((-0.5, 0.5),))
    spec = Spectrum(prof.lam_rule, vals, K, M_SHEAR)
    est = estimate_delta(spec, K, M_SHEAR, n_max=40)
    assert est.delta_hat <= 0.02


def test_vanishing_interval(pipe12):
    prof, f, spec = pipe12
    # spectrum avoids (-1, 1), so the detected radius is at least ~1
    est = vanishing_interval_detect(spec, K, M_SHEAR, n_max=40)
    assert est.r_hat >= 0.95
    # relation to the gap estimate: r_hat^2 = delta_hat
    d = estimate_delta(spec, K, M_SHEAR, n_max=40)
    assert est.r_hat**2 == pytest.approx(d.delta_hat, rel=1e-9)
    prof0 = bump_profile(K, ((-0.5, 0.5),), b=1.0)
    vals0 = bump_spectrum_values(prof0.lam_rule.nodes, ((-0.5, 0.5),))
    est0 = vanishing_interval_detect(Spectrum(prof0.lam_rule, vals0, K, M_SHEAR), K, M_SHEAR, n_max=40)
    assert est0.r_hat <= 0.15
    z = Spectrum(prof.lam_rule, np.zeros(len(prof.lam_rule)), K, M_SHEAR)
    estz = vanishing_interval_detect(z, K, M_SHEAR, n_max=40)
    assert estz.r_hat == math.inf


def test_gap_estimators_share_one_estimate():
    # a spectrum on (-1, 0.1) has no gap, so the fitted heat limit lands
    # below 0: both names judge convergence on that one fitted limit
    k, interval = 2.0, (-1.0, 0.1)
    prof = bump_profile(k, (interval,), b=1.0)
    spec = Spectrum(prof.lam_rule, bump_spectrum_values(prof.lam_rule.nodes, (interval,)), k, M_SHEAR)
    d = estimate_delta(spec, k, M_SHEAR, p=1.0, n_max=6, x_rule=prof.x_rule)
    r = vanishing_interval_detect(spec, k, M_SHEAR, p=1.0, n_max=6, x_rule=prof.x_rule)
    assert (d.converged, d.diagnostics) == (r.converged, r.diagnostics)
    # the fit lands far below the data (limit -2.4, last value 0.07): not converged
    assert d.converged is False and r.converged is False
    assert set(d.diagnostics) == {"limit_value", "last_value", "fit_rms"}
    assert r.r_hat == math.sqrt(d.delta_hat)


def test_p_independence_of_root_estimates(pipe12):
    prof, f, _ = pipe12
    ests = [
        estimate_sigma(f, K, M_SHEAR, p=p, n_max=50, method="root", lam_rule=prof.lam_rule).sigma_hat
        for p in (1.0, 2.0, math.inf)
    ]
    assert (max(ests) - min(ests)) / min(ests) <= 0.10


@pytest.mark.parametrize("n_max", [0, -1, 61])
def test_estimators_bound_n_max(pipe12, n_max):
    prof, f, spec = pipe12
    P = RealPolynomial((0.0, 0.0, 0.25))
    calls = [
        lambda: estimate_sigma(spec, K, M_SHEAR, n_max=n_max),
        lambda: poly_domain_test(spec, K, M_SHEAR, P, n_max=n_max),
        lambda: compact_spectrum_test(spec, K, M_SHEAR, n_max=n_max),
        lambda: estimate_delta(spec, K, M_SHEAR, n_max=n_max),
        lambda: vanishing_interval_detect(spec, K, M_SHEAR, n_max=n_max),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="n_max"):
            call()


def test_estimators_refuse_float_n_max(pipe12):
    # n_used would read 30.5, and at p != 2 a float n_max failed with an IndexError
    prof, _, spec = pipe12
    for call in (lambda: estimate_sigma(spec, K, M_SHEAR, n_max=30.5),
                 lambda: estimate_sigma(spec, K, M_SHEAR, n_max=30.0),
                 lambda: estimate_delta(spec, K, M_SHEAR, p=1.0, n_max=20.0, x_rule=prof.x_rule)):
        with pytest.raises(ParameterError, match="n_max must be an integer"):
            call()
    assert estimate_sigma(spec, K, M_SHEAR, n_max=np.int64(30)).n_used == 30


def test_one_contraction_per_norm_sequence(pipe12, monkeypatch):
    prof, f, spec = pipe12
    calls = []
    lcdt_folded = transform._lcdt_folded

    def counted(*args):
        calls.append(args[4].shape)
        return lcdt_folded(*args)

    monkeypatch.setattr(transform, "_lcdt_folded", counted)
    compact_spectrum_test(spec, K, M_SHEAR, p=1.0, n_max=40, x_rule=prof.x_rule)
    assert calls == [(len(prof.lam_rule), 41)]
    calls.clear()
    estimate_sigma(f, K, M_SHEAR, p=math.inf, n_max=30, method="root", lam_rule=prof.lam_rule)
    assert calls == [(len(prof.x_rule),), (len(prof.lam_rule), 31)]


def test_sigma_at_large_finite_p(pipe12):
    # |h_n|^p underflows a double from p ~ 500 on unless each column is scaled
    prof, f, _ = pipe12
    for p in (400.0, 1000.0):
        est = estimate_sigma(f, K, M_SHEAR, p=p, n_max=30, method="ratio", lam_rule=prof.lam_rule)
        assert est.converged and est.sigma_hat == pytest.approx(2.0, rel=0.02)


def test_p_not_2_norms_never_unfold(pipe12, monkeypatch):
    prof, _, spec = pipe12

    def refuse(*args, **kwargs):
        raise AssertionError("a p != 2 norm sequence unfolded its inverse block")

    monkeypatch.setattr(transform, "_unfold", refuse)
    P = RealPolynomial((0.0, 0.0, 0.25))
    for p in (1.0, 3.0, math.inf):
        compact_spectrum_test(spec, K, M_SHEAR, p=p, n_max=10, x_rule=prof.x_rule)
        poly_domain_test(spec, K, M_SHEAR, P, p=p, n_max=10, x_rule=prof.x_rule)
        estimate_delta(spec, K, M_SHEAR, p=p, n_max=10, x_rule=prof.x_rule)


def test_headline_values_read_as_attributes(pipe12):
    prof, _, spec = pipe12
    P = RealPolynomial((0.0, 0.0, 0.25))
    cases = [
        ({"sigma_hat", "method", "p"}, estimate_sigma(spec, K, M_SHEAR)),
        ({"inside", "score"}, poly_domain_test(spec, K, M_SHEAR, P)),
        ({"compact", "sigma2_hat"}, compact_spectrum_test(spec, K, M_SHEAR)),
        ({"delta_hat"}, estimate_delta(spec, K, M_SHEAR)),
        ({"r_hat"}, vanishing_interval_detect(spec, K, M_SHEAR)),
    ]
    for headline, est in cases:
        report = est.to_report()
        assert set(report) == headline | {"n_used", "converged", "diagnostics"}
        for key in headline:
            assert getattr(est, key) == report[key]
        assert (report["n_used"], report["converged"], report["diagnostics"]) == (
            est.n_used, est.converged, est.diagnostics)
        with pytest.raises(AttributeError):
            est.no_such_value


def test_p_checked_before_the_contraction(pipe12, monkeypatch):
    prof, _, spec = pipe12

    def refuse(*args):
        raise AssertionError("contraction ran before p was checked")

    monkeypatch.setattr(transform, "_lcdt_folded", refuse)
    for p in (0.5, math.nan):
        with pytest.raises(ParameterError, match="p must"):
            compact_spectrum_test(spec, K, M_SHEAR, p=p, n_max=40, x_rule=prof.x_rule)


@pytest.mark.parametrize("n_max", [1, 2, 3])
def test_sigma_refuses_underdetermined_fits(n_max):
    prof = gauss_profile(K)
    for method in ("root", "ratio"):
        with pytest.raises(ParameterError, match="n_max must be >= 4"):
            estimate_sigma(gaussian(-0.5), K, M_SHEAR, n_max=n_max, method=method,
                           lam_rule=prof.lam_rule, x_rule=prof.x_rule)


def test_estimates_compare_by_identity(pipe12):
    _, _, spec = pipe12
    est = compact_spectrum_test(spec, K, M_SHEAR)
    twin = pickle.loads(pickle.dumps(est))
    assert (est == est) is True
    assert (est == twin) is False
    assert (est.sequence == twin.sequence) is False
    assert np.array_equal(est.sequence.lognorm, twin.sequence.lognorm)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_only_norm_sequence_warns_at_the_grid_edge(pipe12, p):
    # the physical bump's transform floor reaches the grid edge: norm_sequence
    # says so at p != 2, and the estimators on the same input stay silent
    prof, f, _ = pipe12
    with pytest.warns(AccuracyWarning, match="grid edge"):
        norm_sequence(f, K, M_SHEAR, p, 30, lam_rule=prof.lam_rule)
    P = RealPolynomial((0.0, 0.0, 0.25))
    with warnings.catch_warnings():
        warnings.simplefilter("error", AccuracyWarning)
        estimate_sigma(f, K, M_SHEAR, p=p, lam_rule=prof.lam_rule)
        poly_domain_test(f, K, M_SHEAR, P, p=p, lam_rule=prof.lam_rule)
        compact_spectrum_test(f, K, M_SHEAR, p=p, lam_rule=prof.lam_rule)
        estimate_delta(f, K, M_SHEAR, p=p, lam_rule=prof.lam_rule)
        vanishing_interval_detect(f, K, M_SHEAR, p=p, lam_rule=prof.lam_rule)
