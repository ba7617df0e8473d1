import math
import tracemalloc
import warnings

import numpy as np
import pytest

from lcdunkl import transform
from lcdunkl.corpus import bump_profile, bump_spectrum, bump_spectrum_values, gauss_profile, realize_bump
from lcdunkl.errors import AccuracyWarning, ComputationError, ParameterError
from lcdunkl.operators import (
    RealPolynomial,
    _apply_multiplier,
    _mult_heat,
    _mult_i,
    _mult_laplacian,
    _mult_poly,
    _multiplier_lognorms,
    _scaled_powers,
    apply_poly_op,
    apply_power_spectral,
    heat_semigroup,
    norm_sequence,
)
from lcdunkl.paleywiener import (
    compact_spectrum_test,
    estimate_delta,
    estimate_sigma,
    poly_domain_test,
    vanishing_interval_detect,
)
from lcdunkl.quadrature import QuadratureRule, SampledFunction, gaussian_mass_closed_form, lp_norm
from lcdunkl.sobolev import derivative_via_spectrum
from lcdunkl.specfun import CanonicalMatrix
from lcdunkl.symfun import evaluate, gaussian, iterate_op
from lcdunkl.transform import _FOLD_ROWS, Spectrum, _lcdt_lp_norms, lcdt_forward, lcdt_inverse

M_SHEAR = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
M_ROT = CanonicalMatrix.rotation(math.pi / 3)
K = 0.5


@pytest.fixture(scope="module")
def prof():
    return gauss_profile(K)


@pytest.fixture(scope="module")
def heat_prof():
    # modest frequency extent: the series mode needs n*(lam_max/b)^2 <= 21
    from lcdunkl.quadrature import build_rule

    return gauss_profile(K), build_rule(K, 2.6, 26, 12)


def test_polynomial_type():
    P = RealPolynomial((0.0, 0.0, 1.0))
    assert P.degree == 2
    assert P(2.0) == 4.0
    with pytest.raises(ParameterError):
        RealPolynomial((3.0,)).require_nonconstant()
    assert RealPolynomial((1.0, 0.0, 0.0)).degree == 0


def test_power_zero_is_round_trip(prof):
    f = gaussian(-0.5)
    out = apply_power_spectral(f, K, M_SHEAR, 0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    want = evaluate(f, prof.x_rule.nodes)
    assert np.max(np.abs(out.values - want)) <= 1e-6


def test_power_two_matches_symbolic(prof):
    f = gaussian(-0.5)
    spec_path = apply_power_spectral(f, K, M_SHEAR, 2, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    sym_path = evaluate(iterate_op(K, M_SHEAR.inverse(), f, 2), prof.x_rule.nodes)
    assert np.max(np.abs(spec_path.values - sym_path)) <= 1e-6


def test_power_norm_on_bump_spectrum():
    # Plancherel: the physical norm of the operator power equals the
    # lam-side norm of the multiplied bump
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    f, spec = realize_bump(K, M_SHEAR, ((1.0, 2.0),), profb)
    for n in (1, 3):
        with pytest.warns(AccuracyWarning, match="grid edge"):  # the transform's floor reaches the grid edge
            out = apply_power_spectral(f, K, M_SHEAR, n, lam_rule=profb.lam_rule)
        mu = profb.lam_rule.nodes / M_SHEAR.b
        want = math.sqrt(float(np.sum(profb.lam_rule.weights * np.abs(mu**n * spec.values) ** 2)))
        got = lp_norm(out, 2.0)
        assert got == pytest.approx(want, rel=1e-6)


def test_poly_op_is_negative_laplacian(prof):
    f = gaussian(-0.5)
    P = RealPolynomial((0.0, 0.0, 1.0))
    via_poly = apply_poly_op(f, K, M_SHEAR, P, 1, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    via_power = apply_power_spectral(f, K, M_SHEAR, 2, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    assert np.max(np.abs(via_poly.values + via_power.values)) <= 1e-6 * np.max(np.abs(via_power.values))


def test_poly_op_identity_at_zero_power(prof):
    f = gaussian(-0.5)
    P = RealPolynomial((0.0, 0.0, 1.0))
    out = apply_poly_op(f, K, M_SHEAR, P, 0, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    assert np.max(np.abs(out.values - evaluate(f, prof.x_rule.nodes))) <= 1e-6


def test_poly_op_bounded_multiplier_contracts():
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    f, spec = realize_bump(K, M_SHEAR, ((1.0, 2.0),), profb)
    # |P(lam)| = lam^2/4 <= 1 on the support
    P = RealPolynomial((0.0, 0.0, 0.25))
    base = lp_norm(f, 2.0)
    for n in (1, 2):
        with pytest.warns(AccuracyWarning, match="grid edge"):
            out = apply_poly_op(f, K, M_SHEAR, P, n, lam_rule=profb.lam_rule)
        assert lp_norm(out, 2.0) <= base * (1.0 + 1e-9)


@pytest.mark.filterwarnings("ignore::lcdunkl.errors.AccuracyWarning")
def test_power_overflow_raises_computation_error(prof):
    # (lam/b)^n scales the spectrum past e^709: the documented error, not
    # a bare OverflowError from the rescaling
    f = gaussian(-0.5)
    with pytest.raises(ComputationError):
        apply_power_spectral(f, K, M_SHEAR, 400, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    P = RealPolynomial((0.0, 0.0, 1.0))
    with pytest.raises(ComputationError):
        apply_poly_op(f, K, M_SHEAR, P, 200, lam_rule=prof.lam_rule, x_rule=prof.x_rule)


def test_heat_modes_agree(heat_prof):
    prof, lam_small = heat_prof
    f = gaussian(-0.5)
    with pytest.warns(AccuracyWarning, match="grid edge"):  # at n = 1, 2 lam_small cuts the Gaussian short
        for n in (1, 2, 3):
            mult = heat_semigroup(f, K, M_SHEAR, n, mode="multiplier", lam_rule=lam_small, x_rule=prof.x_rule)
            ser = heat_semigroup(f, K, M_SHEAR, n, mode="series", lam_rule=lam_small, x_rule=prof.x_rule)
            assert np.max(np.abs(mult.values - ser.values)) <= 1e-6


def test_heat_identity_at_zero(prof):
    # at n = 0 the cancellation guard is inactive, so the identity can be
    # checked on the full-width frequency rule
    f = gaussian(-0.5)
    for mode in ("multiplier", "series"):
        out = heat_semigroup(f, K, M_SHEAR, 0, mode=mode, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
        assert np.max(np.abs(out.values - evaluate(f, prof.x_rule.nodes))) <= 1e-6


def test_heat_series_guards(heat_prof):
    prof, _ = heat_prof
    f = gaussian(-0.5)
    with pytest.raises(ParameterError):
        # full-width rule: cancellation guard must trip
        heat_semigroup(f, K, M_SHEAR, 1, mode="series", lam_rule=gauss_profile(K).lam_rule,
                       x_rule=prof.x_rule)


def test_heat_bump_norm_window():
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    f, spec = realize_bump(K, M_SHEAR, ((1.0, 2.0),), profb)
    out = heat_semigroup(f, K, M_SHEAR, 3, mode="multiplier", lam_rule=profb.lam_rule)
    nrm = lp_norm(out, 2.0)
    base = lp_norm(f, 2.0)
    assert math.exp(-12.0) * base <= nrm <= math.exp(-3.0) * base


def test_heat_semigroup_law(heat_prof):
    prof, lam_small = heat_prof
    f = gaussian(-0.5)
    with pytest.warns(AccuracyWarning, match="grid edge"):
        one = heat_semigroup(f, K, M_ROT, 1, lam_rule=lam_small, x_rule=prof.x_rule)
        two_step = heat_semigroup(one, K, M_ROT, 2, lam_rule=lam_small)
        direct = heat_semigroup(f, K, M_ROT, 3, lam_rule=lam_small, x_rule=prof.x_rule)
    assert np.max(np.abs(two_step.values - direct.values)) <= 1e-6


def test_heat_monotone_decay(heat_prof):
    prof, lam_small = heat_prof
    f = gaussian(-0.5)
    with pytest.warns(AccuracyWarning, match="grid edge"):
        norms = [
            lp_norm(heat_semigroup(f, K, M_SHEAR, n, lam_rule=lam_small, x_rule=prof.x_rule), 2.0)
            for n in range(4)
        ]
    assert all(norms[i + 1] <= norms[i] + 1e-12 for i in range(3))


def test_norm_sequence_zero_function(prof):
    f = SampledFunction(prof.x_rule, np.zeros(len(prof.x_rule)))
    seq = norm_sequence(f, K, M_SHEAR, 2.0, 10, lam_rule=prof.lam_rule)
    assert seq.is_zero()
    assert np.all(seq.root[1:] == 0.0)


def test_norm_sequence_bump_ratio_approaches_edge():
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    f, spec = realize_bump(K, M_SHEAR, ((1.0, 2.0),), profb)
    seq = norm_sequence(f, K, M_SHEAR, 2.0, 30, lam_rule=profb.lam_rule)
    assert np.all(np.diff(seq.root[5:]) > 0)
    assert seq.ratio[30] == pytest.approx(2.0, rel=0.08)


def _assert_paths_agree(prof, f, M, n_max):
    spec = norm_sequence(f, K, M, 2.0, n_max, path="spectral", lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    sym = norm_sequence(f, K, M, 2.0, n_max, path="symbolic", x_rule=prof.x_rule)
    for n in range(n_max + 1):
        a, b = spec.lognorm[n], sym.lognorm[n]
        assert abs(math.exp(a - b) - 1.0) <= 1e-5


def test_norm_sequence_paths_agree(prof):
    _assert_paths_agree(prof, gaussian(-1.0, m=2), M_ROT, 12)
    _assert_paths_agree(prof, gaussian(-0.4), M_SHEAR, 20)  # up to MAX_N_SYMBOLIC


def test_norm_sequence_paths_agree_beta(prof):
    # beta != 0: the symbolic iterates carry x^(-n)
    _assert_paths_agree(prof, gaussian(-0.4, beta=0.5j), M_SHEAR, 6)


def test_norm_sequence_consistency_and_csv(prof):
    f = gaussian(-0.5)
    seq = norm_sequence(f, K, M_SHEAR, 2.0, 8, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    assert seq.consistency_residual() <= 1e-12
    lines = seq.to_csv_text().strip().splitlines()
    assert lines[0] == "n,lognorm,root,ratio"
    assert len(lines) == 10


def test_norm_sequence_budgets(prof):
    f = gaussian(-0.5)
    for n_max in (0, -1, 61):
        with pytest.raises(ParameterError):
            norm_sequence(f, K, M_SHEAR, 2.0, n_max, lam_rule=prof.lam_rule, x_rule=prof.x_rule)
    for n_max in (-1, 21, 31):
        with pytest.raises(ParameterError):
            norm_sequence(f, K, M_SHEAR, 2.0, n_max, path="symbolic", x_rule=prof.x_rule)


@pytest.mark.parametrize("n", [2.0, 1.5])
def test_operator_powers_refuse_float_counts(prof, n):
    # a float count, 2.0 included, is refused before any transform, in both heat modes
    f, rules = gaussian(-0.5), {"lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    calls = [
        lambda: apply_power_spectral(f, K, M_SHEAR, n, **rules),
        lambda: apply_poly_op(f, K, M_SHEAR, RealPolynomial((0.0, 0.0, 0.25)), n, **rules),
        lambda: heat_semigroup(f, K, M_SHEAR, n, **rules),
        lambda: heat_semigroup(f, K, M_SHEAR, n, mode="series", **rules),
    ]
    for call in calls:
        with pytest.raises(ParameterError, match="must be an integer"):
            call()


def test_norm_sequences_refuse_float_n_max(prof):
    f, rules = gaussian(-0.5), {"lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    for p, n_max in ((2.0, 10.5), (2.0, 10.0), (1.0, 10.0)):
        with pytest.raises(ParameterError, match="n_max must be an integer"):
            norm_sequence(f, K, M_SHEAR, p, n_max, **rules)
    with pytest.raises(ParameterError, match="n_max must be an integer"):
        norm_sequence(f, K, M_SHEAR, 2.0, 2.0, path="symbolic", x_rule=prof.x_rule)


@pytest.mark.parametrize("count", ["power", "derivative order", "n_max"])
def test_counts_refuse_bools(prof, count):
    # True is not the count 1
    f, rules = gaussian(-0.5), {"lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    call = {
        "power": lambda: apply_power_spectral(f, K, M_SHEAR, True, **rules),
        "derivative order": lambda: derivative_via_spectrum(f, K, M_SHEAR, True, prof.x_rule.nodes, **rules),
        "n_max": lambda: norm_sequence(f, K, M_SHEAR, 2.0, True, **rules),
    }[count]
    with pytest.raises(ParameterError, match="must be an integer, got True"):
        call()


def test_numpy_integer_counts_pass(prof):
    f, rules = gaussian(-0.5), {"lam_rule": prof.lam_rule, "x_rule": prof.x_rule}
    for n in (np.int64(2), np.int32(2)):
        assert apply_power_spectral(f, K, M_SHEAR, n, **rules) == apply_power_spectral(f, K, M_SHEAR, 2, **rules)
    assert heat_semigroup(f, K, M_SHEAR, np.int64(1), **rules) == heat_semigroup(f, K, M_SHEAR, 1, **rules)
    for path in ("spectral", "symbolic"):
        seq = norm_sequence(f, K, M_SHEAR, 2.0, np.int64(4), path=path, **rules)
        assert seq.lognorm.shape == (5,)


def _lognorms_one_n_at_a_time(g, log_mult, phase, p, n_max, x_rule):
    """Reference for _multiplier_lognorms: one inverse transform and one lp_norm per n."""
    with np.errstate(divide="ignore"):
        logg = np.log(np.abs(g.values))
    ang = np.exp(1j * np.angle(g.values))
    out = []
    for n in range(n_max + 1):
        L = n * log_mult + logg if n else logg
        mx = float(np.max(L))
        if not np.isfinite(mx):
            out.append(-math.inf)
            continue
        scaled = np.where(np.isneginf(L), 0.0, np.exp(L - mx)) * phase**n * ang
        nrm = lp_norm(lcdt_inverse(Spectrum(g.rule, scaled, g.k, g.M), x_rule), p)
        out.append(mx + math.log(nrm) if nrm > 0 else -math.inf)
    return np.array(out)


def _x_rules(rule):
    """rule; a copy whose positive nodes move by 1e-14 X and whose weights differ by sign
    (not mirror-symmetric: each class of |x| holds one node); and a copy with a node at 0."""
    x, w = rule.nodes, rule.weights
    shifted = QuadratureRule(x + np.where(x > 0, 1e-14 * rule.X, 0.0), w * (1.0 + 0.25 * np.sign(x)), rule.X, rule.k)
    mass = gaussian_mass_closed_form(rule.k, rule.X)
    m = x.size // 2
    centred = QuadratureRule(np.insert(x, m, 0.0), np.insert(0.9 * w, m, 0.1 * mass), rule.X, rule.k)
    return [rule, shifted, centred]


@pytest.mark.parametrize("p", [1.0, 3.0, math.inf])
def test_batched_lognorms_match_one_n_at_a_time(prof, p):
    M_NEG = CanonicalMatrix(1.0, -0.9, 0.0, 1.0)
    lam = prof.lam_rule.nodes
    # two bands: zero on the first and last classes of |lam| (sliced away) and on
    # 0.8 < |lam| < 1.5 (kept); as a bump, and as a step whose edge classes carry weight
    bands = bump_spectrum_values(lam, ((-0.8, -0.3), (1.5, 2.2)))
    step = np.where(bands != 0, 1.0 + 0.5j * lam, 0.0)
    assert np.all(bands[(np.abs(lam) < 0.3) | (np.abs(lam) > 2.2) | ((np.abs(lam) > 0.8) & (np.abs(lam) < 1.5))] == 0)
    spectra = [
        lcdt_forward(gaussian(-0.5), K, M_SHEAR, prof.lam_rule, x_rule=prof.x_rule),
        Spectrum(prof.lam_rule, bump_spectrum_values(lam, ((-2.0, -0.5), (1.0, 2.0))), K, M_NEG),
        Spectrum(prof.lam_rule, bands, K, M_SHEAR),
        Spectrum(prof.lam_rule, step, K, M_NEG),
        Spectrum(prof.lam_rule, np.zeros(lam.shape), K, M_NEG),
    ]
    for x_rule in _x_rules(prof.x_rule):
        for g in spectra:
            mu = lam / g.M.b
            P = RealPolynomial((0.5 * mu[7] ** 2, 0.0, -0.5))
            assert P(mu[7]) == 0.0  # an exact zero of the multiplier on a node
            with np.errstate(divide="ignore"):
                multipliers = [
                    (np.log(np.abs(mu)), 1j * np.sign(mu)),  # i mu
                    (np.log(np.abs(P(mu))), np.sign(P(mu))),  # P(mu)
                    (2.0 * np.log(np.abs(mu)), -np.ones_like(mu)),  # -mu^2
                    (-(mu**2), np.ones_like(mu)),  # heat exp(-n mu^2)
                ]
            for log_mult, phase in multipliers:
                got = np.array(_multiplier_lognorms(g, log_mult, phase, p, 12, x_rule))
                want = _lognorms_one_n_at_a_time(g, log_mult, phase, p, 12, x_rule)
                assert np.array_equal(np.isneginf(got), np.isneginf(want))
                live = np.isfinite(want)
                assert np.all(np.isfinite(got[live]))
                assert np.max(np.abs(got[live] - want[live]), initial=0.0) <= 1e-12
        assert np.all(np.isneginf(got))  # the all-zero spectrum


def _closed_forms(mu, P):
    """(log|m|, m/|m|) of i mu, P(mu), -mu^2 and exp(-mu^2), as typed in the batched test above."""
    with np.errstate(divide="ignore"):
        return [
            (np.log(np.abs(mu)), 1j * np.sign(mu)),
            (np.log(np.abs(P(mu))), np.sign(P(mu))),
            (2.0 * np.log(np.abs(mu)), -np.ones_like(mu)),
            (-(mu**2), np.ones_like(mu)),
        ]


def _zero_on_node(mu):
    P = RealPolynomial((0.5 * mu[7] ** 2, 0.0, -0.5))
    assert P(mu[7]) == 0.0  # an exact zero of the multiplier on a node
    return P


def test_multipliers_are_the_closed_forms(prof):
    mu = prof.lam_rule.nodes / M_ROT.b
    P = _zero_on_node(mu)
    got = [_mult_i(mu), _mult_poly(P)(mu), _mult_laplacian(mu), _mult_heat(mu)]
    for (log_mult, phase), (want_log, want_phase) in zip(got, _closed_forms(mu, P)):
        assert np.array_equal(log_mult, want_log)
        assert np.array_equal(phase, want_phase)


def test_every_multiplier_path_is_its_closed_form(prof):
    # each operator power, norm_sequence and each estimator's sequence, bit for bit
    xr = prof.x_rule
    g = lcdt_forward(gaussian(-0.5), K, M_ROT, prof.lam_rule, x_rule=xr)
    mu = prof.lam_rule.nodes / M_ROT.b
    P = _zero_on_node(mu)
    i_mu, poly, laplacian, heat = _closed_forms(mu, P)
    powers = [
        (apply_power_spectral(g, K, M_ROT, 3, x_rule=xr), i_mu, 3),
        (apply_poly_op(g, K, M_ROT, P, 2, x_rule=xr), poly, 2),
        (heat_semigroup(g, K, M_ROT, 2, x_rule=xr), heat, 2),
    ]
    for out, (log_mult, phase), n in powers:
        assert np.array_equal(out.values, _apply_multiplier(g, log_mult, phase, n, xr))
    for p in (2.0, 1.0):
        sequences = [
            (norm_sequence(g, K, M_ROT, p, 8, x_rule=xr), i_mu),
            (estimate_sigma(g, K, M_ROT, p=p, n_max=8, x_rule=xr).sequence, i_mu),
            (poly_domain_test(g, K, M_ROT, P, p=p, n_max=8, x_rule=xr).sequence, poly),
            (compact_spectrum_test(g, K, M_ROT, p=p, n_max=8, x_rule=xr).sequence, laplacian),
            (estimate_delta(g, K, M_ROT, p=p, n_max=8, x_rule=xr).sequence, heat),
            (vanishing_interval_detect(g, K, M_ROT, p=p, n_max=8, x_rule=xr).sequence, heat),
        ]
        for seq, (log_mult, phase) in sequences:
            assert np.array_equal(seq.lognorm, _multiplier_lognorms(g, log_mult, phase, p, 8, xr))


def test_identity_power_does_not_warn():
    # n = 0 is the input itself: the grid-edge AccuracyWarning (an error under tier-1) stays quiet
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    f, _ = realize_bump(K, M_SHEAR, ((1.0, 2.0),), profb)
    P = RealPolynomial((0.0, 0.0, 0.25))
    for out in (
        apply_power_spectral(f, K, M_SHEAR, 0, lam_rule=profb.lam_rule),
        apply_poly_op(f, K, M_SHEAR, P, 0, lam_rule=profb.lam_rule),
        heat_semigroup(f, K, M_SHEAR, 0, lam_rule=profb.lam_rule),
    ):
        assert np.max(np.abs(out.values - f.values)) <= 1e-6 * np.max(np.abs(f.values))


def test_p2_lognorms_take_a_zero_weight_silently():
    # a lambda weight that underflows to 0 contributes nothing: no divide-by-zero warning from its log
    k, iv = 60.0, ((-0.3, 3.3),)
    lam = bump_profile(k, iv).lam_rule
    w = lam.weights.copy()
    w[np.argmin(w)] = 0.0
    rule = QuadratureRule(lam.nodes, w, lam.X, k)
    spec = Spectrum(rule, bump_spectrum_values(rule.nodes, iv), k, M_SHEAR)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        est = estimate_delta(spec, k, M_SHEAR, n_max=40)
    assert est.delta_hat == 0.0


def test_spectrum_for_another_k_or_M_is_refused():
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    spec = bump_spectrum(K, M_SHEAR, ((1.0, 2.0),), profb)
    xr = profb.x_rule
    assert estimate_sigma(spec, K, M_SHEAR, n_max=30, x_rule=xr).sigma_hat == pytest.approx(2.0, rel=0.02)
    for k, M in ((K, CanonicalMatrix(1.0, 2.0, 0.0, 1.0)), (3.0, CanonicalMatrix(1.0, 2.0, 0.0, 1.0)), (3.0, M_SHEAR)):
        with pytest.raises(ParameterError, match="spectrum is for"):
            estimate_sigma(spec, k, M, n_max=30, x_rule=xr)
        with pytest.raises(ParameterError, match="spectrum is for"):
            apply_power_spectral(spec, k, M, 1, x_rule=xr)
        with pytest.raises(ParameterError, match="spectrum is for"):
            heat_semigroup(spec, k, M, 1, mode="series", x_rule=xr)


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_folded_lp_norms_hold_no_stacked_copies(p):
    # the L^p fold reads ev -/+ i od per sign class through one complex block:
    # the call peaks near twice the bytes of its two (|x| classes x (n_max + 1))
    # contraction outputs, where stacking both classes took 3.7 times them
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    spec = bump_spectrum(K, M_SHEAR, ((1.0, 2.0),), profb)
    rules = {"lam_rule": profb.lam_rule, "x_rule": profb.x_rule}
    compact_spectrum_test(spec, K, M_SHEAR, p=p, n_max=40, **rules)  # warm: the table pair is cached
    outputs = 2 * profb.x_rule.fold[0].size * 41 * 16
    tracemalloc.start()
    try:
        compact_spectrum_test(spec, K, M_SHEAR, p=p, n_max=40, **rules)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * outputs


def _bump_pair():
    profb = bump_profile(K, ((1.0, 2.0),), b=1.0)
    return bump_spectrum(K, M_SHEAR, ((1.0, 2.0),), profb), profb.x_rule


def _dense_fold_norms(g, cols, p, x_rule):
    """Reference for _lcdt_lp_norms: one GEMM per table over the whole pair, both signs stacked."""
    sums, c = transform._lcdt_folded(g.k, g.M.inverse(), x_rule, g.rule, cols)
    ev, s = sums(slice(None))
    _, pos, neg = x_rule.fold
    side = np.concatenate([pos, neg])
    mags = np.abs(np.concatenate([ev - s, ev + s]))
    mags[side == len(x_rule)] = 0.0
    if p == math.inf:
        return abs(c) * np.max(mags, axis=0)
    top = np.max(mags, axis=0)
    np.divide(mags, top, out=mags, where=top > 0)
    return abs(c) * top * (np.append(x_rule.weights, 0.0)[side] @ mags**p) ** (1.0 / p)


@pytest.mark.parametrize("p", [1.0, 1.5, 1000.0, math.inf])
def test_blocked_fold_matches_one_dense_contraction(prof, p):
    # the fold reduces row blocks of the folded sums as they land; the norms
    # are those of the whole contraction, exactly at p = inf. The shifted
    # Gaussian peaks at |x| = 4.5, past the first block, so the running
    # scale of 1 < p < inf grows after the first block
    gauss = lcdt_forward(gaussian(-0.5 + 0.3j), K, M_ROT, prof.lam_rule, x_rule=prof.x_rule)
    shifted = lcdt_forward(gaussian(-1.0, 9.0, coeff=math.exp(-20.25)), K, M_ROT, prof.lam_rule, x_rule=prof.x_rule)
    assert prof.x_rule.fold[0][_FOLD_ROWS] < 4.5
    for g, x_rule in ((gauss, prof.x_rule), (shifted, prof.x_rule), _bump_pair()):
        assert x_rule.fold[0].size > 2 * _FOLD_ROWS
        log_mult, phase = _mult_i(g.rule.nodes / g.M.b)
        for ns in ([5], np.arange(61)):
            cols, _ = _scaled_powers(g, log_mult, phase, ns)
            got = _lcdt_lp_norms(g.k, g.M.inverse(), x_rule, g.rule, cols, p)
            want = _dense_fold_norms(g, cols, p, x_rule)
            assert np.all(want > 0)
            if p == math.inf:
                assert np.array_equal(got, want)
            else:
                assert np.max(np.abs(got - want) / want) <= 1e-14


@pytest.mark.parametrize("p", [1.0, math.inf])
def test_warm_fold_holds_one_row_block(p):
    # no (|x| classes x (n_max + 1)) sums, moduli or powers exist: a warm
    # 41-column fold on the 3120 x 528 bump pair peaks at the prepared input
    # and one block, where the whole contraction's outputs took 3.45 MiB
    spec, x_rule = _bump_pair()
    cols, _ = _scaled_powers(spec, *_mult_i(spec.rule.nodes / M_SHEAR.b), np.arange(41))
    _lcdt_lp_norms(spec.k, spec.M.inverse(), x_rule, spec.rule, cols, p)  # warm: the table pair is cached
    tracemalloc.start()
    try:
        _lcdt_lp_norms(spec.k, spec.M.inverse(), x_rule, spec.rule, cols, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 2**20
