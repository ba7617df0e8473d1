import cmath
import math
import tracemalloc

import numpy as np
import pytest

from lcdunkl import specfun, transform, verify
from lcdunkl.corpus import bump_profile, gauss_profile, realize_bump
from lcdunkl.errors import AccuracyWarning, ParameterError, RangeError
from lcdunkl.operators import norm_sequence
from lcdunkl.quadrature import (QuadratureRule, SampledFunction, build_rule, gaussian_mass_closed_form, inner_product,
                                lp_norm)
from lcdunkl.sobolev import derivative_via_spectrum
from lcdunkl.specfun import CanonicalMatrix, dunkl_kernel_dx, principal_power
from lcdunkl.symfun import SymExpr, Term, evaluate, gaussian, iterate_op
from lcdunkl.transform import (
    Spectrum,
    chirp_factorized_forward,
    dunkl_transform,
    lcdt_forward,
    lcdt_inverse,
    tail_mass_estimate,
)

M_FOURIER = CanonicalMatrix(0.0, 1.0, -1.0, 0.0)
M_SHEAR = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
M_ROT = CanonicalMatrix.rotation(math.pi / 3)
M_SWEEP = [M_FOURIER, M_SHEAR, M_ROT]


def rules(k):
    return build_rule(k, 10.0, 40, 16), build_rule(k, 14.0, 48, 14)


def gaussian_lct_oracle(M, lam):
    # independent closed form for the k = -1/2 transform of exp(-x^2/2):
    # (ib)^(-1/2) (2 pi)^(-1/2) e^{i d lam^2/(2b)} sqrt(pi/p) e^{-lam^2/(4 p b^2)}
    # with p = 1/2 - i a/(2b), everything on principal branches
    p = 0.5 - 0.5j * (M.a / M.b)
    pref = principal_power(1j * M.b, -0.5) / math.sqrt(2 * math.pi)
    return (
        pref
        * cmath.exp(0.5j * (M.d / M.b) * lam * lam)
        * cmath.sqrt(math.pi / p)
        * cmath.exp(-lam * lam / (4 * p * M.b * M.b))
    )


def test_zero_function_zero_spectrum():
    x_rule, lam_rule = rules(0.5)
    f = SampledFunction(x_rule, np.zeros(len(x_rule)))
    g = lcdt_forward(f, 0.5, M_SHEAR, lam_rule)
    assert np.all(g.values == 0)


@pytest.mark.parametrize("M", M_SWEEP)
def test_gaussian_matches_lct_closed_form(M):
    x_rule, lam_rule = rules(-0.5)
    g = lcdt_forward(gaussian(-0.5), -0.5, M, lam_rule, x_rule=x_rule)
    want = np.array([gaussian_lct_oracle(M, lam) for lam in lam_rule.nodes])
    assert np.max(np.abs(g.values - want)) <= 1e-8 * np.max(np.abs(want))


def test_gaussian_fixed_point_profile():
    # Fourier case: |D f| proportional to exp(-lam^2/2), so the value ratio
    # between lam and 0 follows the Gaussian profile
    x_rule, lam_rule = rules(-0.5)
    g = lcdt_forward(gaussian(-0.5), -0.5, M_FOURIER, lam_rule, x_rule=x_rule)
    mask = np.abs(lam_rule.nodes) <= 5.0
    prof = np.abs(g.values[mask]) / np.exp(-lam_rule.nodes[mask] ** 2 / 2)
    assert np.max(np.abs(prof - 1.0)) <= 1e-8


@pytest.mark.parametrize("k", [-0.5, 0.0, 0.5, 2.0])
def test_fourier_matrix_reduces_to_dunkl(k):
    x_rule, lam_rule = rules(k)
    f = gaussian(-0.5, m=1, coeff=0.4 + 1j)
    lcdt = lcdt_forward(f, k, M_FOURIER, lam_rule, x_rule=x_rule)
    dunkl = dunkl_transform(f, k, lam_rule, x_rule=x_rule)
    sums, c = transform._lcdt_folded(k, M_FOURIER, lam_rule, x_rule, evaluate(f, x_rule.nodes))
    plain = transform._unfold(lam_rule, *sums(slice(None)))[:, 0]
    pref = principal_power(1j, -(k + 1.0))
    assert c == pref
    assert dunkl.M == M_FOURIER
    assert np.max(np.abs(dunkl.values - lcdt.values)) <= 1e-12
    assert np.max(np.abs(lcdt.values - pref * plain)) <= 1e-9


def test_dunkl_transform_round_trip():
    prof = gauss_profile(0.5)
    g = dunkl_transform(gaussian(-0.5), 0.5, prof.lam_rule, x_rule=prof.x_rule)
    back = lcdt_inverse(g, prof.x_rule)
    assert np.max(np.abs(back.values - evaluate(gaussian(-0.5), prof.x_rule.nodes))) <= 1e-6


@pytest.mark.parametrize(
    "k,M,expr",
    [
        (0.0, M_SHEAR, gaussian(-0.5)),
        (0.5, CanonicalMatrix(2.0, 1.0, 1.0, 1.0), gaussian(-1.0, m=1)),
        (2.0, M_ROT, gaussian(-1.0, m=2)),
    ],
)
def test_round_trip(k, M, expr):
    x_rule, lam_rule = rules(k)
    fwd = lcdt_forward(expr, k, M, lam_rule, x_rule=x_rule)
    back = lcdt_inverse(fwd, x_rule)
    want = evaluate(expr, x_rule.nodes)
    assert np.max(np.abs(back.values - want)) <= 1e-6


def test_round_trip_zero_spectrum():
    x_rule, lam_rule = rules(0.0)
    g = Spectrum(lam_rule, np.zeros(len(lam_rule)), 0.0, M_SHEAR)
    back = lcdt_inverse(g, x_rule)
    assert np.all(back.values == 0)


@pytest.mark.parametrize(
    "k,M,expr,tol",
    [
        (0.0, M_SHEAR, gaussian(-0.5), 1e-9),
        (1.0, M_ROT, gaussian(-1.0 + 0.25j), 1e-8),
        (0.5, M_FOURIER, gaussian(-0.7, m=2), 1e-12),
    ],
)
def test_chirp_factorized_path_agrees(k, M, expr, tol):
    x_rule, lam_rule = rules(k)
    direct = lcdt_forward(expr, k, M, lam_rule, x_rule=x_rule)
    fact = chirp_factorized_forward(expr, k, M, lam_rule, x_rule=x_rule)
    scale = np.max(np.abs(direct.values))
    assert np.max(np.abs(direct.values - fact.values)) <= tol * max(scale, 1.0)


def test_dunkl_fourier_reduction():
    x_rule, lam_rule = rules(-0.5)
    g = dunkl_transform(gaussian(-0.5), -0.5, lam_rule, x_rule=x_rule)
    mask = np.abs(lam_rule.nodes) <= 5.0
    prof = np.abs(g.values[mask]) / np.exp(-lam_rule.nodes[mask] ** 2 / 2)
    assert np.max(np.abs(prof - 1.0)) <= 1e-8


def test_dunkl_intertwining_sign():
    # D_k(Lambda^n f) = (i lam)^n D_k(f); n = 1 distinguishes the sign,
    # pinned here by the k = -1/2 reduction where Lambda = d/dx and the
    # kernel is exp(-i lam x)
    k = 0.5
    x_rule, lam_rule = rules(k)
    f = gaussian(-1.0)
    base = dunkl_transform(f, k, lam_rule, x_rule=x_rule)
    for n in (1, 2, 3, 4):
        it = iterate_op(k, M_FOURIER.inverse(), f, n)  # inverse of (0,1;-1,0) has d-entry 0
        got = dunkl_transform(it, k, lam_rule, x_rule=x_rule)
        want = (1j * lam_rule.nodes) ** n * base.values
        denom = np.max(np.abs(want))
        assert np.max(np.abs(got.values - want)) <= 1e-7 * denom


@pytest.mark.parametrize("n", [1, 4, 8])
def test_intertwining_beta_iterates(n):
    # D^M_k(Lambda^n f) = (i mu)^n D^M_k(f) with Lambda the inverse-matrix operator, for beta != 0
    k = 0.5
    prof = gauss_profile(k)
    f = gaussian(-0.4, beta=0.5j)
    base = lcdt_forward(f, k, M_SHEAR, prof.lam_rule, x_rule=prof.x_rule)
    it = iterate_op(k, M_SHEAR.inverse(), f, n)
    if n < 8:  # the numerator's tail bound over X^n stays below the warn threshold
        got = lcdt_forward(it, k, M_SHEAR, prof.lam_rule, x_rule=prof.x_rule)
    else:  # x^16 e^(-0.4 x^2) carries a real tail past X = 10
        with pytest.warns(AccuracyWarning, match="estimated tail mass"):
            got = lcdt_forward(it, k, M_SHEAR, prof.lam_rule, x_rule=prof.x_rule)
    want = (1j * prof.lam_rule.nodes / M_SHEAR.b) ** n * base.values
    assert np.max(np.abs(got.values - want)) <= 1e-7 * np.max(np.abs(want))


def test_plancherel_and_parseval():
    k = 0.5
    x_rule, lam_rule = rules(k)
    f = gaussian(-0.5, coeff=1.0 + 0.5j)
    g = gaussian(-1.0, m=2)
    Ff = lcdt_forward(f, k, M_ROT, lam_rule, x_rule=x_rule)
    Fg = lcdt_forward(g, k, M_ROT, lam_rule, x_rule=x_rule)
    sf = SampledFunction(x_rule, evaluate(f, x_rule.nodes))
    sg = SampledFunction(x_rule, evaluate(g, x_rule.nodes))
    assert lp_norm(Ff.as_sampled(), 2) == pytest.approx(lp_norm(sf, 2), rel=1e-6)
    assert inner_product(Ff.as_sampled(), Fg.as_sampled()) == pytest.approx(
        inner_product(sf, sg), rel=1e-6, abs=1e-9
    )


def test_hausdorff_young():
    k = 0.0
    x_rule, lam_rule = rules(k)
    f = gaussian(-0.5, m=1)
    sf = SampledFunction(x_rule, evaluate(f, x_rule.nodes))
    for M in M_SWEEP:
        Ff = lcdt_forward(f, k, M, lam_rule, x_rule=x_rule).as_sampled()
        for p in (1.0, 4.0 / 3.0, 2.0):
            q = math.inf if p == 1.0 else p / (p - 1.0)
            bound = abs(M.b) ** (-(k + 1.0) * (1.0 - 2.0 / (q if q != math.inf else math.inf))) if q != math.inf else abs(M.b) ** (-(k + 1.0))
            slack = bound * lp_norm(sf, p) - lp_norm(Ff, q)
            assert slack >= -1e-9


def test_riemann_lebesgue_decay():
    k = 0.5
    x_rule, lam_rule = rules(k)
    f = gaussian(-0.5)
    sf = SampledFunction(x_rule, evaluate(f, x_rule.nodes))
    g = lcdt_forward(f, k, M_SHEAR, lam_rule, x_rule=x_rule)
    edge = np.abs(g.values[np.abs(g.rule.nodes) > 0.9 * g.rule.X])
    assert np.max(edge) <= 1e-8 * lp_norm(sf, 1)


def test_mismatched_rule_parameter_rejected():
    x_rule, _ = rules(0.5)
    _, lam_rule = rules(0.0)
    f = SampledFunction(x_rule, np.exp(-x_rule.nodes**2))
    with pytest.raises(ParameterError):
        lcdt_forward(f, 0.5, M_SHEAR, lam_rule)
    prof = gauss_profile(0.5)
    with pytest.raises(ParameterError, match="different Dunkl parameter"):
        chirp_factorized_forward(gaussian(-0.5), 1.0, M_SHEAR, prof.lam_rule, prof.x_rule)


@pytest.mark.parametrize("k", [0.5, 2.0, 20.0])
def test_tail_mass_matches_the_gamma_formula(k):
    # the log-space bound against the direct Gamma(s) / a^s form where Gamma(s) is finite
    rule, _ = rules(k)
    terms = [(1.0, 0, 0.5, 0.0), (2.5, 3, 0.1, 0.4), (0.7, 8, 0.05, -0.2)]
    numerator = [Term(c, m=m, alpha=-a, beta=br) for c, m, a, br in terms]
    got = tail_mass_estimate(SymExpr(numerator), rule)
    want = 0.0
    for c, m, a, br in terms:
        a_eff = a - abs(br) / rule.X
        s = 0.5 * (m + 2.0 * k + 2.0)
        g = specfun.regularized_gamma(s, a_eff * rule.X**2)[1] * math.gamma(s) / a_eff**s
        want += c * g / (2.0 ** (k + 1.0) * math.gamma(k + 1.0))
    assert got == pytest.approx(want, rel=1e-12)
    # over x^j the bound is divided by X^j
    assert tail_mass_estimate(SymExpr(numerator, j=3), rule) == pytest.approx(want / rule.X**3, rel=1e-12)


def test_spectrum_csv_and_metadata():
    x_rule, lam_rule = rules(0.0)
    g = lcdt_forward(gaussian(-0.5), 0.0, M_SHEAR, lam_rule, x_rule=x_rule)
    lines = g.to_csv_text().strip().splitlines()
    assert lines[0] == "lambda,re,im"
    assert len(lines) == len(lam_rule) + 1
    meta = g.metadata()
    assert meta["matrix"] == {"a": 1.0, "b": 1.0, "c": 0.0, "d": 1.0}
    back = Spectrum.from_json_text(g.to_json_text())
    assert np.array_equal(back.values, g.values)
    assert back.M == g.M and back.k == g.k
    assert back.to_json_text() == g.to_json_text()


def test_spectra_compare_by_value():
    # the dataclass __eq__ compared the value arrays and raised "truth value
    # of an array is ambiguous", in == and in list membership alike
    x_rule, lam_rule = rules(0.5)
    g = lcdt_forward(gaussian(-0.5), 0.5, M_SHEAR, lam_rule, x_rule=x_rule)
    back = Spectrum.from_json_text(g.to_json_text())
    assert back == g and back in [g] and not back != g
    vals = g.values.copy()
    vals[5] *= 1.0 + 1e-12
    assert Spectrum(g.rule, vals, g.k, g.M, label=g.label) != g
    assert Spectrum(g.rule, g.values, g.k, M_ROT, label=g.label) != g
    assert Spectrum(g.rule, g.values, g.k, g.M, label=g.label, warnings=("w",)) != g
    assert g != g.as_sampled()
    with pytest.raises(TypeError, match="Spectrum"):
        hash(g)


# the folded kernel tables against dense sums over the unfolded grids

M_BPOS = CanonicalMatrix.rotation(-math.pi / 4)
M_BNEG = CanonicalMatrix.rotation(math.pi / 3)
FOLD_K = 1.2


def small_profile():
    return gauss_profile(FOLD_K, X=8.0, x_panels=16, x_nodes=16, L=9.0, l_panels=18, l_nodes=14)


def neither_even_nor_odd(x_rule):
    x = x_rule.nodes
    return SampledFunction(x_rule, (1.0 + 0.6 * x - 0.3j * x * x) * np.exp(-0.5 * x * x))


def dense_lcdt(vals, M, lam_rule, x_rule):
    lam, x = lam_rule.nodes, x_rule.nodes
    kern = dunkl_kernel_dx(FOLD_K, 0, -lam[:, None] / M.b, x)  # E_k(-i lam/b, x)
    core = kern @ (x_rule.weights * np.exp(0.5j * (M.a / M.b) * x * x) * vals)
    return principal_power(1j * M.b, -(FOLD_K + 1.0)) * np.exp(0.5j * (M.d / M.b) * lam * lam) * core


def assert_close(got, want):
    assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


@pytest.mark.parametrize("M", [M_BPOS, M_BNEG])
def test_folded_forward_and_inverse_match_dense_sums(M):
    prof = small_profile()
    f = neither_even_nor_odd(prof.x_rule)
    g = lcdt_forward(f, FOLD_K, M, prof.lam_rule)
    assert_close(g.values, dense_lcdt(f.values, M, prof.lam_rule, prof.x_rule))
    back = lcdt_inverse(g, prof.x_rule)
    assert_close(back.values, dense_lcdt(g.values, M.inverse(), prof.x_rule, prof.lam_rule))


@pytest.mark.parametrize("M", [M_BPOS, M_BNEG])
def test_folded_inverse_of_banded_spectrum_matches_dense_sums(M):
    # zero on the first and last classes of |lam| (sliced out of the contraction)
    # and on 1.5 < |lam| < 2.5 (kept); nonzero up to the band edges, odd on the
    # inner band and even on the outer one, so each end of the slice sees one part only
    prof = small_profile()
    lam = prof.lam_rule.nodes
    a = np.abs(lam)
    vals = np.where((a > 0.5) & (a < 1.5), (1.0 + 0.5j) * lam, 0.0) + np.where((a > 2.5) & (a < 4.0), 1.0 - 0.3j, 0.0)
    g = Spectrum(prof.lam_rule, vals, FOLD_K, M)
    assert_close(lcdt_inverse(g, prof.x_rule).values, dense_lcdt(vals, M.inverse(), prof.x_rule, prof.lam_rule))


def with_node_at_zero(rule):
    # one more node, at 0; its weight comes off the innermost pair, so the Gaussian mass holds
    m = rule.nodes.size // 2
    w0 = 0.5 * rule.weights[m]
    weights = rule.weights.copy()
    weights[[m - 1, m]] -= 0.5 * w0 * math.exp(rule.nodes[m] ** 2)
    return QuadratureRule(np.insert(rule.nodes, m, 0.0), np.insert(weights, m, w0), rule.X, rule.k)


@pytest.mark.parametrize("M", [M_BPOS, M_BNEG])
def test_rule_with_a_node_at_zero_matches_dense_sums(M):
    # the zero class joins the even sum only, and the >= 0 side of the L^p fold;
    # the odd-count rule is the x rule once and the lam rule once
    prof = small_profile()
    for x_rule, lam_rule in ((with_node_at_zero(prof.x_rule), prof.lam_rule),
                             (prof.x_rule, with_node_at_zero(prof.lam_rule))):
        f = neither_even_nor_odd(x_rule)
        assert_close(lcdt_forward(f, FOLD_K, M, lam_rule).values, dense_lcdt(f.values, M, lam_rule, x_rule))
        g = Spectrum(lam_rule, neither_even_nor_odd(lam_rule).values, FOLD_K, M)
        back = lcdt_inverse(g, x_rule)
        assert_close(back.values, dense_lcdt(g.values, M.inverse(), x_rule, lam_rule))
        mu = lam_rule.nodes / M.b
        for p in (1.0, math.inf):
            seq = norm_sequence(g, FOLD_K, M, p, 4, x_rule=x_rule)
            for n in range(5):
                h = np.abs(dense_lcdt((1j * mu) ** n * g.values, M.inverse(), x_rule, lam_rule))
                want = np.max(h) if p == math.inf else np.sum(x_rule.weights * h)
                assert seq.lognorm[n] == pytest.approx(math.log(want), abs=1e-12)


@pytest.mark.parametrize("M", [M_BPOS, M_BNEG])
def test_folded_forward_on_nearly_symmetric_rule(M):
    prof = small_profile()
    nodes = prof.x_rule.nodes.copy()
    half = nodes.size // 2
    nodes[half:] = np.nextafter(nodes[half:], np.inf)  # mirror-symmetric to 1 ulp, not bit-exactly
    rule = QuadratureRule(nodes, prof.x_rule.weights, prof.x_rule.X, FOLD_K)
    assert not np.array_equal(rule.nodes, -rule.nodes[::-1])
    f = neither_even_nor_odd(rule)
    g = lcdt_forward(f, FOLD_K, M, prof.lam_rule)
    assert_close(g.values, dense_lcdt(f.values, M, prof.lam_rule, rule))


def held_bytes():
    return sum(a.nbytes for pair in transform._tables.values() for a in pair)


def test_table_cache_evicts_by_bytes(monkeypatch):
    monkeypatch.setattr(transform, "_tables", {})
    prof = small_profile()
    f = neither_even_nor_odd(prof.x_rule)
    first = lcdt_forward(f, FOLD_K, M_BPOS, prof.lam_rule).values
    pair = held_bytes()
    assert len(transform._tables) == 1 and pair > 0

    # room for one pair: a new |b| evicts the oldest, a rebuild is bit-identical
    monkeypatch.setattr(transform, "TABLE_BUDGET", pair)
    lcdt_forward(f, FOLD_K, M_BNEG, prof.lam_rule)
    assert len(transform._tables) == 1 and held_bytes() <= pair
    assert np.array_equal(lcdt_forward(f, FOLD_K, M_BPOS, prof.lam_rule).values, first)
    assert len(transform._tables) == 1 and held_bytes() <= pair

    # a pair larger than the whole budget is used but not kept
    monkeypatch.setattr(transform, "TABLE_BUDGET", pair - 1)
    transform._tables.clear()
    assert np.array_equal(lcdt_forward(f, FOLD_K, M_BPOS, prof.lam_rule).values, first)
    assert not transform._tables


def test_direct_chirp_and_derivative_routes_share_one_table_pair(monkeypatch):
    # the chirp route and spectral derivatives contract on lcdt_forward's pair
    monkeypatch.setattr(transform, "_tables", {})
    prof = gauss_profile(0.5)
    M = CanonicalMatrix(1.0, 0.9, 0.0, 1.0)
    f = gaussian(-0.5, m=1)
    lcdt_forward(f, 0.5, M, prof.lam_rule, x_rule=prof.x_rule)
    chirp_factorized_forward(f, 0.5, M, prof.lam_rule, prof.x_rule)
    derivative_via_spectrum(f, 0.5, M, 1, np.linspace(-2.0, 2.0, 9), prof.lam_rule, x_rule=prof.x_rule)
    assert len(transform._tables) == 1


def test_bump_round_trip_at_large_order():
    # k = 2.4 puts the odd kernel part at order k + 1 = 3.4: realize the
    # constructed bump physically (3120 x-nodes, 528 lambda-nodes) and
    # transform it back
    k, M, intervals = 2.4, CanonicalMatrix(1.0, 1.0, 0.0, 1.0), ((1.0, 2.0),)
    prof = bump_profile(k, intervals)
    f, spec = realize_bump(k, M, intervals, prof)
    back = lcdt_forward(f, k, M, prof.lam_rule)
    lam = prof.lam_rule.nodes
    inside = (lam > 1.0) & (lam < 2.0)
    peak = np.max(np.abs(spec.values))
    assert np.max(np.abs(back.values - spec.values)[inside]) <= 1e-5 * peak


def test_table_build_evaluates_only_panel_nodes(monkeypatch):
    # a cold table pair of the bump grid runs the exact evaluator at the
    # interpolation nodes only, not at its 411,840 entries per order, at jv
    # orders (k = 1.8) and at half-integer ones (k = 0.5) alike
    calls = []
    bessel_j_grid = specfun.bessel_j_grid

    def counted(nu, u):
        calls.append((nu, np.size(u)))
        return bessel_j_grid(nu, u)

    monkeypatch.setattr(specfun, "bessel_j_grid", counted)
    for k in (1.8, 0.5):
        prof = bump_profile(k, ((1.0, 2.0),))
        fa = np.unique(np.abs(prof.lam_rule.nodes))
        xa = np.unique(np.abs(prof.x_rule.nodes))
        assert fa.size * xa.size == 411840
        calls.clear()
        monkeypatch.setattr(transform, "_tables", {})
        transform._bessel_tables(k, fa, xa, 1.0)
        panels = math.ceil(fa[-1] * xa[-1] / specfun.PANEL_WIDTH)
        assert [nu for nu, _ in calls] == [k, k + 1.0]
        assert all(points <= panels * specfun.PANEL_NODES for _, points in calls)
        assert all(points <= 411840 // 10 for _, points in calls)


def test_cold_table_build_memory(monkeypatch):
    # the interpolant fills the pair in chunks: a cold half-integer pair of
    # the 3120 x 528 bump grid peaks below twice the bytes it returns
    prof = bump_profile(0.5, ((1.0, 2.0),))
    assert (len(prof.x_rule), len(prof.lam_rule)) == (3120, 528)
    fa, xa = prof.lam_rule.fold[0], prof.x_rule.fold[0]
    monkeypatch.setattr(transform, "_tables", {})
    import scipy.special  # noqa: F401  (scipy's import is not the build's, whichever test runs first)
    tracemalloc.start()
    try:
        even, odd = transform._bessel_tables(0.5, fa, xa, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * (even.nbytes + odd.nbytes)


def _cold_bump_build_bytes_per_entry(monkeypatch):
    # tracemalloc peak of a cold k = 1.8 bump pair, per entry of one table
    prof = bump_profile(1.8, ((0.9, 1.8),), b=0.9)
    fa, xa = prof.lam_rule.fold[0], prof.x_rule.fold[0]
    monkeypatch.setattr(transform, "_tables", {})
    transform._bessel_tables(1.8, fa, xa, 0.9)  # scipy's import is not the build's
    transform._tables.clear()
    tracemalloc.start()
    try:
        transform._bessel_tables(1.8, fa, xa, 0.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (fa.size * xa.size)


def test_cold_table_build_releases_the_argument_array(monkeypatch):
    # t = |lam||x|/|b| goes before the odd table is filled block by block: a
    # cold k = 1.8 pair peaks near the 16 B per entry of the pair itself, where
    # holding t beside both tables took 27.6
    assert _cold_bump_build_bytes_per_entry(monkeypatch) <= 20


def test_cold_table_build_fits_before_the_argument_array(monkeypatch):
    # both panel fits run before t exists, and the Clenshaw chunks are 8192
    # points: 18.1 B per entry, where fitting on t with 16384-point chunks took 19.35
    assert _cold_bump_build_bytes_per_entry(monkeypatch) <= 18.5


@pytest.mark.parametrize("k", [-0.5, 1.8])
def test_panel_fit_from_the_corner_is_the_table_fit_bit_for_bit(k, monkeypatch):
    # on sorted magnitudes the corner entry is max t bit for bit, and the build
    # fits both orders from it alone: None only at order -1/2 (cos), one panel
    # on [0, PANEL_WIDTH] at max t of 0, and beyond U_MAX the RangeError of the
    # direct evaluator, before t exists
    bump, gauss = bump_profile(k, ((0.9, 1.8),), b=0.9), gauss_profile(k)
    grids = [(p.lam_rule.fold[0], p.x_rule.fold[0]) for p in (bump, gauss)]
    fa, xa = grids[0]
    grids += [(fa[:1] * 0.0, xa), (fa[:2], xa[:3])]
    panel_fit, fits = specfun._panel_fit, []

    def recorded(nu, umax):
        fits.append((nu, umax))
        return panel_fit(nu, umax)

    monkeypatch.setattr(transform, "_panel_fit", recorded)
    nones = refused = 0
    for (rows, cols), absb in zip(grids + grids[:1], (0.9, 1.0, 0.9, 0.9, 0.3)):
        t = np.multiply.outer(rows, cols) / absb
        monkeypatch.setattr(transform, "_tables", {})
        fits.clear()
        if t.max() > specfun.U_MAX:
            refused += 1
            with pytest.raises(RangeError):
                transform._bessel_tables(k, rows, cols, absb)
            assert fits == [(k, t.max())]
            continue
        transform._bessel_tables(k, rows, cols, absb)
        assert fits == [(k, t.max()), (k + 1.0, t.max())]
        for nu in (k, k + 1.0):
            got = panel_fit(nu, t.max())
            if got is None:
                nones += 1
                assert nu == -0.5
            else:
                span = t.max() or specfun.PANEL_WIDTH
                assert got[1] == span and got[0].shape == (specfun.PANEL_NODES, math.ceil(span / specfun.PANEL_WIDTH))
    assert (nones, refused) == (4 if k == -0.5 else 0, 1)


@pytest.mark.parametrize("k", [-0.5, 0.5, 1.8])
def test_table_pair_is_the_unblocked_formula_bit_for_bit(k, monkeypatch):
    # the odd table, filled block by block from a recomputed t, against
    # j_k(t), t j_{k+1}(t) / (2(k+1)) on the whole t at once; the bump grid
    # and a 20 x 30 corner of it alike interpolate (j_{1/2} beside cos at k = -1/2)
    prof = bump_profile(k, ((0.9, 1.8),), b=0.9)
    fa, xa = prof.lam_rule.fold[0], prof.x_rule.fold[0]
    for rows, cols in ((xa, fa), (xa[:20], fa[:30])):
        monkeypatch.setattr(transform, "_tables", {})
        t = np.multiply.outer(rows, cols) / 0.9
        even_fit, odd_fit = (specfun._panel_fit(nu, float(t.max())) for nu in (k, k + 1.0))
        even = specfun.bessel_j_grid(k, t) if even_fit is None else specfun._clenshaw(even_fit, t, np.empty(t.shape))
        odd = specfun._clenshaw(odd_fit, t, np.empty(t.shape))
        odd *= t
        odd *= 0.5 / (k + 1.0)
        got = transform._bessel_tables(k, cols, rows, 0.9)
        assert [a.shape for a in got] == [t.shape[::-1]] * 2
        assert np.array_equal(got[0].T, even) and np.array_equal(got[1].T, odd)


def test_verify_checks_the_cached_table_pair(monkeypatch):
    # bessel_table_interpolation reads the pair lcdt_forward caches for a
    # Gaussian profile, so a perturbed cached odd table fails it
    prof = gauss_profile(0.5)
    monkeypatch.setattr(transform, "_tables", {})
    transform._bessel_tables(0.5, prof.lam_rule.fold[0], prof.x_rule.fold[0], 1.0)
    (pair,) = transform._tables.values()
    pair[1][...] *= 1.0 + 1e-9
    (check,) = [c for c in verify.checks_specfun() if c["name"] == "bessel_table_interpolation"]
    assert not check["passed"] and check["measured"] > check["tolerance"]


@pytest.mark.parametrize("k", [-0.5, 0.5, 2.0])
def test_one_node_rule_at_zero_transforms_to_its_weight(k, monkeypatch):
    # every kernel argument is 0: the tables fit one panel on [0, PANEL_WIDTH],
    # and the transform is c e^{i d lam^2/(2b)} w f(0), c = (ib)^(-(k+1))
    X, M = 4.0, CanonicalMatrix(1.0, 0.9, 0.0, 1.0)
    x_rule = QuadratureRule(np.array([0.0]), np.array([gaussian_mass_closed_form(k, X)]), X, k)
    lam_rule = gauss_profile(k).lam_rule
    f = SampledFunction(x_rule, np.array([0.7 - 0.2j]))
    monkeypatch.setattr(transform, "_tables", {})
    lam = lam_rule.nodes
    want = principal_power(0.9j, -(k + 1.0)) * np.exp(0.5j * (M.d / M.b) * lam * lam) * x_rule.weights[0] * f.values[0]
    got = lcdt_forward(f, k, M, lam_rule).values
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14


def test_table_pair_is_stored_with_rows_on_the_longer_grid(monkeypatch):
    # the raw-byte order of this pair's folded grids would put |lam| on the
    # rows; stored by size, the p != 2 inverse (n_max + 1 columns against the
    # |lam| classes) reads C order, whichever direction builds the pair
    k, M, intervals = 0.5, CanonicalMatrix(1.0, 1.0, 0.0, 1.0), ((1.1, 1.9),)
    prof = bump_profile(k, intervals)
    lam_a, x_a = prof.lam_rule.fold[0], prof.x_rule.fold[0]
    assert lam_a.tobytes() < x_a.tobytes() and x_a.size > lam_a.size

    def stored():
        (pair,) = transform._tables.values()
        return [(t.shape, t.flags.c_contiguous) for t in pair]

    monkeypatch.setattr(transform, "_tables", {})
    f, _ = realize_bump(k, M, intervals, prof)  # inverse first
    assert stored() == [((x_a.size, lam_a.size), True)] * 2
    transform._tables.clear()
    lcdt_forward(f, k, M, prof.lam_rule)  # forward first
    assert stored() == [((x_a.size, lam_a.size), True)] * 2
