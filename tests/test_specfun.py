import cmath
import math
import sys

import mpmath as mp
import numpy as np
import pytest

from lcdunkl import specfun, transform
from lcdunkl.corpus import bump_profile
from lcdunkl.errors import ParameterError, RangeError
from lcdunkl.specfun import (
    U_MAX,
    CanonicalMatrix,
    bessel_j_grid,
    bessel_j_norm,
    dunkl_kernel,
    dunkl_kernel_dx,
    lcdt_kernel,
    principal_power,
)

K_SWEEP = [-0.5, 0.0, 0.5, 2.0]


@mp.workdps(40)
def jk_oracle(nu, x):
    # direct high-precision summation of the defining series; the order
    # stays an exact mpf so no float64 rounding leaks into the recurrence
    x = mp.mpf(abs(x))
    nu = mp.mpf(nu)
    if x == 0:
        return 1.0
    s = mp.mpf(1)
    term = mp.mpf(1)
    n = 0
    while True:
        n += 1
        term *= -(x / 2) ** 2 / (n * (nu + n))
        s += term
        if abs(term) < mp.mpf(10) ** (-38) * (1 + abs(s)) and n > 4:
            return float(s)


def test_domain_type_invariants():
    with pytest.raises(ParameterError, match="k >= -1/2"):
        specfun.kval(-0.51)
    assert specfun.kval(-0.5) == -0.5
    with pytest.raises(ParameterError):
        CanonicalMatrix(1.0, 1.0, 1.0, 1.0)  # det 0
    with pytest.raises(ParameterError):
        CanonicalMatrix(1.0, 0.0, 0.0, 1.0)  # b = 0
    m = CanonicalMatrix(2.0, 1.0, 1.0, 1.0)
    assert m.inverse() == CanonicalMatrix(1.0, -1.0, -1.0, 2.0)


def test_bessel_at_zero_is_one():
    assert bessel_j_norm(0.7, 0.0) == 1.0


def test_bessel_cosine_reduction():
    # j_{-1/2}(x) = cos(x); frozen against the series oracle
    assert jk_oracle(-0.5, math.pi) == pytest.approx(-1.0, abs=1e-15)
    assert bessel_j_norm(-0.5, math.pi) == pytest.approx(-1.0, rel=1e-12)


def test_bessel_first_zero_of_j0():
    # first zero of the classical J_0, located by bisection on the oracle
    lo, hi = 2.0, 3.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if jk_oracle(0.0, lo) * jk_oracle(0.0, mid) <= 0:
            hi = mid
        else:
            lo = mid
    assert abs(0.5 * (lo + hi) - 2.404826) < 1e-6
    assert abs(bessel_j_norm(0.0, 2.404826)) <= 1e-5


@pytest.mark.parametrize("nu", [-0.5, -0.49, -0.2, 0.0, 0.3, 0.5, 0.7, 1.0, 2.0, 3.0, 5.0, 12.0])
def test_bessel_accuracy_against_oracle(nu):
    xs = np.concatenate([np.linspace(0.0, 50.0, 141), [7.5, 7.500001, 18.0, 18.000001]])
    vals = bessel_j_grid(nu, xs)
    for x, got in zip(xs, vals):
        ref = jk_oracle(nu, x)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))
        if abs(ref) >= 5e-2:
            assert abs(got - ref) / abs(ref) <= 1e-12


@pytest.mark.parametrize("nu", [0.0, 0.8, 2.0, 4.0])
def test_bessel_regime_overlap_band(nu):
    # the evaluator must be seamless where it leaves the power series
    # (|u| = 7.5 or |u| = 4 sqrt(nu+1)): compare against the oracle on
    # both sides of each cut, and around |u| = 18
    for cut in (7.5, 18.0, 4.0 * math.sqrt(nu + 1.0)):
        xs = np.linspace(cut - 0.5, cut + 0.5, 21)
        vals = bessel_j_grid(nu, xs)
        refs = np.array([jk_oracle(nu, x) for x in xs])
        assert np.max(np.abs(vals - refs)) <= 1e-12


@mp.workdps(40)
def besselj_ref(nu, x):
    # Gamma(nu+1) (2/x)^nu J_nu(x) from mpmath's J_nu, which reaches the
    # large |x| the series oracle cannot
    if x == 0:
        return 1.0
    nu, x = mp.mpf(nu), mp.mpf(abs(x))
    return float(mp.gamma(nu + 1) * (2 / x) ** nu * mp.besselj(nu, x))


@pytest.mark.parametrize("nu", [3.5, 6.0, 150.5, 151.0])
def test_bessel_large_argument_and_order(nu):
    # the whole supported range |u| <= 2000, at half-integer and other
    # orders up to k + 1 = 151, the largest the CLI accepts
    xs = np.concatenate([np.linspace(0.0, 2000.0, 81), [49.0, 49.5, 1234.567, 1999.9]])
    vals = bessel_j_grid(nu, xs)
    assert np.all(np.isfinite(vals))
    for x, got in zip(xs, vals):
        ref = besselj_ref(nu, x)
        assert abs(got - ref) <= 1e-12 * max(1.0, abs(ref))


def fit_seams(nu):
    # just past the series, around the Hankel/Miller switch (_HANKEL_CUT, or t = nu above it), and at U_MAX
    cut = max(specfun.SERIES_CUT, 4.0 * math.sqrt(nu + 1.0))
    h = specfun._HANKEL_CUT
    t = [cut * (1.0 + 1e-12), cut + 0.01, h * (1.0 - 1e-12), h, h * (1.0 + 1e-12),
         nu * (1.0 - 1e-12), nu, nu * (1.0 + 1e-12), nu + 0.5, 1234.567, U_MAX]
    return np.unique([x for x in t if cut < x <= U_MAX])


@pytest.mark.parametrize("nu", [-0.49, 0.0, 0.5, 1.6, 2.1, 2.6, 30.3, 60.5, 150.5, 151.0])
def test_fit_evaluator_at_its_seams(nu):
    # the panel fits' numpy J_nu, scaled to j_nu as _panel_fit scales it: within
    # the accuracy contract of mpmath, and within 1e-13 of the pointwise evaluator
    t = fit_seams(nu)
    vals = specfun._j_values(nu, t, lambda t, scale: scale * specfun._jv(nu, t))
    refs = np.array([besselj_ref(nu, x) for x in t])
    size = np.maximum(1.0, np.abs(refs))
    assert np.all(np.abs(vals - refs) <= 1e-12 * size)
    assert np.all(np.abs(vals - bessel_j_grid(nu, t)) <= 1e-13 * size)


def test_bessel_parity():
    xs = np.linspace(0.1, 40.0, 57)
    for nu in [0.0, 0.7, 2.0]:
        assert np.array_equal(bessel_j_grid(nu, xs), bessel_j_grid(nu, -xs))


def test_bessel_range_guard():
    with pytest.raises(RangeError):
        bessel_j_norm(0.0, 5e3)
    # far past the orders the transform uses, Gamma(nu+1) (2/u)^nu
    # overflows where J_nu underflows: an error, never a NaN
    with pytest.raises(RangeError):
        bessel_j_grid(600.0, np.linspace(0.0, 2000.0, 41))


# the kernel tables: piecewise Chebyshev interpolants of j_nu where jv runs

def interpolation_grid():
    # sorted magnitudes on [0, 2000], off the panel nodes
    rng = np.random.default_rng(5)
    return np.unique(np.concatenate([np.linspace(0.0, 2000.0, 40001), rng.uniform(0.0, 2000.0, 20000)]))


def column_pair(k, t, monkeypatch):
    """The pair transform._bessel_tables builds on the magnitudes t against x = 1: j_k(t), t j_{k+1}(t) / (2(k+1))."""
    monkeypatch.setattr(transform, "_tables", {})
    even, odd = transform._bessel_tables(k, t, np.ones(1), 1.0)
    return even[:, 0], odd[:, 0]


def rel_gap(vals, want):
    return np.max(np.abs(vals - want) / np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("nu", [math.nan, math.inf])
def test_bessel_refuses_non_finite_order(nu):
    # refused by name inside the series range (|u| <= 7.5) and beyond it
    for u in (np.array([0.5, 7.5]), np.array([50.0])):
        with pytest.raises(ParameterError, match=f"got {nu}"):
            bessel_j_grid(nu, u)
        with pytest.raises(ParameterError, match=f"got {nu}"):
            bessel_j_norm(nu, float(u[-1]))


@pytest.mark.parametrize("nu", [-0.3, 0.0, 0.5, 1.0, 1.5, 1.6, 2.1, 2.5, 2.6, 3.1, 6.0, 150.3, 150.5])
def test_interpolated_table_against_mpmath(nu, monkeypatch):
    t = interpolation_grid()
    vals, _ = column_pair(nu, t, monkeypatch)
    rng = np.random.default_rng(int(10 * nu) + 3)
    picks = np.concatenate([rng.choice(t.size, 60, replace=False), [0, 1, 40000, t.size - 1]])
    for i in picks:
        ref = besselj_ref(nu, t[i])
        assert abs(vals[i] - ref) <= 1e-12 * max(1.0, abs(ref))


def test_interpolated_bump_fold_matches_direct(monkeypatch):
    # the folded |lambda| x |x| pair of a 3120 x 528 bump grid at k = 1.8
    k = 1.8
    prof = bump_profile(k, ((1.0, 2.0),))
    assert (len(prof.x_rule), len(prof.lam_rule)) == (3120, 528)
    fa, xa = prof.lam_rule.fold[0], prof.x_rule.fold[0]
    t = np.multiply.outer(fa, xa)
    monkeypatch.setattr(transform, "_tables", {})
    wants = bessel_j_grid(k, t), t * bessel_j_grid(k + 1.0, t) * (0.5 / (k + 1.0))
    for vals, want in zip(transform._bessel_tables(k, fa, xa, 1.0), wants):
        assert vals.shape == t.shape
        assert rel_gap(vals, want) <= 1e-12


def test_interpolated_table_edges(monkeypatch):
    # max t exactly U_MAX: no node passes it, no RangeError
    t = np.linspace(0.0, U_MAX, 50001)
    even, _ = column_pair(1.6, t, monkeypatch)
    assert np.max(np.abs(even - bessel_j_grid(1.6, t))) <= 1e-12
    # past U_MAX, or at an order where j_nu leaves double range: the direct errors, from the fits
    with pytest.raises(RangeError):
        column_pair(1.6, np.append(t, U_MAX * (1.0 + 1e-12)), monkeypatch)
    with pytest.raises(RangeError):
        column_pair(600.0, t, monkeypatch)
    # tables of any size are interpolated, with fewer entries than panel nodes too, half-integer orders as well
    small = np.linspace(0.0, 100.0, 2000)
    assert small.size <= math.ceil(100.0 / specfun.PANEL_WIDTH) * specfun.PANEL_NODES
    for k in (0.3, 0.5):
        wants = bessel_j_grid(k, small), small * bessel_j_grid(k + 1.0, small) * (0.5 / (k + 1.0))
        for vals, want in zip(column_pair(k, small, monkeypatch), wants):
            assert rel_gap(vals, want) <= 1e-12
    # max t of 0 (a rule whose one node is 0): one panel on [0, PANEL_WIDTH]
    c, span = specfun._panel_fit(1.6, 0.0)
    assert span == specfun.PANEL_WIDTH and c.shape == (specfun.PANEL_NODES, 1)
    even, odd = column_pair(1.6, np.zeros(1), monkeypatch)
    assert abs(even[0] - 1.0) <= 1e-14 and odd[0] == 0.0
    # cos at any size, beside an interpolated j_{1/2} (the k = -1/2 pair)
    assert specfun._panel_fit(-0.5, U_MAX) is None
    even, _ = column_pair(-0.5, t, monkeypatch)
    assert np.array_equal(even, bessel_j_grid(-0.5, t))
    j_half = specfun._clenshaw(specfun._panel_fit(0.5, U_MAX), t, np.empty(t.shape))
    assert rel_gap(j_half, bessel_j_grid(0.5, t)) <= 1e-12


def test_dunkl_kernel_trivial_lam_zero():
    for k in K_SWEEP:
        assert dunkl_kernel(k, 0.0, 1.7) == 1.0 + 0.0j


def test_dunkl_kernel_fourier_reduction():
    # E_{-1/2}(i lam, x) = exp(i lam x)
    for lam, x in [(1.0, math.pi / 2), (0.7, -2.2), (2.5, 11.0)]:
        got = dunkl_kernel(-0.5, lam, x)
        assert abs(got - cmath.exp(1j * lam * x)) <= 1e-12
    assert abs(dunkl_kernel(-0.5, 1.0, math.pi / 2) - 1j) <= 1e-12


def test_dunkl_kernel_modulus_bound():
    rng = np.random.default_rng(7)
    lam = rng.uniform(-8, 8, 400)
    x = rng.uniform(-8, 8, 400)
    for k in K_SWEEP + [1.0]:
        vals = [dunkl_kernel(k, lo, xo) for lo, xo in zip(lam, x)]
        assert max(abs(v) for v in vals) <= 1.0 + 1e-12
    v = dunkl_kernel(1.0, 2.0, 0.5)
    assert abs(v) <= 1.0
    # conjugation symmetry under x -> -x
    for k in [0.0, 0.5, 2.0]:
        for lo, xo in zip(lam[:40], x[:40]):
            assert abs(dunkl_kernel(k, lo, -xo) - dunkl_kernel(k, lo, xo).conjugate()) <= 1e-12


def test_bessel_derivative_recurrence():
    # d/dx j_k(cx) = -c^2 x j_{k+1}(cx) / (2(k+1)), against central differences
    h = 1e-6
    for k in [0.0, 0.5, 2.0]:
        for c in [0.8, 2.0]:
            for x in [0.3, 1.1, 4.0]:
                fd = (bessel_j_norm(k, c * (x + h)) - bessel_j_norm(k, c * (x - h))) / (2 * h)
                exact = -(c**2) * x * bessel_j_norm(k + 1.0, c * x) / (2 * (k + 1.0))
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def test_lcdt_kernel_at_x_zero():
    M = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
    lam0 = 1.3
    got = lcdt_kernel(0.5, M, lam0, 0.0)
    assert abs(got - cmath.exp(0.5j * (M.d / M.b) * lam0**2)) <= 1e-14


def test_lcdt_kernel_fourier_case():
    M = CanonicalMatrix(0.0, 1.0, -1.0, 0.0)
    got = lcdt_kernel(-0.5, M, 1.0, 1.0)
    assert abs(got - cmath.exp(-1j)) <= 1e-12


def test_lcdt_kernel_pure_chirp_case():
    M = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
    got = lcdt_kernel(0.0, M, 0.0, 2.0)
    assert abs(got - cmath.exp(2j)) <= 1e-14


def test_lcdt_kernel_modulus():
    M = CanonicalMatrix.rotation(math.pi / 3)
    rng = np.random.default_rng(3)
    for k in [0.0, 2.0]:
        for lam, x in zip(rng.uniform(-5, 5, 60), rng.uniform(-5, 5, 60)):
            v = lcdt_kernel(k, M, lam, x)
            e = dunkl_kernel(k, -lam / M.b, x)
            assert abs(abs(v) - abs(e)) <= 1e-13
            assert abs(v) <= 1.0 + 1e-12


def test_kernel_derivative_bound():
    # |d^n/dx^n E_k(i lam, x)| <= |lam|^n
    rng = np.random.default_rng(11)
    lam = rng.uniform(-20, 20, 500)
    x = rng.uniform(-20, 20, 500)
    for k in [0.0, 0.5, 2.0]:
        for n in range(4):
            vals = dunkl_kernel_dx(k, n, lam, x)
            assert np.all(np.abs(vals) <= np.abs(lam) ** n + 1e-10)


@pytest.mark.parametrize("n", [1.5, 2.0])
def test_kernel_derivative_refuses_non_integer_order(n):
    with pytest.raises(ParameterError, match="derivative order must be an integer"):
        dunkl_kernel_dx(0.5, n, 1.3, 0.7)
    assert dunkl_kernel_dx(0.5, np.int64(2), 1.3, 0.7) == dunkl_kernel_dx(0.5, 2, 1.3, 0.7)


def test_kernel_derivative_matches_finite_difference():
    h = 1e-5
    for k in [0.0, 2.0]:
        for lam in [0.7, 2.3]:
            for x in [0.4, 1.7]:
                fd = (dunkl_kernel(k, lam, x + h) - dunkl_kernel(k, lam, x - h)) / (2 * h)
                got = dunkl_kernel_dx(k, 1, lam, x)
                assert abs(complex(got) - fd) <= 1e-8


def test_principal_power_branch():
    # i = exp(i pi/2): (i*1)^(1/2) has phase pi/4
    v = principal_power(1j, 0.5)
    assert abs(v - cmath.exp(0.25j * math.pi)) <= 1e-15
    # b < 0 goes through arg = -pi/2
    v = principal_power(-2j, 0.5)
    assert abs(v - math.sqrt(2.0) * cmath.exp(-0.25j * math.pi)) <= 1e-15


@pytest.mark.parametrize("k", [-0.5, -0.2, 0.0, 0.5, 1.83, 2.02, 10.5, 61.0, 149.5, 150.0])
def test_regularized_gamma_against_mpmath(k):
    # P and Q of a = k + 1 at x = X^2 (the Dunkl-measure Gaussian mass), 1e-12 relative;
    # where Q leaves the normal double range it is compared absolutely
    a = k + 1.0
    for X in np.geomspace(1e-3, 2000.0, 41):
        x = float(X) ** 2
        got = specfun.regularized_gamma(a, x)
        with mp.workdps(40):
            want = (mp.gammainc(a, 0, x, regularized=True), mp.gammainc(a, x, mp.inf, regularized=True))
        for g, w in zip(got, map(float, want)):
            if w < sys.float_info.min:
                assert abs(g - w) <= 1e-300
            else:
                assert abs(g - w) <= 1e-12 * w, (k, X, g, w)
