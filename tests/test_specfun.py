import cmath
import math

import mpmath as mp
import numpy as np
import pytest

from lcdunkl.errors import ParameterError, RangeError
from lcdunkl.specfun import (
    CanonicalMatrix,
    DunklParameter,
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
    with pytest.raises(ParameterError):
        DunklParameter(-0.51)
    DunklParameter(-0.5)
    with pytest.raises(ParameterError):
        CanonicalMatrix(1.0, 1.0, 1.0, 1.0)  # det 0
    with pytest.raises(ParameterError):
        CanonicalMatrix(1.0, 0.0, 0.0, 1.0)  # b = 0
    m = CanonicalMatrix(2.0, 1.0, 1.0, 1.0)
    assert m.inverse().as_tuple() == (1.0, -1.0, -1.0, 2.0)


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
