import math

import numpy as np
import pytest

from lcdunkl.errors import ParameterError
from lcdunkl.quadrature import SampledFunction, build_rule, inner_product, lp_norm
from lcdunkl.specfun import CanonicalMatrix
from lcdunkl.symfun import (
    SymExpr,
    Term,
    apply_dunkl,
    apply_lcd,
    bessel_factor,
    dunkl_kernel_expr,
    evaluate,
    expr_from_json,
    expr_to_json,
    gaussian,
    iterate_op,
    lcdt_kernel_expr,
    monomial,
    odd_quotient,
)

GRID = np.linspace(-4.0, 4.0, 41)
M_SHEAR = CanonicalMatrix(1.0, 1.0, 0.0, 1.0)
M_FOURIER = CanonicalMatrix(0.0, 1.0, -1.0, 0.0)
M_ROT = CanonicalMatrix.rotation(math.pi / 3)


def richardson_derivative(e, x, h=1e-4):
    def fd(step):
        return (evaluate(e, x + step) - evaluate(e, x - step)) / (2 * step)

    return (4.0 * fd(h / 2) - fd(h)) / 3.0


def test_evaluate_gaussian_at_zero():
    assert evaluate(gaussian(-0.5), 0.0) == 1.0 + 0j


def test_evaluate_monomial_gaussian():
    e = gaussian(-1.0, m=2)
    assert evaluate(e, 1.0) == pytest.approx(math.exp(-1.0))


def test_evaluate_odd_quotient_limit():
    # u(x) = x * j_{-1/2}(x) = x cos x; (u(x) - u(-x))/x -> 2 u'(0) = 2 at 0
    u = bessel_factor(-0.5, 1.0, m=1)
    q = odd_quotient(u)
    assert evaluate(q, 0.0) == pytest.approx(2.0, abs=1e-12)
    # and it matches 2*cos(x) away from zero: (x cos x + x cos x)/x
    assert evaluate(q, 1.3) == pytest.approx(2.0 * math.cos(1.3), abs=1e-12)


def test_differentiate_basics():
    assert evaluate(gaussian(-0.5).diff(), 1.0) == pytest.approx(-math.exp(-0.5))
    assert evaluate(bessel_factor(0.0, 1.0).diff(), 0.0) == 0.0
    assert evaluate(gaussian(-1.0, m=1).diff(), 0.0) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "expr",
    [
        gaussian(-0.5),
        gaussian(-1.0 + 0.25j, m=3, coeff=1.5 - 0.5j),
        gaussian(-0.3, beta=0.7j),
        bessel_factor(0.7, 1.3, m=2, alpha=-0.4),
        dunkl_kernel_expr(0.5, 2.0),
        odd_quotient(gaussian(-0.3, beta=0.4)),
        SymExpr(monomial(3).terms, 2),
        monomial(1) * SymExpr(monomial(3).terms, 2),
    ],
)
def test_derivative_matches_finite_difference(expr):
    d = expr.diff()
    for x in (-2.1, -0.4, 0.2, 1.7):
        ref = richardson_derivative(expr, x)
        got = evaluate(d, x)
        assert abs(got - ref) <= 1e-8 * (1.0 + abs(ref))


def test_reflect():
    e = gaussian(-1.0, m=1)
    assert evaluate(e.reflected(), 0.7) == pytest.approx(-evaluate(e, 0.7))
    even = gaussian(-0.5)
    assert evaluate(even.reflected(), 0.7) == evaluate(even, 0.7)
    mixed = gaussian(-0.3, beta=0.4 + 0.1j, m=2) + bessel_factor(1.0, 2.0, m=1)
    twice = mixed.reflected().reflected()
    assert np.max(np.abs(evaluate(twice, GRID) - evaluate(mixed, GRID))) <= 1e-14


def test_apply_dunkl_kernel_eigenrelation_at_zero():
    k, lam = 0.5, 2.0
    e = dunkl_kernel_expr(k, lam)
    out = apply_dunkl(k, e)
    # value at 0 is (2k+2) e'(0) = i lam
    assert abs(evaluate(out, 0.0) - 1j * lam) <= 1e-12
    assert abs(evaluate(out, 0.0) - (2 * k + 2) * evaluate(e.diff(), 0.0)) <= 1e-14


def test_apply_dunkl_reduces_to_derivative_at_khalf():
    e = gaussian(-0.7, m=2) + bessel_factor(1.0, 1.5, m=1)
    lhs = evaluate(apply_dunkl(-0.5, e), GRID)
    rhs = evaluate(e.diff(), GRID)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_apply_dunkl_even_gaussian():
    out = apply_dunkl(0.0, gaussian(-1.0))
    assert evaluate(out, 1.0) == pytest.approx(-2.0 * math.exp(-1.0))


def test_apply_dunkl_eigenrelation_full_kernel():
    # Dunkl operator applied to E_k(i lam, .) equals i lam E_k(i lam, .)
    k, lam = 0.5, 2.0
    e = dunkl_kernel_expr(k, lam)
    lhs = evaluate(apply_dunkl(k, e), GRID)
    rhs = 1j * lam * evaluate(e, GRID)
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_apply_lcd_equals_dunkl_when_d_zero():
    e = gaussian(-0.4, m=1) + bessel_factor(0.5, 1.0)
    lhs = evaluate(apply_lcd(0.5, M_FOURIER, e), GRID)
    rhs = evaluate(apply_dunkl(0.5, e), GRID)
    assert np.max(np.abs(lhs - rhs)) <= 1e-14


def test_apply_lcd_kernel_eigenrelation():
    k, lam = 0.5, 0.7
    e = lcdt_kernel_expr(k, M_SHEAR, lam)
    xs = np.linspace(-5.0, 5.0, 101)
    lhs = evaluate(apply_lcd(k, M_SHEAR, e), xs)
    rhs = -1j * (lam / M_SHEAR.b) * evaluate(e, xs)
    assert np.max(np.abs(lhs - rhs)) <= 1e-9


def test_apply_lcd_chirp_conjugation():
    # operator for the inverse matrix = conjugation of the Dunkl operator
    # by the quadratic chirp exp(i a x^2 / (2 b))
    k = 0.5
    for M in (M_SHEAR, M_ROT):
        e = gaussian(-0.8, m=1, coeff=0.7 + 0.2j) + gaussian(-0.5, m=2)
        alpha = 0.5j * (M.a / M.b)
        chirp_plus = gaussian(alpha)
        chirp_minus = gaussian(-alpha)
        lhs = evaluate(apply_lcd(k, M.inverse(), e), GRID)
        rhs = evaluate(chirp_minus * apply_dunkl(k, chirp_plus * e), GRID)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_iterate_op_identity_and_composition():
    k = 0.5
    e = gaussian(-0.5, m=2)
    assert iterate_op(k, M_SHEAR, e, 0) is e
    one_twice = apply_lcd(k, M_SHEAR, apply_lcd(k, M_SHEAR, e))
    two = iterate_op(k, M_SHEAR, e, 2)
    assert np.max(np.abs(evaluate(one_twice, GRID) - evaluate(two, GRID))) <= 1e-12


def test_iterate_op_kernel_power():
    k, lam = 0.5, 0.7
    e = lcdt_kernel_expr(k, M_SHEAR, lam)
    out = iterate_op(k, M_SHEAR, e, 2)
    xs = np.linspace(-5.0, 5.0, 81)
    rhs = (-1j * lam / M_SHEAR.b) ** 2 * evaluate(e, xs)
    assert np.max(np.abs(evaluate(out, xs) - rhs)) <= 1e-8


def test_iterate_op_beta_iterates_stay_small():
    # beta != 0 takes the quotient route; one numerator over x^n keeps it small
    out = iterate_op(0.5, M_SHEAR, gaussian(-0.4, beta=0.5j), 8)
    assert out.j == 8
    assert len(out.terms) <= 50


def test_iterate_op_budget_error():
    with pytest.raises(ParameterError):
        iterate_op(0.5, M_SHEAR, gaussian(-1.0), 61)


def test_antisymmetry_of_lcd_operator():
    rule = build_rule(0.5, 10.0, 40, 16)
    k = 0.5
    f = gaussian(-0.7, m=1, coeff=1.0 + 0.3j)
    g = gaussian(-0.4, m=2)
    for M in (M_SHEAR, M_ROT):
        lf = SampledFunction(rule, evaluate(apply_lcd(k, M, f), rule.nodes))
        lg = SampledFunction(rule, evaluate(apply_lcd(k, M, g), rule.nodes))
        sf = SampledFunction(rule, evaluate(f, rule.nodes))
        sg = SampledFunction(rule, evaluate(g, rule.nodes))
        resid = inner_product(lf, sg) + inner_product(sf, lg)
        assert abs(resid) <= 1e-8 * lp_norm(sf, 2) * lp_norm(sg, 2)


def test_removable_singularity_continuity():
    k = 0.7
    exprs = [
        gaussian(-0.5, beta=0.3),  # beta != 0 forces the quotient node
        gaussian(-1.0, m=1),
        bessel_factor(0.5, 1.2, m=2),
    ]
    for e in exprs:
        out = apply_dunkl(k, e)
        v0 = evaluate(out, 0.0)
        for x in (1e-6, -1e-6):
            assert abs(evaluate(out, x) - v0) <= 1e-5 * (1.0 + abs(v0))


def test_closure_under_fuzzed_operator_chains():
    # evaluation grid stays outside the Taylor window around 0; continuity
    # across 0 has its own dedicated test above
    grid = np.concatenate([np.linspace(-4.0, -0.1, 17), np.linspace(0.1, 4.0, 17)])
    rng = np.random.default_rng(42)
    k = 0.5
    atoms = [
        gaussian(-0.6, m=1),
        gaussian(-0.9 + 0.2j, m=2, coeff=0.5 - 1j),
        bessel_factor(0.7, 1.1, m=1, alpha=-0.3),
    ]
    ops = ["diff", "reflect", "lcd"]
    for trial in range(12):
        e = atoms[trial % len(atoms)]
        for op in rng.choice(ops, size=6):
            if op == "diff":
                e = e.diff()
            elif op == "reflect":
                e = e.reflected()
            else:
                e = apply_lcd(k, M_SHEAR, e)
        vals = evaluate(e, grid)
        assert np.all(np.isfinite(vals))
    # quotient nodes appear once beta != 0; keep those chains shallower
    e = gaussian(-0.4, beta=0.5j)
    for op in ("lcd", "diff", "reflect", "lcd"):
        if op == "diff":
            e = e.diff()
        elif op == "reflect":
            e = e.reflected()
        else:
            e = apply_lcd(k, M_SHEAR, e)
    assert np.all(np.isfinite(evaluate(e, grid)))


def test_mul_x_and_quotpow_cancel():
    e = gaussian(-0.3, beta=0.2)
    q = odd_quotient(e)  # quotient node
    back = q.mul_x()
    xs = np.array([-1.2, 0.4, 2.0])
    want = evaluate(e, xs) - evaluate(e.reflected(), xs)
    assert np.max(np.abs(evaluate(back, xs) - want)) <= 1e-13


def test_bessel_product_rejected():
    a = bessel_factor(0.5, 1.0)
    b = bessel_factor(1.0, 2.0)
    with pytest.raises(ParameterError):
        _ = a * b


def test_json_round_trip():
    exprs = [
        gaussian(-0.5, beta=0.1j, m=2, coeff=1 - 2j) + bessel_factor(0.7, 1.3, m=1),
        odd_quotient(gaussian(-0.3, beta=0.4)),
        monomial(1) * SymExpr(monomial(3).terms, 2),
    ]
    for e in exprs:
        back = expr_from_json(expr_to_json(e))
        assert np.max(np.abs(evaluate(back, GRID) - evaluate(e, GRID))) <= 1e-14


def test_quotpow_json_needs_a_vanishing_child():
    def quot(child, j):
        return expr_from_json({"type": "quotpow", "j": j, "child": expr_to_json(child)})

    # x^3 / x^2 vanishes to order 2 at 0, so it is read; it equals x on both sides of the Taylor window
    e = quot(monomial(3), 2)
    xs = np.array([-1.3, -0.051, -0.049, 0.0, 0.02, 0.049, 0.051, 2.0])
    assert np.max(np.abs(evaluate(e, xs) - xs)) <= 1e-15
    # exp(-x^2/2) / x is singular at 0: the Taylor window would drop the 1/x part
    with pytest.raises(ParameterError, match="vanish to order 1"):
        quot(gaussian(-0.5), 1)
    with pytest.raises(ParameterError, match="vanish to order 3"):
        quot(monomial(2), 3)
    with pytest.raises(ParameterError, match="quotient power"):
        quot(monomial(3), 0)


def test_expr_to_json_shape():
    e = gaussian(-0.5, beta=0.2)
    assert expr_to_json(e)["type"] == "sum_of_terms"
    q = odd_quotient(e)
    node = expr_to_json(q)
    assert (node["type"], node["j"], node["child"]) == ("quotpow", 1, expr_to_json(SymExpr(q.terms)))
    # sum and product nodes still read, into the same normal form
    both = expr_from_json({"type": "sum", "children": [expr_to_json(e), node]})
    prod = expr_from_json({"type": "product", "children": [expr_to_json(e), node]})
    assert (both.j, prod.j) == (1, 1)
    assert np.max(np.abs(evaluate(both, GRID) - evaluate(e + q, GRID))) <= 1e-14
    assert np.max(np.abs(evaluate(prod, GRID) - evaluate(e, GRID) * evaluate(q, GRID))) <= 1e-13


def test_sum_and_product_nodes_read_as_the_operators():
    # each node folds its children left to right with + or *, nested nodes too,
    # so it evaluates as the SymExpr built directly, bit for bit
    a = gaussian(-0.5, beta=0.1j, m=2, coeff=1 - 2j)
    b = bessel_factor(0.7, 1.3, m=1)
    c = odd_quotient(gaussian(-0.3, beta=0.4))
    a_, b_, c_ = (expr_to_json(e) for e in (a, b, c))
    cases = [
        ({"type": "sum", "children": [a_, b_, c_]}, a + b + c),
        ({"type": "product", "children": [a_, c_, a_]}, a * c * a),
        ({"type": "sum", "children": [{"type": "product", "children": [a_, b_]}, c_]}, a * b + c),
        ({"type": "product", "children": [{"type": "sum", "children": [a_, c_]}, a_]}, (a + c) * a),
        ({"type": "sum", "children": [b_]}, b),
    ]
    for node, want in cases:
        got = expr_from_json(node)
        assert got.j == want.j
        assert np.array_equal(evaluate(got, GRID), evaluate(want, GRID))


def test_canonical_merge_drops_cancelled_terms():
    e = gaussian(-0.5) + gaussian(-0.5, coeff=-1.0)
    assert e.j == 0
    assert len(e.terms) == 0
    assert np.all(evaluate(e, GRID) == 0)


def test_term_rejects_growing_gaussian():
    with pytest.raises(ParameterError):
        Term(1.0, alpha=0.1)
