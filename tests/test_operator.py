"""The x^{1-λ}·d/dx operator on the exponential-monomial closure class."""

from fractions import Fraction

import pytest

from degenbell.core import LP_LAMBDA, LP_ONE, LambdaPoly, XPoly
from degenbell.numbers import bell_deg, stirling2_deg
from degenbell.opcalc import (
    ExpExpr,
    d_dx,
    eval_at_x1_in_e_units,
    op_apply,
    op_power,
    prop10_rhs,
    render,
    theorem11_apply_monomial,
)

from oracles import pfalling


def test_first_powers_on_exp_are_the_known_expansions():
    e = ExpExpr.exp_x(1, 1)
    assert render(op_apply(e)) == "1 * x^(1-1·λ) * exp(1·x^1)"
    two = op_power(e, 2)
    assert render(two) == "(1 - λ) * x^(1-2·λ) * exp(1·x^1) + 1 * x^(2-2·λ) * exp(1·x^1)"
    # third application follows the second-kind Stirling row (1-3λ)(1-λ), 3-3λ, 1
    three = op_power(e, 3)
    expect = (
        ExpExpr.monomial(1, -3, stirling2_deg(3, 1))
        + ExpExpr.monomial(2, -3, stirling2_deg(3, 2))
        + ExpExpr.monomial(3, -3, stirling2_deg(3, 3))
    ) * ExpExpr.exp_x(1, 1)
    assert three == expect


def test_monomial_powers_pick_up_deformed_falling_factorials():
    """op^n x^α = (α)_{n,λ}·x^{α-nλ} for α = m + kλ, including negatives."""
    for m in range(-3, 4):
        for k in range(-3, 4):
            expr = ExpExpr.monomial(m, k)
            for n in range(9):
                expect_coeff = LambdaPoly(pfalling((m, k), n))
                expect = ExpExpr.monomial(m, k - n, expect_coeff)
                assert expr == expect, (m, k, n)
                expr = op_apply(expr)


def test_operator_power_composes():
    e = ExpExpr.exp_x(2, 1)
    assert op_power(e, 5) == op_apply(op_power(e, 4))
    assert op_power(e, 0) == e
    with pytest.raises(ValueError):
        op_power(e, -1)


def test_scaled_exponential_closed_form():
    for a in (1, -1, 2, Fraction(1, 2)):
        expr = ExpExpr.exp_x(a, 1)
        for n in range(7):
            assert expr == prop10_rhs(n, a, 1), (a, n)
            expr = op_apply(expr)


def test_power_argument_closed_form_uses_lambda_rescaling():
    for p in (1, 2, 3):
        for a in (1, -1, Fraction(1, 2)):
            expr = ExpExpr.exp_x(a, p)
            for n in range(5):
                assert expr == prop10_rhs(n, a, p), (a, p, n)
                expr = op_apply(expr)


def test_monomial_closed_form_route():
    for r in range(6):
        expr = ExpExpr.monomial(r)
        for n in range(6):
            assert expr == theorem11_apply_monomial(n, r), (r, n)
            expr = op_apply(expr)


def test_leibniz_rule_through_the_operator():
    """op(f·g) = op(f)·g + f·op(g) − exercised with exponential factors."""
    f = ExpExpr.monomial(0, 2).scale(LambdaPoly((3,))) * ExpExpr.exp_x(-1, 1)
    g = ExpExpr.monomial(2)
    for n in range(1, 5):
        product = f * g
        lhs = op_apply(product)
        rhs = op_apply(f) * g + f * op_apply(g)
        assert lhs == rhs
        f = op_apply(f)  # vary the operands as n grows


def test_promotion_chain_matches_bell_polynomials():
    """Applying the operator to x^{-nλ}Bel_n(x)e^x yields the n+1 form."""
    for n in range(7):
        cur = ExpExpr.from_xpoly(bell_deg(n), x_lam=-n, exp_coeff=1)
        nxt = ExpExpr.from_xpoly(bell_deg(n + 1), x_lam=-(n + 1), exp_coeff=1)
        assert op_apply(cur) == nxt


def test_evaluation_at_one_in_e_units():
    expr = ExpExpr.exp_x(1, 1)
    values = []
    for n in range(5):
        values.append(eval_at_x1_in_e_units(expr))
        expr = op_apply(expr)
    assert values[0] == LP_ONE
    assert values[2] == LambdaPoly((2, -1))
    assert values[3] == LambdaPoly((5, -6, 2))
    for n, v in enumerate(values):
        assert v == bell_deg(n).eval_x(1)


def test_eval_at_one_rejects_impure_expressions():
    with pytest.raises(ValueError):
        eval_at_x1_in_e_units(ExpExpr.exp_x(2, 1))
    with pytest.raises(ValueError):
        eval_at_x1_in_e_units(ExpExpr.exp_x(1, 2))


def test_exponential_merge_rules():
    a = ExpExpr.exp_x(1, 2)
    b = ExpExpr.exp_x(-1, 2)
    assert a * b == ExpExpr.monomial(0)  # exponents cancel to e^0 = 1
    with pytest.raises(ValueError, match="different powers"):
        _ = a * ExpExpr.exp_x(1, 3)
    plain = ExpExpr.monomial(2)
    assert plain * a == a * plain  # pure monomials attach to any exponential


def test_zero_scale_degenerate_exponential_rejected():
    with pytest.raises(ValueError):
        prop10_rhs(2, 0, 1)
    with pytest.raises(ValueError):
        prop10_rhs(2, 0, 2)
    with pytest.raises(ValueError):
        prop10_rhs(2, 1, 0)


def test_rendering_is_deterministic_and_sorted():
    e = op_power(ExpExpr.exp_x(1, 1), 3)
    once = render(e)
    again = render(op_power(ExpExpr.exp_x(1, 1), 3))
    assert once == again
    assert once == (
        "(2λ² - 3λ + 1) * x^(1-3·λ) * exp(1·x^1) + "
        "(3 - 3λ) * x^(2-3·λ) * exp(1·x^1) + 1 * x^(3-3·λ) * exp(1·x^1)"
    )
    assert render(ExpExpr.zero()) == "0"


def test_derivative_of_plain_monomial():
    assert d_dx(ExpExpr.monomial(3)) == ExpExpr.monomial(2, 0, LambdaPoly((3,)))
    assert d_dx(ExpExpr.monomial(0)).is_zero
