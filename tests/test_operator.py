"""The x^{1-λ}·d/dx operator on the exponential-monomial closure class."""

import hashlib
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from degenbell.core import LP_LAMBDA, LP_ONE, LP_ZERO, LambdaPoly, XPoly
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


@given(
    st.integers(0, 6),
    st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool),
    st.integers(1, 4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
)
def test_prop10_rhs_substitutes_lambda_over_p(n, a, p, lam):
    """The x^(pk - nλ)·e^(a·x^p) coefficient is p^n·aᵏ·S_{2,λ}(n,k) with λ → λ/p."""
    coeffs = dict(prop10_rhs(n, a, p).terms)
    for k in range(n + 1):
        got = coeffs.get((a, p, p * k, -n), LP_ZERO).eval(lam)
        assert got == p**n * a**k * stirling2_deg(n, k).eval(lam / p), k


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
    assert render(ExpExpr()) == "0"


def test_derivative_of_plain_monomial():
    assert d_dx(ExpExpr.monomial(3)) == ExpExpr.monomial(2, 0, LambdaPoly((3,)))
    assert d_dx(ExpExpr.monomial(0)).is_zero


@pytest.mark.parametrize("scalar", [0.1, 0.5, 1.0, "1/3"])
def test_exponential_scale_must_be_exact(scalar):
    with pytest.raises(TypeError, match="exact scalar"):
        ExpExpr.exp_x(scalar)
    with pytest.raises(TypeError, match="exact scalar"):
        ExpExpr.from_xpoly(bell_deg(2), exp_coeff=scalar)
    with pytest.raises(TypeError, match="exact scalar"):
        prop10_rhs(1, scalar, 1)


def test_constructor_checks_and_coerces_each_term():
    assert ExpExpr([((0, 1, 0, 0), 3)]) == ExpExpr.monomial(0, 0, 3)
    with pytest.raises(ValueError, match="exp_power must be ≥ 1"):
        ExpExpr([((1, 0, 0, 0), LP_ONE)])
    with pytest.raises(TypeError, match="must be ints"):
        ExpExpr.exp_x(1, 1.5)
    # from_xpoly coerces p: a λ-polynomial or a scalar is a constant in x.
    assert ExpExpr.from_xpoly(LambdaPoly((1, 2))) == ExpExpr.monomial(0, 0, LambdaPoly((1, 2)))
    assert ExpExpr.from_xpoly(Fraction(1, 2), 1) == ExpExpr.monomial(0, 1, Fraction(1, 2))


def test_operator_renders_match_recorded_digest():
    """Pins the renders no harness report shows: prop10, eq17 and thm11-monomial never
    read the family tables, so the bump digest in test_harness cannot see them."""
    renders = []
    for a in (1, -1, 2, Fraction(1, 2), Fraction(-1, 2)):
        for p in (1, 2, 3):
            for n in range(7):
                renders += [render(prop10_rhs(n, a, p)), render(op_power(ExpExpr.exp_x(a, p), n))]
    renders += [render(theorem11_apply_monomial(n, r)) for n in range(7) for r in range(7)]
    mixed = ExpExpr.exp_x(-1, 1) + ExpExpr.exp_x(1, 2) + ExpExpr.exp_x(1, 1) + ExpExpr.monomial(2, -1)
    renders.append(render(mixed))
    assert render(mixed) == (
        "1 * x^(0+0·λ) * exp(-1·x^1) + 1 * x^(2-1·λ) * exp(0·x^1) + "
        "1 * x^(0+0·λ) * exp(1·x^1) + 1 * x^(0+0·λ) * exp(1·x^2)"
    )
    digest = hashlib.sha256("".join(r + "\n" for r in renders).encode()).hexdigest()
    assert digest == "fdd83c33fb9aabfc4157e4829e393bb7fa08bd96e96c19ca70087af6ba7f6ef6"


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
shapes = st.tuples(small, st.integers(1, 3), st.integers(-3, 3), st.integers(-3, 3)).map(
    lambda s: (s[0], s[1] if s[0] else 1, s[2], s[3])
)
coeffs = st.lists(small, max_size=3).map(LambdaPoly)


@given(st.lists(st.tuples(shapes, coeffs, coeffs), max_size=8), st.randoms())
def test_terms_are_merged_zero_free_and_sorted_by_shape(terms, rnd):
    """Shuffled pieces, split coefficients and zero terms build the same expression."""
    e = ExpExpr((shape, c) for shape, c, _ in terms)
    pieces = [(shape, c - d) for shape, c, d in terms] + [(shape, d) for shape, _, d in terms]
    pieces += [(shape, LP_ZERO) for shape, _, _ in terms]
    rnd.shuffle(pieces)
    again = ExpExpr(pieces)
    assert again.terms == e.terms
    assert render(again) == render(e)
    assert [shape for shape, _ in e.terms] == sorted({shape for shape, _ in e.terms})
    assert all(not c.is_zero for _, c in e.terms)
    for shape in {shape for shape, _, _ in terms}:
        total = sum((c for s, c, _ in terms if s == shape), LP_ZERO)
        assert dict(e.terms).get(shape, LP_ZERO) == total
