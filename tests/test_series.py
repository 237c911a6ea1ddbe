"""Truncated power-series engine: arithmetic against naive oracles,
generating-function invariants, and the error contract."""

import json
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbell.cli import DEFAULT_ORDER
from degenbell.core import LP_LAMBDA, LP_ONE, XP_X, XP_ZERO, LambdaPoly, XPoly, to_nested_lists
from degenbell.identities import binomial_power_series, rising_classical
from degenbell.numbers import bell_gf, stirling2_deg
from degenbell.series import (
    Series,
    e_lambda_series,
    egf,
    log_lambda_series,
    series_combination,
    series_compose,
    series_exp,
    series_from_json,
    series_json_chunks,
    series_mul,
    series_recip_unit,
)

from oracles import cauchy, conv_trunc, padd, pfalling, poly_mul_2d, pstrip, revert_series

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalar_series = st.lists(rationals, min_size=1, max_size=7).map(
    lambda cs: Series((XPoly.coerce(c) for c in cs), order=len(cs) - 1)
)
nilpotent_series = st.lists(rationals, min_size=1, max_size=6).map(
    lambda cs: Series((XPoly.coerce(c) for c in [0] + cs), order=len(cs))
)


def _scalars_at_lambda_zero(s: Series) -> list[Fraction]:
    """The coefficients of an x-free series with λ set to 0."""
    assert all(c.degree in (None, 0) for c in s.coeffs)
    return [c.eval(0, 0) for c in s.coeffs]


def _d_dt(s: Series) -> Series:
    """d/dt by coefficient shift-and-scale; the order drops by one."""
    return Series([s.coeff(n) * n for n in range(1, s.order + 1)], order=s.order - 1)


def _scalars(s: Series) -> list[Fraction]:
    out = []
    for c in s.coeffs:
        assert c.degree in (None, 0)
        lp = c.coeffs[0] if c.coeffs else LambdaPoly(())
        assert lp.degree in (None, 0)
        out.append(lp.coeffs[0] if lp.coeffs else Fraction(0))
    return out


# ----------------------------------------------------------------------
# Arithmetic vs naive oracles
# ----------------------------------------------------------------------

@given(scalar_series, scalar_series)
def test_mul_matches_naive_cauchy(a, b):
    assert _scalars(series_mul(a, b)) == cauchy(_scalars(a), _scalars(b))


lambda_coeffs = st.lists(rationals, max_size=4).map(pstrip)
lambda_series = st.lists(lambda_coeffs, min_size=1, max_size=6)
xpoly_coeffs = st.lists(st.lists(rationals, max_size=3), max_size=3).map(XPoly)
xpoly_series = st.lists(xpoly_coeffs, min_size=1, max_size=5)


@given(lambda_series, lambda_series)
def test_mul_with_lambda_coefficients_matches_oracle(a, b):
    order = min(len(a), len(b)) - 1
    product = series_mul(
        Series((XPoly.coerce(LambdaPoly(c)) for c in a), order=len(a) - 1),
        Series((XPoly.coerce(LambdaPoly(c)) for c in b), order=len(b) - 1),
    )
    assert [c.coeff(0).coeffs for c in product.coeffs] == conv_trunc(a, b, order)


def _as_2d(p: XPoly) -> dict:
    return {(i, j): c for i, lp in enumerate(p.coeffs) for j, c in enumerate(lp.coeffs) if c}


@given(xpoly_series, xpoly_series)
# The block kernel's edge cases: leading all-zero t-coefficients, an inner zero
# x-coefficient, inner zero λ-numerators, and an operand longer than the product.
@example(
    [XP_ZERO, XP_ZERO, XPoly([[1, 0, 3], [], [2]])],
    [XPoly([[0, 1]]), XPoly([[], [1, 0, 0, 1]]), XPoly([[2]]), XPoly([[7, 0, 1]])],
)
@example([XPoly([[1, 0, 0, 1]])], [XP_ZERO, XPoly([[5]])])
def test_mul_with_x_coefficients_matches_oracle(a, b):
    order = min(len(a), len(b)) - 1
    expect = []
    for n in range(order + 1):
        acc: dict = {}
        for i in range(n + 1):
            for key, c in poly_mul_2d(_as_2d(a[i]), _as_2d(b[n - i])).items():
                acc[key] = acc.get(key, 0) + c
        expect.append({key: c for key, c in acc.items() if c})
    product = series_mul(Series(a), Series(b))
    assert product.order == order
    assert [_as_2d(c) for c in product.coeffs] == expect


def test_mul_cancellation_leaves_zero_coefficients():
    # (1 + λt)(1 - λt) = 1 - λ²t²
    plus = Series((1, LP_LAMBDA), order=2)
    minus = Series((1, -LP_LAMBDA), order=2)
    product = series_mul(plus, minus)
    assert [[lp.coeffs for lp in c.coeffs] for c in product.coeffs] == [[(1,)], [], [(0, 0, -1)]]
    assert hash(product) == hash(Series((1, 0, LambdaPoly((0, 0, -1))), order=2))


@given(scalar_series, scalar_series, scalar_series)
def test_mul_is_associative_and_commutative(a, b, c):
    assert series_mul(a, b) == series_mul(b, a)
    assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))


@given(scalar_series)
def test_addition_truncates_to_min_order(a):
    wide = Series.one(a.order + 3)
    assert (a + wide).order == a.order


@given(nilpotent_series, nilpotent_series)
@settings(max_examples=40)
def test_exp_is_additive(f, g):
    lhs = series_exp(f + g)
    rhs = series_mul(series_exp(f), series_exp(g))
    assert lhs == rhs.truncate(lhs.order)


@given(nilpotent_series)
@settings(max_examples=40)
def test_recip_of_exp_is_exp_of_negation(f):
    assert series_recip_unit(series_exp(f)) == series_exp(Series([-c for c in f.coeffs]))


@given(nilpotent_series)
def test_exp_derivative_identity(f):
    """(e^f)' = f'·e^f, the defining property of the exp recurrence."""
    if f.order == 0:
        return
    e = series_exp(f)
    assert _d_dt(e) == series_mul(_d_dt(f), e.truncate(f.order - 1))


@given(scalar_series, scalar_series)
def test_product_rule_for_derivative(a, b):
    if min(a.order, b.order) == 0:
        return
    lhs = _d_dt(series_mul(a, b))
    rhs = series_mul(_d_dt(a), b.truncate(b.order - 1)) + series_mul(
        a.truncate(a.order - 1), _d_dt(b)
    )
    assert lhs == rhs


@given(scalar_series)
def test_mul_t_div_t_round_trip(a):
    order = a.order + 1
    times_t = series_mul(Series((0, 1), order=order), Series(a.coeffs, order=order))
    assert times_t.order == order
    assert times_t.coeffs == (XP_ZERO,) + a.coeffs


egf_values = st.lists(
    st.one_of(
        rationals.map(LambdaPoly.coerce),
        st.lists(st.lists(rationals, max_size=3), max_size=3).map(XPoly),
    ),
    min_size=1,
    max_size=8,
)


@given(egf_values)
def test_egf_coeff_inverts_egf(values):
    s = egf(values)
    assert s.order == len(values) - 1
    assert [s.egf_coeff(n) for n in range(len(values))] == values


# ----------------------------------------------------------------------
# The three named generating functions
# ----------------------------------------------------------------------

def test_e_lambda_coefficients_are_falling_factorials():
    w = LambdaPoly((0, 3))  # 3λ as a symbolic exponent
    s = e_lambda_series(w, 8)
    for k in range(9):
        assert s.egf_coeff(k) == XPoly.coerce(LambdaPoly(pfalling((0, 3), k)))


def test_e_lambda_at_lambda_zero_is_classical_exp():
    s = e_lambda_series(1, 10)
    assert _scalars_at_lambda_zero(s) == [Fraction(1, factorial(n)) for n in range(11)]


def test_log_lambda_matches_reversion_oracle():
    """log_λ is the compositional inverse of e_λ - 1; the oracle inverts
    the series order by order without any closed form."""
    order = 8
    e_minus_1 = [
        pstrip(Fraction(1, factorial(n)) * c for c in pfalling((1,), n))
        for n in range(order + 1)
    ]
    e_minus_1[0] = ()
    inverse = revert_series(e_minus_1, order)
    log = log_lambda_series(order)
    for n in range(order + 1):
        got = log.coeff(n)
        assert got.degree in (None, 0)
        lam_coeffs = got.coeffs[0].coeffs if got.coeffs else ()
        assert lam_coeffs == inverse[n], n


def test_log_lambda_at_lambda_zero_is_classical_log():
    s = log_lambda_series(9)
    assert _scalars_at_lambda_zero(s) == [Fraction(0)] + [
        Fraction((-1) ** (n - 1), n) for n in range(1, 10)
    ]


def test_compose_log_then_e_is_shift():
    order = 7
    e = e_lambda_series(1, order)
    log = log_lambda_series(order)
    assert series_compose(e, log) == Series((1, 1), order=order)
    assert series_compose(log, e - Series.one(order)) == Series((0, 1), order=order)


def test_stirling2_generating_function():
    """(e_λ(t)-1)^k/k! has t^n/n! coefficient S_{2,λ}(n,k)."""
    order = 9
    e1 = e_lambda_series(1, order) - Series.one(order)
    power = Series.one(order)  # (e_λ(t)-1)^k, one factor more per k
    for k in range(order + 1):
        gf = Series([c * Fraction(1, factorial(k)) for c in power.coeffs])
        for n in range(order + 1):
            assert gf.egf_coeff(n) == XPoly.coerce(stirling2_deg(n, k)), (n, k)
        power = series_mul(power, e1)


def test_bell_generating_function_satisfies_its_ode():
    """(1+λt)·d/dt e^{x(e_λ(t)-1)} = x·e_λ(t)·e^{x(e_λ(t)-1)}.

    Checked on the GF built by ``series_exp`` and on the library's
    ``bell_gf``, which reads it from the S₂ table.
    """
    order = 9
    e = e_lambda_series(1, order)
    one_plus_lt = Series((1, LP_LAMBDA), order=order - 1)
    for gf in (series_exp(series_combination([(XP_X, e - Series.one(order))], order)),
               bell_gf(order)):
        lhs = series_mul(one_plus_lt, _d_dt(gf))
        rhs = series_combination([(XP_X, series_mul(e, gf))], order - 1)
        assert lhs == rhs


def test_e_lambda_derivative_identity():
    """(1+λt)·e_λ'(t) = e_λ(t)."""
    order = 10
    e = e_lambda_series(1, order)
    one_plus_lt = Series((1, LP_LAMBDA), order=order - 1)
    assert series_mul(one_plus_lt, _d_dt(e)) == e.truncate(order - 1)


def test_binomial_power_series_against_binomials():
    s = binomial_power_series(1, -1, 8)  # plain geometric series (1+t)^{-1}
    assert _scalars(s) == [Fraction((-1) ** n) for n in range(9)]
    t = binomial_power_series(LP_LAMBDA, -2, 6)  # (1+λt)^{-2}
    for n in range(7):
        expect = LambdaPoly([0] * n + [(n + 1) * (-1) ** n])  # (n+1)(-λ)^n
        assert t.coeff(n) == XPoly.coerce(expect), n


def test_symbolic_exponent_binomial_series():
    """(1-t)^{-x} is the EGF of the classical rising factorials."""
    s = binomial_power_series(-1, -XP_X, 7)
    for n in range(8):
        assert s.egf_coeff(n) == rising_classical(n)


# ----------------------------------------------------------------------
# Error contract and structure
# ----------------------------------------------------------------------

def test_exp_rejects_nonzero_constant_term():
    with pytest.raises(ValueError, match="nilpotent"):
        series_exp(Series.one(4))


def test_recip_rejects_non_unit():
    with pytest.raises(ValueError, match="unit"):
        series_recip_unit(Series((0, 1), order=4))


def test_compose_rejects_nonzero_inner_constant():
    with pytest.raises(ValueError, match="constant"):
        series_compose(Series((0, 1), order=4), Series.one(4))


@pytest.mark.parametrize("order", [True, 1.5, "2", -1])
def test_constructor_refuses_an_order_that_is_not_an_integer_at_least_zero(order):
    with pytest.raises(ValueError, match=f"series order must be an integer ≥ 0, got {order!r}"):
        Series((1,), order=order)


def test_coeff_out_of_range_raises():
    with pytest.raises(IndexError):
        Series.one(3).coeff(4)


def test_equality_is_structural():
    assert Series.one(3) != Series.one(4)
    assert Series.one(4).truncate(3) == Series.one(3)


def test_default_order_constant():
    assert DEFAULT_ORDER == 16


@given(scalar_series)
def test_json_round_trip(s):
    assert series_from_json("".join(series_json_chunks(s))) == s


def test_json_round_trip_symbolic():
    gf = series_exp(series_combination([(XP_X, e_lambda_series(1, 6) - Series.one(6))], 6))
    assert series_from_json("".join(series_json_chunks(gf))) == gf


@pytest.mark.parametrize("s", [Series((), order=0), Series.one(3), bell_gf(5), log_lambda_series(4)])
def test_json_chunks_join_to_the_one_shot_dump(s):
    """One chunk per t-coefficient plus the two ends; joined, exactly json.dumps of the object."""
    chunks = list(series_json_chunks(s))
    payload = {"order": s.order, "coeffs": [to_nested_lists(c) for c in s.coeffs]}
    assert len(chunks) == s.order + 3
    assert "".join(chunks) == json.dumps(payload)
    assert series_from_json("".join(chunks)) == s


# ----------------------------------------------------------------------
# series_combination vs the naive convolution oracles
# ----------------------------------------------------------------------

# A t-free coefficient as raw x-power rows of λ-coefficients.
lambda_rows = st.lists(rationals, max_size=3).map(lambda cs: [cs])
x_rows = st.lists(st.lists(rationals, max_size=3), max_size=2)


@st.composite
def combinations(draw, rows):
    """(order, [(constant rows, [series coefficient rows])]); every series reaches ``order``."""
    order = draw(st.integers(0, 4))
    series = st.lists(rows, min_size=order + 1, max_size=order + 2)
    return order, draw(st.lists(st.tuples(rows, series), max_size=3))


def _combine(order, pairs) -> Series:
    return series_combination(
        [(XPoly(c), Series((XPoly(r) for r in s), order=len(s) - 1)) for c, s in pairs], order
    )


def _raw_2d(rows) -> dict:
    return {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}


@given(combinations(lambda_rows))
def test_lambda_series_combination_matches_oracle(case):
    order, pairs = case
    expected = [()] * (order + 1)
    for [c], s in pairs:
        product = conv_trunc([pstrip(c)], [pstrip(r) for [r] in s], order)
        expected = [padd(e, p) for e, p in zip(expected, product)]
    total = _combine(order, pairs)
    assert total.order == order
    assert all(c.degree in (None, 0) for c in total.coeffs)
    assert [c.coeff(0).coeffs for c in total.coeffs] == expected


@given(combinations(x_rows))
# The block kernel's edge cases: leading all-zero t-coefficients, an inner zero
# x-coefficient, inner zero λ-numerators, a series longer than the order, and a
# zero constant (a term of zero weight) beside a live one.
@example((2, [
    ([[1, 0, 2], [], [3]], [[], [], [[0, 1], [], [1, 0, 4]], [[5]]]),
    ([], [[[1]], [[2]], [[3]]]),
]))
@example((0, [([], [[[1, 2]]]), ([[0, 0, 1]], [[[], [3]], [[4]]])]))
def test_series_combination_matches_oracle(case):
    order, pairs = case
    total = _combine(order, pairs)
    assert total.order == order
    for n in range(order + 1):
        rows: list[tuple] = []
        for c, s in pairs:
            for (i, j), v in poly_mul_2d(_raw_2d(c), _raw_2d(s[n])).items():
                rows += [()] * (i + 1 - len(rows))
                rows[i] = padd(rows[i], (Fraction(0),) * j + (v,))
        while rows and not rows[-1]:
            rows.pop()
        assert [lp.coeffs for lp in total.coeffs[n].coeffs] == rows, n


@settings(max_examples=50)
@given(combinations(x_rows))
def test_series_combination_that_cancels_is_zero(case):
    """Each pair and its negation: every coefficient is the empty XPoly, not stored zeros."""
    order, pairs = case
    signed = pairs + [([[-v for v in row] for row in c], s) for c, s in pairs]
    total = _combine(order, signed)
    assert total == Series((), order=order)
    assert all(c.coeffs == () for c in total.coeffs)


def test_series_combination_refuses_a_series_short_of_the_order():
    with pytest.raises(ValueError, match="order"):
        series_combination([(XP_X, Series.one(2))], 3)
