"""Ring axioms, evaluation homomorphisms, and text round-trips for the
exact polynomial layer."""

from fractions import Fraction
from math import factorial, gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from degenbell.core import (
    LP_LAMBDA,
    LP_ONE,
    LP_ZERO,
    XP_X,
    XP_ZERO,
    LambdaPoly,
    XPoly,
    factorials,
    format_rational,
    from_nested_lists,
    lambda_poly_from_ascii,
    lambda_poly_pretty,
    lambda_poly_to_ascii,
    parse_rational,
    sum_of_products,
    to_nested_lists,
    xpoly_from_ascii,
    xpoly_pretty,
    xpoly_to_ascii,
)
from degenbell import core
from degenbell.core import _from_ints
from degenbell.identities import _x_antiderivative, _x_derivative
from degenbell.numbers import bell_gf
from degenbell.series import (
    Series, egf, series_from_json, series_json_chunks, series_mul, series_recip_unit,
)

from oracles import generalized_factorial, padd, pmul, pneg, poly_mul_2d, pstrip

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
lpolys = st.lists(rationals, max_size=5).map(LambdaPoly)
xpolys = st.lists(st.lists(rationals, max_size=4), max_size=4).map(XPoly)


# ----------------------------------------------------------------------
# LambdaPoly ring structure
# ----------------------------------------------------------------------

@given(lpolys, lpolys, lpolys)
def test_lambda_ring_axioms(p, q, r):
    assert p + q == q + p
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)
    assert p * (q + r) == p * q + p * r


@given(lpolys)
def test_lambda_neutral_elements(p):
    assert p + LP_ZERO == p
    assert p * LP_ONE == p
    assert (p * LP_ZERO).is_zero
    assert p - p == LP_ZERO


@given(lpolys, lpolys, rationals)
def test_lambda_eval_is_ring_homomorphism(p, q, lam):
    assert (p + q).eval(lam) == p.eval(lam) + q.eval(lam)
    assert (p * q).eval(lam) == p.eval(lam) * q.eval(lam)


def test_lambda_poly_is_immutable():
    p = LambdaPoly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = (3,)


# Denominators from 1 to 16! mixed within one polynomial, and zeros between
# nonzero coefficients, so the common-denominator products see both.
wide_rationals = st.one_of(
    st.just(Fraction(0)),
    st.builds(
        Fraction,
        st.integers(-(10**20), 10**20),
        st.one_of(st.integers(1, 16).map(factorial), st.integers(1, 60)),
    ),
)
wide_lpolys = st.lists(wide_rationals, max_size=8).map(LambdaPoly)


@given(wide_lpolys, wide_lpolys)
def test_lambda_product_matches_oracle(p, q):
    product = p * q
    assert product.coeffs == pmul(p.coeffs, q.coeffs)
    assert hash(product) == hash(LambdaPoly(pmul(p.coeffs, q.coeffs)))


def test_products_that_cancel_store_canonical_coefficients():
    half, third = Fraction(1, 2), Fraction(1, 3)
    p = LambdaPoly((half, third))
    q = LambdaPoly((2, Fraction(-3, 2)))
    assert (p * q).coeffs == pmul(p.coeffs, q.coeffs) == (1, Fraction(-1, 12), -half)
    one_plus, one_minus = LambdaPoly((1, 1)), LambdaPoly((1, -1))
    assert (one_plus * one_minus).coeffs == (1, 0, -1)
    # (x + λ)(x - λ) = x² - λ²: the x¹ coefficient cancels to the zero polynomial.
    x_plus, x_minus = XPoly((LP_LAMBDA, LP_ONE)), XPoly((-LP_LAMBDA, LP_ONE))
    product = x_plus * x_minus
    assert [lp.coeffs for lp in product.coeffs] == [(0, 0, -1), (), (1,)]
    assert hash(product) == hash(XPoly(((0, 0, -1), (), (1,))))
    # (x/6 + λ/10)(x/6 - λ/10) = x²/36 - λ²/100, over the denominators 6 and 10.
    p6 = XPoly((LambdaPoly((0, Fraction(1, 10))), Fraction(1, 6)))
    q6 = XPoly((LambdaPoly((0, Fraction(-1, 10))), Fraction(1, 6)))
    product = p6 * q6
    assert [lp.coeffs for lp in product.coeffs] == [(0, 0, Fraction(-1, 100)), (), (Fraction(1, 36),)]
    assert _as_2d(product) == poly_mul_2d(_as_2d(p6), _as_2d(q6))


def test_trailing_zeros_are_normalized():
    assert LambdaPoly((1, 0, 0)) == LambdaPoly((1,))
    assert LambdaPoly((0, 0)).is_zero
    assert LambdaPoly(()).degree is None


# Int rows as the table builders step them: trailing zeros, all zeros, the
# empty list, negatives and ints of 500+ bits.
big_ints = st.builds(int.__mul__, st.integers(2**500, 2**520), st.sampled_from((1, -1)))
int_rows = st.lists(st.one_of(st.just(0), st.integers(-50, 50), big_ints), max_size=8).flatmap(
    lambda row: st.integers(0, 3).map(lambda zeros: row + [0] * zeros)
)


@given(int_rows, st.one_of(st.just(1), st.integers(2, 10**6), st.integers(2**500, 2**510)))
@example([], 1)
@example([0, 0, 0], 1)
@example([0, 0], 6)
def test_int_rows_are_canonical(row, den):
    """Over den 1 the coefficients are the ints; over a larger den each one is
    an int where den divides it and a Fraction otherwise.  Either way the
    polynomial equals and hashes as the one over the same Fraction values."""
    expect = pstrip(Fraction(c, den) for c in row)
    p = _from_ints(row, den)
    assert p.coeffs == expect
    assert all(type(c) is (int if c.denominator == 1 else Fraction) for c in p.coeffs)
    same = LambdaPoly(Fraction(c, den) for c in row)
    assert p == same and hash(p) == hash(same)
    if den == 1:
        assert _from_ints(row) == LambdaPoly(row) and hash(_from_ints(row)) == hash(LambdaPoly(row))


# Operands over ints, Fractions and bools mixed: a bool is an int subclass the
# library must store as a number.
exact_scalars = st.one_of(st.integers(-20, 20), rationals, st.booleans())
mixed_lpolys = st.lists(exact_scalars, max_size=4).map(LambdaPoly)
mixed_xpolys = st.lists(st.lists(exact_scalars, max_size=3), max_size=3).map(XPoly)


def _scalars(value):
    """Every λ-coefficient of a LambdaPoly, an XPoly or a Series."""
    if isinstance(value, Series):
        return [c for x in value.coeffs for c in _scalars(x)]
    if isinstance(value, XPoly):
        return [c for lp in value.coeffs for c in lp.coeffs]
    return list(value.coeffs)


@given(mixed_lpolys, mixed_lpolys, mixed_xpolys, mixed_xpolys, exact_scalars,
       st.integers(-5, 5).filter(bool), st.integers(0, 4))
def test_coefficients_stay_ints_or_fractions(p, q, a, b, c, unit, n):
    sa, sb = Series([a, b, p], order=3), Series([b, q, a, c], order=3)
    with_unit = Series([unit, a, q], order=3)
    recip = series_recip_unit(with_unit)
    assert series_mul(recip, with_unit) == Series.one(3)
    assert (p + q).coeffs == padd(p.coeffs, q.coeffs)  # stripped with no second normalising pass
    results = [
        p + q, p - q, -p, p * c, c * p, p * q, a + b, -a, a * c, c * a, a * b,
        a.eval_x(c), a.eval_x(unit), series_mul(sa, sb), egf([a, b, p, c]), recip,
        *factorials(p, q, n), *factorials(c, unit, n), *factorials(a, q, n),
    ]
    for r in results:
        assert all(type(x) in (int, Fraction) for x in _scalars(r)), r
    # 0! = 1! = 1, so egf keeps the types of the t⁰ and t¹ coefficients: ints stay ints
    for v, coeff in zip((a, b), egf([a, b, p, c]).coeffs):
        assert [type(x) for x in _scalars(coeff)] == [type(x) for x in _scalars(v)], v
    assert type(p.eval(c)) is Fraction and type(a.eval(c, unit)) is Fraction


@given(
    wide_lpolys,
    st.one_of(
        st.integers(-(10**30), 10**30).filter(bool),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6).filter(bool),
    ),
)
def test_negation_and_scalar_multiples_are_canonical(p, c):
    assert (-p).coeffs == pneg(p.coeffs) and hash(-p) == hash(LambdaPoly(pneg(p.coeffs)))
    scaled = tuple(Fraction(c) * a for a in p.coeffs)
    for product in (p * c, c * p):
        assert product.coeffs == scaled and hash(product) == hash(LambdaPoly(scaled))
    assert p * 0 == LP_ZERO and p * Fraction(0) == LP_ZERO


def test_integral_values_are_ints_after_arithmetic():
    """A product, a sum or a scalar multiple over a denominator > 1 that comes
    out integral reads back as an int, not as Fraction(n, 1)."""
    half = Fraction(1, 2)
    cases = [
        (LambdaPoly([half, half]) * LambdaPoly([1, 1]), (half, 1, half)),
        (LambdaPoly([half]) + LambdaPoly([half]), (1,)),
        (LambdaPoly([half, 3]) * 2, (1, 6)),
    ]
    for p, expect in cases:
        assert p.coeffs == expect
        assert [type(c) for c in p.coeffs] == [type(c) for c in expect], p.coeffs


def _assert_stored_form(p, expect):
    """p is stored as coprime int numerators over a positive denominator with no
    trailing zero, and reads, equals and hashes as the Fraction tuple ``expect``."""
    num, den = p._num, p._den
    assert type(den) is int and den >= 1
    assert all(type(c) is int for c in num)
    assert gcd(den, *num) == 1
    assert not num or num[-1] != 0
    assert p.coeffs == expect
    same = LambdaPoly(expect)
    assert p == same and hash(p) == hash(same)
    assert p.coeffs is p.coeffs


@given(st.lists(exact_scalars, max_size=5), int_rows,
       st.one_of(st.just(1), st.integers(2, 10**6), st.integers(2**500, 2**510)),
       wide_lpolys, wide_lpolys, exact_scalars.filter(bool), mixed_xpolys)
@example([True, Fraction(1, 2), 0, False], [0, 6, 0, 3], 6,
         LambdaPoly([Fraction(1, 2), 1]), LambdaPoly([0, Fraction(1, 2)]), 2, XP_ZERO)
def test_every_route_stores_the_canonical_form(scalars, row, den, p, q, c, x):
    """The constructor, _from_ints, the kernel (a product and sum_of_products),
    sums, negation, scalar multiples and both ASCII parsers all store one form."""
    _assert_stored_form(LambdaPoly(scalars), pstrip(Fraction(v) for v in scalars))
    _assert_stored_form(_from_ints(row, den), pstrip(Fraction(v, den) for v in row))
    pq = pmul(p.coeffs, q.coeffs)
    _assert_stored_form(p * q, pq)
    _assert_stored_form(
        sum_of_products([(c, p, q), (-1, q, LambdaPoly([1, 1]))]).coeff(0),
        padd(tuple(Fraction(c) * v for v in pq), pneg(pmul(q.coeffs, (1, 1)))),
    )
    _assert_stored_form(p + q, padd(p.coeffs, q.coeffs))
    _assert_stored_form(p - p, ())
    _assert_stored_form(-p, pneg(p.coeffs))
    _assert_stored_form(p * c, tuple(Fraction(c) * v for v in p.coeffs))
    _assert_stored_form(lambda_poly_from_ascii(lambda_poly_to_ascii(p)), p.coeffs)
    for got, want in zip(xpoly_from_ascii(xpoly_to_ascii(x)).coeffs, x.coeffs):
        _assert_stored_form(got, want.coeffs)


# ----------------------------------------------------------------------
# XPoly
# ----------------------------------------------------------------------

def _as_2d(p: XPoly) -> dict:
    return {
        (i, j): c
        for i, lp in enumerate(p.coeffs)
        for j, c in enumerate(lp.coeffs)
        if c
    }


@given(xpolys, xpolys)
# Interior zeros, and a Fraction x-row packed beside int rows: the operand's
# one denominator rescales the int rows too.
@example(
    XPoly([[1, 0, 3], [], [Fraction(1, 2), 0, Fraction(-2, 3)]]),
    XPoly([[0, 2], [5, 0, 0, -7]]),
)
def test_xpoly_product_matches_dict_oracle(p, q):
    assert _as_2d(p * q) == poly_mul_2d(_as_2d(p), _as_2d(q))


# ----------------------------------------------------------------------
# The generalized factorials w(w+s)···(w+(n-1)s)
# ----------------------------------------------------------------------

# (library value, the oracle's {(x_deg, λ_deg): Fraction} map) of each w and step
FACTORIAL_BASES = {
    "3": (3, {(0, 0): Fraction(3)}),
    "1/2-2λ": (LambdaPoly((Fraction(1, 2), -2)), {(0, 0): Fraction(1, 2), (0, 1): Fraction(-2)}),
    "x": (XP_X, {(1, 0): Fraction(1)}),
}
FACTORIAL_STEPS = {
    "-λ": (-LP_LAMBDA, {(0, 1): Fraction(-1)}),
    "λ": (LP_LAMBDA, {(0, 1): Fraction(1)}),
    "-1": (-1, {(0, 0): Fraction(-1)}),
    "1": (1, {(0, 0): Fraction(1)}),
    "0": (0, {}),
}


@pytest.mark.parametrize("step", FACTORIAL_STEPS)
@pytest.mark.parametrize("w", FACTORIAL_BASES)
def test_factorials_match_the_plain_product(w, step):
    (w, w_map), (step, step_map) = FACTORIAL_BASES[w], FACTORIAL_STEPS[step]
    built = factorials(w, step, 12)
    assert len(built) == 13
    kind = XPoly if isinstance(w, XPoly) else LambdaPoly
    for k, p in enumerate(built):
        assert type(p) is kind, k
        assert _as_2d(XPoly.coerce(p)) == generalized_factorial(w_map, step_map, k), k


def test_factorials_refuse_a_negative_index():
    with pytest.raises(ValueError, match="factorial index must be nonnegative, got -1"):
        factorials(XP_X, -LP_LAMBDA, -1)


# ----------------------------------------------------------------------
# The multiply-accumulate kernel: Σ w·a·b
# ----------------------------------------------------------------------

# Weights: zero, plain ints, and Fractions whose denominators are large
# (up to 16! and 10^25) and differ from term to term.
weights = st.one_of(
    st.just(0),
    st.integers(-(10**6), 10**6),
    st.builds(
        Fraction,
        st.integers(-(10**20), 10**20),
        st.one_of(st.integers(1, 16).map(factorial), st.integers(1, 10**25)),
    ),
)
# One operand as raw (x-power rows of λ-coefficients) plus how it is passed:
# a scalar, a LambdaPoly (one row) or an XPoly; any of them may be empty.
operands = st.one_of(
    wide_rationals.map(lambda c: ([[c]], c)),
    st.lists(wide_rationals, max_size=5).map(lambda cs: ([cs], LambdaPoly(cs))),
    st.lists(st.lists(wide_rationals, max_size=4), max_size=3).map(
        lambda rows: (rows, XPoly(rows))
    ),
)
lambda_operands = st.one_of(
    wide_rationals.map(lambda c: ((c,), c)),
    st.lists(wide_rationals, max_size=6).map(lambda cs: (tuple(cs), LambdaPoly(cs))),
)


def _raw_2d(rows) -> dict:
    return {(i, j): c for i, row in enumerate(rows) for j, c in enumerate(row) if c}


def _oracle_rows(terms) -> list[tuple]:
    """Σ w·a·b by poly_mul_2d products combined row by row with padd."""
    rows: list[tuple] = []
    for w, (ra, _), (rb, _) in terms:
        product = poly_mul_2d(_raw_2d(ra), _raw_2d(rb))
        for (i, j), c in product.items():
            rows += [()] * (i + 1 - len(rows))
            rows[i] = padd(rows[i], (Fraction(0),) * j + (w * c,))
    while rows and not rows[-1]:
        rows.pop()
    return rows


@settings(max_examples=200)
@given(st.lists(st.tuples(weights, operands, operands), max_size=6))
def test_sum_of_products_matches_oracle(terms):
    total = sum_of_products((w, a, b) for w, (_, a), (_, b) in terms)
    expected = _oracle_rows(terms)
    assert [lp.coeffs for lp in total.coeffs] == expected
    assert hash(total) == hash(XPoly(expected))


@settings(max_examples=200)
@given(st.lists(st.tuples(weights, lambda_operands, lambda_operands), max_size=6))
def test_lambda_sum_of_products_matches_oracle(terms):
    total = sum_of_products((w, a, b) for w, (_, a), (_, b) in terms)
    expected: tuple = ()
    for w, (ra, _), (rb, _) in terms:
        expected = padd(expected, tuple(w * c for c in pmul(ra, rb)))
    assert total.degree in (None, 0)
    assert total.coeff(0).coeffs == expected
    assert hash(total.coeff(0)) == hash(LambdaPoly(expected))


@given(st.lists(st.tuples(weights, operands, operands), min_size=1, max_size=4))
def test_sum_of_products_that_cancel_is_the_zero_polynomial(terms):
    """Each term and its negation: the sum is the empty XPoly, not stored zeros."""
    signed = [(s * w, a, b) for w, (_, a), (_, b) in terms for s in (1, -1)]
    total = sum_of_products(signed)
    assert total.coeffs == ()
    assert hash(total) == hash(XP_ZERO)


def test_constant_factors_never_reach_the_kernel(monkeypatch):
    calls = []
    kernel = core._multiply_accumulate
    monkeypatch.setattr(core, "_multiply_accumulate", lambda *a: calls.append(a) or kernel(*a))
    p = XPoly([[1, Fraction(2, 3)], [], [Fraction(-5, 7), 0, 4]])
    s = Series([p, p * p, XPoly([0, 0, 0, LP_LAMBDA])])
    q, five = LambdaPoly((1, 2, 3)), LambdaPoly.const(5)
    calls.clear()
    results = [p * 3, p * Fraction(1, 2), 3 * p, p * five, q * five, five * q, s.egf_coeff(2)]
    assert all(results) and calls == []
    LambdaPoly((1, 2)) * LambdaPoly((3, 4))
    assert len(calls) == 1


@given(xpolys, rationals, lpolys, lpolys)
def test_constant_factors_match_the_kernel(p, c, q, r):
    """The scalar route gives what sum_of_products, the kernel route, gives."""
    const = LambdaPoly.const(c)
    assert p * c == 3 * (p * Fraction(c, 3)) == sum_of_products([(1, p, c)])
    assert p * const == sum_of_products([(1, p, const)])
    assert q * const == const * q == sum_of_products([(1, q, const)]).coeff(0)
    s = Series([p, XPoly([q]), XPoly([q, r])])
    for n in (1, 2):
        assert s.coeff(n) * n == sum_of_products([(n, s.coeff(n), 1)])
    assert s.egf_coeff(2) == sum_of_products([(2, s.coeff(2), 1)])


@given(xpolys, xpolys, rationals, rationals)
def test_xpoly_eval_is_ring_homomorphism(p, q, x0, lam):
    assert (p * q).eval(x0, lam) == p.eval(x0, lam) * q.eval(x0, lam)
    assert (p + q).eval(x0, lam) == p.eval(x0, lam) + q.eval(x0, lam)


@given(xpolys, xpolys)
def test_derivative_product_rule(p, q):
    assert _x_derivative(p * q) == _x_derivative(p) * q + p * _x_derivative(q)


@given(xpolys)
def test_antiderivative_inverts_derivative(p):
    """The zero-constant antiderivative followed by d/dx gives back p."""
    assert _x_derivative(_x_antiderivative(p)) == p
    assert _x_antiderivative(p).coeff(0).is_zero


# ----------------------------------------------------------------------
# Text forms
# ----------------------------------------------------------------------

@given(xpolys)
def test_nested_list_round_trip(p):
    assert from_nested_lists(to_nested_lists(p)) == p


@given(lpolys)
def test_lambda_ascii_round_trip(p):
    assert lambda_poly_from_ascii(lambda_poly_to_ascii(p)) == p


@given(xpolys)
def test_xpoly_ascii_round_trip(p):
    assert xpoly_from_ascii(xpoly_to_ascii(p)) == p


def test_ascii_forms_are_plain():
    s = lambda_poly_to_ascii(LambdaPoly((5, -6, 2)))
    assert s == "2*lambda^2 - 6*lambda + 5"
    assert s.isascii()
    assert xpoly_to_ascii(XPoly([[0], [1, -1], [1]])) == "x^2 + (1 - lambda)*x"


def test_ascii_parser_accepts_any_term_order():
    assert lambda_poly_from_ascii("5 - 6*lambda + 2*lambda^2") == LambdaPoly((5, -6, 2))
    assert xpoly_from_ascii("(1 - lambda)*x + x^2") == XPoly([[0], [1, -1], [1]])


def test_ascii_parser_rejects_garbage():
    with pytest.raises(ValueError):
        lambda_poly_from_ascii("2*mu + 1")
    with pytest.raises(ValueError):
        xpoly_from_ascii("((1)*x")
    with pytest.raises(ValueError):
        lambda_poly_from_ascii("")
    with pytest.raises(ValueError):
        lambda_poly_from_ascii("1/0")
    with pytest.raises(ValueError):
        xpoly_from_ascii("(1/0)*x")
    # digits are ASCII only: Arabic-Indic ٣ and ٢ are not 3 and 2
    for text in ("٣*lambda^٢", "lambda^٢", "٣"):
        with pytest.raises(ValueError):
            lambda_poly_from_ascii(text)
    for text in ("٣*x", "x^٣", "(1)*x^٣", "(٣)*x"):
        with pytest.raises(ValueError):
            xpoly_from_ascii(text)
    with pytest.raises(ValueError, match="exceeds the limit"):
        lambda_poly_from_ascii("lambda^99999999999")
    for text in ("x^99999999999", "(1)*x^99999999999", "(lambda^99999999999)*x"):
        with pytest.raises(ValueError, match="exceeds the limit"):
            xpoly_from_ascii(text)


def test_parsed_integral_coefficients_are_ints():
    """The parsers store an integral coefficient as an int, as the core does."""
    parsed = [
        lambda_poly_from_ascii("1 - 2*lambda"),
        lambda_poly_from_ascii("4/2*lambda^2 - 1/2"),
        *xpoly_from_ascii("(1 - 2*lambda)*x^2 - 6/3*x + 1/3").coeffs,
        *from_nested_lists([["1", "-2/2", "1/2"], [], ["0", "3"]]).coeffs,
        *(c for x in series_from_json("".join(series_json_chunks(bell_gf(3)))).coeffs
          for c in x.coeffs),
    ]
    coeffs = [c for p in parsed for c in p.coeffs]
    assert any(type(c) is Fraction for c in coeffs)
    for c in coeffs:
        assert type(c) is (int if c.denominator == 1 else Fraction), c


# A leading sign, or one between terms with spaces on both sides, is a sign;
# any other sign is refused, by both parsers alike.
SIGN_FORMS = [
    ("-v", True),
    ("- v", True),
    ("1 - v", True),
    ("-1 - 2*v", True),
    ("1 + -v", False),
    ("1 - -v", False),
    ("1 -v", False),
    ("1-v", False),
    ("--v", False),
    ("-", False),
    ("1 +", False),
]


@pytest.mark.parametrize("form, accepted", SIGN_FORMS, ids=[form for form, _ in SIGN_FORMS])
def test_both_parsers_read_signs_alike(form, accepted):
    lam_text, x_text = form.replace("v", "lambda"), form.replace("v", "x")
    if accepted:
        assert xpoly_from_ascii(x_text) == XPoly(lambda_poly_from_ascii(lam_text).coeffs)
    else:
        for parse, text in ((lambda_poly_from_ascii, lam_text), (xpoly_from_ascii, x_text)):
            with pytest.raises(ValueError):
                parse(text)


PARSERS = (
    parse_rational,
    lambda_poly_from_ascii,
    xpoly_from_ascii,
    series_from_json,
)
# Text drawn from the parsers' own alphabet reaches deep into the grammar;
# arbitrary unicode covers the rest.
grammar_text = st.text(alphabet=list("0123456789/+-*^ ()[],lambdax"), max_size=30)


@settings(max_examples=300)
@given(st.one_of(st.text(), grammar_text))
def test_parsers_raise_only_value_error(text):
    for parse in PARSERS:
        try:
            parse(text)
        except ValueError:
            pass


@pytest.mark.parametrize(
    "text",
    [
        "[]",
        "null",
        '"order"',
        '{"order": 2}',
        '{"coeffs": [[]]}',
        '{"order": 1, "coeffs": [[[1]]]}',
        '{"order": 0, "coeffs": [[["1", 2]]]}',
        '{"order": 0, "coeffs": ["1"]}',
        '{"order": 0, "coeffs": [[["1/0"]]]}',
        '{"order": -1, "coeffs": []}',
        '{"order": 1.0, "coeffs": [[], []]}',
        '{"order": true, "coeffs": [[], []]}',
        '{"order": "1", "coeffs": [[], []]}',
        '{"order": 2, "coeffs": [[], []]}',
        '{"order": 0, "coeffs": [[], []]}',
        '{"order": 1000000000000, "coeffs": []}',
        '{"order": 0, "coeffs": {"0": []}}',
        "[" * 100_000 + "]" * 100_000,
    ],
    ids=lambda text: text if len(text) < 60 else "deeply-nested",
)
def test_series_from_json_rejects_malformed_payloads(text):
    with pytest.raises(ValueError):
        series_from_json(text)


def test_pretty_rendering_examples():
    assert lambda_poly_pretty(LambdaPoly((1, -1))) == "1 - λ"
    assert lambda_poly_pretty(LambdaPoly((5, -6, 2))) == "2λ² - 6λ + 5"
    assert lambda_poly_pretty(LP_ZERO) == "0"
    assert xpoly_pretty(XPoly([[0], [1, -1], [1]])) == "x² + (1 - λ)x"
    assert xpoly_pretty(XP_ZERO) == "0"


NOTATION_CASES = [
    (LambdaPoly((0, -1)), "-λ", "-lambda"),
    (LambdaPoly((Fraction(1, 2), 0, Fraction(-1, 3))), "(1/2) - (1/3)λ²", "1/2 - 1/3*lambda^2"),
    (LambdaPoly((-1,)), "-1", "-1"),
    (XPoly([[-1], [Fraction(-1, 2)], [1]]), "x² - (1/2)x - 1", "x^2 - 1/2*x - 1"),
    (XPoly([[1, -1]]), "(1 - λ)", "(1 - lambda)"),
    (XPoly([[], [0, 1]]), "(λ)x", "(lambda)*x"),
    (XPoly([[2], [], [Fraction(1, 3)]]), "(1/3)x² + 2", "1/3*x^2 + 2"),
]


@pytest.mark.parametrize(
    "poly,pretty,ascii_form", NOTATION_CASES, ids=[case[2] for case in NOTATION_CASES]
)
def test_both_notations_on_sign_fraction_and_parenthesized_terms(poly, pretty, ascii_form):
    """A leading minus, fractions, unit and constant terms in both notations."""
    if isinstance(poly, LambdaPoly):
        assert (lambda_poly_pretty(poly), lambda_poly_to_ascii(poly)) == (pretty, ascii_form)
        assert lambda_poly_from_ascii(ascii_form) == poly
    else:
        assert (xpoly_pretty(poly), xpoly_to_ascii(poly)) == (pretty, ascii_form)
        assert xpoly_from_ascii(ascii_form) == poly


# ----------------------------------------------------------------------
# Rational parsing
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "text,value",
    [("3", Fraction(3)), ("-3", Fraction(-3)), ("1/2", Fraction(1, 2)),
     ("+7/3", Fraction(7, 3)), (" 2/4 ", Fraction(1, 2))],
)
def test_parse_rational_accepts_exact_forms(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("text", ["0.5", "1e3", "", "x", "1/0", "1/2/3", "--4", "٣", "1/٣"])
def test_parse_rational_rejects_inexact_forms(text):
    with pytest.raises(ValueError):
        parse_rational(text)


@given(rationals)
def test_format_parse_round_trip(q):
    assert parse_rational(format_rational(q)) == q
