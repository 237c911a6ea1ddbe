"""Number families against brute-force oracles and their own recurrences."""

import inspect
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell import numbers
from degenbell.core import LP_LAMBDA, LP_ONE, LP_ZERO, LambdaPoly, XPoly, factorials
from degenbell.identities import (
    binomial_power_series,
    falling_classical,
    rising_classical,
    stirling2_alt_sums,
)
from degenbell.numbers import (
    MAX_DOBINSKI_TERMS,
    MAX_INDEX,
    basis_expand,
    bell_deg,
    bell_dobinski_numeric,
    bell_gf,
    bernoulli_deg,
    bernoulli_gf,
    bracket_deg,
    falling_deg,
    rising_deg,
    stirling1_deg,
    stirling2_deg,
)
from degenbell.opcalc import falling_classical_int
from degenbell.series import (
    Series,
    e_lambda_series,
    log_lambda_series,
    series_mul,
    series_recip_unit,
)

from oracles import (
    bell_count,
    bernoulli_deg_by_inversion,
    bernoulli_deg_rows,
    classical_bernoulli,
    pneg,
    stirling1_deg_rows,
    stirling1_unsigned_count,
    stirling2_count,
    stirling2_deg_rows,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


# ----------------------------------------------------------------------
# Factorial building blocks
# ----------------------------------------------------------------------

@given(rationals, rationals, st.integers(min_value=0, max_value=8))
def test_falling_deg_is_the_product(x0, lam, n):
    expect = [Fraction(1)]
    for i in range(n):
        expect.append(expect[-1] * (x0 - i * lam))
    assert falling_deg(n).eval(x0, lam) == expect[n]
    assert [p.eval(lam) for p in factorials(x0, -LP_LAMBDA, n)] == expect


@given(rationals, rationals, st.integers(min_value=0, max_value=8))
def test_rising_is_falling_with_flipped_signs(x0, lam, n):
    assert rising_deg(n).eval(x0, lam) == (-1) ** n * falling_deg(n).eval(-x0, lam)


@given(rationals, st.integers(min_value=0, max_value=8))
def test_classical_factorials_are_products(x0, n):
    fall = Fraction(1)
    rise = Fraction(1)
    for i in range(n):
        fall *= x0 - i
        rise *= x0 + i
    # the classical versions carry no λ, so the λ argument is inert
    assert falling_classical(n).eval(x0, 7) == fall
    assert rising_classical(n).eval(x0, 7) == rise


def test_deformed_factorials_specialize_to_classical_at_lambda_one():
    for n in range(8):
        for x0 in (Fraction(3), Fraction(-2), Fraction(5, 2)):
            assert falling_deg(n).eval(x0, 1) == falling_classical(n).eval(x0, 0)
            assert rising_deg(n).eval(x0, 1) == rising_classical(n).eval(x0, 0)
    assert falling_classical_int(5, 3) == 60
    assert falling_classical_int(2, 5) == 0


@given(st.integers(min_value=0, max_value=10), st.integers(min_value=0, max_value=10))
def test_falling_classical_int_matches_xpoly(r, k):
    assert falling_classical_int(r, k) == falling_classical(k).eval(r, 0)


def test_factorial_builders_need_no_recursion_depth():
    """Each basis, the factorial builder and e_λ build an index far above the
    recursion limit in force."""
    depth = len(inspect.stack(0))
    x0, lam = Fraction(7, 2), Fraction(-1, 3)
    cases = (
        (falling_deg, (depth + 50,), x0, -lam),
        (rising_deg, (depth + 50,), x0, lam),
        (falling_classical, (depth + 150,), x0, -1),
        (rising_classical, (depth + 150,), x0, 1),
        (factorials, (1, -LP_LAMBDA, depth + 150), 1, -lam),
        (e_lambda_series, (1, depth + 50), 1, -lam),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        built = [build(*args) for build, args, _, _ in cases]
    finally:
        sys.setrecursionlimit(limit)
    for result, (_, args, w0, shift) in zip(built, cases):
        n = args[-1]
        if isinstance(result, list):
            result = XPoly.const(result[n])
        elif isinstance(result, Series):
            result = result.egf_coeff(n)
        expect = Fraction(1)
        for i in range(n):
            expect *= w0 + i * shift
        assert result.eval(x0, lam) == expect, n


# ----------------------------------------------------------------------
# Stirling numbers, both kinds, against enumeration
# ----------------------------------------------------------------------

def test_stirling2_at_lambda_zero_counts_set_partitions():
    for n in range(9):
        for k in range(n + 1):
            assert stirling2_deg(n, k).eval(0) == stirling2_count(n, k), (n, k)


def test_bracket_at_lambda_zero_counts_permutation_cycles():
    for n in range(7):
        for k in range(n + 1):
            assert bracket_deg(n, k).eval(0) == stirling1_unsigned_count(n, k), (n, k)


def test_stirling2_at_lambda_one_is_kronecker_delta():
    """At λ=1 the deformed falling factorial IS the classical one, so the
    connection matrix collapses to the identity."""
    for n in range(10):
        for k in range(n + 1):
            assert stirling2_deg(n, k).eval(1) == (1 if n == k else 0)


def test_bracket_at_lambda_one_is_kronecker_delta():
    for n in range(10):
        for k in range(n + 1):
            assert bracket_deg(n, k).eval(1) == (1 if n == k else 0)


def test_stirling2_three_route_agreement():
    """Triangular recurrence table == alternating sum == basis conversion."""
    alt_sums = stirling2_alt_sums(12)
    for n in range(13):
        expanded = basis_expand(falling_deg(n), falling_classical)
        for k in range(n + 1):
            table = stirling2_deg(n, k)
            assert table == alt_sums[n][k], (n, k)
            assert table == (expanded[k] if k < len(expanded) else LP_ZERO), (n, k)


def test_alt_sum_vanishes_above_the_diagonal():
    alt_sums = stirling2_alt_sums(12)
    assert len(alt_sums) == 13 and all(len(row) == 13 for row in alt_sums)
    for n in range(13):
        for k in range(n + 1, 13):
            assert alt_sums[n][k].coeffs == (), (n, k)
            assert stirling2_deg(n, k).is_zero


def test_alt_sum_grid_is_a_prefix_of_every_larger_grid():
    big = stirling2_alt_sums(12)
    for n_max in (0, 1, 5):
        assert stirling2_alt_sums(n_max) == [row[: n_max + 1] for row in big[: n_max + 1]]


def test_stirling_inversion_is_exact():
    for n in range(13):
        for k in range(13):
            total = LP_ZERO
            for j in range(13):
                total = total + stirling1_deg(n, j) * stirling2_deg(j, k)
            assert total == (LP_ONE if n == k else LP_ZERO), (n, k)


def test_bracket_is_sign_flipped_first_kind():
    """[n k] = (-1)^{n-k}·S_{1,λ}(n,k), with S₁ from basis elimination of (x)_n."""
    for n in range(11):
        expanded = basis_expand(falling_classical(n), falling_deg)
        expanded += [LP_ZERO] * (n + 1 - len(expanded))
        for k in range(n + 1):
            assert stirling1_deg(n, k) == expanded[k], (n, k)
            assert bracket_deg(n, k) == expanded[k] * ((-1) ** (n - k)), (n, k)


def test_bracket_triangular_recurrence():
    """The recurrence-built brackets equal the independent basis expansion of ⟨x⟩_n."""
    for n in range(11):
        expanded = basis_expand(rising_classical(n), rising_deg)
        expanded += [LP_ZERO] * (n + 1 - len(expanded))
        for k in range(n + 1):
            assert bracket_deg(n, k) == expanded[k], (n, k)


def test_big_tables_match_closed_forms():
    """S₂ and brackets to 60, S₁ and β to 40, against closed forms over classical
    integer Stirling numbers; the S₂ coefficients reach 283 bits at n = 60.  β is
    also checked against the order-by-order inversion of (e_λ(t)-1)/t, which
    shares no step with the library's closed form."""
    s2, s1 = stirling2_deg_rows(60), stirling1_deg_rows(60)
    for n in range(61):
        for k in range(n + 1):
            assert stirling2_deg(n, k).coeffs == s2[n][k], (n, k)
            sign_flipped = s1[n][k] if (n - k) % 2 == 0 else pneg(s1[n][k])
            assert bracket_deg(n, k).coeffs == sign_flipped, (n, k)
            if n <= 40:
                assert stirling1_deg(n, k).coeffs == s1[n][k], (n, k)
    closed, inverted = bernoulli_deg_rows(40), bernoulli_deg_by_inversion(40)
    for n in range(41):
        assert bernoulli_deg(n).coeffs == closed[n] == inverted[n], n


def test_out_of_range_and_errors():
    assert stirling2_deg(3, 5).is_zero
    assert stirling1_deg(0, 0) == LP_ONE
    assert bracket_deg(2, 0).is_zero
    with pytest.raises(ValueError):
        stirling2_deg(-1, 0)
    with pytest.raises(ValueError):
        falling_deg(-2)


def test_builders_refuse_indices_above_the_limit():
    built = len(numbers._STIRLING2.rows), len(numbers._BRACKET.rows), len(numbers._BETA)
    n = MAX_INDEX + 1
    for build in (
        lambda: stirling2_deg(n, 1),
        lambda: stirling1_deg(n, 1),
        lambda: bracket_deg(n, 1),
        lambda: bell_deg(n),
        lambda: bernoulli_deg(n),
    ):
        with pytest.raises(ValueError, match="exceeds the limit"):
            build()
    assert (len(numbers._STIRLING2.rows), len(numbers._BRACKET.rows), len(numbers._BETA)) == built


def _fresh_tables(monkeypatch):
    """Empty S₂, bracket and β caches for this test; the shared ones come back after."""
    monkeypatch.setattr(numbers, "_STIRLING2", numbers._Triangle(numbers._STIRLING2._weight))
    monkeypatch.setattr(numbers, "_BRACKET", numbers._Triangle(numbers._BRACKET._weight))
    monkeypatch.setattr(numbers, "_BETA", numbers._BETA[:1])


def _raise_on_entry(monkeypatch, nth):
    """Make the nth LambdaPoly a builder stores raise KeyboardInterrupt."""
    real, calls = numbers._from_ints, []

    def flaky(*args):
        calls.append(None)
        if len(calls) == nth:
            raise KeyboardInterrupt
        return real(*args)

    monkeypatch.setattr(numbers, "_from_ints", flaky)


# The 20th S₂ or bracket entry is the last of row 5; β_6 is the 6th β entry.
INTERRUPTED_BUILDS = [
    pytest.param(lambda: stirling2_deg(8, 2), 20, id="stirling2"),
    pytest.param(lambda: bracket_deg(8, 2), 20, id="bracket"),
    pytest.param(lambda: bernoulli_deg(8), 6, id="bernoulli"),
]


@pytest.mark.parametrize("build, nth", INTERRUPTED_BUILDS)
def test_an_interrupted_build_keeps_only_whole_rows(monkeypatch, build, nth):
    _fresh_tables(monkeypatch)
    with monkeypatch.context() as patch:
        _raise_on_entry(patch, nth)
        with pytest.raises(KeyboardInterrupt):
            build()
    s2, s1 = stirling2_deg_rows(10), stirling1_deg_rows(10)
    for n in range(11):
        for k in range(n + 1):
            assert stirling2_deg(n, k).coeffs == s2[n][k], (n, k)
            assert stirling1_deg(n, k).coeffs == s1[n][k], (n, k)
    for n, beta in enumerate(bernoulli_deg_rows(10)):
        assert bernoulli_deg(n).coeffs == beta, n


def test_basis_expand_round_trips():
    p = falling_deg(5) * falling_deg(2) + falling_deg(3)
    for basis in (falling_classical, falling_deg, rising_classical, rising_deg):
        coeffs = basis_expand(p, basis)
        rebuilt = XPoly.const(0)
        for k, c in enumerate(coeffs):
            rebuilt = rebuilt + basis(k) * c
        assert rebuilt == p, basis.__name__


# ----------------------------------------------------------------------
# Bernoulli numbers
# ----------------------------------------------------------------------

def test_bernoulli_reduces_to_classical_at_lambda_zero():
    classical = classical_bernoulli(12)
    for n in range(13):
        assert bernoulli_deg(n).eval(0) == classical[n], n


def test_bernoulli_at_lambda_one_collapses():
    """e_1(t) = 1 + t makes t/(e_1(t)-1) the constant series 1."""
    for n in range(9):
        assert bernoulli_deg(n).eval(1) == (1 if n == 0 else 0)


def _e_lambda_minus_one_over_t(order):
    """(e_λ(t)-1)/t to t^order, by shifting the coefficients of e_λ(t) down one."""
    return Series(e_lambda_series(1, order + 1).coeffs[1:], order=order)


def test_bernoulli_gf_defining_equation():
    order = 10
    gf = bernoulli_gf(order)
    assert series_mul(gf, _e_lambda_minus_one_over_t(order)) == Series.one(order)


def test_bernoulli_matches_series_reciprocal():
    """The closed form against the other route: the reciprocal of (e_λ(t)-1)/t."""
    gf = series_recip_unit(_e_lambda_minus_one_over_t(40))
    for n in range(41):
        assert bernoulli_deg(n) == gf.egf_coeff(n).eval_x(0), n


def test_first_bernoulli_values():
    assert bernoulli_deg(0) == LP_ONE
    assert bernoulli_deg(1) == LambdaPoly((Fraction(-1, 2), Fraction(1, 2)))
    assert bernoulli_deg(2).eval(0) == Fraction(1, 6)


# ----------------------------------------------------------------------
# Bell polynomials
# ----------------------------------------------------------------------

def test_bell_coefficients_are_the_stirling_row():
    for n in range(9):
        b = bell_deg(n)
        for k in range(n + 1):
            assert b.coeff(k) == stirling2_deg(n, k)


def test_bell_at_lambda_zero_counts_partitions():
    for n in range(9):
        assert bell_deg(n).eval(1, 0) == bell_count(n), n


def test_bell_gf_reaches_order_100_within_budget():
    """bell_gf reads the S₂ table: order 100 is served in seconds, < 20 s."""
    t0 = time.perf_counter()
    gf = bell_gf(100)
    for n in (0, 1, 50, 100):
        assert gf.egf_coeff(n) == bell_deg(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0


def test_bernoulli_builds_cold_to_the_cap_within_budget(monkeypatch):
    """β to MAX_INDEX and its generating function from empty caches, < 5 s."""
    _fresh_tables(monkeypatch)
    t0 = time.perf_counter()
    top = bernoulli_deg(MAX_INDEX)
    gf = bernoulli_gf(MAX_INDEX)
    elapsed = time.perf_counter() - t0
    assert gf.egf_coeff(MAX_INDEX) == XPoly.const(top)
    assert top.eval(0) == classical_bernoulli(MAX_INDEX)[MAX_INDEX]
    assert elapsed < 5.0


@pytest.mark.parametrize("gf", [
    bell_gf,
    bernoulli_gf,
    log_lambda_series,
    pytest.param(lambda order: e_lambda_series(1, order), id="e_lambda_series"),
    pytest.param(lambda order: binomial_power_series(1, 1, order), id="binomial_power_series"),
])
def test_generating_functions_refuse_a_negative_order(gf):
    with pytest.raises(ValueError, match="order must be nonnegative, got -1"):
        gf(-1)


def test_dobinski_converges_to_exact():
    for n in range(7):
        for x in (Fraction(1, 2), Fraction(2)):
            for lam in (Fraction(0), Fraction(1, 3)):
                exact = float(bell_deg(n).eval(x, lam))
                approx = bell_dobinski_numeric(n, x, lam, 60)
                assert abs(approx - exact) < 1e-9


def test_dobinski_truncation_improves_with_terms():
    """Too few terms cannot be certified and are refused; enough terms are."""
    exact = float(bell_deg(8).eval(2, Fraction(1, 2)))
    with pytest.raises(ValueError, match="cannot certify"):
        bell_dobinski_numeric(8, 2, Fraction(1, 2), 12)
    fine = abs(bell_dobinski_numeric(8, 2, Fraction(1, 2), 50) - exact)
    assert fine < 1e-9


def _dobinski_by_fraction_loop(n, x, lam, terms):
    """The Dobinski evaluator as it stood with one Fraction product per falling
    factor: the same sum, tail bounds and refusal, on Fractions throughout."""
    xq, lamq = Fraction(x), Fraction(lam)
    half = Fraction(1, 2 * 10**9)
    refusal = f"{terms} Dobinski terms cannot certify 1e-9 at x = {x}; use more terms"
    total = Fraction(0)
    x_pow = Fraction(1)
    for k in range(terms):
        if k:
            x_pow = x_pow * xq / k
        fall = Fraction(1)
        for i in range(n):
            fall *= k - i * lamq
        total += fall * x_pow
    shift = n * abs(lamq)
    ratio = ((terms + 1 + shift) / (terms + shift)) ** n * xq / (terms + 1)
    if ratio >= 1:
        raise ValueError(refusal)
    sum_tail = (terms + shift) ** n * x_pow * xq / terms / (1 - ratio)
    exp_neg, term, j = Fraction(0), Fraction(1), 0
    while j < max(terms, 40) or j + 1 <= xq or abs(term * total) > half:
        exp_neg += term
        j += 1
        term = term * (-xq) / j
    if (exp_neg + abs(term)) * sum_tail > half:
        raise ValueError(refusal)
    return float(total * exp_neg)


def _outcome(evaluate, *args):
    try:
        return evaluate(*args)
    except ValueError as exc:
        return str(exc)


def test_dobinski_matches_the_fraction_loop():
    """The integer Horner sum gives the same float, or the same refusal, as the
    Fraction loop, including negative and integer λ and x = 7.25."""
    for n in (0, 1, 2, 5, 13, 30):
        for x in (Fraction(1, 2), Fraction(2), Fraction(29, 4)):
            for lam in (Fraction(-1, 2), Fraction(0), Fraction(1, 3), Fraction(2)):
                for terms in (1, 9, 60, 200):
                    expect = _outcome(_dobinski_by_fraction_loop, n, x, lam, terms)
                    got = _outcome(bell_dobinski_numeric, n, x, lam, terms)
                    assert got == expect, (n, x, lam, terms)


def test_dobinski_input_validation():
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, 1, 0, terms=0)
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, 0, 0, terms=10)
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, -1, 0, terms=10)
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, float("inf"), 0, terms=10)
    # refused before summing: a billion terms would never finish
    for terms in (MAX_DOBINSKI_TERMS + 1, 10**9):
        with pytest.raises(ValueError, match=f"{terms} Dobinski terms exceed the limit"):
            bell_dobinski_numeric(3, 1, 0, terms=terms)


def test_dobinski_accepts_the_term_cap():
    exact = float(bell_deg(3).eval(2, Fraction(1, 3)))
    assert abs(bell_dobinski_numeric(3, 2, Fraction(1, 3), MAX_DOBINSKI_TERMS) - exact) < 1e-9
