"""Number families against brute-force oracles and their own recurrences."""

import inspect
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from degenbell import numbers
from degenbell.core import LP_ONE, LP_ZERO, LambdaPoly, XPoly
from degenbell.numbers import (
    MAX_INDEX,
    basis_expand,
    bell_deg,
    bell_dobinski_numeric,
    bell_gf,
    bernoulli_deg,
    bernoulli_gf,
    bracket_deg,
    falling_classical,
    falling_classical_int,
    falling_deg,
    falling_deg_at,
    rising_classical,
    rising_deg,
    stirling1_deg,
    stirling2_alt_sum,
    stirling2_deg,
)

from oracles import (
    bell_count,
    classical_bernoulli,
    stirling1_unsigned_count,
    stirling2_count,
)

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


# ----------------------------------------------------------------------
# Factorial building blocks
# ----------------------------------------------------------------------

@given(rationals, rationals, st.integers(min_value=0, max_value=8))
def test_falling_deg_is_the_product(x0, lam, n):
    expect = Fraction(1)
    for i in range(n):
        expect *= x0 - i * lam
    assert falling_deg(n).eval(x0, lam) == expect
    assert falling_deg_at(x0, n).eval(lam) == expect


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
    """Each basis builds an index far above the recursion limit in force."""
    depth = len(inspect.stack(0))
    x0, lam = Fraction(7, 2), Fraction(-1, 3)
    cases = (
        (falling_deg, depth + 50, -lam),
        (rising_deg, depth + 50, lam),
        (falling_classical, depth + 150, -1),
        (rising_classical, depth + 150, 1),
    )
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 20)
    try:
        built = [(build(n), n, shift) for build, n, shift in cases]
    finally:
        sys.setrecursionlimit(limit)
    for poly, n, shift in built:
        expect = Fraction(1)
        for i in range(n):
            expect *= x0 + i * shift
        assert poly.eval(x0, lam) == expect, n


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
    for n in range(13):
        expanded = basis_expand(falling_deg(n), falling_classical)
        for k in range(n + 1):
            table = stirling2_deg(n, k)
            assert table == stirling2_alt_sum(n, k), (n, k)
            assert table == (expanded[k] if k < len(expanded) else LP_ZERO), (n, k)


def test_alt_sum_vanishes_above_the_diagonal():
    for n in range(7):
        for k in range(n + 1, 10):
            assert stirling2_alt_sum(n, k).is_zero
            assert stirling2_deg(n, k).is_zero


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


def test_bernoulli_gf_defining_equation():
    order = 10
    from degenbell.series import Series, e_lambda_series, series_mul

    gf = bernoulli_gf(order)
    e1 = (e_lambda_series(1, order + 1) - Series.one(order + 1)).div_t()
    assert series_mul(gf, e1) == Series.one(order)


def test_bernoulli_recurrence_matches_series_reciprocal():
    gf = bernoulli_gf(24)
    for n in range(25):
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


def test_bernoulli_gf_reaches_order_120_within_budget():
    """bernoulli_gf's reciprocal makes one weighted sum per coefficient: order 120, < 20 s."""
    t0 = time.perf_counter()
    gf = bernoulli_gf(120)
    for n in (0, 1, 60, 120):
        assert gf.egf_coeff(n).eval_x(0) == bernoulli_deg(n), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 20.0


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


def test_dobinski_input_validation():
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, 1, 0, terms=0)
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, 0, 0, terms=10)
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, -1, 0, terms=10)
    with pytest.raises(ValueError):
        bell_dobinski_numeric(3, float("inf"), 0, terms=10)
