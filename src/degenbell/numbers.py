"""The deformed number and polynomial families.

Everything here is a polynomial identity in the deformation parameter λ:

* ``falling_deg`` / ``rising_deg`` -- the deformed factorial bases
  (x)_{n,λ} = x(x-λ)···(x-(n-1)λ) and ⟨x⟩_{n,λ}, by one iterative cached
  product P(n) = P(n-1)·(x + (n-1)·shift) with shift -λ or λ.
* ``stirling2_deg`` -- S_{2,λ}(n,k), connecting (x)_{n,λ} to the classical
  falling factorials, by S(n,k) = S(n-1,k-1) + (k-(n-1)λ)S(n-1,k).
* ``bracket_deg`` -- [n k]_λ, connecting ⟨x⟩_n to the deformed rising
  factorials, by [n k] = [n-1,k-1] + ((n-1)-kλ)[n-1,k].
* ``stirling1_deg`` -- S_{1,λ}(n,k) = (-1)^{n-k}[n k]_λ, the inverse of S₂.
* ``bernoulli_deg`` -- β_{n,λ}, the coefficients of t/(e_λ(t)-1), by the
  recurrence that the product (t/(e_λ(t)-1))·((e_λ(t)-1)/t) = 1 gives;
  ``bernoulli_gf`` is that generating function as a series reciprocal.
* ``bell_deg`` -- Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)x^k, and ``bell_gf``, its
  generating function e^{x(e_λ(t)-1)}, read from the S₂ table as
  Σ_n Bel_{n,λ}(x)tⁿ/n!; plus the certified Dobinski-style numeric evaluator.

Each table has one route: rows are stepped on integer λ-coefficient lists
(β over one denominator per n) and each entry becomes a LambdaPoly once.
Indices above ``MAX_INDEX`` raise ValueError before anything is built.
Second routes that cross-check the tables live in :mod:`degenbell.identities`,
except ``basis_expand``, which the benchmark's layer rows wrap by this name.

At λ = 0 every family collapses to its classical counterpart; the classical
values are exposed only through that evaluation, never as separate code.
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import comb, factorial, gcd, lcm
from typing import Callable

from .core import (
    LP_LAMBDA,
    LP_ONE,
    LP_ZERO,
    XP_ONE,
    XP_X,
    LambdaPoly,
    XPoly,
)
from .series import Series, e_lambda_series, series_recip_unit


def _require_nonneg(n: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")


# ----------------------------------------------------------------------
# Factorial families
# ----------------------------------------------------------------------

_FACTORIALS: dict[LambdaPoly, list[XPoly]] = {}


def _factorial(shift: LambdaPoly, n: int) -> XPoly:
    """P(n) = P(n-1)·(x + (n-1)·shift), P(0) = 1, from a growing list per shift."""
    _require_nonneg(n, "factorial index")
    built = _FACTORIALS.setdefault(shift, [XP_ONE])
    while len(built) <= n:
        built.append(built[-1] * (XP_X + shift * (len(built) - 1)))
    return built[n]


def falling_deg(n: int) -> XPoly:
    """(x)_{n,λ} = x(x-λ)(x-2λ)···(x-(n-1)λ) as an XPoly, monic of degree n."""
    return _factorial(-LP_LAMBDA, n)


def rising_deg(n: int) -> XPoly:
    """⟨x⟩_{n,λ} = x(x+λ)(x+2λ)···(x+(n-1)λ) as an XPoly."""
    return _factorial(LP_LAMBDA, n)


def basis_expand(p: XPoly, element: Callable[[int], XPoly]) -> list[LambdaPoly]:
    """Coefficients c_0..c_d with p = Σ c_k·element(k).

    ``element`` is a monic basis builder such as ``rising_deg``.
    Descending-degree elimination: every basis element is monic of its
    degree, so the top coefficient of the remainder is read off directly
    and one subtraction strictly lowers the degree.  Exact for any p.
    """
    coeffs: list[LambdaPoly] = []
    rem = p
    while not rem.is_zero:
        d = rem.degree
        while len(coeffs) <= d:
            coeffs.append(LP_ZERO)
        top = rem.coeff(d)
        coeffs[d] = top
        rem = rem - element(d) * XPoly.const(top)
        if not rem.is_zero and rem.degree >= d:
            raise AssertionError("basis elimination failed to reduce degree")
    return coeffs


# ----------------------------------------------------------------------
# Stirling, bracket, Bernoulli and Bell tables
# ----------------------------------------------------------------------

#: Largest row index n served by the S₂, S₁, bracket, Bel and β builders; their
#: time and memory grow as n³ (β's time as n⁴), with figures in the README.
MAX_INDEX = 200
#: Most terms ``bell_dobinski_numeric`` sums; the cost of its exact sum grows
#: steeply with the term count, with figures in the README.
MAX_DOBINSKI_TERMS = 1000


def require_index(n: int, what: str = "index") -> None:
    """Raise ValueError unless 0 ≤ n ≤ MAX_INDEX."""
    _require_nonneg(n, what)
    if n > MAX_INDEX:
        raise ValueError(f"{what} {n} exceeds the limit {MAX_INDEX}")


def _add_linear_times(left: list[int], c: list[int], a: int, b: int) -> list[int]:
    """left + (a + bλ)·c on integer λ-coefficient lists (trailing zeros allowed)."""
    out = left + [0] * (len(c) + 1 - len(left))
    for i, ci in enumerate(c):
        out[i] += a * ci
        out[i + 1] += b * ci
    return out


class _Triangle:
    """Rows of T(n,k) = T(n-1,k-1) + (a + bλ)·T(n-1,k), with (a, b) = weight(n, k)."""

    def __init__(self, weight):
        self._weight = weight
        self._last: list[list[int]] = [[1]]
        self.rows: list[tuple[LambdaPoly, ...]] = [(LP_ONE,)]

    def row(self, n: int) -> tuple[LambdaPoly, ...]:
        require_index(n, "row index")
        while len(self.rows) <= n:
            m, prev = len(self.rows), self._last + [[]]
            self._last = [
                _add_linear_times(prev[k - 1] if k else [], prev[k], *self._weight(m, k))
                for k in range(m + 1)
            ]
            self.rows.append(tuple(map(LambdaPoly, self._last)))
        return self.rows[n]


# S(n,k) = S(n-1,k-1) + (k - (n-1)λ)·S(n-1,k)
_STIRLING2 = _Triangle(lambda n, k: (k, 1 - n))
# [n k] = [n-1,k-1] + ((n-1) - kλ)·[n-1,k]
_BRACKET = _Triangle(lambda n, k: (n - 1, -k))


def stirling2_deg(n: int, k: int) -> LambdaPoly:
    """S_{2,λ}(n,k) by the triangular recurrence; zero outside 0 ≤ k ≤ n."""
    row = _STIRLING2.row(n)
    return row[k] if 0 <= k <= n else LP_ZERO


def bracket_deg(n: int, k: int) -> LambdaPoly:
    """[n k]_λ, the coefficient of ⟨x⟩_{k,λ} in ⟨x⟩_n, by its triangular recurrence."""
    row = _BRACKET.row(n)
    return row[k] if 0 <= k <= n else LP_ZERO


def stirling1_deg(n: int, k: int) -> LambdaPoly:
    """S_{1,λ}(n,k) = (-1)^{n-k}·[n k]_λ: coefficient of (x)_{k,λ} in (x)_n."""
    c = bracket_deg(n, k)
    return c if (n - k) % 2 == 0 else -c


# β_n = num[n]/den[n] over integers; (1)_{m,λ} = 1·(1-λ)···(1-(m-1)λ) is kept
# with exactly max(m, 1) coefficients, so that β_n fits in n + 1 slots.
_BETA_NUM: list[list[int]] = [[1]]
_BETA_DEN: list[int] = [1]
_BETA: list[LambdaPoly] = [LP_ONE]
_ONE_FALL: list[list[int]] = [[1], [1]]


def bernoulli_deg(n: int) -> LambdaPoly:
    """β_{n,λ}: the t^n/n! coefficient of t/(e_λ(t)-1).

    Built by β_0 = 1, β_n = -Σ_{k<n} C(n,k)·β_k·(1)_{n-k+1,λ}/(n-k+1),
    the t^n/n! coefficient of (t/(e_λ(t)-1))·((e_λ(t)-1)/t) = 1.
    """
    require_index(n)
    num, den, fall = _BETA_NUM, _BETA_DEN, _ONE_FALL
    for m in range(len(num), n + 1):
        while len(fall) <= m + 1:
            fall.append(_add_linear_times([], fall[-1], 1, 1 - len(fall)))
        common = lcm(*(den[k] * (m - k + 1) for k in range(m)))
        acc = [0] * (m + 1)
        for k in range(m):
            w = comb(m, k) * (common // (den[k] * (m - k + 1)))
            for i, a in enumerate(num[k]):
                for j, f in enumerate(fall[m - k + 1]):
                    acc[i + j] -= w * a * f
        g = gcd(common, *acc)
        num.append([c // g for c in acc])
        den.append(common // g)
        _BETA.append(LambdaPoly(Fraction(c, den[m]) for c in num[m]))
    return _BETA[n]


def bernoulli_gf(order: int) -> Series:
    """t/(e_λ(t)-1) truncated at the given order: reciprocal of (e_λ(t)-1)/t."""
    _require_nonneg(order, "order")
    e = e_lambda_series(1, order + 1)
    return series_recip_unit((e - Series.one(order + 1)).div_t())


def bell_gf(order: int) -> Series:
    """e^{x(e_λ(t)-1)} truncated at the given order, with symbolic x.

    Read from the S₂ table, which is its memo: the t^n/n! coefficient is
    Bel_{n,λ}(x).
    """
    return Series(bell_deg(n) * Fraction(1, factorial(n)) for n in range(order + 1))


def bell_deg(n: int) -> XPoly:
    """Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)·x^k."""
    return XPoly(_STIRLING2.row(n))


def bell_dobinski_numeric(n: int, x: float, lam: float, terms: int) -> float:
    """Truncated Dobinski sum e^{-x}·Σ_{k<terms}(k)_{n,λ}x^k/k! as a float.

    The sum and the e^{-x} factor are accumulated in exact rational
    arithmetic (the float inputs are taken at their exact binary values)
    and rounded exactly once at the end — at n = 10, x = 2 the target is
    ≈ 4.4·10⁶, where 1e-9 is only a couple of ULPs, so any intermediate
    float rounding would eat the whole error budget.

    Before that rounding the value is within 1e-9 of Bel_{n,λ}(x), or
    ValueError is raised: e^{-x} is a Maclaurin sum of at least
    max(terms, 40) terms, longer where x needs it, and both omitted tails
    are bounded, each by half of 1e-9.
    """
    _require_nonneg(n, "index")
    if terms < 1:
        raise ValueError(f"terms must be ≥ 1, got {terms}")
    if terms > MAX_DOBINSKI_TERMS:
        raise ValueError(f"{terms} Dobinski terms exceed the limit {MAX_DOBINSKI_TERMS}")
    if not (math.isfinite(x) and math.isfinite(lam)):
        raise ValueError("non-finite input")
    xq = Fraction(x)
    if xq <= 0:
        raise ValueError(f"x must be positive, got {x}")
    lamq = Fraction(lam)
    half = Fraction(1, 2 * 10**9)
    refusal = f"{terms} Dobinski terms cannot certify 1e-9 at x = {x}; use more terms"

    total = Fraction(0)
    x_pow = Fraction(1)  # x^k / k!, updated incrementally
    for k in range(terms):
        if k:
            x_pow = x_pow * xq / k
        fall = Fraction(1)  # (k)_{n,λ}
        for i in range(n):
            fall *= k - i * lamq
        total += fall * x_pow
    # |(k)_{n,λ}|x^k/k! ≤ a_k = (k + n|λ|)^n·x^k/k!, and a_{k+1}/a_k falls as k
    # grows, so Σ_{k≥terms} a_k ≤ a_terms/(1 - r) with r = a_{terms+1}/a_terms.
    shift = n * abs(lamq)
    ratio = ((terms + 1 + shift) / (terms + shift)) ** n * xq / (terms + 1)
    if ratio >= 1:
        raise ValueError(refusal)
    sum_tail = (terms + shift) ** n * x_pow * xq / terms / (1 - ratio)
    # e^{-x} by Maclaurin: once j + 1 > x the terms t_j = (-x)^j/j! alternate
    # and shrink, so the omitted tail is at most |t_j|.
    exp_neg, term, j = Fraction(0), Fraction(1), 0
    while j < max(terms, 40) or j + 1 <= xq or abs(term * total) > half:
        exp_neg += term
        j += 1
        term = term * (-xq) / j
    if (exp_neg + abs(term)) * sum_tail > half:
        raise ValueError(refusal)
    return float(total * exp_neg)
