"""The deformed number and polynomial families.

Everything here is a polynomial identity in the deformation parameter λ:

* ``falling_deg`` / ``rising_deg`` -- the deformed factorial bases
  (x)_{n,λ} = x(x-λ)···(x-(n-1)λ) and ⟨x⟩_{n,λ}, by one iterative cached
  product: :func:`~degenbell.core.factorials` of x with step -λ or λ.
* ``stirling2_deg`` -- S_{2,λ}(n,k), connecting (x)_{n,λ} to the classical
  falling factorials: its λ^{n-l} coefficient is s(n,l)·S(l,k).
* ``stirling1_deg`` -- S_{1,λ}(n,k), the inverse of S₂: its λ^{l-k}
  coefficient is the same s(n,l)·S(l,k), so S_{1,λ}(n,k) = λ^{n-k}·S_{2,1/λ}(n,k)
  is the S₂ entry with its coefficients reversed.
* ``bracket_deg`` -- [n k]_λ = (-1)^{n-k}·S_{1,λ}(n,k), connecting ⟨x⟩_n to
  the deformed rising factorials.
* ``bernoulli_deg`` -- β_{n,λ}, the coefficients of t/(e_λ(t)-1), in closed
  form over the classical Bernoulli numbers and the signed Stirling numbers
  of the first kind; ``bernoulli_gf``, that generating function, is read from
  the β table as Σ_n β_{n,λ}tⁿ/n!, the :func:`~degenbell.series.egf` of its rows.
* ``bell_deg`` -- Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)x^k, and ``bell_gf``, its
  generating function e^{x(e_λ(t)-1)}, read from the S₂ table as
  Σ_n Bel_{n,λ}(x)tⁿ/n!, the egf of its rows; plus the certified
  Dobinski-style numeric evaluator.  The two generating functions load
  :mod:`degenbell.series` when called; the tables need none of it.

Each table has one route.  s and S are the classical Stirling numbers, s of
the first kind (signed) and S of the second, kept as int triangles: s by rows,
which β and the S₂ rows read, and S by columns, which only the S₂ rows read, so
β grows the s rows alone.  Both grow by whole rows, exactly to the row asked for.
Row n of S₂ is built alone from them.  That row is the one λ-triangle:
``bell_deg`` builds it once and returns it as the XPoly Bel_{n,λ}(x),
``stirling2_deg`` reads its x^k coefficient, and S₁ and the brackets read that
coefficient backwards in λ.
An S₂ entry, and an S₁ or bracket entry made from it on each read, is an int
list stored as built; β_n, whose coefficients alone are fractions, is built as
ints over one denominator and reduced once as it is stored (see :mod:`.core`).
Indices above ``MAX_INDEX`` raise ValueError before anything is built.  Each S₂
row, each β_n and each s row is built in locals and committed whole, and each S
row is appended to the columns one entry at a time in increasing k, so a build
that raises, even by KeyboardInterrupt, leaves every row store as it was after
the last complete row and every S column a correct prefix.
Second routes that cross-check the tables live in :mod:`degenbell.identities`,
except ``basis_expand``, which the benchmark's layer rows wrap by this name.

At λ = 0 every family collapses to its classical counterpart; the classical
values are exposed only through that evaluation, never as separate code.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isfinite, lcm, prod
from itertools import repeat
from operator import add, getitem, mul, sub
from typing import TYPE_CHECKING, Callable

from .core import (
    LP_LAMBDA,
    LP_ONE,
    LP_ZERO,
    XP_ONE,
    XP_X,
    LambdaPoly,
    XPoly,
    _from_ints,
    _require_nonneg,
    _stored,
    _xstored,
    factorials,
)

if TYPE_CHECKING:
    from .series import Series


# ----------------------------------------------------------------------
# Factorial families
# ----------------------------------------------------------------------

# The deformed bases, one growing list per step -λ (falling) and λ (rising).
_FACTORIALS: dict[LambdaPoly, list[XPoly]] = {-LP_LAMBDA: [XP_ONE], LP_LAMBDA: [XP_ONE]}


def falling_deg(n: int) -> XPoly:
    """(x)_{n,λ} = x(x-λ)(x-2λ)···(x-(n-1)λ) as an XPoly, monic of degree n."""
    return factorials(XP_X, -LP_LAMBDA, n, _FACTORIALS[-LP_LAMBDA])[n]


def rising_deg(n: int) -> XPoly:
    """⟨x⟩_{n,λ} = x(x+λ)(x+2λ)···(x+(n-1)λ) as an XPoly."""
    return factorials(XP_X, LP_LAMBDA, n, _FACTORIALS[LP_LAMBDA])[n]


def basis_expand(p: XPoly, element: Callable[[int], XPoly]) -> list[LambdaPoly]:
    """Coefficients c_0..c_d with p = Σ c_k·element(k).

    ``element`` is a monic basis builder such as ``rising_deg``.
    Descending-degree elimination: every basis element is monic of its
    degree, so the top coefficient of the remainder is read off directly
    and one subtraction strictly lowers the degree.  Exact for any p.
    """
    coeffs = [LP_ZERO] * len(p.coeffs)
    rem = p
    while not rem.is_zero:
        d = rem.degree
        coeffs[d] = rem.coeff(d)
        rem = rem - element(d) * coeffs[d]
        if not rem.is_zero and rem.degree >= d:
            raise AssertionError("basis elimination failed to reduce degree")
    return coeffs


# ----------------------------------------------------------------------
# Stirling, bracket, Bernoulli and Bell tables
# ----------------------------------------------------------------------

#: Largest row index n served by the S₂, S₁, bracket, Bel and β builders; their
#: time and memory grow as n³ (β's as n² int numerators over one denominator per
#: β_n), with figures in the README.
MAX_INDEX = 200
#: Most terms ``bell_dobinski_numeric`` sums; the cost of its exact sum grows
#: steeply with the term count, with figures in the README.
MAX_DOBINSKI_TERMS = 1000


def require_index(n: int, what: str = "index") -> None:
    """Raise ValueError unless 0 ≤ n ≤ MAX_INDEX."""
    _require_nonneg(n, what)
    if n > MAX_INDEX:
        raise ValueError(f"{what} {n} exceeds the limit {MAX_INDEX}")


# _FIRST[n] is s(n,0)…s(n,n), row-major, s signed as above; _SECOND[k] is column k
# of S, S(k,k), S(k+1,k), … down to the largest row grown.
_FIRST: list[list[int]] = [[1]]
_SECOND: list[list[int]] = [[1]]


def _first_rows(n: int) -> None:
    """Grow the s rows to row n, each row m in one pass over row m-1, one append."""
    for m in range(len(_FIRST), n + 1):
        s = _FIRST[-1]
        _FIRST.append(list(map(sub, [0, *s], map(mul, repeat(m - 1), [*s, 0]))))


def _second_columns(n: int) -> None:
    """Grow the S columns to row n, one row l at a time: row l is made in one pass
    over row l-1 by S(l,k) = S(l-1,k-1) + k·S(l-1,k) and appended in increasing k,
    S(l,l) = 1 last as the new column l."""
    for l in range(len(_SECOND), n + 1):
        # S(l-1,k) is read by its row, at index l-1-k of column k, so a row that an
        # interrupted growth left half appended is read and completed the same way.
        prev = list(map(getitem, _SECOND, range(l - 1, -1, -1)))
        row = map(add, [0, *prev], map(mul, range(l), prev))
        for foot, column, entry in zip(range(l, 0, -1), _SECOND, row):
            if len(column) == foot:
                column.append(entry)
        _SECOND.append([1])


# Row n of S_{2,λ}, kept as the XPoly Bel_{n,λ}(x) whose x^k coefficient is
# S_{2,λ}(n,k); each built alone and stored whole under n.  The one λ-triangle:
# S₁ and the brackets read it backwards in λ.
_STIRLING2: dict[int, XPoly] = {}


def bell_deg(n: int) -> XPoly:
    """Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)·x^k: row n of the S₂ table in closed form, as stored."""
    row = _STIRLING2.get(n)
    if row is None:
        require_index(n, "row index")
        _first_rows(n)
        _second_columns(n)
        # The λ^d coefficient of S_{2,λ}(n,k) is s(n,n-d)·S(n-d,k), d = 0…n-k.  For
        # 1 ≤ k ≤ n no factor is zero, so the products are stored as built;
        # S_{2,λ}(n,0) is 1 at n = 0 and 0 after, and S_{2,λ}(n,n) = 1 ends the row.
        s = _FIRST[n][::-1]
        row = _STIRLING2[n] = _xstored((LP_ZERO if n else LP_ONE,) + tuple(
            _stored(tuple(map(mul, s, _SECOND[k][n - k::-1])), 1) for k in range(1, n + 1)
        ))
    return row


def stirling2_deg(n: int, k: int) -> LambdaPoly:
    """S_{2,λ}(n,k) in closed form; zero outside 0 ≤ k ≤ n."""
    return bell_deg(n).coeff(k)


def stirling1_deg(n: int, k: int) -> LambdaPoly:
    """S_{1,λ}(n,k), the coefficient of (x)_{k,λ} in (x)_n: λ^{n-k}·S_{2,1/λ}(n,k)."""
    # Canonical as reversed: an S₂ entry is ints over 1 that start with S(n,k) and
    # end with s(n,k), both nonzero for 1 ≤ k ≤ n (k = 0 < n gives zero).
    return _stored(stirling2_deg(n, k)._num[::-1], 1)


def bracket_deg(n: int, k: int) -> LambdaPoly:
    """[n k]_λ = (-1)^{n-k}·S_{1,λ}(n,k), the coefficient of ⟨x⟩_{k,λ} in ⟨x⟩_n."""
    num = stirling2_deg(n, k)._num
    return _stored(num[::-1] if (n - k) % 2 == 0 else tuple([-c for c in reversed(num)]), 1)


# _BETA[n] is (B_n, β_n): the classical Bernoulli number (B₁ = -1/2) and β_n.
_BETA: list[tuple[Fraction, LambdaPoly]] = [(Fraction(1), LP_ONE)]


def bernoulli_deg(n: int) -> LambdaPoly:
    """β_{n,λ}: the t^n/n! coefficient of t/(e_λ(t)-1).

    With u = log(1+λt)/λ, t/(e_λ(t)-1) = (t/u)·(u/(e^u-1)) = Σ_l B_l·t·u^{l-1}/l!,
    so for n ≥ 1 the λ^{n-l} coefficient is (n/l)·B_l·s(n-1,l-1), l = 1…n, and
    the λ^n one is Σ_k s(n,k)/(k+1).  B_n comes from Σ_{k≤n} C(n+1,k)·B_k = 0.
    """
    require_index(n)
    if n < len(_BETA):
        return _BETA[n][1]
    _first_rows(n)
    for m in range(len(_BETA), n + 1):
        prev, row = _FIRST[m - 1], _FIRST[m]
        bs = [entry[0] for entry in _BETA]
        d = lcm(*[b.denominator for b in bs])
        bs.append(Fraction(-sum(comb(m + 1, k) * b.numerator * (d // b.denominator)
                                for k, b in enumerate(bs)), (m + 1) * d))
        # Each l·den(B_l) and each k + 1 divides lcm(1…m+1)·lcm(den(B_0)…den(B_m)).
        common = lcm(*range(1, m + 2)) * lcm(d, bs[m].denominator)
        terms = [m * prev[l - 1] * bs[l].numerator * (common // (l * bs[l].denominator))
                 for l in range(m, 0, -1)]
        terms.append(sum(c * (common // (k + 1)) for k, c in enumerate(row)))
        # One append commits β_m whole.
        _BETA.append((bs[m], _from_ints(terms, common)))
    return _BETA[n][1]


def bernoulli_gf(order: int) -> Series:
    """t/(e_λ(t)-1) truncated at the given order, read from the β table."""
    _require_nonneg(order, "order")
    from .series import egf  # the tables themselves need no series
    return egf(bernoulli_deg(n) for n in range(order + 1))


def bell_gf(order: int) -> Series:
    """e^{x(e_λ(t)-1)} truncated at the given order, with symbolic x.

    Read from the S₂ table, which is its memo: the t^n/n! coefficient is
    Bel_{n,λ}(x).
    """
    _require_nonneg(order, "order")
    from .series import egf
    return egf(bell_deg(n) for n in range(order + 1))


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
    if not (isfinite(x) and isfinite(lam)):
        raise ValueError("non-finite input")
    xq = Fraction(x)
    if xq <= 0:
        raise ValueError(f"x must be positive, got {x}")
    lamq = Fraction(lam)
    half = Fraction(1, 2 * 10**9)
    refusal = f"{terms} Dobinski terms cannot certify 1e-9 at x = {x}; use more terms"

    # λ = p/q, x = a/b: q^n·(k)_{n,λ} = Π_{i<n}(kq - ip) is an int, and Horner's scheme
    # acc_k = q^n·(k)_{n,λ} + acc_{k+1}·x/(k+1) runs on num/den ints: one Fraction in all.
    p, q = lamq.numerator, lamq.denominator
    a, b = xq.numerator, xq.denominator
    num, den = 0, 1
    for k in reversed(range(terms)):
        step = b * (k + 1)
        num, den = num * a + prod(k * q - i * p for i in range(n)) * den * step, den * step
    total = Fraction(num, den * q**n)
    x_pow = xq ** (terms - 1) / factorial(terms - 1)  # the last term's x^k/k!
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
