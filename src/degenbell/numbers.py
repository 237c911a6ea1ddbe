"""The deformed number and polynomial families.

Everything here is a polynomial identity in the deformation parameter λ:

* ``falling_deg`` / ``rising_deg`` -- the deformed factorial bases
  (x)_{n,λ} = x(x-λ)···(x-(n-1)λ) and ⟨x⟩_{n,λ}, by one iterative cached
  product: :func:`~degenbell.core.factorials` of x with step -λ or λ.
* ``stirling2_deg`` -- S_{2,λ}(n,k), connecting (x)_{n,λ} to the classical
  falling factorials: its λ^d coefficient is s(n,n-d)·S(n-d,k).
* ``bracket_deg`` -- [n k]_λ, connecting ⟨x⟩_n to the deformed rising
  factorials: its λ^d coefficient is (-1)^{n-k}·s(n,k+d)·S(k+d,k).
* ``stirling1_deg`` -- S_{1,λ}(n,k) = (-1)^{n-k}[n k]_λ, the inverse of S₂.
* ``bernoulli_deg`` -- β_{n,λ}, the coefficients of t/(e_λ(t)-1), in closed
  form over the classical Bernoulli numbers and the signed Stirling numbers
  of the first kind; ``bernoulli_gf``, that generating function, is read from
  the β table as Σ_n β_{n,λ}tⁿ/n!, the :func:`~degenbell.series.egf` of its rows.
* ``bell_deg`` -- Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)x^k, and ``bell_gf``, its
  generating function e^{x(e_λ(t)-1)}, read from the S₂ table as
  Σ_n Bel_{n,λ}(x)tⁿ/n!, the egf of its rows; plus the certified
  Dobinski-style numeric evaluator.

Each table has one route.  s and S are the classical Stirling numbers, s of
the first kind (signed) and S of the second; one shared store holds both
integer triangles, and row n of S₂ or of the brackets is built alone from it.
Row n of S₂ is kept as the XPoly Bel_{n,λ}(x), built once: ``bell_deg``
returns it as stored and ``stirling2_deg`` reads its x^k coefficient.
Every entry is an integer λ-coefficient list (β_n over one denominator) that
becomes a LambdaPoly once, straight from its ints, which are canonical once
stripped and reduced (see :mod:`.core`); only β's coefficients read as
Fractions.  Indices above ``MAX_INDEX`` raise ValueError before anything is
built.  Each row (each β_n, each classical row) is built in locals and
committed whole, so a build that raises, even by KeyboardInterrupt, leaves
every cache as it was after the last complete row.
Second routes that cross-check the tables live in :mod:`degenbell.identities`,
except ``basis_expand``, which the benchmark's layer rows wrap by this name.

At λ = 0 every family collapses to its classical counterpart; the classical
values are exposed only through that evaluation, never as separate code.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, isfinite, lcm, prod
from typing import Callable

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
    factorials,
)
from .series import Series, egf


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
        rem = rem - element(d) * XPoly.const(coeffs[d])
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


# _CLASSICAL[n] is (s(n,0)…s(n,n), S(n,0)…S(n,n)) as ints, s signed as above.
_CLASSICAL: list[tuple[list[int], list[int]]] = [([1], [1])]


def _classical(n: int) -> list[tuple[list[int], list[int]]]:
    """_CLASSICAL grown to row n by the two classical integer recurrences."""
    for m in range(len(_CLASSICAL), n + 1):
        s, S = _CLASSICAL[-1][0] + [0], _CLASSICAL[-1][1] + [0]
        # One append commits row m whole.
        _CLASSICAL.append((
            [(s[k - 1] if k else 0) - (m - 1) * s[k] for k in range(m + 1)],
            [(S[k - 1] if k else 0) + k * S[k] for k in range(m + 1)],
        ))
    return _CLASSICAL


# Row n of S_{2,λ}, kept as the XPoly Bel_{n,λ}(x) whose x^k coefficient is
# S_{2,λ}(n,k), and row n of [n k]_λ; each built alone and stored whole under n.
_STIRLING2: dict[int, XPoly] = {}
_BRACKET: dict[int, tuple[LambdaPoly, ...]] = {}


def _stirling2_row(n: int) -> XPoly:
    """Σ_k S_{2,λ}(n,k)·x^k, its coefficients S_{2,λ}(n,0)…S_{2,λ}(n,n) in closed form."""
    require_index(n, "row index")
    if n not in _STIRLING2:
        classical = _classical(n)
        s = classical[n][0]
        _STIRLING2[n] = XPoly(tuple(
            _from_ints([s[l] * classical[l][1][k] for l in range(n, k - 1, -1)])
            for k in range(n + 1)
        ))
    return _STIRLING2[n]


def stirling2_deg(n: int, k: int) -> LambdaPoly:
    """S_{2,λ}(n,k) in closed form; zero outside 0 ≤ k ≤ n."""
    row = _stirling2_row(n)
    return row.coeffs[k] if 0 <= k <= n else LP_ZERO


def bracket_deg(n: int, k: int) -> LambdaPoly:
    """[n k]_λ, the coefficient of ⟨x⟩_{k,λ} in ⟨x⟩_n, in closed form; 0 unless 0 ≤ k ≤ n."""
    require_index(n, "row index")
    if n not in _BRACKET:
        classical = _classical(n)
        s = classical[n][0]
        signed = (s, [-c for c in s])  # (-1)^{n-j}·s(n,·) sits at (n - j) % 2
        _BRACKET[n] = tuple(
            _from_ints([signed[(n - j) % 2][l] * classical[l][1][j] for l in range(j, n + 1)])
            for j in range(n + 1)
        )
    return _BRACKET[n][k] if 0 <= k <= n else LP_ZERO


def stirling1_deg(n: int, k: int) -> LambdaPoly:
    """S_{1,λ}(n,k) = (-1)^{n-k}·[n k]_λ: coefficient of (x)_{k,λ} in (x)_n."""
    c = bracket_deg(n, k)
    return c if (n - k) % 2 == 0 else -c


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
    classical = _classical(n)
    for m in range(len(_BETA), n + 1):
        prev, row = classical[m - 1][0], classical[m][0]
        bs = [entry[0] for entry in _BETA]
        bs.append(-sum(comb(m + 1, k) * b for k, b in enumerate(bs)) / (m + 1))
        terms = [bs[l] * Fraction(m * prev[l - 1], l) for l in range(m, 0, -1)]
        common = lcm(*range(1, m + 2))
        terms.append(Fraction(sum(c * (common // (k + 1)) for k, c in enumerate(row)), common))
        den = lcm(*(c.denominator for c in terms))
        num = [c.numerator * (den // c.denominator) for c in terms]
        # One append commits β_m whole.
        _BETA.append((bs[m], _from_ints(num, den)))
    return _BETA[n][1]


def bernoulli_gf(order: int) -> Series:
    """t/(e_λ(t)-1) truncated at the given order, read from the β table."""
    _require_nonneg(order, "order")
    return egf(bernoulli_deg(n) for n in range(order + 1))


def bell_gf(order: int) -> Series:
    """e^{x(e_λ(t)-1)} truncated at the given order, with symbolic x.

    Read from the S₂ table, which is its memo: the t^n/n! coefficient is
    Bel_{n,λ}(x).
    """
    _require_nonneg(order, "order")
    return egf(bell_deg(n) for n in range(order + 1))


def bell_deg(n: int) -> XPoly:
    """Bel_{n,λ}(x) = Σ_k S_{2,λ}(n,k)·x^k: row n of the S₂ table, as stored."""
    return _stirling2_row(n)


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
