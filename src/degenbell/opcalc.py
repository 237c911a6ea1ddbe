"""Exact calculus for the operator x^(1-λ)·d/dx.

The operator acts on finite sums of terms

    coeff(λ) · x^(m + kλ) · e^(a·x^p)

with integer m, k, rational a, and integer p ≥ 1.  This class of
expressions is closed under the operator: one application sends a term to

    coeff·(m + kλ) · x^(m + (k-1)λ) · e^(a·x^p)
  + coeff·a·p      · x^(m+p + (k-1)λ) · e^(a·x^p),

and the multiplier (m + kλ) is a degree-one polynomial in λ, so repeated
application stays polynomial — no rational functions ever appear.

:class:`ExpExpr` is one map from a term's shape (a, p, m, k) to its
``LambdaPoly`` coefficient, held as a tuple of ``(shape, coeff)`` pairs:
merged per shape, free of zero coefficients and sorted by shape, which
makes equality structural and rendering deterministic.  A zero
exponential is stored as p = 1.  ``ExpExpr(...)`` checks each shape and coerces
each coefficient; it and the code that builds valid terms merge and sort them
by ``_merged`` for ``_estored``, the one stored route (see :mod:`degenbell.core`),
which :meth:`ExpExpr.mul_monomial`'s shift, keeping the shapes in order, uses directly.
"""

from __future__ import annotations

from fractions import Fraction
from math import perm
from typing import Iterable

from .core import (LP_ONE, LP_ZERO, LambdaLike, LambdaPoly, ScalarLike, XLike, XPoly, _as_fraction,
                   _from_ints)
from .core import lambda_poly_pretty
from .numbers import bell_deg, stirling2_deg

Shape = tuple[Fraction, int, int, int]  # (a, p, m, k): x^(m + kλ) · e^(a·x^p)


def _shape(a: ScalarLike, p: int, m: int, k: int) -> Shape:
    a = _as_fraction(a)
    if not all(isinstance(v, int) for v in (p, m, k)):
        raise TypeError("exp_power and the powers of x must be ints")
    if a == 0:
        p = 1
    if p < 1:
        raise ValueError("exp_power must be ≥ 1")
    return (a, p, m, k)


class ExpExpr:
    """A canonical finite sum: ``(shape, coeff)`` pairs sorted by shape."""

    __slots__ = ("terms",)

    terms: tuple[tuple[Shape, LambdaPoly], ...]

    def __new__(cls, terms: Iterable[tuple[Shape, LambdaLike]] = ()):
        return _merged((_shape(*shape), LambdaPoly.coerce(c)) for shape, c in terms)

    def __setattr__(self, name, value):
        raise AttributeError("ExpExpr is immutable")

    def __reduce__(self):
        return (ExpExpr, (self.terms,))

    # -- constructors -------------------------------------------------

    @classmethod
    def exp_x(cls, a: ScalarLike = 1, p: int = 1) -> "ExpExpr":
        """e^(a·x^p) as a single term."""
        return _merged(((_shape(a, p, 0, 0), LP_ONE),))

    @classmethod
    def monomial(cls, m: int, k: int = 0, coeff: LambdaLike = 1) -> "ExpExpr":
        """coeff·x^(m + kλ)."""
        return _merged(((_shape(0, 1, m, k), LambdaPoly.coerce(coeff)),))

    @classmethod
    def from_xpoly(
        cls, p: XLike, x_lam: int = 0, exp_coeff: ScalarLike = 0, exp_power: int = 1
    ) -> "ExpExpr":
        """p(x) · x^(x_lam·λ) · e^(exp_coeff·x^exp_power)."""
        return _merged(
            (_shape(exp_coeff, exp_power, j, x_lam), c)
            for j, c in enumerate(XPoly.coerce(p).coeffs)
        )

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExpExpr):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(("ExpExpr", self.terms))

    def __repr__(self) -> str:
        return f"ExpExpr({render(self)!r})"

    # -- algebra --------------------------------------------------------

    def __add__(self, other: "ExpExpr") -> "ExpExpr":
        if not isinstance(other, ExpExpr):
            return NotImplemented
        return _merged(self.terms + other.terms)

    def scale(self, factor: LambdaLike) -> "ExpExpr":
        f = LambdaPoly.coerce(factor)
        return _merged((shape, c * f) for shape, c in self.terms)

    def mul_monomial(self, m: int, k: int = 0) -> "ExpExpr":
        """Multiply by x^(m + kλ)."""
        return _estored(tuple([((a, p, i + m, j + k), c) for (a, p, i, j), c in self.terms]))

    def __mul__(self, other: "ExpExpr") -> "ExpExpr":
        if not isinstance(other, ExpExpr):
            return NotImplemented
        out = []
        for (a, p, m, k), c in self.terms:
            for (b, q, i, j), d in other.terms:
                if a and b and p != q:
                    raise ValueError("cannot multiply exponentials with different powers")
                s = a + b
                power = (p if a else q) if s else 1  # e^0 is stored with power 1
                out.append(((s, power, m + i, k + j), c * d))
        return _merged(out)


def _merged(terms: Iterable[tuple[Shape, LambdaPoly]]) -> ExpExpr:
    """The ExpExpr of checked terms: merged per shape, free of zeros and sorted."""
    merged: dict[Shape, LambdaPoly] = {}
    for shape, coeff in terms:
        merged[shape] = merged[shape] + coeff if shape in merged else coeff
    return _estored(tuple(sorted(item for item in merged.items() if not item[1].is_zero)))


def _estored(terms: tuple[tuple[Shape, LambdaPoly], ...]) -> ExpExpr:
    """The ExpExpr of ``terms``, already merged, free of zeros and sorted, stored as given."""
    e = object.__new__(ExpExpr)
    object.__setattr__(e, "terms", terms)
    return e


# ----------------------------------------------------------------------
# The operator and its companions
# ----------------------------------------------------------------------

def d_dx(e: ExpExpr) -> ExpExpr:
    """Plain d/dx on the closure class."""
    out = []
    for (a, p, m, k), c in e.terms:
        if m or k:
            out.append(((a, p, m - 1, k), c * LambdaPoly((m, k))))  # (m + kλ)·x^(m-1+kλ)
        if a:
            out.append(((a, p, m + p - 1, k), c * (a * p)))
    return _merged(out)


def op_apply(e: ExpExpr) -> ExpExpr:
    """One application of x^(1-λ)·d/dx."""
    return d_dx(e).mul_monomial(1, -1)


def op_power(e: ExpExpr, n: int) -> ExpExpr:
    """n-fold application; n = 0 is the identity."""
    if n < 0:
        raise ValueError(f"operator power must be nonnegative, got {n}")
    for _ in range(n):
        e = op_apply(e)
    return e


def prop10_rhs(n: int, a: ScalarLike, p: int) -> ExpExpr:
    """p^n · Σ_k S_{2,λ/p}(n,k)·a^k · x^(pk - nλ) · e^(a·x^p)."""
    if n < 0:
        raise ValueError(f"power must be nonnegative, got {n}")
    if p < 1:
        raise ValueError(f"exponent power must be ≥ 1, got {p}")
    a = _as_fraction(a)
    if a == 0:
        raise ValueError("degenerate exponential argument")
    # p^n·S_{2,λ/p}(n,k)·a^k has λ^i coefficient p^(n-i)·[λ^i]S_{2,λ}(n,k)·a^k, i ≤ n - k:
    # the S₂ row's ints times num^k·p^(n-i), over its denominator times den^k
    terms = []
    for k, s2 in enumerate(bell_deg(n).coeffs):
        ak = a.numerator**k
        row = [c * ak * p ** (n - i) for i, c in enumerate(s2._num)]
        terms.append(((a, p, p * k, -n), _from_ints(row, s2._den * a.denominator**k)))
    return _merged(terms)


def theorem11_apply_monomial(n: int, r: int) -> ExpExpr:
    """Σ_k S_{2,λ}(n,k)·(r)_k · x^(r - nλ): the operator-expansion route for f = x^r.

    (r)_k is ``perm(r, k)``, zero for k > r."""
    if n < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    coeff = sum((stirling2_deg(n, k) * perm(r, k) for k in range(n + 1)), LP_ZERO)
    return ExpExpr.monomial(r, -n, coeff)


def eval_at_x1_in_e_units(e: ExpExpr) -> LambdaPoly:
    """Substitute x = 1 in a pure-e^x expression, whose value is c·e; return c = Σ coeffs."""
    total = LP_ZERO
    for (a, p, _, _), c in e.terms:
        if a != 1 or p != 1:
            raise ValueError("not a pure e^x expression")
        total = total + c
    return total


# ----------------------------------------------------------------------
# Rendering: deterministic, diffable
# ----------------------------------------------------------------------

def _render_term(shape: Shape, coeff: LambdaPoly) -> str:
    a, p, m, k = shape
    if coeff.degree == 0:
        c = str(coeff.coeffs[0])
        coeff_str = f"({c})" if "/" in c or c.startswith("-") else c
    else:
        coeff_str = f"({lambda_poly_pretty(coeff)})"
    sign = "-" if k < 0 else "+"
    return f"{coeff_str} * x^({m}{sign}{abs(k)}·λ) * exp({a}·x^{p})"


def render(e: ExpExpr) -> str:
    """Canonical textual form; ``0`` for the empty expression."""
    if e.is_zero:
        return "0"
    return " + ".join(_render_term(*t) for t in e.terms)
