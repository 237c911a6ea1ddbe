"""Exact calculus for the operator x^(1-λ)·d/dx.

The operator acts on finite sums of terms

    coeff(λ) · x^(m + kλ) · e^(a·x^p)

with integer m, k, rational a, and integer p ≥ 1.  This class of
expressions is closed under the operator: one application sends a term to

    coeff·(m + kλ) · x^(m + (k-1)λ) · e^(a·x^p)
  + coeff·a·p      · x^(m+p + (k-1)λ) · e^(a·x^p),

and the multiplier (m + kλ) is a degree-one polynomial in λ, so repeated
application stays polynomial — no rational functions ever appear.

:class:`ExpExpr` keeps terms merged and canonically sorted, making
equality structural and rendering deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .core import LambdaLike, LambdaPoly, ScalarLike, XPoly, lambda_poly_pretty
from .numbers import falling_classical_int, stirling2_deg


@dataclass(frozen=True)
class ExpTerm:
    """coeff(λ) · x^(x_int + x_lam·λ) · e^(exp_coeff · x^exp_power)."""

    coeff: LambdaPoly
    x_int: int
    x_lam: int
    exp_coeff: Fraction
    exp_power: int

    def __post_init__(self):
        if self.exp_power < 1:
            raise ValueError("exp_power must be ≥ 1")
        if self.exp_coeff == 0 and self.exp_power != 1:
            raise ValueError("a zero exponential must be normalized to power 1")

    @property
    def merge_key(self) -> tuple:
        return (self.x_int, self.x_lam, self.exp_coeff, self.exp_power)

    @property
    def sort_key(self) -> tuple:
        return (self.exp_coeff, self.exp_power, self.x_int, self.x_lam)


def _term(
    coeff: LambdaLike,
    x_int: int = 0,
    x_lam: int = 0,
    exp_coeff: ScalarLike = 0,
    exp_power: int = 1,
) -> ExpTerm:
    a = Fraction(exp_coeff)
    return ExpTerm(
        coeff=LambdaPoly.coerce(coeff),
        x_int=x_int,
        x_lam=x_lam,
        exp_coeff=a,
        exp_power=exp_power if a != 0 else 1,
    )


class ExpExpr:
    """A canonical finite sum of :class:`ExpTerm` values."""

    __slots__ = ("terms",)

    terms: tuple[ExpTerm, ...]

    def __init__(self, terms: Iterable[ExpTerm] = ()):
        merged: dict[tuple, LambdaPoly] = {}
        for t in terms:
            key = t.merge_key
            merged[key] = merged[key] + t.coeff if key in merged else t.coeff
        canon = [
            ExpTerm(coeff, *key)
            for key, coeff in merged.items()
            if not coeff.is_zero
        ]
        canon.sort(key=lambda t: t.sort_key)
        object.__setattr__(self, "terms", tuple(canon))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("ExpExpr is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "ExpExpr":
        return cls(())

    @classmethod
    def exp_x(cls, a: ScalarLike = 1, p: int = 1) -> "ExpExpr":
        """e^(a·x^p) as a single term."""
        return cls((_term(1, exp_coeff=a, exp_power=p),))

    @classmethod
    def monomial(cls, m: int, k: int = 0, coeff: LambdaLike = 1) -> "ExpExpr":
        """coeff·x^(m + kλ)."""
        return cls((_term(coeff, x_int=m, x_lam=k),))

    @classmethod
    def from_xpoly(
        cls,
        p: XPoly,
        x_lam: int = 0,
        exp_coeff: ScalarLike = 0,
        exp_power: int = 1,
    ) -> "ExpExpr":
        """p(x) · x^(x_lam·λ) · e^(exp_coeff·x^exp_power)."""
        return cls(
            _term(c, x_int=j, x_lam=x_lam, exp_coeff=exp_coeff, exp_power=exp_power)
            for j, c in enumerate(p.coeffs)
            if not c.is_zero
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
        return ExpExpr(self.terms + other.terms)

    def __neg__(self) -> "ExpExpr":
        return self.scale(-1)

    def __sub__(self, other: "ExpExpr") -> "ExpExpr":
        if not isinstance(other, ExpExpr):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: LambdaLike) -> "ExpExpr":
        f = LambdaPoly.coerce(factor)
        return ExpExpr(
            ExpTerm(t.coeff * f, t.x_int, t.x_lam, t.exp_coeff, t.exp_power)
            for t in self.terms
        )

    def mul_monomial(self, m: int, k: int = 0) -> "ExpExpr":
        """Multiply by x^(m + kλ)."""
        return ExpExpr(
            ExpTerm(t.coeff, t.x_int + m, t.x_lam + k, t.exp_coeff, t.exp_power)
            for t in self.terms
        )

    def __mul__(self, other: "ExpExpr") -> "ExpExpr":
        if not isinstance(other, ExpExpr):
            return NotImplemented
        out = []
        for s in self.terms:
            for t in other.terms:
                if s.exp_coeff == 0:
                    a, p = t.exp_coeff, t.exp_power
                elif t.exp_coeff == 0:
                    a, p = s.exp_coeff, s.exp_power
                elif s.exp_power == t.exp_power:
                    a, p = s.exp_coeff + t.exp_coeff, s.exp_power
                    if a == 0:
                        p = 1
                else:
                    raise ValueError(
                        "cannot multiply exponentials with different powers"
                    )
                out.append(
                    ExpTerm(
                        s.coeff * t.coeff,
                        s.x_int + t.x_int,
                        s.x_lam + t.x_lam,
                        a,
                        p,
                    )
                )
        return ExpExpr(out)


# ----------------------------------------------------------------------
# The operator and its companions
# ----------------------------------------------------------------------

def d_dx(e: ExpExpr) -> ExpExpr:
    """Plain d/dx on the closure class."""
    out = []
    for t in e.terms:
        power = LambdaPoly((t.x_int, t.x_lam))  # m + kλ
        if not power.is_zero:
            out.append(
                ExpTerm(t.coeff * power, t.x_int - 1, t.x_lam, t.exp_coeff, t.exp_power)
            )
        if t.exp_coeff != 0:
            out.append(
                ExpTerm(
                    t.coeff * (t.exp_coeff * t.exp_power),
                    t.x_int + t.exp_power - 1,
                    t.x_lam,
                    t.exp_coeff,
                    t.exp_power,
                )
            )
    return ExpExpr(out)


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
    a = Fraction(a)
    if a == 0:
        raise ValueError("degenerate exponential argument")
    pn = Fraction(p) ** n
    inv_p = Fraction(1, p)
    return ExpExpr(
        _term(
            stirling2_deg(n, k).scale_lambda(inv_p) * (a**k * pn),
            x_int=p * k,
            x_lam=-n,
            exp_coeff=a,
            exp_power=p,
        )
        for k in range(n + 1)
    )


def theorem11_apply_monomial(n: int, r: int) -> ExpExpr:
    """Σ_k S_{2,λ}(n,k)·(r)_k · x^(r - nλ): the operator-expansion route for f = x^r."""
    if n < 0 or r < 0:
        raise ValueError("indices must be nonnegative")
    out = ExpExpr.zero()
    for k in range(n + 1):
        fall = falling_classical_int(r, k)
        if fall == 0:
            continue
        c = stirling2_deg(n, k) * fall
        out = out + ExpExpr.monomial(r, -n, c)
    return out


def eval_at_x1_in_e_units(e: ExpExpr) -> LambdaPoly:
    """Substitute x = 1 in a pure-e^x expression, whose value is c·e; return c = Σ coeffs."""
    total = LambdaPoly(())
    for t in e.terms:
        if t.exp_coeff != 1 or t.exp_power != 1:
            raise ValueError("not a pure e^x expression")
        total = total + t.coeff
    return total


# ----------------------------------------------------------------------
# Rendering: deterministic, diffable
# ----------------------------------------------------------------------

def _render_term(t: ExpTerm) -> str:
    if t.coeff.degree == 0:
        c = str(t.coeff.coeffs[0])
        coeff_str = f"({c})" if "/" in c or c.startswith("-") else c
    else:
        coeff_str = f"({lambda_poly_pretty(t.coeff)})"
    sign = "-" if t.x_lam < 0 else "+"
    x_str = f"x^({t.x_int}{sign}{abs(t.x_lam)}·λ)"
    e_str = f"exp({t.exp_coeff}·x^{t.exp_power})"
    return f"{coeff_str} * {x_str} * {e_str}"


def render(e: ExpExpr) -> str:
    """Canonical textual form; ``0`` for the empty expression."""
    if e.is_zero:
        return "0"
    return " + ".join(_render_term(t) for t in e.terms)
