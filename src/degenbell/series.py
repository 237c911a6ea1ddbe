"""Truncated formal power series in t with exact XPoly coefficients.

A :class:`Series` keeps coefficients of t^0 … t^N for a fixed truncation
order N.  Coefficients are ordinary (not factorial-scaled); use
:meth:`Series.egf_coeff` for the t^n/n! convention common in generating
functions.  Arithmetic between two series truncates to the smaller order,
and every result records its own order, so truncation error can never be
mistaken for a real coefficient.

The paper's second building block, Σ aₙtⁿ/n!, has one builder,
:func:`egf`; :meth:`Series.egf_coeff` is its inverse.  The deformed
exponential/logarithm pair are EGFs of :func:`~degenbell.core.factorials`:

* ``e_lambda_series(w, N)`` -- Σ (w)_{k,λ} t^k / k!, the EGF of the
  factorials of w with step -λ and the λ-deformation of e^{wt}; w may be a
  rational, a polynomial in λ or a polynomial in x.
* ``log_lambda_series(N)`` -- its compositional inverse around 0, the EGF of
  0 followed by the factorials of λ - 1 with step -1, so its t^n/n!
  coefficient is Π_{j=1}^{n-1}(λ - j).

Both reduce to the classical exp/log at λ = 0.  Series that serve only to
cross-check these, such as the binomial powers (1 + s·t)^w, belong to the
identity harness (:mod:`degenbell.identities`), as do d/dt and the
substitution t → -t, which it builds from the coefficients.  A weighted sum
Σ cᵢ·Sᵢ with t-free constants cᵢ is one :func:`series_combination`.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import factorial
from typing import Iterable, Iterator

from .core import (
    LP_LAMBDA,
    LP_ONE,
    LP_ZERO,
    XP_ONE,
    XP_ZERO,
    XLike,
    XPoly,
    _require_nonneg,
    _xpoly_products,
    factorials,
    from_nested_lists,
    sum_of_products,
    to_nested_lists,
)

DEFAULT_ORDER = 16


class Series:
    """Truncated power series Σ_{n=0}^{order} coeffs[n]·t^n."""

    __slots__ = ("order", "coeffs")

    order: int
    coeffs: tuple[XPoly, ...]

    def __init__(self, coeffs: Iterable[XLike], order: int | None = None):
        cs = [XPoly.coerce(c) for c in coeffs]
        if order is None:
            if not cs:
                raise ValueError("empty series needs an explicit order")
            order = len(cs) - 1
        if order < 0:
            raise ValueError("series order must be nonnegative")
        if len(cs) > order + 1:
            cs = cs[: order + 1]
        while len(cs) < order + 1:
            cs.append(XP_ZERO)
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("Series is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def one(cls, order: int) -> "Series":
        return cls((XP_ONE,), order=order)

    # -- structure ----------------------------------------------------

    def coeff(self, n: int) -> XPoly:
        """Coefficient of t^n; raises beyond the truncation order."""
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient t^{n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def egf_coeff(self, n: int) -> XPoly:
        """n!·coefficient of t^n, i.e. the t^n/n! coefficient."""
        return self.coeff(n) * factorial(n)

    def truncate(self, order: int) -> "Series":
        if order >= self.order:
            return self
        return Series(self.coeffs[: order + 1], order=order)

    def __eq__(self, other) -> bool:
        """Structural equality: same order and identical coefficients."""
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Series", self.order, self.coeffs))

    def __repr__(self) -> str:
        return f"Series(order={self.order}, coeffs={[to_nested_lists(c) for c in self.coeffs]!r})"

    # -- linear arithmetic --------------------------------------------

    def __add__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(
            tuple(self.coeffs[i] + other.coeffs[i] for i in range(n + 1)), order=n
        )

    def __sub__(self, other: "Series") -> "Series":
        if not isinstance(other, Series):
            return NotImplemented
        n = min(self.order, other.order)
        return Series(
            tuple(self.coeffs[i] - other.coeffs[i] for i in range(n + 1)), order=n
        )


def egf(values: Iterable[XLike]) -> Series:
    """Σ values[n]·tⁿ/n!, truncated at the last value; ``egf_coeff(n)`` reads values[n] back."""
    return Series(v * Fraction(1, factorial(n)) for n, v in enumerate(values))


# ----------------------------------------------------------------------
# Core operations
# ----------------------------------------------------------------------

def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller order."""
    n = min(a.order, b.order)
    return Series(_xpoly_products([(1, a.coeffs, b.coeffs)], n + 1), order=n)


def _unit_constant(a: Series) -> int | Fraction:
    c0 = a.coeffs[0]
    if c0.degree == 0:
        lp = c0.coeffs[0]
        if lp.degree == 0 and lp.coeffs[0] != 0:
            return lp.coeffs[0]
    raise ValueError("non-unit constant term")


def series_recip_unit(a: Series) -> Series:
    """Multiplicative inverse of a series whose constant term is an invertible rational."""
    inv0 = Fraction(1, _unit_constant(a))  # exact: 1 / an int constant would be a float
    out = [XPoly.const(inv0)]
    for n in range(1, a.order + 1):
        out.append(sum_of_products((-inv0, a.coeffs[k], out[n - k]) for k in range(1, n + 1)))
    return Series(out, order=a.order)


def series_exp(a: Series) -> Series:
    """Σ a^k/k! for a series with zero constant term.

    Computed by the first-order recurrence n·E_n = Σ_{k=1}^{n} k·a_k·E_{n-k}
    (from E' = a'·E), which costs one Cauchy product instead of N of them.
    """
    if not a.coeffs[0].is_zero:
        raise ValueError("exp of non-nilpotent series")
    out = [XP_ONE]
    for n in range(1, a.order + 1):
        out.append(
            sum_of_products((Fraction(k, n), a.coeffs[k], out[n - k]) for k in range(1, n + 1))
        )
    return Series(out, order=a.order)


def series_compose(outer: Series, inner: Series) -> Series:
    """outer ∘ inner for inner with zero constant term.

    Uses power accumulation: inner^k is built incrementally, and the result
    is one combination Σ_k c_k·inner^k over the powers whose outer
    coefficient c_k is nonzero.  When the inner series is free of x (the
    common case here: log_λ or e_λ - 1), its powers stay x-free, so the
    expensive Cauchy products never touch the large x-polynomials that
    Horner accumulation would drag through every multiplication.
    """
    if not inner.coeffs[0].is_zero:
        raise ValueError("composition requires zero constant term")
    n = min(outer.order, inner.order)
    inner = inner.truncate(n)
    power = Series.one(n)
    kept = [(outer.coeffs[0], power)]
    for k in range(1, n + 1):
        power = series_mul(power, inner)
        if not outer.coeffs[k].is_zero:
            kept.append((outer.coeffs[k], power))
    return series_combination(kept, n)


def series_combination(pairs: Iterable[tuple[XLike, Series]], order: int) -> Series:
    """Σ c·S over (t-free constant c, series S) pairs, truncated at ``order``.

    One kernel call for the whole sum: each pair is the Cauchy product of
    the length-1 sequence (c) with S.  Every S must reach ``order``.
    """
    terms = []
    for c, s in pairs:
        if s.order < order:
            raise ValueError(f"series of order {s.order} cannot give terms up to t^{order}")
        terms.append((1, (XPoly.coerce(c),), s.coeffs))
    return Series(_xpoly_products(terms, order + 1), order=order)


# ----------------------------------------------------------------------
# The deformed exponential / logarithm pair
# ----------------------------------------------------------------------

def e_lambda_series(exponent: XLike, order: int) -> Series:
    """Σ_{k} (w)_{k,λ} t^k / k! where (w)_{k,λ} = w(w-λ)···(w-(k-1)λ).

    The exponent w may be a rational, a LambdaPoly (e.g. 1-λ), or a
    polynomial in x; at λ = 0 the series is e^{wt}.
    """
    _require_nonneg(order, "order")
    return egf(factorials(exponent, -LP_LAMBDA, order))


def log_lambda_series(order: int) -> Series:
    """Compositional inverse of e_λ(t) - 1: t^n/n! coefficient is Π_{j=1}^{n-1}(λ-j)."""
    _require_nonneg(order, "order")
    falls = factorials(LP_LAMBDA - LP_ONE, -LP_ONE, max(order - 1, 0))
    return egf([LP_ZERO] + falls).truncate(order)


# ----------------------------------------------------------------------
# JSON interchange: {"order": N, "coeffs": [nested rational strings...]}
# ----------------------------------------------------------------------

def series_json_chunks(s: Series) -> Iterator[str]:
    """The JSON text of ``{"order": N, "coeffs": [...]}``, one t-coefficient per chunk.

    The chunks join to exactly ``json.dumps`` of that object, but only one
    coefficient's nested list of rational strings exists at a time.
    """
    yield f'{{"order": {s.order}, "coeffs": ['
    for n, c in enumerate(s.coeffs):
        yield (", " if n else "") + json.dumps(to_nested_lists(c))
    yield "]}"


def series_from_json(text: str) -> Series:
    """Inverse of :func:`series_json_chunks` (joined); a malformed payload raises ``ValueError``.

    The payload must be an object with an integer ``order`` ≥ 0 and
    ``coeffs``, exactly ``order + 1`` coefficients, each a list of lists of
    rational strings (one inner list of λ-coefficients per x-power).
    """
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("series JSON is nested too deeply") from None
    if not isinstance(payload, dict):
        raise ValueError("series JSON must be an object")
    order, coeffs = payload.get("order"), payload.get("coeffs")
    if type(order) is not int or order < 0:
        raise ValueError(f"series order must be an integer ≥ 0, got {order!r}")
    if not isinstance(coeffs, list) or len(coeffs) != order + 1:
        raise ValueError(f"series of order {order} needs a list of {order + 1} coefficients")
    for c in coeffs:
        if not (isinstance(c, list) and all(
            isinstance(row, list) and all(isinstance(s, str) for s in row) for row in c
        )):
            raise ValueError(f"series coefficient is not a list of lists of strings: {c!r}")
    return Series((from_nested_lists(c) for c in coeffs), order=order)
