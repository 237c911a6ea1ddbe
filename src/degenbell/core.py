"""Exact scalar and polynomial arithmetic.

Three layers, each immutable and exact:

* ``Rational`` -- arbitrary-precision fractions (``fractions.Fraction``),
  always stored reduced with a positive denominator.
* ``LambdaPoly`` -- dense polynomials in the deformation parameter ``λ``
  with Rational coefficients.
* ``XPoly`` -- dense polynomials in ``x`` whose coefficients are
  ``LambdaPoly`` values.

Every quantity the package computes (deformed Stirling numbers, deformed
Bernoulli numbers, deformed Bell polynomials) is a polynomial in ``λ``, so
keeping ``λ`` symbolic lets identities be checked exactly for all ``λ`` at
once.  The zero polynomial is the empty coefficient sequence; nonzero
polynomials never store a trailing zero coefficient, which makes equality
structural.

Products of λ-polynomials, x-polynomials and series (``series_mul``) run
on integer numerators: each operand is brought over one common
denominator, the numerators are convolved as plain ints, and each output
coefficient becomes one reduced Fraction.  Sums, scalar multiples and
evaluation work on the Fractions directly.

Two text forms round-trip exactly: the ASCII expressions of csv and json
cells (``*_to_ascii`` / ``*_from_ascii``) and the nested lists of the series
JSON schema and ``repr`` (``to_nested_lists`` / ``from_nested_lists``).  The
``*_pretty`` unicode renderings are for display only.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence, Union

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")

ScalarLike = Union[int, Fraction]

_ZERO = Fraction(0)


def parse_rational(text: str) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` into a Fraction.

    Only integer and ratio-of-integers forms are accepted; decimal or
    exponent notation is rejected to keep the toolkit exact.
    """
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {text!r}") from None


def format_rational(value: Fraction) -> str:
    """Render a Fraction as ``p/q``, omitting ``/q`` when q = 1."""
    return str(value)


def _as_fraction(value: ScalarLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


# -- the integer product kernel ---------------------------------------

def _cells(coeffs: Sequence[Fraction], offset: int) -> list[tuple[int, int, int]]:
    """(index, numerator, denominator) cells of λ-coefficients placed from ``offset``."""
    return [(offset + i, c.numerator, c.denominator) for i, c in enumerate(coeffs)]


def _product(a: list, b: list, size: int, stride: int) -> list["LambdaPoly"]:
    """Exact product of two operands packed as cells, cut to ``size`` indices.

    The cells of each operand are in increasing index order.  Each operand's
    coefficients are brought to integer numerators over its one common
    denominator, the numerators are convolved as plain ints, and each output
    coefficient becomes one reduced Fraction over the product of the two
    denominators.  Returns one LambdaPoly per ``stride`` indices.
    """
    da = lcm(*[q for _, _, q in a])
    db = lcm(*[q for _, _, q in b])
    na = [(i, p * (da // q)) for i, p, q in a if p]
    nb = [(j, p * (db // q)) for j, p, q in b if p]
    out = [0] * size
    for i, x in na:
        for j, y in nb:
            k = i + j
            if k >= size:
                break
            out[k] += x * y
    d = da * db
    polys = []
    for start in range(0, size, stride):
        block = out[start : start + stride]
        while block and not block[-1]:
            block.pop()
        # Reduced and stripped already: skip the normalising constructor.
        poly = object.__new__(LambdaPoly)
        object.__setattr__(poly, "coeffs", tuple([Fraction(c, d) if c else _ZERO for c in block]))
        polys.append(poly)
    return polys


class LambdaPoly:
    """Polynomial in λ with Rational coefficients, index i ↔ λ^i."""

    __slots__ = ("coeffs",)

    coeffs: tuple[Fraction, ...]

    def __init__(self, coeffs: Iterable[ScalarLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("LambdaPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        return cls((value,))

    @classmethod
    def coerce(cls, value: "LambdaLike") -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        if isinstance(value, (list, tuple)):
            return cls(value)
        return cls.const(_as_fraction(value))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree in λ, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def __eq__(self, other) -> bool:
        if isinstance(other, LambdaPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == LambdaPoly.coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("LambdaPoly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"LambdaPoly({[str(c) for c in self.coeffs]})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LambdaLike") -> "LambdaPoly":
        other = LambdaPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return LambdaPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return LambdaPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "LambdaLike") -> "LambdaPoly":
        return self + (-LambdaPoly.coerce(other))

    def __rsub__(self, other: "LambdaLike") -> "LambdaPoly":
        return (-self) + LambdaPoly.coerce(other)

    def __mul__(self, other: "LambdaLike") -> "LambdaPoly":
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return LP_ZERO
            return LambdaPoly(tuple(c * a for a in self.coeffs))
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LP_ZERO
        size = len(a) + len(b) - 1
        return _product(_cells(a, 0), _cells(b, 0), size, size)[0]

    __rmul__ = __mul__

    # -- evaluation and calculus ---------------------------------------

    def eval(self, lam: ScalarLike) -> Fraction:
        """Evaluate at a rational λ by Horner's scheme."""
        lam = _as_fraction(lam)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc

    def scale_lambda(self, factor: ScalarLike) -> "LambdaPoly":
        """Substitute λ → factor·λ, i.e. multiply coefficient i by factor^i."""
        factor = _as_fraction(factor)
        power = Fraction(1)
        out = []
        for c in self.coeffs:
            out.append(c * power)
            power *= factor
        return LambdaPoly(out)


LambdaLike = Union[LambdaPoly, int, Fraction]

LP_ZERO = LambdaPoly(())
LP_ONE = LambdaPoly((1,))
LP_LAMBDA = LambdaPoly((0, 1))


class XPoly:
    """Polynomial in x with LambdaPoly coefficients, index j ↔ x^j."""

    __slots__ = ("coeffs",)

    coeffs: tuple[LambdaPoly, ...]

    def __init__(self, coeffs: Iterable["CoeffLike"] = ()):
        cs = [LambdaPoly.coerce(c) for c in coeffs]
        while cs and cs[-1].is_zero:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("XPoly is immutable")

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: "CoeffLike") -> "XPoly":
        return cls((value,))

    @classmethod
    def coerce(cls, value: "XLike") -> "XPoly":
        if isinstance(value, XPoly):
            return value
        return cls.const(value)

    @classmethod
    def monomial(cls, degree: int, coeff: "CoeffLike" = 1) -> "XPoly":
        if degree < 0:
            raise ValueError("monomial degree must be nonnegative")
        return cls((LP_ZERO,) * degree + (LambdaPoly.coerce(coeff),))

    # -- structure ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int | None:
        """Degree in x, or None for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, j: int) -> LambdaPoly:
        """Coefficient of x^j (zero beyond the stored degree)."""
        if 0 <= j < len(self.coeffs):
            return self.coeffs[j]
        return LP_ZERO

    def __eq__(self, other) -> bool:
        if isinstance(other, XPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction, LambdaPoly)):
            return self == XPoly.coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("XPoly", self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"XPoly({to_nested_lists(self)!r})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "XLike") -> "XPoly":
        other = XPoly.coerce(other)
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return XPoly(tuple(-c for c in self.coeffs))

    def __sub__(self, other: "XLike") -> "XPoly":
        return self + (-XPoly.coerce(other))

    def __rsub__(self, other: "XLike") -> "XPoly":
        return (-self) + XPoly.coerce(other)

    def __mul__(self, other: "XLike") -> "XPoly":
        if isinstance(other, (int, Fraction, LambdaPoly)):
            c = LambdaPoly.coerce(other)
            if c.is_zero:
                return XP_ZERO
            return XPoly(tuple(c * a for a in self.coeffs))
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return XP_ZERO
        return _xpoly_products((self,), (other,), 1)[0]

    __rmul__ = __mul__

    # -- evaluation and calculus --------------------------------------

    def eval(self, x0: ScalarLike, lam: ScalarLike) -> Fraction:
        """Exact value at rational (x0, λ): coefficientwise λ-evaluation, then Horner in x0."""
        x0 = _as_fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c.eval(lam)
        return acc

    def eval_x(self, x0: ScalarLike) -> LambdaPoly:
        """Substitute a rational x0, keeping λ symbolic."""
        x0 = _as_fraction(x0)
        acc = LP_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def derivative(self) -> "XPoly":
        """Formal d/dx."""
        return XPoly(tuple(c * (j + 1) for j, c in enumerate(self.coeffs[1:], start=0)))

    def antiderivative(self) -> "XPoly":
        """Formal antiderivative with zero constant term."""
        if self.is_zero:
            return XP_ZERO
        out = [LP_ZERO]
        for j, c in enumerate(self.coeffs):
            out.append(c * Fraction(1, j + 1))
        return XPoly(out)


CoeffLike = Union[LambdaPoly, int, Fraction]
XLike = Union[XPoly, LambdaPoly, int, Fraction]

XP_ZERO = XPoly(())
XP_ONE = XPoly((LP_ONE,))
XP_X = XPoly((LP_ZERO, LP_ONE))


def _xpoly_products(a: Sequence[XPoly], b: Sequence[XPoly], count: int) -> list[XPoly]:
    """Σ_{i+j=n} a[i]·b[j] for n = 0 … count-1: the truncated Cauchy product.

    One kernel call for the whole product.  Term t^n·x^r·λ^i of an operand
    is packed at index n·block + r·stride + i, where stride and
    block/stride are the λ- and x-widths of the product, so packed indices
    add exactly as the exponents do and no term spills into another block.
    """
    a, b = a[:count], b[:count]
    wa = _width(p.coeffs for q in a for p in q.coeffs)
    wb = _width(p.coeffs for q in b for p in q.coeffs)
    if not wa or not wb:
        return [XP_ZERO] * count
    stride = wa + wb - 1
    rows = _width(q.coeffs for q in a) + _width(q.coeffs for q in b) - 1
    block = rows * stride
    cells_a, cells_b = [], []
    for cells, operand in ((cells_a, a), (cells_b, b)):
        for n, q in enumerate(operand):
            for r, p in enumerate(q.coeffs):
                cells += _cells(p.coeffs, n * block + r * stride)
    polys = _product(cells_a, cells_b, count * block, stride)
    return [XPoly(polys[n * rows : (n + 1) * rows]) for n in range(count)]


def _width(tuples: Iterable[tuple]) -> int:
    """The longest of ``tuples`` (0 if there are none)."""
    return max(map(len, tuples), default=0)


# -- nested-list form: the series JSON coefficients and reprs ----

def to_nested_lists(p: XPoly) -> list[list[str]]:
    """JSON-friendly rendering: one list of rational strings per x-power."""
    return [[format_rational(c) for c in lp.coeffs] for lp in p.coeffs]


def from_nested_lists(data: Sequence[Sequence[str]]) -> XPoly:
    return XPoly(LambdaPoly(parse_rational(s) for s in row) for row in data)


# -- human-readable rendering (display only, no round-trip contract) --

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


def _power_str(var: str, exponent: int) -> str:
    if exponent == 1:
        return var
    return var + str(exponent).translate(_SUPERSCRIPTS)


def _coeff_prefix(c: Fraction) -> str:
    if c == 1:
        return ""
    if c == -1:
        return "-"
    if c.denominator == 1:
        return str(c)
    return f"({c})"


def lambda_poly_pretty(p: LambdaPoly, var: str = "λ") -> str:
    """Unicode display form, e.g. ``2λ² - 6λ + 5``.

    Powers are listed descending when the leading coefficient is positive
    and ascending otherwise, so a polynomial never opens with a bare minus
    (``1 - λ`` instead of ``-λ + 1``) — matching how such expressions are
    conventionally written.
    """
    if p.is_zero:
        return "0"
    indices = range(len(p.coeffs) - 1, -1, -1) if p.coeffs[-1] > 0 else range(len(p.coeffs))
    parts: list[str] = []
    for i in indices:
        c = p.coeffs[i]
        if c == 0:
            continue
        if i == 0:
            term = str(abs(c)) if c.denominator == 1 else f"({abs(c)})"
        else:
            prefix = _coeff_prefix(abs(c))
            term = prefix + _power_str(var, i)
        if not parts:
            sign = "-" if c < 0 else ""
            parts.append(sign + term)
        else:
            parts.append(("- " if c < 0 else "+ ") + term)
    return " ".join(parts)


def xpoly_pretty(p: XPoly) -> str:
    """Unicode display form in x, e.g. ``x² + (1 - λ)x``."""
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for j in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[j]
        if c.is_zero:
            continue
        if c.degree == 0:
            scalar = c.coeffs[0]
            if j == 0:
                term = str(abs(scalar)) if scalar.denominator == 1 else f"({abs(scalar)})"
            else:
                term = _coeff_prefix(abs(scalar)) + _power_str("x", j)
            negative = scalar < 0
        else:
            body = lambda_poly_pretty(c)
            term = f"({body})" + ("" if j == 0 else _power_str("x", j))
            negative = False
        if not parts:
            parts.append(("-" if negative else "") + term)
        else:
            parts.append(("- " if negative else "+ ") + term)
    return " ".join(parts)


# ----------------------------------------------------------------------
# ASCII expression forms (used in CSV/JSON cells; exact round-trip)
# ----------------------------------------------------------------------

def _ascii_power(var: str, exponent: int) -> str:
    if exponent == 1:
        return var
    return f"{var}^{exponent}"


def lambda_poly_to_ascii(p: LambdaPoly) -> str:
    """Plain-ASCII form, e.g. ``2*lambda^2 - 6*lambda + 5``.

    Coefficients render as exact rationals and a unit coefficient before
    ``lambda`` is omitted.  Term order follows the same rule as the pretty
    renderer (descending powers unless that would open with a minus), and
    the inverse, :func:`lambda_poly_from_ascii`, accepts any term order.
    """
    if p.is_zero:
        return "0"
    if p.coeffs[-1] > 0:
        order = range(len(p.coeffs) - 1, -1, -1)
    else:
        order = range(len(p.coeffs))
    parts: list[str] = []
    for i in order:
        c = p.coeffs[i]
        if c == 0:
            continue
        mag = abs(c)
        if i == 0:
            body = str(mag)
        elif mag == 1:
            body = _ascii_power("lambda", i)
        else:
            body = f"{mag}*{_ascii_power('lambda', i)}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts)


#: Largest exponent the ASCII parsers accept: they build a dense coefficient
#: tuple as long as the highest exponent, so a larger one raises ValueError.
MAX_ASCII_EXPONENT = 10_000


def _ascii_exponent(digits: str | None, default: int) -> int:
    power = int(digits) if digits else default
    if power > MAX_ASCII_EXPONENT:
        raise ValueError(f"exponent {power} exceeds the limit {MAX_ASCII_EXPONENT}")
    return power


_ASCII_LAMBDA_TERM = re.compile(
    r"(?:(?P<num>\d+(?:/\d+)?)(?:\*(?P<lam1>lambda(?:\^(?P<pow1>\d+))?))?"
    r"|(?P<lam2>lambda(?:\^(?P<pow2>\d+))?))$"
)


def lambda_poly_from_ascii(text: str) -> LambdaPoly:
    """Parse the :func:`lambda_poly_to_ascii` form (tolerant of term order)."""
    s = text.strip()
    if not s:
        raise ValueError("empty λ-polynomial expression")
    if s == "0":
        return LP_ZERO
    s = s.replace(" - ", " + -")
    acc: dict[int, Fraction] = {}
    for raw in s.split(" + "):
        term = raw.strip()
        sign = 1
        if term.startswith("-"):
            sign = -1
            term = term[1:].strip()
        m = _ASCII_LAMBDA_TERM.fullmatch(term)
        if m is None or (m.group("num") is None and m.group("lam2") is None):
            raise ValueError(f"cannot parse λ-polynomial term {raw.strip()!r}")
        value = parse_rational(m.group("num")) if m.group("num") else Fraction(1)
        lam = m.group("lam1") or m.group("lam2")
        power = _ascii_exponent(m.group("pow1") or m.group("pow2"), 1 if lam else 0)
        acc[power] = acc.get(power, Fraction(0)) + sign * value
    top = max(acc)
    return LambdaPoly(tuple(acc.get(i, Fraction(0)) for i in range(top + 1)))


def xpoly_to_ascii(p: XPoly) -> str:
    """Plain-ASCII form in x, e.g. ``x^2 + (1 - lambda)*x``.

    λ-polynomial coefficients are parenthesized with their sign inside;
    scalar coefficients attach directly.  The inverse is
    :func:`xpoly_from_ascii`.
    """
    if p.is_zero:
        return "0"
    parts: list[str] = []
    for j in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[j]
        if c.is_zero:
            continue
        if c.degree == 0:
            scalar = c.coeffs[0]
            mag = abs(scalar)
            if j == 0:
                body = str(mag)
            elif mag == 1:
                body = _ascii_power("x", j)
            else:
                body = f"{mag}*{_ascii_power('x', j)}"
            negative = scalar < 0
        else:
            inner = lambda_poly_to_ascii(c)
            body = f"({inner})" if j == 0 else f"({inner})*{_ascii_power('x', j)}"
            negative = False
        if not parts:
            parts.append(("-" if negative else "") + body)
        else:
            parts.append(("- " if negative else "+ ") + body)
    return " ".join(parts)


def _split_ascii_terms(s: str) -> list[tuple[int, str]]:
    """Split on top-level `` + `` / `` - `` into (sign, term) pairs."""
    out: list[tuple[int, str]] = []
    depth = 0
    sign = 1
    start = 0
    if s.startswith("-"):
        sign = -1
        start = 1
    i = start
    while i < len(s):
        ch = s[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ValueError(f"unbalanced parentheses in {s!r}")
        elif depth == 0 and s.startswith(" + ", i):
            out.append((sign, s[start:i].strip()))
            sign, start, i = 1, i + 3, i + 2
        elif depth == 0 and s.startswith(" - ", i):
            out.append((sign, s[start:i].strip()))
            sign, start, i = -1, i + 3, i + 2
        i += 1
    if depth != 0:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    out.append((sign, s[start:].strip()))
    return out


_ASCII_X_PAREN = re.compile(r"\((?P<poly>[^()]*)\)(?:\*x(?:\^(?P<pow>\d+))?)?$")
_ASCII_X_SCALAR = re.compile(
    r"(?:(?P<num>\d+(?:/\d+)?)(?:\*x(?:\^(?P<powa>\d+))?)?|x(?:\^(?P<powb>\d+))?)$"
)


def xpoly_from_ascii(text: str) -> XPoly:
    """Parse the :func:`xpoly_to_ascii` form (tolerant of term order)."""
    s = text.strip()
    if not s:
        raise ValueError("empty x-polynomial expression")
    if s == "0":
        return XP_ZERO
    acc: dict[int, LambdaPoly] = {}
    for sign, term in _split_ascii_terms(s):
        if not term:
            raise ValueError(f"cannot parse x-polynomial term in {text!r}")
        m = _ASCII_X_PAREN.fullmatch(term)
        if m is not None:
            coeff = lambda_poly_from_ascii(m.group("poly"))
            degree = _ascii_exponent(m.group("pow"), 1 if term.endswith("*x") else 0)
        else:
            m = _ASCII_X_SCALAR.fullmatch(term)
            if m is None or (m.group("num") is None and "x" not in term):
                raise ValueError(f"cannot parse x-polynomial term {term!r}")
            coeff = LambdaPoly.const(parse_rational(m.group("num")) if m.group("num") else 1)
            x_term = ("x" in term and m.group("num") is None) or "*x" in term
            degree = _ascii_exponent(m.group("powa") or m.group("powb"), 1 if x_term else 0)
        if sign < 0:
            coeff = -coeff
        acc[degree] = acc.get(degree, LP_ZERO) + coeff
    top = max(acc)
    return XPoly(tuple(acc.get(j, LP_ZERO) for j in range(top + 1)))
