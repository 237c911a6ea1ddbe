"""Exact scalar and polynomial arithmetic.

Three layers, each immutable and exact:

* scalars -- a λ-coefficient is a Python ``int`` or a ``fractions.Fraction``
  stored reduced with a positive denominator.  Integral values stay ints and
  no code path turns an int into a Fraction: ``n == Fraction(n)`` and
  ``hash(n) == hash(Fraction(n))``, so equality, hashing and rendering go by
  value.  Only true quotients (β, 1/n!, rational λ and x) are Fractions.
* ``LambdaPoly`` -- dense polynomials in the deformation parameter ``λ``
  with such coefficients.
* ``XPoly`` -- dense polynomials in ``x`` whose coefficients are
  ``LambdaPoly`` values.

Every quantity the package computes (deformed Stirling numbers, deformed
Bernoulli numbers, deformed Bell polynomials) is a polynomial in ``λ``, so
keeping ``λ`` symbolic lets identities be checked exactly for all ``λ`` at
once.  The zero polynomial is the empty coefficient sequence; nonzero
polynomials never store a trailing zero coefficient, which makes equality
structural.

Products and sums of products run on integer numerators in one
multiply-accumulate kernel that computes Σ wᵢ·aᵢ·bᵢ: each operand is
brought over its one common denominator, each scalar weight wᵢ becomes an
integer multiplier and a factor of that term's denominator, all terms are
brought to one common denominator D (the lcm of theirs) and convolved into
one int buffer, and each output coefficient becomes one reduced Fraction
over D, or stays an int when D = 1.  ``LambdaPoly``, ``XPoly`` and series
products (``series_mul``) are its one-term case; :func:`sum_of_products` is
the weighted sum that series recurrences and the identity harness use
instead of adding products one at a time.  Plain sums, scalar multiples and
evaluation work on the coefficients directly; a constant λ-polynomial
multiplies as the scalar it holds, so a constant factor never reaches the
kernel.  The types carry
no calculus: d/dx, the antiderivative and λ → c·λ serve only the identity
harness and live beside their callers in :mod:`degenbell.identities` and
:mod:`degenbell.opcalc`.

The paper's first building block, the generalized factorial
w(w+s)···(w+(n-1)s), has one builder, :func:`factorials`, which returns the
whole prefix k = 0 … n, each product the one before times one linear factor.
The deformed and classical falling and rising bases, the powers sⁿ and the
coefficients of e_λ and log_λ are all its prefixes.

Results canonical by construction skip the normalising ``LambdaPoly(...)``: int
numerators over a positive denominator, stripped on the ints (kernel outputs and
the :mod:`degenbell.numbers` table rows), stripped sums, negations and nonzero
scalar multiples.  Over the denominator 1 the int tuple itself is stored; over a
larger one ``Fraction`` reduces each coefficient.  A sum of ints and reduced
Fractions is one again, and ``-c`` or a nonzero factor makes no zero.

Polynomials print in two notations by one renderer per type: the unicode
display form (``*_pretty``, e.g. ``2λ² - (1/2)λ``) and the ASCII form of csv
and json cells (``*_to_ascii``, e.g. ``2*lambda^2 - 1/2*lambda``).  A
notation record gives the spelling of λ, of a power, of a fraction and of
the coefficient–power product; everything else, term order and signs
included, is shared.  Both ASCII parsers (``*_from_ascii``) read terms with
one monomial grammar, ``c``, ``c*v^k`` or ``v^k``, and round-trip the ASCII
form exactly.  The nested lists of the series JSON schema and ``repr``
(``to_nested_lists`` / ``from_nested_lists``) round-trip too.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Callable, Iterable, NamedTuple, Sequence, Union

#: The exact scalar that ``parse_rational`` returns and ``eval`` computes.
Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?[0-9]+(?:/[0-9]+)?$")

#: A λ-coefficient or scalar operand: an int, or a reduced Fraction.
ScalarLike = Union[int, Fraction]


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


def format_rational(value: ScalarLike) -> str:
    """Render an int or a Fraction as ``p/q``, omitting ``/q`` when q = 1."""
    return str(value)


def _as_fraction(value: ScalarLike) -> ScalarLike:
    """An exact scalar as it is stored: a Fraction or a plain int passes through,
    a bool becomes its int; anything else raises TypeError."""
    if type(value) is int or isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return int(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


# -- the integer multiply-accumulate kernel ---------------------------

def _cells(coeffs: Sequence[ScalarLike], offset: int) -> list[tuple[int, int, int]]:
    """(index, numerator, denominator) cells of λ-coefficients placed from ``offset``."""
    return [(offset + i, c.numerator, c.denominator) for i, c in enumerate(coeffs)]


def _numerators(cells: list) -> tuple[list[tuple[int, int]], int]:
    """The nonzero (index, numerator) pairs of ``cells`` over their one common denominator."""
    d = lcm(*[q for _, _, q in cells])
    return [(i, p * (d // q)) for i, p, q in cells if p], d


def _multiply_accumulate(terms: list, size: int, stride: int) -> list["LambdaPoly"]:
    """Exact Σ w·a·b over ``(w, a, b)`` terms packed as cells, cut to ``size`` indices.

    The cells of each operand are in increasing index order and the weight
    w is an int or a Fraction.  Each operand's coefficients are brought to
    integer numerators over its one common denominator; w's numerator
    becomes an integer multiplier and its denominator joins the term's.  All
    terms are brought to one common denominator D, the lcm of theirs, their
    numerators are convolved into one int buffer, and each output
    coefficient becomes one reduced Fraction over D (an int when D = 1).
    Returns one LambdaPoly per ``stride`` indices.
    """
    scaled, dens = [], []
    for w, a, b in terms:
        na, da = _numerators(a)
        nb, db = _numerators(b)
        scaled.append((w.numerator, na, nb))
        dens.append(w.denominator * da * db)
    d = lcm(*dens)
    out = [0] * size
    for (wp, na, nb), den in zip(scaled, dens):
        m = wp * (d // den)
        for i, x in na:
            x *= m
            for j, y in nb:
                k = i + j
                if k >= size:
                    break
                out[k] += x * y
    return [_from_ints(out[start : start + stride], d) for start in range(0, size, stride)]


def _canonical(coeffs: tuple[ScalarLike, ...]) -> "LambdaPoly":
    """The LambdaPoly over ints and reduced Fractions, no trailing zero, not normalised again."""
    poly = object.__new__(LambdaPoly)
    object.__setattr__(poly, "coeffs", coeffs)
    return poly


def _from_ints(numerators: list[int], den: int = 1) -> "LambdaPoly":
    """Σ (numerators[i]/den)·λ^i for a positive ``den``, trailing zeros stripped on the ints.

    Over ``den`` = 1 the coefficients are the ints themselves; over a larger
    one each nonzero numerator becomes a reduced Fraction."""
    end = len(numerators)
    while end and not numerators[end - 1]:
        end -= 1
    if den == 1:
        return _canonical(tuple(numerators[:end]))
    return _canonical(tuple([Fraction(c, den) if c else 0 for c in numerators[:end]]))


class LambdaPoly:
    """Polynomial in λ with int or Fraction coefficients, index i ↔ λ^i."""

    __slots__ = ("coeffs",)

    coeffs: tuple[ScalarLike, ...]

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
        while out and not out[-1]:
            out.pop()
        return _canonical(tuple(out))

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return _canonical(tuple([-c for c in self.coeffs]))

    def __sub__(self, other: "LambdaLike") -> "LambdaPoly":
        return self + (-LambdaPoly.coerce(other))

    def __mul__(self, other: "LambdaLike") -> "LambdaPoly":
        if isinstance(other, LambdaPoly):
            if len(self.coeffs) == 1:
                self, other = other, self.coeffs[0]
            elif len(other.coeffs) == 1:
                other = other.coeffs[0]
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            if c == 0:
                return LP_ZERO
            return _canonical(tuple([c * a for a in self.coeffs]))
        if not isinstance(other, LambdaPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return LP_ZERO
        size = len(a) + len(b) - 1
        return _multiply_accumulate([(1, _cells(a, 0), _cells(b, 0))], size, size)[0]

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------

    def eval(self, lam: ScalarLike) -> Fraction:
        """Evaluate at a rational λ by Horner's scheme."""
        lam = _as_fraction(lam)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * lam + c
        return acc


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

    def __mul__(self, other: "XLike") -> "XPoly":
        if isinstance(other, (int, Fraction, LambdaPoly)):
            if not other:
                return XP_ZERO
            return XPoly(tuple([a * other for a in self.coeffs]))
        if not isinstance(other, XPoly):
            return NotImplemented
        return _xpoly_products([(1, (self,), (other,))], 1)[0]

    __rmul__ = __mul__

    # -- evaluation ---------------------------------------------------

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


CoeffLike = Union[LambdaPoly, int, Fraction]
XLike = Union[XPoly, LambdaPoly, int, Fraction]

XP_ZERO = XPoly(())
XP_ONE = XPoly((LP_ONE,))
XP_X = XPoly((LP_ZERO, LP_ONE))


def _xpoly_products(terms: Sequence[tuple], count: int) -> list[XPoly]:
    """Σ_i w_i·Σ_{j+k=n} a_i[j]·b_i[k] for n = 0 … count-1, over ``(w_i, a_i, b_i)``.

    Each term is a scalar weight and two sequences of XPoly: the truncated
    Cauchy products of the pairs, weighted and summed.  One kernel call for
    the whole sum.  Term t^n·x^r·λ^i of an operand is packed at index
    n·block + r·stride + i, where stride and block/stride are the largest λ-
    and x-widths of a product, so packed indices add exactly as the
    exponents do and no term spills into another block.
    """
    stride = rows = 0
    packed = []
    for w, a, b in terms:
        a, b = a[:count], b[:count]
        wa = _width(p.coeffs for q in a for p in q.coeffs)
        wb = _width(p.coeffs for q in b for p in q.coeffs)
        if w and wa and wb:
            stride = max(stride, wa + wb - 1)
            rows = max(rows, _width(q.coeffs for q in a) + _width(q.coeffs for q in b) - 1)
            packed.append((w, a, b))
    if not packed:
        return [XP_ZERO] * count
    block = rows * stride
    cells = []
    for w, a, b in packed:
        cells_a, cells_b = [], []
        for out, operand in ((cells_a, a), (cells_b, b)):
            for n, q in enumerate(operand):
                for r, p in enumerate(q.coeffs):
                    out += _cells(p.coeffs, n * block + r * stride)
        cells.append((w, cells_a, cells_b))
    polys = _multiply_accumulate(cells, count * block, stride)
    return [XPoly(polys[n * rows : (n + 1) * rows]) for n in range(count)]


def sum_of_products(terms: Iterable[tuple[ScalarLike, XLike, XLike]]) -> XPoly:
    """Σ w·a·b over ``(w, a, b)`` terms, exactly, with at most one Fraction per coefficient.

    The weight w is an int or a Fraction; a and b are XPoly, LambdaPoly or
    scalars.  λ-only callers read ``.coeff(0)`` of the result.
    """
    return _xpoly_products(
        [(w, (XPoly.coerce(a),), (XPoly.coerce(b),)) for w, a, b in terms], 1
    )[0]


def _width(tuples: Iterable[tuple]) -> int:
    """The longest of ``tuples`` (0 if there are none)."""
    return max(map(len, tuples), default=0)


# -- the generalized factorials w(w+s)···(w+(n-1)s) ------------------

def _require_nonneg(n: int, what: str) -> None:
    if n < 0:
        raise ValueError(f"{what} must be nonnegative, got {n}")


def factorials(w: XLike, step: LambdaLike, n: int, built: list | None = None) -> list:
    """[Π_{i<k}(w + i·step) for k = 0 … n], each the one before times one factor.

    (x)_{n,λ} is (x, -λ), ⟨x⟩_{n,λ} is (x, λ), the classical bases are
    (x, ∓1) and sⁿ is (s, 0).  A w free of x (a scalar or a LambdaPoly) gives
    LambdaPolys, an XPoly w gives XPolys.  ``built``, a list that already
    holds the first of these products, is grown in place to at least n + 1
    entries and returned, so a cache extends its list and never rebuilds it.
    """
    _require_nonneg(n, "factorial index")
    if not isinstance(w, XPoly):
        w = LambdaPoly.coerce(w)
    step = LambdaPoly.coerce(step)
    if built is None:
        built = [XP_ONE if isinstance(w, XPoly) else LP_ONE]
    while len(built) <= n:
        built.append(built[-1] * (w + step * (len(built) - 1)))
    return built


# -- nested-list form: the series JSON coefficients and reprs ----

def to_nested_lists(p: XPoly) -> list[list[str]]:
    """JSON-friendly rendering: one list of rational strings per x-power."""
    return [[format_rational(c) for c in lp.coeffs] for lp in p.coeffs]


def from_nested_lists(data: Sequence[Sequence[str]]) -> XPoly:
    return XPoly(LambdaPoly(parse_rational(s) for s in row) for row in data)


# -- the two text forms: one renderer, two notations, one monomial grammar --

_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")


class _Notation(NamedTuple):
    """How one text form spells λ, a power, a non-integer scalar and c·v^k."""

    lam: str
    exponent: Callable[[int], str]
    fraction: str
    joiner: str

    def power(self, var: str, k: int) -> str:
        return var if k == 1 else var + self.exponent(k)

    def scalar(self, c: Fraction) -> str:
        return str(c) if c.denominator == 1 else self.fraction.format(c)

    def term(self, c: Fraction, var: str, k: int) -> str:
        """|c|·var^k, the unit coefficient of a power left out."""
        mag = abs(c)
        if k == 0:
            return self.scalar(mag)
        if mag == 1:
            return self.power(var, k)
        return self.scalar(mag) + self.joiner + self.power(var, k)


#: The unicode display form (``2λ² - (1/2)λ``) and the ASCII cell form
#: (``2*lambda^2 - 1/2*lambda``), which parses back exactly.
PRETTY = _Notation("λ", lambda k: str(k).translate(_SUPERSCRIPTS), "({})", "")
_ASCII = _Notation("lambda", lambda k: f"^{k}", "{}", "*")


def _join(terms: Iterable[tuple[bool, str]]) -> str:
    """Sign-joined ``(negative, body)`` terms: ``-a + b - c``, or ``0`` for none."""
    text = ""
    for negative, body in terms:
        if text:
            text += " - " if negative else " + "
        elif negative:
            text = "-"
        text += body
    return text or "0"


def _lambda_text(p: LambdaPoly, form: _Notation) -> str:
    """Powers descend when the leading coefficient is positive and ascend
    otherwise, so a polynomial never opens with a bare minus (``1 - λ``, not
    ``-λ + 1``)."""
    cs = p.coeffs
    order = range(len(cs) - 1, -1, -1) if cs and cs[-1] > 0 else range(len(cs))
    return _join((cs[i] < 0, form.term(cs[i], form.lam, i)) for i in order if cs[i])


def _xpoly_text(p: XPoly, form: _Notation) -> str:
    """Descending powers of x.  A scalar coefficient attaches directly; a
    λ-polynomial one is parenthesized with its sign inside."""
    terms = []
    for j in range(len(p.coeffs) - 1, -1, -1):
        c = p.coeffs[j]
        if c.degree == 0:
            terms.append((c.coeffs[0] < 0, form.term(c.coeffs[0], "x", j)))
        elif c:
            x = form.joiner + form.power("x", j) if j else ""
            terms.append((False, f"({_lambda_text(c, form)}){x}"))
    return _join(terms)


def lambda_poly_pretty(p: LambdaPoly) -> str:
    """Unicode display form, e.g. ``2λ² - 6λ + 5`` or ``1 - λ``."""
    return _lambda_text(p, PRETTY)


def xpoly_pretty(p: XPoly) -> str:
    """Unicode display form in x, e.g. ``x² + (1 - λ)x``."""
    return _xpoly_text(p, PRETTY)


def lambda_poly_to_ascii(p: LambdaPoly) -> str:
    """Plain-ASCII form, e.g. ``2*lambda^2 - 6*lambda + 5``; the inverse,
    :func:`lambda_poly_from_ascii`, accepts any term order."""
    return _lambda_text(p, _ASCII)


def xpoly_to_ascii(p: XPoly) -> str:
    """Plain-ASCII form in x, e.g. ``x^2 + (1 - lambda)*x``; the inverse is
    :func:`xpoly_from_ascii`."""
    return _xpoly_text(p, _ASCII)


#: Largest exponent the ASCII parsers accept: they build a dense coefficient
#: tuple as long as the highest exponent, so a larger one raises ValueError.
MAX_ASCII_EXPONENT = 10_000


def _ascii_exponent(digits: str | None, default: int) -> int:
    power = int(digits) if digits else default
    if power > MAX_ASCII_EXPONENT:
        raise ValueError(f"exponent {power} exceeds the limit {MAX_ASCII_EXPONENT}")
    return power


#: One unsigned monomial in v: ``c``, ``c*v^k`` or ``v^k``, where c is p or p/q
#: and ``^k`` may be left out; the ``*`` comes exactly when c precedes v.
_MONOMIAL = {
    v: re.compile(rf"(?=.)(?P<num>[0-9]+(?:/[0-9]+)?)?(?:(?(num)\*)(?P<var>{v})(?:\^(?P<pow>[0-9]+))?)?")
    for v in ("lambda", "x")
}


def _read_monomial(term: str, var: str) -> tuple[Fraction, int]:
    """The (coefficient, power) of one unsigned monomial term in ``var``."""
    m = _MONOMIAL[var].fullmatch(term)
    if m is None:
        raise ValueError(f"cannot parse term {term!r} as a monomial in {var}")
    value = parse_rational(m["num"]) if m["num"] else 1
    return value, _ascii_exponent(m["pow"], 1 if m["var"] else 0)


def lambda_poly_from_ascii(text: str) -> LambdaPoly:
    """Parse the :func:`lambda_poly_to_ascii` form (tolerant of term order)."""
    s = text.strip()
    if not s:
        raise ValueError("empty λ-polynomial expression")
    if s == "0":
        return LP_ZERO
    acc: dict[int, Fraction] = {}
    for raw in s.replace(" - ", " + -").split(" + "):
        term = raw.strip()
        sign = -1 if term.startswith("-") else 1
        term = term.removeprefix("-").strip()
        value, power = _read_monomial(term, "lambda")
        acc[power] = acc.get(power, 0) + sign * value
    return LambdaPoly(tuple(acc.get(i, 0) for i in range(max(acc) + 1)))


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


_ASCII_X_PAREN = re.compile(r"\((?P<poly>[^()]*)\)(?:\*x(?:\^(?P<pow>[0-9]+))?)?$")


def xpoly_from_ascii(text: str) -> XPoly:
    """Parse the :func:`xpoly_to_ascii` form (tolerant of term order)."""
    s = text.strip()
    if not s:
        raise ValueError("empty x-polynomial expression")
    if s == "0":
        return XP_ZERO
    acc: dict[int, LambdaPoly] = {}
    for sign, term in _split_ascii_terms(s):
        m = _ASCII_X_PAREN.fullmatch(term)
        if m is not None:
            coeff = lambda_poly_from_ascii(m.group("poly"))
            degree = _ascii_exponent(m.group("pow"), 1 if term.endswith("*x") else 0)
        else:
            value, degree = _read_monomial(term, "x")
            coeff = LambdaPoly.const(value)
        acc[degree] = acc.get(degree, LP_ZERO) + sign * coeff
    return XPoly(tuple(acc.get(j, LP_ZERO) for j in range(max(acc) + 1)))
