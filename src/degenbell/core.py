"""Exact scalar and polynomial arithmetic.

Three layers, each immutable and exact:

* scalars -- a λ-coefficient reads as a Python ``int`` or a reduced
  ``fractions.Fraction``.  Integral values are ints, after arithmetic too:
  ``n == Fraction(n)`` and ``hash(n) == hash(Fraction(n))``, so equality,
  hashing and rendering go by value.  Only true quotients (β, 1/n!, rational
  λ and x) are Fractions.
* ``LambdaPoly`` -- dense polynomials in the deformation parameter ``λ``,
  stored as FLINT's ``fmpq_poly`` is: a tuple of int numerators over one
  denominator d ≥ 1, coprime to them.  ``.coeffs`` is the coefficient view,
  built on first read and kept: the numerator tuple itself when d = 1,
  otherwise an int where d divides the numerator and a reduced Fraction
  elsewhere.
* ``XPoly`` -- dense polynomials in ``x`` whose coefficients are
  ``LambdaPoly`` values.

Every quantity the package computes (deformed Stirling numbers, deformed
Bernoulli numbers, deformed Bell polynomials) is a polynomial in ``λ``, so
keeping ``λ`` symbolic lets identities be checked exactly for all ``λ`` at
once.  The zero polynomial is the empty coefficient sequence; nonzero
polynomials never store a trailing zero coefficient, which makes equality
structural.

Products and sums of products run on the stored numerators in one
multiply-accumulate kernel that computes Σ wᵢ·aᵢ·bᵢ: each operand's
polynomials, each placed at an offset, are brought over the operand's one
common denominator (one lcm), each scalar weight wᵢ becomes an integer
multiplier and a factor of that term's denominator, all terms are brought
to one common denominator D (the lcm of theirs) and convolved into one int
buffer, and each output polynomial is its numerators over D divided through
by their one gcd.  ``LambdaPoly``, ``XPoly`` and series products
(``series_mul``) are its one-term case; :func:`sum_of_products` is the
weighted sum that series recurrences and the identity harness use instead
of adding products one at a time.  Sums, negations and scalar multiples
work on the stored ints too, with one lcm and one gcd at most; a constant
λ-polynomial multiplies as the scalar it holds, so a constant factor never
reaches the kernel.  Evaluation runs Horner over ``.coeffs``.  The types
carry no calculus: d/dx, the antiderivative and λ → c·λ serve only the
identity harness and live beside their callers in
:mod:`degenbell.identities` and :mod:`degenbell.opcalc`.

The paper's first building block, the generalized factorial
w(w+s)···(w+(n-1)s), has one builder, :func:`factorials`, which returns the
whole prefix k = 0 … n, each product the one before times one linear factor.
The deformed and classical falling and rising bases, the powers sⁿ and the
coefficients of e_λ and log_λ are all its prefixes.

Results skip the normalising ``LambdaPoly(...)`` and are stored from their
ints: kernel outputs, the :mod:`degenbell.numbers` table rows, sums and scalar
multiples are stripped on the numerators and divided by one gcd when the
denominator exceeds 1, and a negation is stored as it comes, since ``-c``
makes no zero and keeps the gcd.  The form is canonical, so ``==`` and
``hash`` compare the stored pair and never build the view.

Polynomials print in two notations by one renderer per type: the unicode
display form (``*_pretty``, e.g. ``2λ² - (1/2)λ``) and the ASCII form of csv
and json cells (``*_to_ascii``, e.g. ``2*lambda^2 - 1/2*lambda``).  A
notation record gives the spelling of λ, of a power, of a fraction and of
the coefficient–power product; everything else, term order and signs
included, is shared.  Both ASCII parsers (``*_from_ascii``) split terms at
the top-level `` + `` and `` - `` (``1 + -v`` is refused), read each with one
monomial grammar, ``c``, ``c*v^k`` or ``v^k``, store an integral coefficient
they read as an int and round-trip the ASCII form exactly, as the nested lists
of the series JSON schema and ``repr`` (``to_nested_lists`` /
``from_nested_lists``) do.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm
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


def _parse_stored(text: str) -> ScalarLike:
    """``parse_rational``'s value as it is stored: an int when it is integral."""
    q = parse_rational(text)
    return q.numerator if q.denominator == 1 else q


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

def _over(p: "LambdaPoly", d: int) -> Sequence[int]:
    """The numerators of p over d, a multiple of its denominator."""
    if p._den == d:
        return p._num
    m = d // p._den
    return [c * m for c in p._num]


def _numerators(operand: list[tuple[int, "LambdaPoly"]]) -> tuple[list[tuple[int, int]], int]:
    """The nonzero (index, numerator) pairs of an operand over its one common denominator.

    The operand lists (offset, LambdaPoly) pairs: coefficient i of the
    polynomial sits at index offset + i."""
    d = lcm(*[p._den for _, p in operand])
    pairs = []
    for offset, p in operand:
        for i, c in enumerate(_over(p, d)):
            if c:
                pairs.append((offset + i, c))
    return pairs, d


def _multiply_accumulate(terms: list, size: int, stride: int) -> list["LambdaPoly"]:
    """Exact Σ w·a·b over ``(w, a, b)`` terms, cut to ``size`` indices.

    Each operand a or b is a list of (offset, LambdaPoly) pairs in
    increasing index order, the weight w an int or a Fraction.  Each
    operand's stored numerators are brought over its one common
    denominator; w's numerator becomes an integer multiplier and its
    denominator joins the term's.  All terms are brought to one common
    denominator D, the lcm of theirs, their numerators are convolved into
    one int buffer, and each output polynomial is its numerators over D,
    divided through by their one gcd.  Returns one LambdaPoly per
    ``stride`` indices.
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


# -- the stored form: int numerators over one denominator -------------

def _stored(num: tuple[int, ...], den: int) -> "LambdaPoly":
    """The LambdaPoly Σ (num[i]/den)·λ^i, stored as given: num has no trailing
    zero, den ≥ 1 and gcd(den, *num) = 1."""
    poly = object.__new__(LambdaPoly)
    poly._num = num
    poly._den = den
    poly._view = num if den == 1 else None
    return poly


def _from_ints(numerators: Sequence[int], den: int = 1) -> "LambdaPoly":
    """Σ (numerators[i]/den)·λ^i for a positive ``den``, in lowest terms.

    Trailing zeros are stripped on the ints, and over ``den`` > 1 the
    numerators and ``den`` are divided through by their one gcd."""
    end = len(numerators)
    while end and not numerators[end - 1]:
        end -= 1
    num = numerators[:end]
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return _stored(tuple(num), den)


def _scaled(p: "LambdaPoly", n: int, d: int) -> "LambdaPoly":
    """p·(n/d) for a nonzero n/d in lowest terms with d ≥ 1."""
    if n == 1 and d == 1:
        return p
    return _from_ints([c * n for c in p._num], p._den * d)


class LambdaPoly:
    """Polynomial in λ with int or Fraction coefficients, index i ↔ λ^i.

    Stored as int numerators with no trailing zero over one denominator
    d ≥ 1, the two coprime, so equal polynomials store equal pairs.
    ``coeffs`` is the coefficient view: ints where d divides the numerator,
    reduced Fractions otherwise, and the numerator tuple itself when d = 1.
    It is read-only, and only :func:`_stored` sets the private slots, once
    per polynomial (the view: once more, on its first read).
    """

    __slots__ = ("_num", "_den", "_view")

    _num: tuple[int, ...]
    _den: int
    _view: tuple[ScalarLike, ...] | None

    def __new__(cls, coeffs: Iterable[ScalarLike] = ()):
        cs = [_as_fraction(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        # Over the lcm of reduced Fractions' denominators the numerators are coprime to it.
        d = lcm(*[c.denominator for c in cs])
        return _stored(tuple([c.numerator * (d // c.denominator) for c in cs]), d)

    # -- constructors -------------------------------------------------

    @classmethod
    def const(cls, value: ScalarLike) -> "LambdaPoly":
        c = _as_fraction(value)
        return _from_ints([c.numerator], c.denominator)

    @classmethod
    def coerce(cls, value: "LambdaLike") -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        if isinstance(value, (list, tuple)):
            return cls(value)
        return cls.const(value)

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[ScalarLike, ...]:
        """The coefficients, built on first read and kept."""
        view = self._view
        if view is None:
            d = self._den
            view = tuple([c // d if c % d == 0 else Fraction(c, d) for c in self._num])
            self._view = view
        return view

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def degree(self) -> int | None:
        """Degree in λ, or None for the zero polynomial."""
        return len(self._num) - 1 if self._num else None

    def __eq__(self, other) -> bool:
        if isinstance(other, LambdaPoly):
            return self._den == other._den and self._num == other._num
        if isinstance(other, (int, Fraction)):
            return self == LambdaPoly.coerce(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("LambdaPoly", self._num, self._den))

    def __bool__(self) -> bool:
        return not self.is_zero

    def __repr__(self) -> str:
        return f"LambdaPoly({[str(c) for c in self.coeffs]})"

    # -- ring operations ----------------------------------------------

    def __add__(self, other: "LambdaLike") -> "LambdaPoly":
        other = LambdaPoly.coerce(other)
        d = self._den
        if d == other._den:
            a, b = self._num, other._num
        else:
            d = lcm(d, other._den)
            a, b = _over(self, d), _over(other, d)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _from_ints(out, d)

    __radd__ = __add__

    def __neg__(self) -> "LambdaPoly":
        return _stored(tuple([-c for c in self._num]), self._den)

    def __sub__(self, other: "LambdaLike") -> "LambdaPoly":
        return self + (-LambdaPoly.coerce(other))

    def __mul__(self, other: "LambdaLike") -> "LambdaPoly":
        if isinstance(other, LambdaPoly):
            if len(self._num) == 1:
                self, other = other, self
            if len(other._num) == 1:
                return _scaled(self, other._num[0], other._den)
            if not self._num or not other._num:
                return LP_ZERO
            size = len(self._num) + len(other._num) - 1
            return _multiply_accumulate([(1, [(0, self)], [(0, other)])], size, size)[0]
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _scaled(self, c.numerator, c.denominator) if c else LP_ZERO
        return NotImplemented

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
        wa = _width(p._num for q in a for p in q.coeffs)
        wb = _width(p._num for q in b for p in q.coeffs)
        if w and wa and wb:
            stride = max(stride, wa + wb - 1)
            rows = max(rows, _width(q.coeffs for q in a) + _width(q.coeffs for q in b) - 1)
            packed.append((w, a, b))
    if not packed:
        return [XP_ZERO] * count
    block = rows * stride
    operands = [(w, _placed(a, block, stride), _placed(b, block, stride)) for w, a, b in packed]
    polys = _multiply_accumulate(operands, count * block, stride)
    return [XPoly(polys[n * rows : (n + 1) * rows]) for n in range(count)]


def _placed(operand: Sequence[XPoly], block: int, stride: int) -> list[tuple[int, LambdaPoly]]:
    """The λ-polynomial of each t^n·x^r, each at offset n·block + r·stride."""
    return [(n * block + r * stride, p) for n, q in enumerate(operand)
            for r, p in enumerate(q.coeffs)]


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
    return XPoly(LambdaPoly(_parse_stored(s) for s in row) for row in data)


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


def _read_monomial(term: str, var: str) -> tuple[ScalarLike, int]:
    """The (coefficient, power) of one unsigned monomial term in ``var``."""
    m = _MONOMIAL[var].fullmatch(term)
    if m is None:
        raise ValueError(f"cannot parse term {term!r} as a monomial in {var}")
    value = _parse_stored(m["num"]) if m["num"] else 1
    return value, _ascii_exponent(m["pow"], 1 if m["var"] else 0)


def lambda_poly_from_ascii(text: str) -> LambdaPoly:
    """Parse the :func:`lambda_poly_to_ascii` form (tolerant of term order)."""
    s = text.strip()
    if not s:
        raise ValueError("empty λ-polynomial expression")
    if s == "0":
        return LP_ZERO
    acc: dict[int, ScalarLike] = {}
    for sign, term in _split_ascii_terms(s):
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
