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

Products and sums of products run on the stored numerators in one block
kernel for Σ wᵢ·aᵢ·bᵢ over truncated t-sequences of ``XPoly``: ``XPoly``
and series products (``series_mul``) are its one-term case, and
:func:`sum_of_products` is the weighted sum that series recurrences and the
identity harness use instead of adding products one at a time.  Packing
walks each operand once and makes each nonzero λ-polynomial of tⁿ·xʳ a
block (n, r, numerators over the operand's one lcm).  Each weight becomes
an integer multiplier and a factor of its term's denominator, and all terms
go over one common denominator D, the lcm of theirs.  The product loops
over block pairs with the operand of fewer blocks outside, its rows taking
the multiplier, and stops each inner scan at the first block past the
truncation.  Each pair's numerator rows are convolved into one int buffer
at block (n_a + n_b, r_a + r_b), whose rows are as wide as the widest
product row, so no block spills into another.  An all-zero output block is
``LP_ZERO``; any other is its numerators over D divided by their one gcd.
Two λ-polynomials of degree ≥ 2 multiply by the same inner convolution.  A
λ-factor of degree ≤ 1, (a + bλ)/d, never reaches it: the other factor's
numerators nᵢ become a·nᵢ + b·nᵢ₋₁ in one pass, over its denominator times
d, with one gcd (a constant is the case b = 0).  So the generalized
factorials, d/dx's (m + kλ) and the triangular recurrences' (k − nλ)
multiply without packing.  Sums, negations and scalar multiples work on
the stored ints too, with one lcm and one gcd at most.  Evaluation runs
Horner over ``.coeffs``.  The types carry no calculus: d/dx, the
antiderivative and λ → c·λ serve only the identity harness and live beside
their callers in :mod:`degenbell.identities` and :mod:`degenbell.opcalc`.

The paper's first building block, the generalized factorial
w(w+s)···(w+(n-1)s), has one builder, :func:`factorials`, which returns the
whole prefix k = 0 … n, each product the one before times one linear factor.
The deformed and classical falling and rising bases, the powers sⁿ and the
coefficients of e_λ and log_λ are all its prefixes.

Each value type has one stored route, the one place it is allocated:
:func:`_stored` for ``LambdaPoly`` (through :func:`_from_ints` where the ints
need stripping or a gcd), :func:`_xstored` for ``XPoly``, which strips
trailing zero polynomials, and ``_sstored`` and ``_estored`` in
:mod:`degenbell.series` and :mod:`degenbell.opcalc`.  Results built from
stored parts go there directly.  The public constructor and ``coerce`` are
the check in front of it: they coerce and validate input from outside (the
parsers, the harness's literals and users) and hand on the canonical parts.
The forms are canonical, so ``==`` and ``hash`` compare what is stored and
never build a view.  Equal values hash alike: a ``LambdaPoly`` of degree ≤ 0 hashes as the
scalar it equals and an ``XPoly`` of x-degree ≤ 0 as its one coefficient, so
``{1, LP_ONE, XP_ONE}`` holds one element.

Polynomials print in two notations by one renderer per type: the unicode
display form (``*_pretty``, e.g. ``2λ² - (1/2)λ``) and the ASCII form of csv
and json cells (``*_to_ascii``, e.g. ``2*lambda^2 - 1/2*lambda``).  A
notation record gives the spelling of λ, of a power, of a fraction and of
the coefficient–power product; everything else, term order and signs
included, is shared.  Both ASCII parsers (``*_from_ascii``) are one reader:
one scan over the text's parentheses and separators splits it at the
top-level `` + `` and `` - `` (``1 + -v`` is refused), in time linear in the
text, and then the form's term reader reads each term by one monomial
grammar, ``c``, ``c*v^k`` or ``v^k``, whose c in x may also be a λ-form in
parentheses.  They store an integral coefficient they read as an int and
round-trip the ASCII form exactly, as the nested lists of the series JSON
schema and ``repr`` (``to_nested_lists`` / ``from_nested_lists``) do.
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


# -- the integer product kernel ----------------------------------------

def _over(p: "LambdaPoly", d: int) -> Sequence[int]:
    """The numerators of p over d, a multiple of its denominator."""
    if p._den == d:
        return p._num
    m = d // p._den
    return [c * m for c in p._num]


def _convolve(out: list[int], k0: int, a: Sequence[int], b: Sequence[int]) -> None:
    """out[k0 + i + j] += a[i]·b[j] for every i, j."""
    for x in a:
        if x:
            k = k0
            for y in b:
                out[k] += x * y
                k += 1
        k0 += 1


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


def _scaled(p: "LambdaPoly", factor: Sequence[int], d: int) -> "LambdaPoly":
    """p·(a + bλ)/d for the numerators ``factor`` = (a,) or (a, b) of a nonzero
    factor in lowest terms over d ≥ 1.

    One pass over p's numerators nᵢ makes cᵢ = a·nᵢ + b·nᵢ₋₁, stored over p's
    denominator times d, stripped and divided by their one gcd."""
    if len(factor) == 1:
        a = factor[0]
        if a == 1 and d == 1:
            return p
        return _from_ints([c * a for c in p._num], p._den * d)
    a, b = factor
    out, prev = [], 0
    for c in p._num:
        out.append(a * c + b * prev)
        prev = c
    out.append(b * prev)
    return _from_ints(out, p._den * d)


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
        d = lcm(*[c.denominator for c in cs])
        return _from_ints([c.numerator * (d // c.denominator) for c in cs], d)

    @classmethod
    def coerce(cls, value: "LambdaLike") -> "LambdaPoly":
        if isinstance(value, LambdaPoly):
            return value
        if isinstance(value, (list, tuple)):
            return cls(value)
        c = _as_fraction(value)
        return _from_ints([c.numerator], c.denominator)

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
        """A polynomial of degree ≤ 0 hashes as the scalar it equals (zero as 0)."""
        num = self._num
        if len(num) > 1:
            return hash((num, self._den))
        if not num:
            return 0
        return hash(num[0] if self._den == 1 else Fraction(num[0], self._den))

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
            if len(other._num) > 2:
                if len(self._num) > 2:
                    out = [0] * (len(self._num) + len(other._num) - 1)
                    _convolve(out, 0, self._num, other._num)
                    return _from_ints(out, self._den * other._den)
                self, other = other, self
            return _scaled(self, other._num, other._den) if other._num else LP_ZERO
        if isinstance(other, (int, Fraction)):
            c = _as_fraction(other)
            return _scaled(self, (c.numerator,), c.denominator) if c else LP_ZERO
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

    def __new__(cls, coeffs: Iterable[LambdaLike] = ()):
        return _xstored([LambdaPoly.coerce(c) for c in coeffs])

    def __setattr__(self, name, value):
        raise AttributeError("XPoly is immutable")

    def __reduce__(self):
        return (XPoly, (self.coeffs,))

    @classmethod
    def coerce(cls, value: "XLike") -> "XPoly":
        if isinstance(value, XPoly):
            return value
        return _xstored((LambdaPoly.coerce(value),))

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
        """An XPoly of x-degree ≤ 0 hashes as its one coefficient (zero as 0)."""
        cs = self.coeffs
        if len(cs) > 1:
            return hash(cs)
        return hash(cs[0]) if cs else 0

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
        return _xstored(out)

    __radd__ = __add__

    def __neg__(self) -> "XPoly":
        return _xstored([-c for c in self.coeffs])

    def __sub__(self, other: "XLike") -> "XPoly":
        return self + (-XPoly.coerce(other))

    def __mul__(self, other: "XLike") -> "XPoly":
        if isinstance(other, (int, Fraction, LambdaPoly)):
            if not other:
                return XP_ZERO
            return _xstored([a * other for a in self.coeffs])
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


XLike = Union[XPoly, LambdaPoly, int, Fraction]


def _xstored(cs: Sequence[LambdaPoly]) -> XPoly:
    """The XPoly Σ cs[j]·x^j of stored LambdaPoly values, stripped of its trailing
    zero polynomials and otherwise stored as given: nothing is coerced."""
    cs = tuple(cs)
    end = len(cs)
    while end and not cs[end - 1]._num:
        end -= 1
    poly = object.__new__(XPoly)
    object.__setattr__(poly, "coeffs", cs[:end])
    return poly

XP_ZERO = XPoly(())
XP_ONE = XPoly((LP_ONE,))
XP_X = XPoly((LP_ZERO, LP_ONE))


def _xpoly_products(terms: Sequence[tuple], count: int) -> list[XPoly]:
    """Σ_i w_i·Σ_{j+k=n} a_i[j]·b_i[k] for n = 0 … count-1, over ``(w_i, a_i, b_i)``.

    Each term is a scalar weight and two sequences of XPoly: the truncated
    Cauchy products of the pairs, weighted and summed, by the block kernel
    of the module docstring.
    """
    packed, dens = [], []
    stride = rows = 0
    for w, a, b in terms:
        if w:
            blocks_a, da, wa, ra = _blocks(a, count)
            blocks_b, db, wb, rb = _blocks(b, count)
            if blocks_a and blocks_b:
                stride = max(stride, wa + wb - 1)
                rows = max(rows, ra + rb - 1)
                if len(blocks_a) > len(blocks_b):
                    blocks_a, blocks_b = blocks_b, blocks_a
                packed.append((w.numerator, blocks_a, blocks_b))
                dens.append(w.denominator * da * db)
    if not packed:
        return [XP_ZERO] * count
    d = lcm(*dens)
    block = rows * stride
    out = [0] * (count * block)
    for (wp, blocks_a, blocks_b), den in zip(packed, dens):
        m = wp * (d // den)
        for na, ra, x in blocks_a:
            if m != 1:
                x = [c * m for c in x]
            room = count - na
            base = na * block + ra * stride
            for nb, rb, y in blocks_b:
                if nb >= room:
                    break
                _convolve(out, base + nb * block + rb * stride, x, y)
    polys = []
    for k in range(0, len(out), stride):
        chunk = out[k : k + stride]
        polys.append(_from_ints(chunk, d) if any(chunk) else LP_ZERO)
    return [_xstored(polys[n * rows : (n + 1) * rows]) for n in range(count)]


def _blocks(operand: Sequence[XPoly], count: int) -> tuple[list, int, int, int]:
    """The nonzero λ-polynomials of an operand's first ``count`` t-coefficients as
    (n, r, numerators) for tⁿ·xʳ over their one lcm, in increasing n; then that
    lcm, the longest numerator row and the most x-rows."""
    found, dens, width, rows = [], [], 0, 0
    for n, q in enumerate(operand[:count]):
        cs = q.coeffs
        rows = max(rows, len(cs))
        for r, p in enumerate(cs):
            num = p._num
            if num:
                found.append((n, r, num))
                dens.append(p._den)
                if len(num) > width:
                    width = len(num)
    d = lcm(*dens)
    if dens.count(d) != len(dens):
        found = [(n, r, num if e == d else [c * (d // e) for c in num])
                 for (n, r, num), e in zip(found, dens)]
    return found, d, width, rows


def sum_of_products(terms: Iterable[tuple[ScalarLike, XLike, XLike]]) -> XPoly:
    """Σ w·a·b over ``(w, a, b)`` terms, exactly, in one kernel call that builds no Fraction.

    The weight w is an int or a Fraction; a and b are XPoly, LambdaPoly or
    scalars.  λ-only callers read ``.coeff(0)`` of the result.
    """
    return _xpoly_products(
        [(w, (XPoly.coerce(a),), (XPoly.coerce(b),)) for w, a, b in terms], 1
    )[0]


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


# -- the two text forms: one renderer, two notations; one scan, a term reader per form --

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
#: and ``^k`` may be left out; the ``*`` comes exactly when c precedes v.  An
#: x-term's c may also be a λ-form in parentheses, ``(1 - lambda)*x^2``.
_MONOMIAL = {
    v: re.compile(rf"(?=.)(?P<num>[0-9]+(?:/[0-9]+)?{c})?(?:(?(num)\*)(?P<var>{v})(?:\^(?P<pow>[0-9]+))?)?")
    for v, c in (("lambda", ""), ("x", r"|\([^()]*\)"))
}


def _read_monomial(term: str, var: str = "lambda") -> tuple[ScalarLike, int]:
    """The (coefficient, power) of one unsigned monomial term in ``var``."""
    m = _MONOMIAL[var].fullmatch(term)
    if m is None:
        raise ValueError(f"cannot parse term {term!r} as a monomial in {var}")
    value = parse_rational(m["num"]) if m["num"] else 1
    return value, _ascii_exponent(m["pow"], 1 if m["var"] else 0)


def _read_x_term(term: str) -> tuple[LambdaLike, int]:
    """The (coefficient, power) of one term in x: a monomial, or a λ-form in
    parentheses as ``(p)``, ``(p)*x`` or ``(p)*x^k``."""
    m = term.startswith("(") and _MONOMIAL["x"].fullmatch(term)
    if not m:
        return _read_monomial(term, "x")
    return lambda_poly_from_ascii(m["num"][1:-1]), _ascii_exponent(m["pow"], 1 if m["var"] else 0)


#: What the one scan stops at: a parenthesis, or `` + `` / `` - `` between terms.
_ASCII_TOKEN = re.compile(r"[()]| [+-] ")


def _read_sum(text: str, what: str, read_term: Callable[[str], tuple]) -> list:
    """The coefficients, power by power, of the signed sum of terms in ``text``:
    the whole text is split and its parentheses checked before ``read_term``
    reads any term as (coefficient, power)."""
    s = text.strip()
    if not s:
        raise ValueError(f"empty {what} expression")
    negative = s.startswith("-")
    pieces, start, depth = [], int(negative), 0
    for m in _ASCII_TOKEN.finditer(s):
        token = m[0]
        if token in "()":
            depth += 1 if token == "(" else -1
            if depth < 0:
                break
        elif not depth:
            pieces.append((negative, s[start : m.start()]))
            negative, start = token == " - ", m.end()
    if depth:
        raise ValueError(f"unbalanced parentheses in {s!r}")
    pieces.append((negative, s[start:]))
    acc: dict = {}
    for negative, term in pieces:
        value, power = read_term(term.strip())
        acc[power] = acc.get(power, 0) + (-value if negative else value)
    return [acc.get(i, 0) for i in range(max(acc) + 1)]


def lambda_poly_from_ascii(text: str) -> LambdaPoly:
    """Parse the :func:`lambda_poly_to_ascii` form (tolerant of term order)."""
    return LambdaPoly(_read_sum(text, "λ-polynomial", _read_monomial))


def xpoly_from_ascii(text: str) -> XPoly:
    """Parse the :func:`xpoly_to_ascii` form (tolerant of term order)."""
    return XPoly(_read_sum(text, "x-polynomial", _read_x_term))
