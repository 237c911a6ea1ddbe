"""The named-identity verification harness.

Every entry in the catalog compares two *independently computed* exact
objects — XPoly, LambdaPoly, Series, or ExpExpr — over a parameter grid.
Identities in one symbolic variable are compared as XPoly values, which
proves them for all x and λ at once; nothing is ever sampled numerically.
Each entry is a generator that yields its (params, lhs, rhs) cases in grid
order, registered with ``_identity``; one shared checker compares the two
sides and reports the first mismatch.  A factor that does not change across
a check's grid (a falling-factorial prefix, an EGF of Bell polynomials) is
built once per check call and kept local to it.  The routes that only the
checks use (classical factorial bases, S₂ by alternating sums, binomial
series) are defined here, beside their callers.

Checks draw their Stirling/Bell values from a :class:`FamilyTables`
context.  The default context is the library itself; a context with a
deliberately perturbed table entry lets the test suite demonstrate that
the harness actually discriminates (a wrong table must produce a failing
report with a rendered counterexample, not a silent pass).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable, Iterator, Optional

from .core import (
    LP_LAMBDA,
    LP_ONE,
    LP_ZERO,
    XP_ONE,
    XP_X,
    LambdaLike,
    LambdaPoly,
    XLike,
    XPoly,
    lambda_poly_pretty,
    sum_of_products,
    xpoly_pretty,
)
from .numbers import (
    basis_expand,
    bell_deg,
    bell_gf,
    bernoulli_deg,
    bracket_deg,
    falling_deg,
    rising_deg,
    stirling1_deg,
    stirling2_deg,
)
from .opcalc import (
    ExpExpr,
    d_dx,
    eval_at_x1_in_e_units,
    op_apply,
    prop10_rhs,
    render,
    theorem11_apply_monomial,
)
from .series import (
    Series,
    e_lambda_series,
    log_lambda_series,
    series_combination,
    series_compose,
    series_exp,
    series_mul,
)

A_GRID: tuple[Fraction, ...] = (
    Fraction(1),
    Fraction(-1),
    Fraction(2),
    Fraction(1, 2),
)
P_GRID: tuple[int, ...] = (1, 2, 3)

# Double-index identities are quadratic in table depth; their own stated
# ranges stop at 8, which also keeps verify_all inside its time budget.
DOUBLE_INDEX_CAP = 8


# ----------------------------------------------------------------------
# Report plumbing
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Counterexample:
    params: tuple[str, ...]
    lhs: str
    rhs: str

    def to_json_dict(self) -> dict:
        return {"params": list(self.params), "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class VerifyReport:
    identity: str
    grid: str
    status: str  # "pass" | "fail"
    counterexample: Optional[Counterexample]

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "grid": self.grid,
            "status": self.status,
            "counterexample": (
                None if self.counterexample is None else self.counterexample.to_json_dict()
            ),
        }


def _show(value) -> str:
    """Render any comparable object fully for a counterexample."""
    if isinstance(value, LambdaPoly):
        return lambda_poly_pretty(value)
    if isinstance(value, XPoly):
        return xpoly_pretty(value)
    if isinstance(value, ExpExpr):
        return render(value)
    if isinstance(value, Series):
        terms = ", ".join(
            f"t^{n}: {xpoly_pretty(c)}" for n, c in enumerate(value.coeffs)
        )
        return f"series[order {value.order}]({terms})"
    if isinstance(value, dict):  # bivariate normal form
        keys = sorted(value)
        terms = ", ".join(
            f"x^{i}·y^{j}: {lambda_poly_pretty(value[i, j])}" for (i, j) in keys
        )
        return f"{{{terms}}}"
    return str(value)


def _ce(params: dict, lhs, rhs) -> Counterexample:
    rendered = tuple(f"{k}={v}" for k, v in params.items())
    return Counterexample(params=rendered, lhs=_show(lhs), rhs=_show(rhs))


# ----------------------------------------------------------------------
# The family-table context
# ----------------------------------------------------------------------

class FamilyTables:
    """Number-family lookups the identity checks consume.

    With no overrides every lookup delegates to the (memoized) library
    routes.  ``stirling2_overrides`` replaces individual S_{2,λ}(n,k)
    entries; the Bell polynomials are then rebuilt from the overridden
    table so the perturbation propagates exactly the way a bug would.
    """

    def __init__(
        self,
        stirling2_overrides: dict[tuple[int, int], LambdaPoly] | None = None,
    ):
        self._overrides = dict(stirling2_overrides or {})
        self._bell: dict[int, XPoly] = {}
        self._bell_neg: dict[int, XPoly] = {}
        self._bell_at_one: dict[int, LambdaPoly] = {}

    @classmethod
    def with_bump(cls, n: int, k: int, delta: int = 1) -> "FamilyTables":
        """A context whose S_{2,λ}(n,k) is off by ``delta``."""
        return cls({(n, k): stirling2_deg(n, k) + delta})

    def stirling2(self, n: int, k: int) -> LambdaPoly:
        if (n, k) in self._overrides:
            return self._overrides[n, k]
        return stirling2_deg(n, k)

    def bell(self, n: int) -> XPoly:
        if not self._overrides:
            return bell_deg(n)
        if n not in self._bell:
            self._bell[n] = XPoly(self.stirling2(n, k) for k in range(n + 1))
        return self._bell[n]

    def bell_at_one(self, n: int) -> LambdaPoly:
        """Bel_{n,λ}(1)."""
        if n not in self._bell_at_one:
            self._bell_at_one[n] = self.bell(n).eval_x(1)
        return self._bell_at_one[n]

    def bell_neg(self, n: int) -> XPoly:
        """Bel_{n,λ}(-x)."""
        if n not in self._bell_neg:
            self._bell_neg[n] = XPoly(
                c if j % 2 == 0 else -c for j, c in enumerate(self.bell(n).coeffs)
            )
        return self._bell_neg[n]

    def bernoulli(self, n: int) -> LambdaPoly:
        return bernoulli_deg(n)


# ----------------------------------------------------------------------
# Second routes: built without the library's tables, for the checks only
# ----------------------------------------------------------------------

_CLASSICAL: dict[LambdaPoly, list[XPoly]] = {}


def _classical_factorial(shift: LambdaPoly, n: int) -> XPoly:
    """P(n) = P(n-1)·(x + (n-1)·shift), P(0) = 1, from a growing list per shift ±1."""
    if n < 0:
        raise ValueError(f"factorial index must be nonnegative, got {n}")
    built = _CLASSICAL.setdefault(shift, [XP_ONE])
    while len(built) <= n:
        built.append(built[-1] * (XP_X + shift * (len(built) - 1)))
    return built[n]


def falling_classical(n: int) -> XPoly:
    """(x)_n = x(x-1)···(x-n+1)."""
    return _classical_factorial(-LP_ONE, n)


def rising_classical(n: int) -> XPoly:
    """⟨x⟩_n = x(x+1)···(x+n-1)."""
    return _classical_factorial(LP_ONE, n)


def falling_deg_prefix(w: LambdaLike, n: int) -> list[LambdaPoly]:
    """[(w)_{i,λ} for i = 0 … n], each w(w-λ)···(w-(i-1)λ) the one before times a factor."""
    if n < 0:
        raise ValueError(f"factorial index must be nonnegative, got {n}")
    w = LambdaPoly.coerce(w)
    out = [LP_ONE]
    for i in range(n):
        out.append(out[-1] * (w - LP_LAMBDA * i))
    return out


def stirling2_alt_sums(n_max: int) -> list[list[LambdaPoly]]:
    """Rows n = 0 … n_max of (1/k!)·Σ_{j=0}^{k} C(k,j)(-1)^{k-j}(j)_{n,λ}, k = 0 … n_max.

    Entry [n][k] equals S_{2,λ}(n,k) for n ≥ k and the zero polynomial for
    n < k.  Independent of the recurrence: (j)_{n,λ} comes from one bare
    product prefix per j, and each entry is one sum of products.
    """
    falls = [falling_deg_prefix(j, n_max) for j in range(n_max + 1)]
    weights = [
        [Fraction((-1) ** (k - j) * comb(k, j), factorial(k)) for j in range(k + 1)]
        for k in range(n_max + 1)
    ]
    return [
        [sum_of_products((w, falls[j][n], 1) for j, w in enumerate(row)).coeff(0)
         for row in weights]
        for n in range(n_max + 1)
    ]


def binomial_power_series(base_shift: LambdaLike, exponent: XLike, order: int) -> Series:
    """(1 + s·t)^w = Σ_n binom(w, n)·s^n·t^n with the generalized binomial.

    The shift s may carry λ, as in (1 + λt)^{-n} (lemma1), and the exponent w
    may be a polynomial in x, as in (1 - t)^{-x} (eq57).
    """
    if order < 0:
        raise ValueError("order must be ≥ 0")
    s = LambdaPoly.coerce(base_shift)
    w = XPoly.coerce(exponent)
    out = [XP_ONE]
    binom = XP_ONE
    s_pow = LP_ONE
    for n in range(1, order + 1):
        binom = binom * (w - (n - 1)) * Fraction(1, n)
        s_pow = s_pow * s
        out.append(binom * s_pow)
    return Series(out, order=order)


@lru_cache(maxsize=None)
def _one_fall(j: int) -> LambdaPoly:
    """(1)_{j,λ} = 1·(1-λ)···(1-(j-1)λ)."""
    return falling_deg_prefix(1, j)[j]


@lru_cache(maxsize=None)
def _bell_gf_by_exp(order: int) -> Series:
    """e^{x(e_λ(t)-1)} by ``series_exp``: a second route to ``numbers.bell_gf``."""
    e = e_lambda_series(1, order)
    return series_exp((e - Series.one(order)).scale(XP_X))


# ----------------------------------------------------------------------
# Catalog: one generator of (params, lhs, rhs) cases per identity
# ----------------------------------------------------------------------

CheckResult = tuple[str, Optional[Counterexample]]
Checker = Callable[[int, int, FamilyTables], CheckResult]
Cases = Iterator[tuple[dict, object, object]]

CATALOG: dict[str, tuple[str, Checker]] = {}

#: Identities whose check compares truncated series, requiring order headroom.
SERIES_BASED: set[str] = set()


def _identity(key: str, description: str, grid: str, series: bool = False):
    """Register a generator of (params, lhs, rhs) cases as catalog entry ``key``.

    ``grid`` is formatted with ``n_max``, ``order`` and ``cap`` (n_max capped at
    DOUBLE_INDEX_CAP).  The registered checker is the one comparison: it reports the
    first case whose two sides differ and draws no case after it from the generator.
    """

    def register(cases: Callable[[int, int, FamilyTables], Cases]):
        def check(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
            text = grid.format(n_max=n_max, order=order, cap=min(n_max, DOUBLE_INDEX_CAP))
            for params, lhs, rhs in cases(n_max, order, tb):
                if lhs != rhs:
                    return text, _ce(params, lhs, rhs)
            return text, None

        CATALOG[key] = (description, check)
        if series:
            SERIES_BASED.add(key)
        return cases

    return register


@_identity("thm2", "Bell-number recurrence at x=1", "n=0..{n_max} (x=1)")
def _thm2(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        rhs = sum_of_products(
            (comb(n, m), tb.bell_at_one(m), _one_fall(n - m + 1)) for m in range(n + 1)
        )
        yield {"n": n}, tb.bell_at_one(n + 1), rhs.coeff(0)


@_identity("thm4", "three-term recurrence via derivative", "n=0..{n_max} (symbolic x)")
def _thm4(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        b = tb.bell(n)
        yield {"n": n}, tb.bell(n + 1), XP_X * (b.derivative() + b) - b * (LP_LAMBDA * n)


@_identity("thm5", "binomial recurrence with (1)_{n-m+1,λ}", "n=0..{n_max} (symbolic x)")
def _thm5(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        acc = sum_of_products(
            (comb(n, m), tb.bell(m), _one_fall(n - m + 1)) for m in range(n + 1)
        )
        yield {"n": n}, tb.bell(n + 1), XP_X * acc


@_identity("remark6a", "combined recurrence, weight (1)_{n-m,λ}(1-(n-m)λ)",
           "n=0..{n_max} (symbolic x)")
def _remark6a(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        acc = sum_of_products(
            (comb(n, m), tb.bell(m), _one_fall(n - m) * (LP_ONE - LP_LAMBDA * (n - m)))
            for m in range(n + 1)
        )
        yield {"n": n}, tb.bell(n + 1), XP_X * acc


@_identity("remark6b", "n·Bel identity with weight (n-m)(1)_{n-m,λ}",
           "n=0..{n_max} (symbolic x)")
def _remark6b(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        acc = sum_of_products(
            (comb(n, m) * (n - m), tb.bell(m), _one_fall(n - m)) for m in range(n + 1)
        )
        yield {"n": n}, tb.bell(n) * n, XP_X * acc


@_identity("cor7", "x·dBel/dx expansion", "n=1..{n_max} (symbolic x)")
def _cor7(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(1, n_max + 1):
        acc = sum_of_products((comb(n, m), tb.bell(m), _one_fall(n + 1 - m)) for m in range(n))
        rhs = XP_X * acc + tb.bell(n) * (LP_LAMBDA * n)
        yield {"n": n}, XP_X * tb.bell(n).derivative(), rhs


def _bivariate(entries) -> dict[tuple[int, int], LambdaPoly]:
    """Accumulate {(x_power, y_power): coefficient}, dropping zeros."""
    out: dict[tuple[int, int], LambdaPoly] = {}
    for (i, j), c in entries:
        acc = out.get((i, j), LP_ZERO) + c
        if acc.is_zero:
            out.pop((i, j), None)
        else:
            out[i, j] = acc
    return out


@_identity("thm8", "binomial convolution of Bel(x+y)", "n=0..{n_max} (bivariate x,y)")
def _thm8(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        lhs = _bivariate(
            ((i, k - i), tb.stirling2(n, k) * comb(k, i))
            for k in range(n + 1)
            for i in range(k + 1)
        )
        rhs = _bivariate(
            ((i, j), bl.coeffs[i] * bm.coeffs[j] * comb(n, l))
            for l in range(n + 1)
            for bl in (tb.bell(l),)
            for bm in (tb.bell(n - l),)
            for i in range(len(bl.coeffs))
            for j in range(len(bm.coeffs))
        )
        yield {"n": n}, lhs, rhs


@_identity("thm9", "antiderivative via Bernoulli convolution", "n=0..{n_max} (symbolic x)")
def _thm9(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        rhs = sum_of_products(
            (Fraction(comb(n + 1, k), n + 1), tb.bell(k), tb.bernoulli(n + 1 - k))
            for k in range(1, n + 2)
        )
        yield {"n": n}, tb.bell(n).antiderivative(), rhs


@_identity("prop10", "operator power on e^(a·x^p), λ→λ/p scaling",
           "n=0..{cap}, a∈{{1,-1,2,1/2}}, p∈{{1,2,3}}")
def _prop10(n_max: int, order: int, tb: FamilyTables) -> Cases:
    cap = min(n_max, DOUBLE_INDEX_CAP)
    for p in P_GRID:
        for a in A_GRID:
            expr = ExpExpr.exp_x(a, p)
            for n in range(cap + 1):
                yield {"n": n, "a": a, "p": p}, expr, prop10_rhs(n, a, p)
                expr = op_apply(expr)


@_identity("thm11-monomial", "operator expansion on x^r", "n,r=0..{n_max}")
def _thm11_monomial(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for r in range(n_max + 1):
        expr = ExpExpr.monomial(r)
        for n in range(n_max + 1):
            yield {"n": n, "r": r}, expr, theorem11_apply_monomial(n, r)
            expr = op_apply(expr)


@_identity("thm11-exp", "operator expansion on e^x via k-fold D", "n=0..{n_max} (f = e^x)")
def _thm11_exp(n_max: int, order: int, tb: FamilyTables) -> Cases:
    derivs = [ExpExpr.exp_x(1, 1)]
    for _ in range(n_max):
        derivs.append(d_dx(derivs[-1]))
    lhs = ExpExpr.exp_x(1, 1)
    for n in range(n_max + 1):
        acc = ExpExpr.zero()
        for k in range(n + 1):
            s = tb.stirling2(n, k)
            if not s.is_zero:
                acc = acc + derivs[k].mul_monomial(k, -n).scale(s)
        yield {"n": n}, lhs, acc
        lhs = op_apply(lhs)


def _egf(values) -> Series:
    """Σ_i values[i]·t^i/i!."""
    return Series(v * Fraction(1, factorial(i)) for i, v in enumerate(values))


def _thm12_rhs(bell_egf: Series, m: int, weighted: list[tuple[int, XLike]]) -> Series:
    """Σ_j w_j·Σ_k C(n,k)·Bel_k·Π_{i=m}^{m+n-k-1}(j - iλ) for every n, as an EGF in n.

    ``bell_egf`` is Σ_k Bel_k·t^k/k! and ``weighted`` holds the (j, w_j) pairs.
    The binomial k-sum is the Cauchy product of ``bell_egf`` with the EGF of
    the telescoped (j)_{m+s,λ}/(j)_{m,λ} = (j - mλ)_{s,λ}, and the j-sum is one
    combination.  The quotient is kept as a product on purpose — an actual
    division would be undefined at the j = iλ roots even though the quotient
    is a polynomial.
    """
    cap = bell_egf.order
    return series_combination(
        ((w, series_mul(bell_egf, _egf(falling_deg_prefix(LambdaPoly((j, -m)), cap))))
         for j, w in weighted),
        cap,
    )


@_identity("thm12", "double-sum recurrence with telescoped factorial quotient",
           "m,n=0..{cap} (symbolic x)")
def _thm12(n_max: int, order: int, tb: FamilyTables) -> Cases:
    cap = min(n_max, DOUBLE_INDEX_CAP)
    bell_egf = _egf(tb.bell(k) for k in range(cap + 1))
    for m in range(cap + 1):
        rhs = _thm12_rhs(bell_egf, m, [
            (j, XPoly.monomial(j, s2))
            for j in range(m + 1)
            if not (s2 := tb.stirling2(m, j)).is_zero
        ])
        for n in range(cap + 1):
            yield {"m": m, "n": n}, tb.bell(n + m), rhs.egf_coeff(n)


@_identity("thm12-x1", "x=1 specialization of the double-sum recurrence", "m,n=0..{n_max} (x=1)")
def _thm12_x1(n_max: int, order: int, tb: FamilyTables) -> Cases:
    bell_egf = _egf(tb.bell_at_one(k) for k in range(n_max + 1))
    for m in range(n_max + 1):
        rhs = _thm12_rhs(bell_egf, m, [
            (j, s2) for j in range(m + 1) if not (s2 := tb.stirling2(m, j)).is_zero
        ])
        for n in range(n_max + 1):
            yield {"m": m, "n": n}, tb.bell_at_one(n + m), rhs.egf_coeff(n).coeff(0)


@_identity("thm13", "Bel(x)/Bel(-x) convolution identity", "m,n=0..{cap} (symbolic x)")
def _thm13(n_max: int, order: int, tb: FamilyTables) -> Cases:
    cap = min(n_max, DOUBLE_INDEX_CAP)
    falls = [falling_deg_prefix(k, cap) for k in range(cap + 1)]  # (k)_{n,λ}
    for m in range(cap + 1):
        # G(s) = Σ_j C(s,j)·(mλ)_{j,λ}·Bel_{s-j,λ}(-x); (mλ)_{j,λ} = λ^j·m(m-1)···
        m_falls = falling_deg_prefix(LP_LAMBDA * m, m)
        g = [
            sum_of_products(
                (comb(s, j), tb.bell_neg(s - j), m_falls[j]) for j in range(min(s, m) + 1)
            )
            for s in range(cap + 1)
        ]
        for n in range(cap + 1):
            lhs = XPoly(tb.stirling2(m, k) * falls[k][n] for k in range(m + 1))
            rhs = sum_of_products((comb(n, k), tb.bell(m + k), g[n - k]) for k in range(n + 1))
            yield {"m": m, "n": n}, lhs, rhs


@_identity("lemma1", "n-th t-derivative of e^(a·e_λ(t))",
           "n=0..{n_max}, a∈{{1,-1,2,1/2}}, series order {order}", series=True)
def _lemma1(n_max: int, order: int, tb: FamilyTables) -> Cases:
    e = e_lambda_series(1, order)
    # (1 + λt)^{-n} and e_λ(t)^k, the same for every a
    binomials = [binomial_power_series(LP_LAMBDA, -n, order) for n in range(n_max + 1)]
    powers = [Series.one(order)]
    for _ in range(n_max):
        powers.append(series_mul(powers[-1], e))
    for a in A_GRID:
        f = series_exp(e.scale(a) - Series.const(a, order))  # e^{a·e_λ(t)} / e^a
        lhs = f
        for n in range(n_max + 1):
            # Bel_{n,λ}(a·e_λ(t)) = Σ_k S_{2,λ}(n,k)·a^k·e_λ(t)^k
            bel_at_ea = series_combination(
                ((c * a**k, powers[k]) for k, c in enumerate(tb.bell(n).coeffs)), order
            )
            rhs = series_mul(series_mul(binomials[n], bel_at_ea), f)
            yield {"n": n, "a": a}, lhs, rhs.truncate(lhs.order)
            if n < n_max:
                lhs = lhs.derivative()


@_identity("eq17", "operator power on e^(a·x)", "n=0..{n_max}, a∈{{1,-1,2,1/2}}")
def _eq17(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for a in A_GRID:
        expr = ExpExpr.exp_x(a, 1)
        for n in range(n_max + 1):
            yield {"n": n, "a": a}, expr, prop10_rhs(n, a, 1)
            expr = op_apply(expr)


@_identity("eq23", "operator evaluation at x=1 in e-units", "n=0..{n_max} (x=1, e-units)")
def _eq23(n_max: int, order: int, tb: FamilyTables) -> Cases:
    expr = ExpExpr.exp_x(1, 1)
    for n in range(n_max + 1):
        yield {"n": n}, eval_at_x1_in_e_units(expr), tb.bell_at_one(n)
        expr = op_apply(expr)


@_identity("eq29", "derivative of Bel as binomial sum", "n=1..{n_max} (symbolic x)")
def _eq29(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(1, n_max + 1):
        rhs = sum_of_products((comb(n, m), tb.bell(m), _one_fall(n - m)) for m in range(n))
        yield {"n": n}, tb.bell(n).derivative(), rhs


@_identity("eq34", "one-step promotion of x^(-nλ)Bel_n(x)e^x", "n=0..{n_max}")
def _eq34(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        lhs = op_apply(ExpExpr.from_xpoly(tb.bell(n), x_lam=-n, exp_coeff=1))
        rhs = ExpExpr.from_xpoly(tb.bell(n + 1), x_lam=-(n + 1), exp_coeff=1)
        yield {"n": n}, lhs, rhs


@_identity("eq39", "alternating sum vs table, zero cases included",
           "n,k=0..{n_max} (zero cases n<k included)")
def _eq39(n_max: int, order: int, tb: FamilyTables) -> Cases:
    alt_sums = stirling2_alt_sums(n_max)
    for n in range(n_max + 1):
        for k in range(n_max + 1):
            yield {"n": n, "k": k}, tb.stirling2(n, k), alt_sums[n][k]


@_identity("eq43", "triangular recurrence + basis-conversion anchor",
           "n=0..{n_max}, k=0..n (recurrence + basis-conversion anchor)")
def _eq43(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        expanded = basis_expand(falling_deg(n), falling_classical)
        expanded += [LP_ZERO] * (n + 1 - len(expanded))
        for k in range(n + 1):
            yield {"n": n, "k": k, "route": "basis"}, tb.stirling2(n, k), expanded[k]
        if n < n_max:
            for k in range(n + 2):
                lhs = tb.stirling2(n + 1, k)
                rhs = tb.stirling2(n, k - 1) + (
                    LambdaPoly((k,)) - LP_LAMBDA * n
                ) * tb.stirling2(n, k)
                yield {"n": n + 1, "k": k, "route": "recurrence"}, lhs, rhs


@lru_cache(maxsize=None)
def _bracket_by_basis(n: int) -> tuple[LambdaPoly, ...]:
    """[n k]_λ, k = 0..n, by basis elimination of ⟨x⟩_n: independent of the library."""
    expanded = basis_expand(rising_classical(n), rising_deg)
    return tuple(expanded) + (LP_ZERO,) * (n + 1 - len(expanded))


@_identity("eq56", "bracket = sign-flipped first kind, two routes",
           "n=0..{n_max}, k=0..n (two bracket routes)")
def _eq56(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        expanded = _bracket_by_basis(n)
        for k in range(n + 1):
            sign = 1 if (n - k) % 2 == 0 else -1
            yield {"n": n, "k": k}, stirling1_deg(n, k) * sign, expanded[k]


@_identity("eq57", "(1-t)^(-x) = e_λ^(-x)(log_λ(1-t))",
           "series order {order} (symbolic x), plus ⟨x⟩_n/n! coefficient anchor", series=True)
def _eq57(n_max: int, order: int, tb: FamilyTables) -> Cases:
    lhs = binomial_power_series(-1, -XP_X, order)
    rhs = series_compose(
        e_lambda_series(-XP_X, order), log_lambda_series(order).scale_t(-1)
    )
    yield {"order": order}, lhs, rhs
    for n in range(order + 1):
        yield {"n": n}, lhs.coeff(n), rising_classical(n) * Fraction(1, factorial(n))


@_identity("eq58", "⟨x⟩_n expanded in the deformed rising basis", "n=0..{n_max} (symbolic x)")
def _eq58(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        rhs = sum_of_products(
            ((-1) ** (n - k), rising_deg(k), stirling1_deg(n, k)) for k in range(n + 1)
        )
        yield {"n": n}, rising_classical(n), rhs


@_identity("eq59", "Bell GF composed with log_λ gives e^(xt)",
           "series order {order} (symbolic x)", series=True)
def _eq59(n_max: int, order: int, tb: FamilyTables) -> Cases:
    lhs = _egf(XPoly.monomial(n) for n in range(order + 1))  # e^{xt}
    yield {"order": order}, lhs, series_compose(bell_gf(order), log_lambda_series(order))


@_identity("eq60", "x^n via Bell polynomials and brackets", "n=0..{n_max} (symbolic x)")
def _eq60(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        rhs = sum_of_products(
            ((-1) ** (n - k), tb.bell(k), bracket_deg(n, k)) for k in range(n + 1)
        )
        yield {"n": n}, XPoly.monomial(n), rhs


@_identity("eq61", "bracket triangular recurrence", "n=0..{n_max}, k=0..n+1")
def _eq61(n_max: int, order: int, tb: FamilyTables) -> Cases:
    for n in range(n_max + 1):
        row = (LP_ZERO,) + _bracket_by_basis(n) + (LP_ZERO,)  # row[k] = [n, k-1]
        for k in range(n + 2):
            rhs = row[k] + (LambdaPoly((n,)) - LP_LAMBDA * k) * row[k + 1]
            yield {"n": n, "k": k}, _bracket_by_basis(n + 1)[k], rhs


@_identity("eq12-vs-eq14", "GF coefficients vs S₂ sums",
           "n=0..{n_max}, series order {order}", series=True)
def _eq12_vs_eq14(n_max: int, order: int, tb: FamilyTables) -> Cases:
    gf = _bell_gf_by_exp(order)
    for n in range(n_max + 1):
        yield {"n": n}, tb.bell(n), gf.egf_coeff(n)


@_identity("gf-log-roundtrip", "e_λ and log_λ are compositional inverses",
           "series order {order}, both compositions", series=True)
def _gf_log_roundtrip(n_max: int, order: int, tb: FamilyTables) -> Cases:
    e = e_lambda_series(1, order)
    log = log_lambda_series(order)
    forward = series_compose(e, log)
    yield {"direction": "e_λ∘log_λ"}, forward, Series.one(order) + Series.t(order)
    backward = series_compose(log, e - Series.one(order))
    yield {"direction": "log_λ∘(e_λ-1)"}, backward, Series.t(order)


DEFAULT_ORDER_MARGIN = 6


def verify(
    identity: str,
    n_max: int,
    order: int | None = None,
    tables: FamilyTables | None = None,
) -> VerifyReport:
    """Check one catalog identity over its grid, exactly."""
    if identity not in CATALOG:
        valid = ", ".join(CATALOG)
        raise ValueError(f"unknown identity {identity!r}; valid keys: {valid}")
    if n_max < 1:
        raise ValueError(f"n_max must be ≥ 1, got {n_max}")
    if order is None:
        order = n_max + DEFAULT_ORDER_MARGIN
    if identity in SERIES_BASED and order < n_max + 2:
        raise ValueError(
            f"order must be ≥ n_max + 2 for series-based identities, got {order}"
        )
    if tables is None:
        tables = FamilyTables()
    _, checker = CATALOG[identity]
    grid, ce = checker(n_max, order, tables)
    return VerifyReport(
        identity=identity,
        grid=grid,
        status="pass" if ce is None else "fail",
        counterexample=ce,
    )


def verify_all(
    n_max: int,
    order: int | None = None,
    tables: FamilyTables | None = None,
) -> list[VerifyReport]:
    """Run every catalog identity, in catalog order."""
    return [verify(identity, n_max, order, tables) for identity in CATALOG]
