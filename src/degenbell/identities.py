"""The named-identity verification harness.

Every entry in the catalog compares two *independently computed* exact
objects — XPoly, LambdaPoly, Series, or ExpExpr — over a parameter grid.
Identities in one symbolic variable are compared as XPoly values, which
proves them for all x and λ at once; nothing is ever sampled numerically.

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
from typing import Callable, Optional

from .core import (
    LP_LAMBDA,
    LP_ONE,
    LP_ZERO,
    XP_X,
    XP_ZERO,
    LambdaPoly,
    XPoly,
    lambda_poly_pretty,
    xpoly_pretty,
)
from .numbers import (
    basis_expand,
    bell_deg,
    bell_gf,
    bernoulli_deg,
    bracket_deg,
    falling_classical,
    falling_deg,
    falling_deg_at,
    rising_classical,
    rising_deg,
    stirling1_deg,
    stirling2_alt_sum,
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
    binomial_power_series,
    e_lambda_series,
    log_lambda_series,
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


@lru_cache(maxsize=None)
def _one_fall(j: int) -> LambdaPoly:
    """(1)_{j,λ} = 1·(1-λ)···(1-(j-1)λ)."""
    return falling_deg_at(1, j)


@lru_cache(maxsize=None)
def _exp_xt(order: int) -> Series:
    """e^{xt}: coefficient of t^n is x^n/n!."""
    return Series(
        (XPoly.monomial(n, Fraction(1, factorial(n))) for n in range(order + 1)),
        order=order,
    )


# ----------------------------------------------------------------------
# Catalog checks.  Each returns (grid description, first counterexample).
# ----------------------------------------------------------------------

CheckResult = tuple[str, Optional[Counterexample]]
Checker = Callable[[int, int, FamilyTables], CheckResult]


def _check_thm2(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (x=1)"
    for n in range(n_max + 1):
        lhs = tb.bell_at_one(n + 1)
        rhs = LP_ZERO
        for m in range(n + 1):
            rhs = rhs + tb.bell_at_one(m) * _one_fall(n - m + 1) * comb(n, m)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_thm4(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        b = tb.bell(n)
        lhs = tb.bell(n + 1)
        rhs = XP_X * (b.derivative() + b) - b * (LP_LAMBDA * n)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_thm5(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        lhs = tb.bell(n + 1)
        acc = XP_ZERO
        for m in range(n + 1):
            acc = acc + tb.bell(m) * (_one_fall(n - m + 1) * comb(n, m))
        rhs = XP_X * acc
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_remark6a(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        lhs = tb.bell(n + 1)
        acc = XP_ZERO
        for m in range(n + 1):
            weight = _one_fall(n - m) * (LP_ONE - LP_LAMBDA * (n - m)) * comb(n, m)
            acc = acc + tb.bell(m) * weight
        rhs = XP_X * acc
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_remark6b(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        lhs = tb.bell(n) * n
        acc = XP_ZERO
        for m in range(n + 1):
            acc = acc + tb.bell(m) * (_one_fall(n - m) * (comb(n, m) * (n - m)))
        rhs = XP_X * acc
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_cor7(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=1..{n_max} (symbolic x)"
    for n in range(1, n_max + 1):
        lhs = XP_X * tb.bell(n).derivative()
        acc = XP_ZERO
        for m in range(n):
            acc = acc + tb.bell(m) * (_one_fall(n + 1 - m) * comb(n, m))
        rhs = XP_X * acc + tb.bell(n) * (LP_LAMBDA * n)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


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


def _check_thm8(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (bivariate x,y)"
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
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_thm9(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        lhs = tb.bell(n).antiderivative()
        acc = XP_ZERO
        for k in range(1, n + 2):
            acc = acc + tb.bell(k) * (tb.bernoulli(n + 1 - k) * comb(n + 1, k))
        rhs = acc * Fraction(1, n + 1)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_prop10(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    cap = min(n_max, DOUBLE_INDEX_CAP)
    grid = f"n=0..{cap}, a∈{{1,-1,2,1/2}}, p∈{{1,2,3}}"
    for p in P_GRID:
        for a in A_GRID:
            expr = ExpExpr.exp_x(a, p)
            for n in range(cap + 1):
                rhs = prop10_rhs(n, a, p)
                if expr != rhs:
                    return grid, _ce({"n": n, "a": a, "p": p}, expr, rhs)
                expr = op_apply(expr)
    return grid, None


def _check_thm11_monomial(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n,r=0..{n_max}"
    for r in range(n_max + 1):
        expr = ExpExpr.monomial(r)
        for n in range(n_max + 1):
            rhs = theorem11_apply_monomial(n, r)
            if expr != rhs:
                return grid, _ce({"n": n, "r": r}, expr, rhs)
            expr = op_apply(expr)
    return grid, None


def _check_thm11_exp(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (f = e^x)"
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
        if lhs != acc:
            return grid, _ce({"n": n}, lhs, acc)
        lhs = op_apply(lhs)
    return grid, None


def _tele(j: int, m: int, s_max: int) -> list[LambdaPoly]:
    """[Π_{i=m}^{m+s-1}(j - iλ) for s = 0 … s_max]: the telescoped (j)_{m+s,λ}/(j)_{m,λ}.

    Kept as a product on purpose — an actual division would be undefined
    at the j = iλ roots even though the quotient is a polynomial.
    """
    out = [LP_ONE]
    for i in range(m, m + s_max):
        out.append(out[-1] * LambdaPoly((j, -i)))
    return out


def _check_thm12(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    cap = min(n_max, DOUBLE_INDEX_CAP)
    grid = f"m,n=0..{cap} (symbolic x)"
    for m in range(cap + 1):
        tele = [_tele(j, m, cap) for j in range(m + 1)]
        for n in range(cap + 1):
            lhs = tb.bell(n + m)
            rhs = XP_ZERO
            for j in range(m + 1):
                s2 = tb.stirling2(m, j)
                if s2.is_zero:
                    continue
                inner = XP_ZERO
                for k in range(n + 1):
                    inner = inner + tb.bell(k) * (tele[j][n - k] * comb(n, k))
                rhs = rhs + XPoly.monomial(j, s2) * inner
            if lhs != rhs:
                return grid, _ce({"m": m, "n": n}, lhs, rhs)
    return grid, None


def _check_thm12_x1(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"m,n=0..{n_max} (x=1)"
    for m in range(n_max + 1):
        tele = [_tele(j, m, n_max) for j in range(m + 1)]
        for n in range(n_max + 1):
            lhs = tb.bell_at_one(n + m)
            rhs = LP_ZERO
            for j in range(m + 1):
                s2 = tb.stirling2(m, j)
                if s2.is_zero:
                    continue
                for k in range(n + 1):
                    rhs = rhs + s2 * tb.bell_at_one(k) * (tele[j][n - k] * comb(n, k))
            if lhs != rhs:
                return grid, _ce({"m": m, "n": n}, lhs, rhs)
    return grid, None


def _check_thm13(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    cap = min(n_max, DOUBLE_INDEX_CAP)
    grid = f"m,n=0..{cap} (symbolic x)"
    for m in range(cap + 1):
        # G(s) = Σ_j C(s,j)·(mλ)_{j,λ}·Bel_{s-j,λ}(-x); (mλ)_{j,λ} = λ^j·m(m-1)···
        g: list[XPoly] = []
        for s in range(cap + 1):
            acc = XP_ZERO
            for j in range(min(s, m) + 1):
                w = falling_deg_at(LP_LAMBDA * m, j) * comb(s, j)
                if not w.is_zero:
                    acc = acc + tb.bell_neg(s - j) * w
            g.append(acc)
        for n in range(cap + 1):
            lhs = XPoly(
                tb.stirling2(m, k) * falling_deg_at(Fraction(k), n)
                for k in range(m + 1)
            )
            rhs = XP_ZERO
            for k in range(n + 1):
                rhs = rhs + tb.bell(m + k) * g[n - k] * comb(n, k)
            if lhs != rhs:
                return grid, _ce({"m": m, "n": n}, lhs, rhs)
    return grid, None


def _check_lemma1(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max}, a∈{{1,-1,2,1/2}}, series order {order}"
    e = e_lambda_series(1, order)
    for a in A_GRID:
        ea = e.scale(a)
        f = series_exp(ea - Series.const(a, order))  # e^{a·e_λ(t)} / e^a
        # powers of a·e_λ(t), reused across all n for this a
        powers = [Series.one(order)]
        for _ in range(n_max):
            powers.append(series_mul(powers[-1], ea))
        lhs = f
        for n in range(n_max + 1):
            bel_at_ea = Series.zero(order)
            for k, c in enumerate(tb.bell(n).coeffs):
                if not c.is_zero:
                    bel_at_ea = bel_at_ea + powers[k].scale(XPoly.const(c))
            rhs = series_mul(
                series_mul(binomial_power_series(LP_LAMBDA, -n, order), bel_at_ea), f
            )
            if lhs != rhs.truncate(lhs.order):
                return grid, _ce({"n": n, "a": a}, lhs, rhs.truncate(lhs.order))
            if n < n_max:
                lhs = lhs.derivative()
    return grid, None


def _check_eq17(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max}, a∈{{1,-1,2,1/2}}"
    for a in A_GRID:
        expr = ExpExpr.exp_x(a, 1)
        for n in range(n_max + 1):
            rhs = prop10_rhs(n, a, 1)
            if expr != rhs:
                return grid, _ce({"n": n, "a": a}, expr, rhs)
            expr = op_apply(expr)
    return grid, None


def _check_eq23(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (x=1, e-units)"
    expr = ExpExpr.exp_x(1, 1)
    for n in range(n_max + 1):
        lhs = eval_at_x1_in_e_units(expr)
        rhs = tb.bell_at_one(n)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
        expr = op_apply(expr)
    return grid, None


def _check_eq29(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=1..{n_max} (symbolic x)"
    for n in range(1, n_max + 1):
        lhs = tb.bell(n).derivative()
        rhs = XP_ZERO
        for m in range(n):
            rhs = rhs + tb.bell(m) * (_one_fall(n - m) * comb(n, m))
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_eq34(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max}"
    for n in range(n_max + 1):
        lhs = op_apply(ExpExpr.from_xpoly(tb.bell(n), x_lam=-n, exp_coeff=1))
        rhs = ExpExpr.from_xpoly(tb.bell(n + 1), x_lam=-(n + 1), exp_coeff=1)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_eq39(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n,k=0..{n_max} (zero cases n<k included)"
    for n in range(n_max + 1):
        for k in range(n_max + 1):
            lhs = tb.stirling2(n, k)
            rhs = stirling2_alt_sum(n, k)
            if lhs != rhs:
                return grid, _ce({"n": n, "k": k}, lhs, rhs)
    return grid, None


def _check_eq43(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max}, k=0..n (recurrence + basis-conversion anchor)"
    for n in range(n_max + 1):
        expanded = basis_expand(falling_deg(n), falling_classical)
        while len(expanded) < n + 1:
            expanded.append(LP_ZERO)
        for k in range(n + 1):
            lhs = tb.stirling2(n, k)
            if lhs != expanded[k]:
                return grid, _ce({"n": n, "k": k, "route": "basis"}, lhs, expanded[k])
        if n < n_max:
            for k in range(n + 2):
                lhs = tb.stirling2(n + 1, k)
                rhs = tb.stirling2(n, k - 1) + (
                    LambdaPoly((k,)) - LP_LAMBDA * n
                ) * tb.stirling2(n, k)
                if lhs != rhs:
                    return grid, _ce(
                        {"n": n + 1, "k": k, "route": "recurrence"}, lhs, rhs
                    )
    return grid, None


@lru_cache(maxsize=None)
def _bracket_by_basis(n: int) -> tuple[LambdaPoly, ...]:
    """[n k]_λ, k = 0..n, by basis elimination of ⟨x⟩_n: independent of the library."""
    expanded = basis_expand(rising_classical(n), rising_deg)
    return tuple(expanded) + (LP_ZERO,) * (n + 1 - len(expanded))


def _check_eq56(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max}, k=0..n (two bracket routes)"
    for n in range(n_max + 1):
        expanded = _bracket_by_basis(n)
        for k in range(n + 1):
            sign = 1 if (n - k) % 2 == 0 else -1
            lhs = stirling1_deg(n, k) * sign
            if lhs != expanded[k]:
                return grid, _ce({"n": n, "k": k}, lhs, expanded[k])
    return grid, None


def _check_eq57(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"series order {order} (symbolic x), plus ⟨x⟩_n/n! coefficient anchor"
    lhs = binomial_power_series(-1, -XP_X, order)
    rhs = series_compose(
        e_lambda_series(-XP_X, order), log_lambda_series(order).scale_t(-1)
    )
    if lhs != rhs:
        return grid, _ce({"order": order}, lhs, rhs)
    for n in range(order + 1):
        anchor = rising_classical(n) * Fraction(1, factorial(n))
        if lhs.coeff(n) != anchor:
            return grid, _ce({"n": n}, lhs.coeff(n), anchor)
    return grid, None


def _check_eq58(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        lhs = rising_classical(n)
        rhs = XP_ZERO
        for k in range(n + 1):
            sign = 1 if (n - k) % 2 == 0 else -1
            rhs = rhs + rising_deg(k) * (stirling1_deg(n, k) * sign)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_eq59(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"series order {order} (symbolic x)"
    lhs = _exp_xt(order)
    rhs = series_compose(bell_gf(order), log_lambda_series(order))
    if lhs != rhs:
        return grid, _ce({"order": order}, lhs, rhs)
    return grid, None


def _check_eq60(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max} (symbolic x)"
    for n in range(n_max + 1):
        lhs = XPoly.monomial(n)
        rhs = XP_ZERO
        for k in range(n + 1):
            sign = 1 if (n - k) % 2 == 0 else -1
            rhs = rhs + tb.bell(k) * (bracket_deg(n, k) * sign)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_eq61(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{n_max}, k=0..n+1"
    for n in range(n_max + 1):
        row = (LP_ZERO,) + _bracket_by_basis(n) + (LP_ZERO,)  # row[k] = [n, k-1]
        for k in range(n + 2):
            lhs = _bracket_by_basis(n + 1)[k]
            rhs = row[k] + (LambdaPoly((n,)) - LP_LAMBDA * k) * row[k + 1]
            if lhs != rhs:
                return grid, _ce({"n": n, "k": k}, lhs, rhs)
    return grid, None


def _check_eq12_vs_eq14(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"n=0..{min(n_max, order)}, series order {order}"
    gf = bell_gf(order)
    for n in range(min(n_max, order) + 1):
        lhs = tb.bell(n)
        rhs = gf.egf_coeff(n)
        if lhs != rhs:
            return grid, _ce({"n": n}, lhs, rhs)
    return grid, None


def _check_gf_log_roundtrip(n_max: int, order: int, tb: FamilyTables) -> CheckResult:
    grid = f"series order {order}, both compositions"
    e = e_lambda_series(1, order)
    log = log_lambda_series(order)
    forward = series_compose(e, log)
    one_plus_t = Series.one(order) + Series.t(order)
    if forward != one_plus_t:
        return grid, _ce({"direction": "e_λ∘log_λ"}, forward, one_plus_t)
    backward = series_compose(log, e - Series.one(order))
    t = Series.t(order)
    if backward != t:
        return grid, _ce({"direction": "log_λ∘(e_λ-1)"}, backward, t)
    return grid, None


# ----------------------------------------------------------------------
# Catalog
# ----------------------------------------------------------------------

CATALOG: dict[str, tuple[str, Checker]] = {
    "thm2": ("Bell-number recurrence at x=1", _check_thm2),
    "thm4": ("three-term recurrence via derivative", _check_thm4),
    "thm5": ("binomial recurrence with (1)_{n-m+1,λ}", _check_thm5),
    "remark6a": ("combined recurrence, weight (1)_{n-m,λ}(1-(n-m)λ)", _check_remark6a),
    "remark6b": ("n·Bel identity with weight (n-m)(1)_{n-m,λ}", _check_remark6b),
    "cor7": ("x·dBel/dx expansion", _check_cor7),
    "thm8": ("binomial convolution of Bel(x+y)", _check_thm8),
    "thm9": ("antiderivative via Bernoulli convolution", _check_thm9),
    "prop10": ("operator power on e^(a·x^p), λ→λ/p scaling", _check_prop10),
    "thm11-monomial": ("operator expansion on x^r", _check_thm11_monomial),
    "thm11-exp": ("operator expansion on e^x via k-fold D", _check_thm11_exp),
    "thm12": ("double-sum recurrence with telescoped factorial quotient", _check_thm12),
    "thm12-x1": ("x=1 specialization of the double-sum recurrence", _check_thm12_x1),
    "thm13": ("Bel(x)/Bel(-x) convolution identity", _check_thm13),
    "lemma1": ("n-th t-derivative of e^(a·e_λ(t))", _check_lemma1),
    "eq17": ("operator power on e^(a·x)", _check_eq17),
    "eq23": ("operator evaluation at x=1 in e-units", _check_eq23),
    "eq29": ("derivative of Bel as binomial sum", _check_eq29),
    "eq34": ("one-step promotion of x^(-nλ)Bel_n(x)e^x", _check_eq34),
    "eq39": ("alternating sum vs table, zero cases included", _check_eq39),
    "eq43": ("triangular recurrence + basis-conversion anchor", _check_eq43),
    "eq56": ("bracket = sign-flipped first kind, two routes", _check_eq56),
    "eq57": ("(1-t)^(-x) = e_λ^(-x)(log_λ(1-t))", _check_eq57),
    "eq58": ("⟨x⟩_n expanded in the deformed rising basis", _check_eq58),
    "eq59": ("Bell GF composed with log_λ gives e^(xt)", _check_eq59),
    "eq60": ("x^n via Bell polynomials and brackets", _check_eq60),
    "eq61": ("bracket triangular recurrence", _check_eq61),
    "eq12-vs-eq14": ("GF coefficients vs S₂ sums", _check_eq12_vs_eq14),
    "gf-log-roundtrip": ("e_λ and log_λ are compositional inverses", _check_gf_log_roundtrip),
}

#: Identities whose check compares truncated series, requiring order headroom.
SERIES_BASED: frozenset[str] = frozenset(
    {"lemma1", "eq57", "eq59", "eq12-vs-eq14", "gf-log-roundtrip"}
)

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
