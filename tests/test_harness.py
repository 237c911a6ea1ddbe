"""The identity harness: catalog coverage, discrimination, reporting."""

import csv
import hashlib
import io
import json
from fractions import Fraction
from math import comb, factorial

import pytest

from degenbell.cli import _csv_row
from degenbell.core import LP_LAMBDA, LambdaPoly, XPoly, factorials
from degenbell.identities import (
    A_GRID,
    CATALOG,
    SERIES_BASED,
    Counterexample,
    FamilyTables,
    VerifyReport,
    _lemma1,
    _thm8,
    _thm12_rhs,
    binomial_power_series,
    verify,
    verify_all,
)
from degenbell.numbers import stirling2_deg
from degenbell.series import (
    Series,
    e_lambda_series,
    series_combination,
    series_exp,
    series_mul,
)

from oracles import stirling2_deg_rows


def test_catalog_has_the_full_roster():
    ids = list(CATALOG)
    assert len(ids) == 29
    assert len(set(ids)) == 29
    for key in ("thm2", "thm8", "lemma1", "prop10", "eq39", "eq43",
                "eq61", "eq12-vs-eq14", "gf-log-roundtrip"):
        assert key in ids


def test_verify_all_passes_on_a_small_grid():
    reports = verify_all(2, 6)
    assert [r.identity for r in reports] == list(CATALOG)
    assert all(r.status == "pass" for r in reports)
    assert all(r.counterexample is None for r in reports)


def test_every_report_names_its_grid():
    for r in verify_all(2, 6):
        assert str(2) in r.grid or "order" in r.grid


def test_unknown_identity_lists_valid_keys():
    with pytest.raises(ValueError, match="thm2.*eq39") as exc:
        verify("nosuch", 4)
    assert "nosuch" in str(exc.value)


def test_grid_floor_is_enforced():
    with pytest.raises(ValueError, match="n_max"):
        verify("thm2", 0)
    with pytest.raises(ValueError, match="n_max"):
        verify_all(0)


def test_series_identities_demand_order_headroom():
    for key in sorted(SERIES_BASED):
        with pytest.raises(ValueError, match="order"):
            verify(key, 6, order=7)
    # n_max + 2 is the documented floor and must be accepted
    assert verify("gf-log-roundtrip", 4, order=6).status == "pass"


class _UnreadTables(FamilyTables):
    """Tables that fail any check which reads them."""

    def stirling2(self, n, k):
        raise AssertionError("an identity ran before the arguments were checked")

    def bell(self, n):
        raise AssertionError("an identity ran before the arguments were checked")


def test_verify_all_refuses_before_any_identity_runs():
    with pytest.raises(ValueError, match="order must be ≥ n_max \\+ 2"):
        verify_all(28, 5, tables=_UnreadTables())
    with pytest.raises(ValueError, match="n_max"):
        verify_all(0, tables=_UnreadTables())


def test_double_index_identities_cap_their_own_grid():
    r = verify("thm12", 10, 12)
    assert "m,n=0..8" in r.grid
    r = verify("thm13", 3, 6)
    assert "m,n=0..3" in r.grid
    r = verify("prop10", 10)
    assert r.grid == "n=0..8, a∈{1,-1,2,1/2}, p∈{1,2,3}"
    r = verify("eq12-vs-eq14", 6, order=8)
    assert r.grid == "n=0..6, series order 8"


def test_default_order_is_nmax_plus_six():
    r = verify("eq59", 4)
    assert "order 10" in r.grid


def test_every_single_entry_bump_is_caught():
    """Perturbing any S_{2,λ}(n,k) with n ≤ 6 must break the catalog."""
    for n in range(7):
        for k in range(n + 1):
            tables = FamilyTables.with_bump(n, k)
            caught = any(
                verify(key, 6, tables=tables).status == "fail"
                for key in ("eq39", "eq43")
            )
            assert caught, f"bump at ({n},{k}) went unnoticed"


@pytest.fixture(scope="module")
def bump_reports() -> list[tuple[int, int, VerifyReport]]:
    """(n, k, report) for every +1 bump of S_{2,λ}(n,k) with n ≤ 5, at n_max 6."""
    return [
        (n, k, r)
        for n in range(6)
        for k in range(n + 1)
        for r in verify_all(6, tables=FamilyTables.with_bump(n, k))
    ]


def test_bump_outcomes_match_recorded_digest(bump_reports):
    """What each bump report decides, rendered sides left out, is pinned.

    The digest is the sha256 of the JSON list of (n, k, identity, status, grid,
    counterexample params) over the 21 × 29 reports.  A rewrite of a check that
    compares other but equivalent sides may change their text (the digest below),
    never which case fails first.
    """
    rows = [
        [n, k, r.identity, r.status, r.grid,
         None if r.counterexample is None else list(r.counterexample.params)]
        for n, k, r in bump_reports
    ]
    digest = hashlib.sha256(json.dumps(rows).encode()).hexdigest()
    assert digest == "e94b27dd9a170a7b198048817413bc1dca5842b8a30a7e48ec9fe4bc1ac7db59"


def test_bump_reports_match_recorded_digest(bump_reports):
    """Every report for every +1 bump with n ≤ 5, counterexample text included, is pinned.

    The digest is the sha256 of the sorted-key JSON of the 21 × 29 reports (420 of
    them failing), so a rewrite of any check that changes a grid, a parameter or a
    rendered side of a counterexample fails here.
    """
    reports = [r.as_dict() for _, _, r in bump_reports]
    assert len(reports) == 21 * 29
    assert sum(r["status"] == "fail" for r in reports) == 420
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "95fd7524fda71c3bbf978f7088ff3ab8597acab8fbde745db2b0574b5a493e1c"


def test_csv_rows_of_the_bump_reports_match_the_csv_module(bump_reports):
    """``verify --format csv`` rows, written by ``_csv_row``, are ``csv.writer``'s for
    every bump report, counterexamples with commas, quotes and unicode included."""
    for _, _, r in bump_reports:
        ce = r.counterexample
        cells = [r.identity, r.grid, r.status] + (
            ["", "", ""] if ce is None else ["; ".join(ce.params), ce.lhs, ce.rhs])
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerow(cells)
        assert _csv_row(*cells) == expected.getvalue(), r.identity


def test_lemma1_left_side_is_the_derivative_times_the_unit():
    """lemma1's gₙ is (1 + λt)ⁿ·f⁽ⁿ⁾ with f = e^{a·e_λ(t)}/eᵃ, for every a and n ≤ 6."""
    order = 12
    e = e_lambda_series(1, order)
    cases = _lemma1(6, order, FamilyTables())
    for a in A_GRID:
        deriv = series_exp(Series([c * a for c in (e - Series.one(order)).coeffs]))
        for n in range(7):
            params, lhs, _ = next(cases)
            assert params == {"n": n, "a": a}
            assert lhs == series_mul(binomial_power_series(LP_LAMBDA, n, order), deriv)
            deriv = Series(
                [deriv.coeff(k) * k for k in range(1, deriv.order + 1)], order=deriv.order - 1
            )


def test_every_single_entry_bump_fails_lemma1_at_the_bumped_n():
    for n in range(7):
        for k in range(n + 1):
            report = verify("lemma1", 6, tables=FamilyTables.with_bump(n, k))
            assert report.status == "fail", (n, k)
            assert report.counterexample.params == (f"n={n}", "a=1"), (n, k)


def test_thm8_sides_match_the_recurrence_oracle():
    """Both sides' y^j coefficient is Σ_i S_{2,λ}(n,i+j)·C(i+j,i)·xⁱ, S₂ by its recurrence."""
    rows = stirling2_deg_rows(6)
    for n, (params, lhs, rhs) in enumerate(_thm8(6, 12, FamilyTables())):
        assert params == {"n": n}
        for side in (lhs, rhs):
            assert side.order == n
            for j in range(n + 1):
                expected = [
                    tuple(c * comb(i + j, i) for c in rows[n][i + j]) for i in range(n - j + 1)
                ]
                assert [p.coeffs for p in side.coeff(j).coeffs] == expected, (n, j)
    assert n == 6


def _thm12_rhs_per_j(bell_egf: Series, m: int, weighted: list) -> Series:
    """Σ_j w_j·(bell_egf·EGF of (j - mλ)_{s,λ}), one product per j."""
    cap = bell_egf.order
    products = []
    for j, w in weighted:
        prefix = factorials(LambdaPoly((j, -m)), -LP_LAMBDA, cap)
        egf = Series(v * Fraction(1, factorial(s)) for s, v in enumerate(prefix))
        products.append((w, series_mul(bell_egf, egf)))
    return series_combination(products, cap)


def test_thm12_rhs_matches_the_per_j_sum():
    tb = FamilyTables()
    cap = 6
    for bell, weight in (
        (tb.bell, lambda j, s2: XPoly((0,) * j + (s2,))),
        (tb.bell_at_one, lambda j, s2: s2),
    ):
        bell_egf = Series(bell(k) * Fraction(1, factorial(k)) for k in range(cap + 1))
        for m in range(cap + 1):
            weighted = [
                (j, weight(j, s2)) for j in range(m + 1) if (s2 := tb.stirling2(m, j))
            ]
            assert _thm12_rhs(bell_egf, m, weighted) == _thm12_rhs_per_j(bell_egf, m, weighted)


def test_counterexamples_render_both_sides():
    tables = FamilyTables.with_bump(3, 2)
    report = verify("eq39", 6, tables=tables)
    assert report.status == "fail"
    ce = report.counterexample
    assert ce is not None
    assert ce.params == ("n=3", "k=2")
    assert ce.lhs == "4 - 3λ"
    assert ce.rhs == "3 - 3λ"


def test_mutation_propagates_into_derived_bell_identities():
    tables = FamilyTables.with_bump(4, 1)
    failures = [
        key
        for key in ("thm2", "thm4", "eq29", "eq39", "eq60")
        if verify(key, 5, tables=tables).status == "fail"
    ]
    assert failures, "perturbed Bell table should break a Bell identity"


def test_family_tables_defaults_delegate_to_the_library():
    tables = FamilyTables()
    assert tables.stirling2(4, 2) == stirling2_deg(4, 2)
    assert tables.bell(4).coeff(2) == stirling2_deg(4, 2)
    assert tables.bernoulli(0) == LambdaPoly((1,))


def test_bell_neg_flips_odd_coefficients():
    tables = FamilyTables()
    b = tables.bell(5)
    bn = tables.bell_neg(5)
    for j in range(6):
        assert bn.coeff(j) == b.coeff(j) * ((-1) ** j)


def test_report_json_round_trip():
    passing = verify("thm2", 3)
    failing = verify("eq39", 6, tables=FamilyTables.with_bump(2, 1))
    for report in (passing, failing):
        data = json.loads(json.dumps(report.as_dict()))
        ce = report.counterexample
        assert data == {
            "identity": report.identity,
            "grid": report.grid,
            "status": report.status,
            "counterexample": (
                None if ce is None else {"params": list(ce.params), "lhs": ce.lhs, "rhs": ce.rhs}
            ),
        }
    assert failing.counterexample is not None


def test_report_shapes():
    r = VerifyReport(
        identity="x",
        grid="g",
        status="fail",
        counterexample=Counterexample(params=("n=1",), lhs="a", rhs="b"),
    )
    d = json.loads(json.dumps(r.as_dict()))
    assert d == {
        "identity": "x",
        "grid": "g",
        "status": "fail",
        "counterexample": {"params": ["n=1"], "lhs": "a", "rhs": "b"},
    }
