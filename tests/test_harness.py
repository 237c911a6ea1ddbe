"""The identity harness: catalog coverage, discrimination, reporting."""

import hashlib
import json

import pytest

from degenbell.core import LambdaPoly
from degenbell.identities import (
    CATALOG,
    SERIES_BASED,
    Counterexample,
    FamilyTables,
    VerifyReport,
    verify,
    verify_all,
)
from degenbell.numbers import stirling2_deg


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


def test_bump_reports_match_recorded_digest():
    """Every report for every +1 bump with n ≤ 5, counterexample text included, is pinned.

    The digest is the sha256 of the sorted-key JSON of the 21 × 29 reports (420 of
    them failing), so a rewrite of any check that changes a grid, a parameter or a
    rendered side of a counterexample fails here.
    """
    reports = [
        r.to_json_dict()
        for n in range(6)
        for k in range(n + 1)
        for r in verify_all(6, tables=FamilyTables.with_bump(n, k))
    ]
    assert len(reports) == 21 * 29
    assert sum(r["status"] == "fail" for r in reports) == 420
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "3388ef9f3f5176a83ae1df35440f4254e15fb27b57df6b75a1bc561cee41f8f7"


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
        data = json.loads(json.dumps(report.to_json_dict()))
        assert data == report.to_json_dict()
        assert data["status"] == report.status


def test_report_shapes():
    r = VerifyReport(
        identity="x",
        grid="g",
        status="fail",
        counterexample=Counterexample(params=("n=1",), lhs="a", rhs="b"),
    )
    d = r.to_json_dict()
    assert d == {
        "identity": "x",
        "grid": "g",
        "status": "fail",
        "counterexample": {"params": ["n=1"], "lhs": "a", "rhs": "b"},
    }
