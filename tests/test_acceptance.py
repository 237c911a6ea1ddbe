"""Acceptance gate: eight criteria, one test (= one pass/fail line) each.

Every check is exact — rational/polynomial equality, no float comparisons
except the single Dobinski criterion whose tolerance is pinned at 1e-9.
Each criterion also asserts its own wall-clock budget.
"""

import csv
import io
import json
import time
from fractions import Fraction

from degenbell import identities
from degenbell.core import LambdaPoly, lambda_poly_from_ascii
from degenbell.identities import FamilyTables, stirling2_alt_sums, verify, verify_all
from degenbell.numbers import (
    bell_deg,
    bell_dobinski_numeric,
    bernoulli_deg,
    stirling1_deg,
    stirling2_deg,
)
from degenbell.opcalc import ExpExpr, eval_at_x1_in_e_units, op_power
from degenbell.series import series_from_json

from cli_runner import invoke
from oracles import bell_count, classical_bernoulli


def test_criterion_1_pinned_bell_values_by_three_routes():
    """Bel_{2,λ}(1) = 2-λ and Bel_{3,λ}(1) = 2λ²-6λ+5, three ways, < 1 s."""
    t0 = time.perf_counter()
    expected = {2: LambdaPoly((2, -1)), 3: LambdaPoly((5, -6, 2))}
    alt_sums = stirling2_alt_sums(12)  # k = 0..12 in every row: zero cases n < k included
    for n, target in expected.items():
        via_table = bell_deg(n).eval_x(1)
        via_alt_sum = sum(alt_sums[n], LambdaPoly(()))
        via_operator = eval_at_x1_in_e_units(op_power(ExpExpr.exp_x(1, 1), n))
        assert via_table == target
        assert via_alt_sum == target
        assert via_operator == target
    for n in range(13):
        assert sum(alt_sums[n], LambdaPoly(())) == bell_deg(n).eval_x(1), n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 1: pinned values via 3 routes ({elapsed:.3f}s < 1s)")


def test_criterion_2_lambda_zero_reduction_counts_partitions():
    """bell_deg(n)(1, λ=0) equals enumerated set-partition counts, n ≤ 8, < 5 s."""
    t0 = time.perf_counter()
    for n in range(9):
        enumerated = bell_count(n)  # counted by the brute-force oracle
        assert bell_deg(n).eval(1, 0) == enumerated, n
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 2: λ=0 set-partition reduction n≤8 ({elapsed:.3f}s < 5s)")


def test_criterion_3_bernoulli_reduces_to_classical():
    """β_{n,λ}|λ=0 = B_n for n ≤ 12, B_n from the inversion oracle, < 1 s."""
    t0 = time.perf_counter()
    classical = classical_bernoulli(12)
    for n in range(13):
        assert bernoulli_deg(n).eval(0) == classical[n], n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(f"PASS criterion 3: classical Bernoulli reduction n≤12 ({elapsed:.3f}s < 1s)")


def test_criterion_4_identity_suite_at_full_depth():
    """verify_all(n_max=10, order=16): 29 exact passes, < 120 s."""
    t0 = time.perf_counter()
    reports = verify_all(10, 16)
    elapsed = time.perf_counter() - t0
    assert len(reports) == 29
    failures = [r for r in reports if r.status != "pass"]
    assert not failures, [(r.identity, r.counterexample) for r in failures]
    assert elapsed < 120.0
    print(f"PASS criterion 4: 29/29 identities at n_max=10 ({elapsed:.2f}s < 120s)")


def test_criterion_5_dobinski_numeric_accuracy():
    """|dobinski(n,x,λ,80) − exact| < 1e-9 over the pinned grid, < 1 s."""
    t0 = time.perf_counter()
    worst = 0.0
    for n in range(11):
        for x in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for lam in (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1)):
                approx = bell_dobinski_numeric(n, x, lam, 80)
                exact = float(bell_deg(n).eval(x, lam))
                worst = max(worst, abs(approx - exact))
    assert worst < 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"PASS criterion 5: Dobinski worst error {worst:.2e} < 1e-9 "
        f"({elapsed:.3f}s < 1s)"
    )


def test_criterion_6_stirling_inversion():
    """Σ_j S_{1,λ}(n,j)·S_{2,λ}(j,k) = δ_{n,k} for n,k ≤ 12, < 5 s."""
    t0 = time.perf_counter()
    one = LambdaPoly((1,))
    zero = LambdaPoly(())
    for n in range(13):
        for k in range(13):
            total = zero
            for j in range(min(n, 12) + 1):
                total = total + stirling1_deg(n, j) * stirling2_deg(j, k)
            assert total == (one if n == k else zero), (n, k)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0
    print(f"PASS criterion 6: Stirling inversion δ up to 12 ({elapsed:.2f}s < 5s)")


def test_criterion_7_mutation_sensitivity():
    """Every +1 bump of a single S_{2,λ}(n,k), n ≤ 6, breaks the catalog
    with a rendered counterexample, < 60 s total."""
    t0 = time.perf_counter()
    bumps = 0
    for n in range(7):
        for k in range(n + 1):
            bumps += 1
            tables = FamilyTables.with_bump(n, k)
            failing = None
            for key in ("eq39", "eq43", "thm2", "eq60"):
                report = verify(key, 6, tables=tables)
                if report.status == "fail":
                    failing = report
                    break
            assert failing is not None, f"bump at ({n},{k}) not caught"
            ce = failing.counterexample
            assert ce is not None and ce.lhs and ce.rhs and ce.params
    elapsed = time.perf_counter() - t0
    assert bumps == 28
    assert elapsed < 60.0
    print(
        f"PASS criterion 7: all {bumps} single-entry bumps caught "
        f"({elapsed:.2f}s < 60s)"
    )


def test_criterion_8_cli_contract(monkeypatch):
    """Round-trippable CSV/JSON, exit codes 0/1/2, byte-identical reruns."""
    t0 = time.perf_counter()
    # exit 0 + CSV that parses back to the exact table
    table = invoke("table", "stirling2", "--n-max", "6", "--format", "csv")
    assert table.exit_code == 0
    for n_str, k_str, value in list(csv.reader(io.StringIO(table.stdout)))[1:]:
        assert lambda_poly_from_ascii(value) == stirling2_deg(int(n_str), int(k_str))

    # JSON series dump parses back to an equal Series
    series = invoke("series", "bernoulligf", "--order", "8", "--format", "json")
    assert series.exit_code == 0
    from degenbell.numbers import bernoulli_gf

    assert series_from_json(series.stdout) == bernoulli_gf(8)

    # verify: pass → 0, corrupted tables → 1, unknown id → 2
    ok = invoke("verify", "eq61", "--n-max", "6")
    assert ok.exit_code == 0
    real = identities.verify_all
    monkeypatch.setattr(
        identities,
        "verify_all",
        lambda n, o: real(n, o, FamilyTables.with_bump(2, 1)),
    )
    bad = invoke("verify", "all", "--n-max", "3")
    assert bad.exit_code == 1
    monkeypatch.undo()
    usage = invoke("verify", "definitely-not-a-key")
    assert usage.exit_code == 2

    # byte-identical reruns
    for args in (
        ["table", "bell", "--n-max", "5", "--format", "json"],
        ["series", "bellgf", "--order", "7", "--format", "csv"],
        ["verify", "eq39", "--n-max", "6", "--format", "json"],
    ):
        assert invoke(*args) == invoke(*args)

    elapsed = time.perf_counter() - t0
    print(f"PASS criterion 8: CLI round-trips and exit codes ({elapsed:.2f}s)")
