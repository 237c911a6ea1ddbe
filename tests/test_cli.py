"""CLI contract: formats round-trip, exit codes hold, output is stable."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from click.testing import CliRunner

import degenbell
from degenbell import identities
from degenbell.cli import main
from degenbell.core import (
    lambda_poly_from_ascii,
    parse_rational,
    xpoly_from_ascii,
)
from degenbell.identities import CATALOG, FamilyTables
from degenbell.numbers import (
    MAX_DOBINSKI_TERMS,
    MAX_INDEX,
    bell_deg,
    bernoulli_deg,
    bracket_deg,
    stirling1_deg,
    stirling2_deg,
)
from degenbell.series import e_lambda_series, log_lambda_series, series_from_json


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args, **kwargs):
    result = runner.invoke(main, list(args), catch_exceptions=False, **kwargs)
    return result


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def test_table_stirling2_csv_round_trips(runner):
    result = invoke(runner, "table", "stirling2", "--n-max", "5", "--format", "csv")
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "k", "value"]
    for n_str, k_str, value in rows[1:]:
        parsed = lambda_poly_from_ascii(value)
        assert parsed == stirling2_deg(int(n_str), int(k_str))


def test_table_known_rows_appear(runner):
    out = invoke(runner, "table", "bell", "--n-max", "3", "--format", "csv").output
    assert "3,,2*lambda^2 - 6*lambda + 5" in out
    out = invoke(
        runner, "table", "stirling2", "--n-max", "2", "--lambda", "1/2", "--format", "csv"
    ).output
    assert "2,1,1/2" in out
    out = invoke(runner, "table", "bernoulli", "--n-max", "0", "--format", "csv").output
    assert out.splitlines()[1] == "0,,1"


def test_table_numeric_lambda_csv_round_trips(runner):
    result = invoke(
        runner, "table", "bracket", "--n-max", "6", "--lambda", "2/3", "--format", "csv"
    )
    for n_str, k_str, value in list(csv.reader(io.StringIO(result.output)))[1:]:
        assert parse_rational(value) == bracket_deg(int(n_str), int(k_str)).eval(
            Fraction(2, 3)
        )


def test_table_json_round_trips(runner):
    result = invoke(runner, "table", "stirling1", "--n-max", "5", "--format", "json")
    payload = json.loads(result.output)
    assert payload["family"] == "stirling1"
    assert payload["lambda"] == "sym"
    for entry in payload["entries"]:
        assert lambda_poly_from_ascii(entry["value"]) == stirling1_deg(
            entry["n"], entry["k"]
        )


def test_table_linear_families_leave_k_null(runner):
    payload = json.loads(
        invoke(runner, "table", "bernoulli", "--n-max", "4", "--format", "json").output
    )
    for entry in payload["entries"]:
        assert entry["k"] is None
        assert lambda_poly_from_ascii(entry["value"]) == bernoulli_deg(entry["n"])


def test_table_pretty_uses_unicode(runner):
    out = invoke(runner, "table", "bell", "--n-max", "3").output
    assert "bell(3) = 2λ² - 6λ + 5" in out


def test_table_rejects_unknown_family_and_float_lambda(runner):
    assert invoke(runner, "table", "nosuch").exit_code == 2
    assert invoke(runner, "table", "bell", "--lambda", "0.5").exit_code == 2
    assert invoke(runner, "table", "bell", "--n-max", "-1").exit_code == 2


def test_refusals_exit_2_with_one_line(runner):
    n, half = MAX_INDEX + 1, MAX_INDEX // 2
    for args, message in (
        (("table", "stirling2", "--n-max", n), f"--n-max {n} exceeds the limit {MAX_INDEX}"),
        (("eval", n, "--lambda", "0"), f"N {n} exceeds the limit {MAX_INDEX}"),
        (("verify", "all", "--n-max", half + 1), f"--n-max {half + 1} exceeds the limit {half}"),
        (("verify", "lemma1", "--n-max", 6, "--order", 3),
         "order must be ≥ n_max + 2 for series-based identities, got 3"),
        (("verify", "all", "--n-max", 28, "--order", 5),
         "order must be ≥ n_max + 2 for series-based identities, got 5"),
        (("verify", "nope", "--n-max", 2),
         f"unknown identity 'nope'; valid keys: {', '.join(CATALOG)}"),
        (("series", "elam", "--order", n), f"--order {n} exceeds the limit {MAX_INDEX}"),
        (("verify", "eq59", "--n-max", 2, "--order", n),
         f"--order {n} exceeds the limit {MAX_INDEX}"),
        (("eval", 10, "--x", 2, "--lambda", "1/3", "--dobinski-terms", MAX_DOBINSKI_TERMS + 1),
         f"{MAX_DOBINSKI_TERMS + 1} Dobinski terms exceed the limit {MAX_DOBINSKI_TERMS}"),
    ):
        result = invoke(runner, *map(str, args))
        assert result.exit_code == 2
        assert result.output == f"Error: {message}\n"


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

@pytest.mark.parametrize(
    "args,expected",
    [
        (("2", "--x", "1", "--lambda", "1/2"), "3/2"),
        (("3", "--x", "1", "--lambda", "1/3"), "29/9"),
        (("1", "--x", "5", "--lambda", "99/7"), "5"),
    ],
)
def test_eval_known_values(runner, args, expected):
    result = invoke(runner, "eval", *args)
    assert result.exit_code == 0
    assert result.output.strip() == expected


def test_eval_json_round_trips(runner):
    payload = json.loads(
        invoke(
            runner, "eval", "4", "--x", "3/2", "--lambda", "1/4", "--format", "json"
        ).output
    )
    value = parse_rational(payload["value"])
    assert value == bell_deg(4).eval(Fraction(3, 2), Fraction(1, 4))


def test_eval_dobinski_prints_both(runner):
    result = invoke(
        runner, "eval", "5", "--x", "2", "--lambda", "1/2", "--dobinski-terms", "60"
    )
    lines = result.output.splitlines()
    assert len(lines) == 2
    exact = parse_rational(lines[0])
    approx = float(lines[1].split("≈")[1])
    assert abs(float(exact) - approx) < 1e-9


def test_eval_dobinski_json_field(runner):
    payload = json.loads(
        invoke(
            runner, "eval", "5", "--x", "2", "--lambda", "1/2",
            "--dobinski-terms", "60", "--format", "json",
        ).output
    )
    assert payload["dobinski_terms"] == 60
    assert abs(payload["dobinski"] - float(parse_rational(payload["value"]))) < 1e-9


def test_eval_dobinski_certifies_large_x(runner):
    result = invoke(
        runner, "eval", "3", "--x", "30", "--lambda", "0", "--dobinski-terms", "200"
    )
    assert result.exit_code == 0
    exact, approx = result.output.splitlines()
    assert exact == "29730"
    assert abs(float(approx.split("≈")[1]) - 29730) < 1e-9


def test_eval_dobinski_refuses_too_few_terms_with_one_line(runner):
    for terms in ("10", "80"):
        result = invoke(
            runner, "eval", "3", "--x", "30", "--lambda", "0", "--dobinski-terms", terms
        )
        assert result.exit_code == 2
        assert result.output == (
            f"Error: {terms} Dobinski terms cannot certify 1e-9 at x = 30; use more terms\n"
        )


def test_eval_rejects_bad_input(runner):
    assert invoke(runner, "eval", "2", "--x", "1", "--lambda", "0.5").exit_code == 2
    assert invoke(runner, "eval", "-3", "--lambda", "1/2").exit_code == 2
    assert invoke(runner, "eval", "2", "--lambda", "1/2", "--x", "1e3").exit_code == 2
    # digits are ASCII only: an Arabic-Indic three is not 3
    assert invoke(runner, "eval", "3", "--lambda", "٣").exit_code == 2
    assert invoke(runner, "eval", "3", "--lambda", "1", "--x", "1/٣").exit_code == 2
    # Dobinski needs a positive evaluation point
    assert (
        invoke(
            runner, "eval", "2", "--x", "-1", "--lambda", "0", "--dobinski-terms", "9"
        ).exit_code
        == 2
    )


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_single_identity_passes(runner):
    result = invoke(runner, "verify", "eq39", "--n-max", "8")
    assert result.exit_code == 0
    assert result.output.startswith("PASS")


def test_verify_all_small_grid(runner):
    result = invoke(runner, "verify", "all", "--n-max", "2")
    assert result.exit_code == 0
    lines = [l for l in result.output.splitlines() if l.startswith("PASS")]
    assert len(lines) == 29


def test_verify_unknown_identity_exits_2(runner):
    result = invoke(runner, "verify", "nosuch")
    assert result.exit_code == 2
    assert "valid keys" in result.output


def test_verify_csv_and_json_agree(runner):
    as_json = json.loads(
        invoke(runner, "verify", "eq61", "--n-max", "4", "--format", "json").output
    )
    as_csv = list(
        csv.reader(
            io.StringIO(
                invoke(
                    runner, "verify", "eq61", "--n-max", "4", "--format", "csv"
                ).output
            )
        )
    )
    assert as_csv[0] == ["identity", "grid", "status", "params", "lhs", "rhs"]
    assert as_csv[1][0] == as_json[0]["identity"] == "eq61"
    assert as_csv[1][2] == as_json[0]["status"] == "pass"


def test_verify_failure_exits_1_with_counterexample(runner, monkeypatch):
    real = identities.verify_all

    def broken(n_max, order):
        return real(n_max, order, FamilyTables.with_bump(3, 2))

    monkeypatch.setattr(identities, "verify_all", broken)
    result = runner.invoke(main, ["verify", "all", "--n-max", "4"])
    assert result.exit_code == 1
    assert "FAIL" in result.output
    assert "lhs:" in result.output and "rhs:" in result.output


def test_default_orders(runner):
    """series defaults to DEFAULT_ORDER; verify leaves the order to the harness's n_max + 6."""
    out = invoke(runner, "series", "elam").output
    assert "t¹⁶" in out and "t¹⁷" not in out
    result = invoke(runner, "verify", "eq59", "--n-max", "4")
    assert result.exit_code == 0
    assert "order 10" in result.output


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

def test_series_pretty_known_prefix(runner):
    out = invoke(runner, "series", "loglam", "--order", "2").output.strip()
    assert out == "t + (λ - 1)·t²/2!"
    out = invoke(runner, "series", "elam", "--order", "0").output.strip()
    assert out == "1"


def test_series_json_round_trips(runner):
    result = invoke(runner, "series", "loglam", "--order", "6", "--format", "json")
    assert series_from_json(result.output) == log_lambda_series(6)
    result = invoke(runner, "series", "elam", "--order", "5", "--format", "json")
    assert series_from_json(result.output) == e_lambda_series(1, 5)


def test_series_csv_round_trips(runner):
    result = invoke(runner, "series", "bellgf", "--order", "5", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.output)))
    assert rows[0] == ["n", "value"]
    from degenbell.series import Series, series_exp
    from degenbell.core import XP_X

    gf = series_exp((e_lambda_series(1, 5) - Series.one(5)).scale(XP_X))
    for n_str, value in rows[1:]:
        assert xpoly_from_ascii(value) == gf.coeff(int(n_str))


def test_series_rejects_unknown_name(runner):
    assert invoke(runner, "series", "nosuch").exit_code == 2


# ----------------------------------------------------------------------
# determinism
# ----------------------------------------------------------------------

REPEATED_ARGS = [
    ("table", "stirling2", "--n-max", "6", "--format", "csv"),
    ("table", "bell", "--n-max", "6", "--format", "json"),
    ("eval", "7", "--x", "2/3", "--lambda", "1/5", "--format", "json"),
    ("verify", "eq43", "--n-max", "5", "--format", "json"),
    ("series", "bellgf", "--order", "6", "--format", "csv"),
]


@pytest.mark.parametrize("args", REPEATED_ARGS)
def test_repeated_runs_are_byte_identical(runner, args):
    first = invoke(runner, *args).output
    second = invoke(runner, *args).output
    assert first == second


def _subprocess_env(**extra: str) -> dict[str, str]:
    """The environment for a child interpreter that imports this checkout's degenbell."""
    src = os.path.dirname(os.path.dirname(degenbell.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return dict(os.environ, PYTHONPATH=path, PYTHONIOENCODING="utf-8", **extra)


@pytest.mark.parametrize("args", REPEATED_ARGS)
def test_output_does_not_depend_on_the_hash_seed(args):
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(
            [sys.executable, "-m", "degenbell.cli", *args],
            env=_subprocess_env(PYTHONHASHSEED=seed), capture_output=True, timeout=120,
            check=True,
        )
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]


def test_cli_import_leaves_the_harness_unloaded():
    """Only ``verify`` needs the identity harness and the operator calculus."""
    code = "import degenbell.cli, sys; print(*sorted(m for m in sys.modules if 'degenbell' in m))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = proc.stdout.split()
    assert "degenbell.cli" in loaded
    assert "degenbell.identities" not in loaded
    assert "degenbell.opcalc" not in loaded
