"""CLI contract: formats round-trip, exit codes hold, output is stable."""

import csv
import io
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import degenbell
from degenbell import identities
from degenbell.core import (
    lambda_poly_from_ascii,
    parse_rational,
    xpoly_from_ascii,
)
from degenbell.cli import FORMATS, LINEAR, SERIES, TRIANGULAR, _csv_row
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

from cli_runner import invoke
from oracles import bell_deg_at


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

def test_table_stirling2_csv_round_trips():
    result = invoke("table", "stirling2", "--n-max", "60", "--format", "csv")
    assert result.exit_code == 0
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == ["n", "k", "value"]
    for n_str, k_str, value in rows[1:]:
        parsed = lambda_poly_from_ascii(value)
        assert parsed == stirling2_deg(int(n_str), int(k_str))


def test_table_known_rows_appear():
    out = invoke("table", "bell", "--n-max", "3", "--format", "csv").stdout
    assert "3,,2*lambda^2 - 6*lambda + 5" in out
    out = invoke("table", "stirling2", "--n-max", "2", "--lambda", "1/2", "--format", "csv").stdout
    assert "2,1,1/2" in out
    out = invoke("table", "bernoulli", "--n-max", "0", "--format", "csv").stdout
    assert out.splitlines()[1] == "0,,1"


def test_table_numeric_lambda_csv_round_trips():
    result = invoke("table", "bracket", "--n-max", "6", "--lambda", "2/3", "--format", "csv")
    for n_str, k_str, value in list(csv.reader(io.StringIO(result.stdout)))[1:]:
        assert parse_rational(value) == bracket_deg(int(n_str), int(k_str)).eval(
            Fraction(2, 3)
        )


def test_table_json_round_trips():
    result = invoke("table", "stirling1", "--n-max", "5", "--format", "json")
    payload = json.loads(result.stdout)
    assert payload["family"] == "stirling1"
    assert payload["lambda"] == "sym"
    for entry in payload["entries"]:
        assert lambda_poly_from_ascii(entry["value"]) == stirling1_deg(
            entry["n"], entry["k"]
        )


def test_table_linear_families_leave_k_null():
    payload = json.loads(
        invoke("table", "bernoulli", "--n-max", "200", "--format", "json").stdout
    )
    for entry in payload["entries"]:
        assert entry["k"] is None
        assert lambda_poly_from_ascii(entry["value"]) == bernoulli_deg(entry["n"])


def test_table_pretty_uses_unicode():
    out = invoke("table", "bell", "--n-max", "3").stdout
    assert "bell(3) = 2λ² - 6λ + 5" in out


def test_table_rejects_unknown_family_and_float_lambda():
    assert invoke("table", "nosuch").exit_code == 2
    assert invoke("table", "bell", "--lambda", "0.5").exit_code == 2
    assert invoke("table", "bell", "--n-max", "-1").exit_code == 2


def _one_error_line(stderr: str) -> bool:
    return stderr.startswith("Error: ") and stderr.endswith("\n") and stderr.count("\n") == 1


def test_refusals_exit_2_with_one_line():
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
        result = invoke(*args)
        assert result.exit_code == 2
        assert (result.stdout, result.stderr) == ("", f"Error: {message}\n")
    # usage errors that the parser finds give the same one line
    for args, part in (
        (("table", "nope"), "'nope'"),
        (("eval", -1, "--lambda", 0), "'-1'"),
        (("eval", 2), "--lambda"),
        (("verify", "eq39", "--n-max", 0), "'0'"),
        (("series", "nosuch"), "'nosuch'"),
        ((), "COMMAND"),
        (("table", "bell", "two\nlines"), "two lines"),
    ):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert _one_error_line(result.stderr) and part in result.stderr


# Each refusal stays under its byte limit; the unknown-identity one also lists the 29 keys.
@pytest.mark.parametrize("args, shown, limit", [
    (("eval", 3, "--x", "7" * 5000, "--lambda", "1/3"),
     "'77777777777777777777…' (5000 characters)", 200),
    (("eval", 3, "--x", "1 " * 3000, "--lambda", "1/3"),
     "'1 1 1 1 1 1 1 1 1 1 …' (6000 characters)", 200),
    (("table", "bell", "--n-max", "9" * 4000), "99999999999999999999… (4000 characters)", 200),
    (("table", "b" * 60), "'bbbbbbbbbbbbbbbbbbbb…' (60 characters)", 200),
    (("verify", "v" * 50), "'vvvvvvvvvvvvvvvvvvvv…' (50 characters)", 400),
    (("series", "elam", "u" * 45), "uuuuuuuuuuuuuuuuuuuu… (45 characters)", 200),
    (("eval", 3, "--x", "a" * 40, "--lambda", "1/3"), "'" + "a" * 40 + "'", 200),
    # Past int()'s 4,300 digits an index is refused as over the limit all the same.
    (("table", "bell", "--n-max", "1" * 5000),
     "--n-max 11111111111111111111… (5000 characters) exceeds the limit 200", 200),
    (("eval", "9" * 5000, "--lambda", "1/3"),
     "N 99999999999999999999… (5000 characters) exceeds the limit 200", 200),
    (("series", "elam", "--order", "2" * 5000),
     "--order 22222222222222222222… (5000 characters) exceeds the limit 200", 200),
])
def test_a_refusal_quotes_a_bounded_part_of_a_long_argument(args, shown, limit):
    """An argument over 40 characters shows its first 20, ``…`` and its length; a
    shorter one is echoed whole."""
    result = invoke(*args)
    assert (result.exit_code, result.stdout) == (2, "")
    assert _one_error_line(result.stderr)
    assert shown in result.stderr
    assert len(result.stderr.encode()) < limit


# Cells that csv quoting must get right: separators, quotes, line breaks, blanks.
ADVERSARIAL_CELLS = (
    "", " ", "plain", "a,b", ",", '"', 'say "hi"', '""', "two\nlines", "\n", "tab\there",
    "semi;colon", "x = 1, λ = 1/2", "2*lambda^2 - 1/2*lambda", "'quoted'", "back\\slash",
    "\u2028", "\x85", ' lead, "trail" ',
)


# Python 3.10's csv writer refuses NUL, so the drawn text holds none.
@given(st.lists(st.sampled_from(ADVERSARIAL_CELLS) | st.integers()
                | st.text(st.characters(blacklist_characters="\x00")), min_size=2, max_size=6))
def test_csv_rows_match_the_csv_module(cells):
    """``_csv_row`` writes a row as ``csv.writer(lineterminator="\\n")`` does, and it
    reads back; a carriage return, which csv leaves bare on some Pythons, is quoted."""
    line = _csv_row(*cells)
    assert next(csv.reader(io.StringIO(line, newline=""))) == [str(c) for c in cells]
    if not any("\r" in str(c) for c in cells):
        expected = io.StringIO()
        csv.writer(expected, lineterminator="\n").writerow(cells)
        assert line == expected.getvalue()
    else:
        assert all(('"' + str(c).replace('"', '""') + '"') in line for c in cells if "\r" in str(c))


@pytest.mark.parametrize(
    "args",
    [
        ("table", "stirling1", "--n-max", "3", "--lambda", "-2/3", "--format", "csv"),
        ("table", "--lambda", "-2/3", "stirling1", "--format", "csv", "--n-max", "3"),
        ("table", "stirling1", "--lambda=-2/3", "--n-max", "3", "--format", "csv"),
    ],
)
def test_negative_lambda_is_a_value_in_every_position(args):
    result = invoke(*args)
    assert (result.exit_code, result.stderr) == (0, "")
    rows = list(csv.reader(io.StringIO(result.stdout)))[1:]
    assert len(rows) == 10
    for n_str, k_str, value in rows:
        assert parse_rational(value) == stirling1_deg(int(n_str), int(k_str)).eval(
            Fraction(-2, 3)
        )


@pytest.mark.parametrize(
    "args",
    [
        ("eval", "3", "--x", "-3/2", "--lambda", "-2/3"),
        ("eval", "--x", "-3/2", "3", "--lambda", "-2/3"),
        ("eval", "--lambda", "-2/3", "--x", "-3/2", "3"),
        ("eval", "3", "--lambda=-2/3", "--x=-3/2"),
    ],
)
def test_negative_x_and_lambda_are_values_in_every_position(args):
    result = invoke(*args)
    assert (result.exit_code, result.stderr) == (0, "")
    assert parse_rational(result.stdout) == bell_deg(3).eval(Fraction(-3, 2), Fraction(-2, 3))


def test_option_names_are_matched_in_full():
    for args in (
        ("table", "bell", "--n", "3"),
        ("eval", "2", "--lam", "1/2"),
        ("series", "elam", "--ord", "3"),
        ("verify", "eq39", "--n-max", "2", "--form", "csv"),
    ):
        result = invoke(*args)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert _one_error_line(result.stderr)


def test_integer_arguments_take_ascii_digits_only():
    """An Arabic-Indic three and a digit-group underscore are refused, as parse_rational does."""
    for bad in ("٣", "1_0"):
        for args in (
            ("eval", bad, "--lambda", "1/2"),
            ("table", "bell", "--n-max", bad),
            ("verify", "eq39", "--n-max", bad),
            ("series", "elam", "--order", bad),
            ("verify", "eq39", "--n-max", "2", "--order", bad),
            ("eval", "2", "--lambda", "1/2", "--dobinski-terms", bad),
        ):
            result = invoke(*args)
            assert result.exit_code == 2
            assert result.stdout == ""
            assert _one_error_line(result.stderr) and repr(bad) in result.stderr


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
def test_eval_known_values(args, expected):
    result = invoke("eval", *args)
    assert result.exit_code == 0
    assert result.stdout.strip() == expected


def test_eval_json_round_trips():
    payload = json.loads(
        invoke("eval", "4", "--x", "3/2", "--lambda", "1/4", "--format", "json").stdout
    )
    value = parse_rational(payload["value"])
    assert value == bell_deg(4).eval(Fraction(3, 2), Fraction(1, 4))


def test_eval_dobinski_prints_both():
    result = invoke("eval", "5", "--x", "2", "--lambda", "1/2", "--dobinski-terms", "60")
    lines = result.stdout.splitlines()
    assert len(lines) == 2
    exact = parse_rational(lines[0])
    approx = float(lines[1].split("≈")[1])
    assert abs(float(exact) - approx) < 1e-9


def test_eval_dobinski_json_field():
    payload = json.loads(
        invoke(
            "eval", "5", "--x", "2", "--lambda", "1/2",
            "--dobinski-terms", "60", "--format", "json",
        ).stdout
    )
    assert payload["dobinski_terms"] == 60
    assert abs(payload["dobinski"] - float(parse_rational(payload["value"]))) < 1e-9


def test_eval_dobinski_certifies_large_x():
    result = invoke("eval", "3", "--x", "30", "--lambda", "0", "--dobinski-terms", "200")
    assert result.exit_code == 0
    exact, approx = result.stdout.splitlines()
    assert exact == "29730"
    assert abs(float(approx.split("≈")[1]) - 29730) < 1e-9


def test_eval_dobinski_refuses_too_few_terms_with_one_line():
    for terms in ("10", "80"):
        result = invoke("eval", "3", "--x", "30", "--lambda", "0", "--dobinski-terms", terms)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == (
            f"Error: {terms} Dobinski terms cannot certify 1e-9 at x = 30; use more terms\n"
        )


def test_eval_prints_exact_values_past_the_digit_limit():
    """Bel_{30,1/3}(10^150) has about 4,500 digits, more than the interpreter
    converts to text by default: it prints exactly, and the limit is the same
    after the command as before.  A --x past the limit is still refused."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)
    before = limit()
    result = invoke("eval", 30, "--x", 10**150, "--lambda", "1/3")
    assert (result.exit_code, limit()) == (0, before)
    expected = bell_deg_at(30, Fraction(10**150), Fraction(1, 3))
    if before is not None:
        assert invoke("eval", 3, "--x", "7" * 5000, "--lambda", "1/3").exit_code == 2
        sys.set_int_max_str_digits(0)
    try:
        assert result.stdout == f"{expected}\n"
    finally:
        if before is not None:
            sys.set_int_max_str_digits(before)


def test_eval_rejects_bad_input():
    assert invoke("eval", "2", "--x", "1", "--lambda", "0.5").exit_code == 2
    assert invoke("eval", "-3", "--lambda", "1/2").exit_code == 2
    assert invoke("eval", "2", "--lambda", "1/2", "--x", "1e3").exit_code == 2
    # digits are ASCII only: an Arabic-Indic three is not 3
    assert invoke("eval", "3", "--lambda", "٣").exit_code == 2
    assert invoke("eval", "3", "--lambda", "1", "--x", "1/٣").exit_code == 2
    # Dobinski needs a positive evaluation point
    assert (
        invoke("eval", "2", "--x", "-1", "--lambda", "0", "--dobinski-terms", "9").exit_code
        == 2
    )


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

def test_verify_single_identity_passes():
    result = invoke("verify", "eq39", "--n-max", "8")
    assert result.exit_code == 0
    assert result.stdout.startswith("PASS")


def test_verify_all_small_grid():
    result = invoke("verify", "all", "--n-max", "2")
    assert result.exit_code == 0
    lines = [l for l in result.stdout.splitlines() if l.startswith("PASS")]
    assert len(lines) == 29


def test_verify_unknown_identity_exits_2():
    result = invoke("verify", "nosuch")
    assert result.exit_code == 2
    assert "valid keys" in result.stderr


def test_verify_csv_and_json_agree():
    as_json = json.loads(
        invoke("verify", "eq61", "--n-max", "4", "--format", "json").stdout
    )
    as_csv = list(
        csv.reader(
            io.StringIO(
                invoke("verify", "eq61", "--n-max", "4", "--format", "csv").stdout
            )
        )
    )
    assert as_csv[0] == ["identity", "grid", "status", "params", "lhs", "rhs"]
    assert as_csv[1][0] == as_json[0]["identity"] == "eq61"
    assert as_csv[1][2] == as_json[0]["status"] == "pass"


def test_verify_failure_exits_1_with_counterexample(monkeypatch):
    real = identities.verify_all

    def broken(n_max, order):
        return real(n_max, order, FamilyTables.with_bump(3, 2))

    monkeypatch.setattr(identities, "verify_all", broken)
    result = invoke("verify", "all", "--n-max", "4")
    assert result.exit_code == 1
    assert "FAIL" in result.stdout
    assert "lhs:" in result.stdout and "rhs:" in result.stdout


def test_default_orders():
    """series defaults to DEFAULT_ORDER; verify leaves the order to the harness's n_max + 6."""
    out = invoke("series", "elam").stdout
    assert "t¹⁶" in out and "t¹⁷" not in out
    result = invoke("verify", "eq59", "--n-max", "4")
    assert result.exit_code == 0
    assert "order 10" in result.stdout


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

def test_series_pretty_known_prefix():
    out = invoke("series", "loglam", "--order", "2").stdout.strip()
    assert out == "t + (λ - 1)·t²/2!"
    out = invoke("series", "elam", "--order", "0").stdout.strip()
    assert out == "1"


def test_series_json_round_trips():
    result = invoke("series", "loglam", "--order", "6", "--format", "json")
    assert series_from_json(result.stdout) == log_lambda_series(6)
    result = invoke("series", "elam", "--order", "5", "--format", "json")
    assert series_from_json(result.stdout) == e_lambda_series(1, 5)


def test_series_csv_round_trips():
    result = invoke("series", "bellgf", "--order", "20", "--format", "csv")
    rows = list(csv.reader(io.StringIO(result.stdout)))
    assert rows[0] == ["n", "value"]
    from degenbell.series import Series, series_combination, series_exp
    from degenbell.core import XP_X

    gf = series_exp(series_combination([(XP_X, e_lambda_series(1, 20) - Series.one(20))], 20))
    for n_str, value in rows[1:]:
        assert xpoly_from_ascii(value) == gf.coeff(int(n_str))


def test_series_rejects_unknown_name():
    assert invoke("series", "nosuch").exit_code == 2


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
def test_repeated_runs_are_byte_identical(args):
    assert invoke(*args) == invoke(*args)


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


def _modules_added_by(statement: str) -> set[str]:
    """The modules a fresh interpreter loads while it runs ``statement``."""
    code = (
        f"import sys; before = set(sys.modules); {statement}; "
        "print(*sorted(set(sys.modules) - before), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=_subprocess_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    return set(proc.stderr.split())


def test_cli_import_leaves_the_harness_unloaded():
    """Each command loads only what it runs.

    Only ``verify`` needs the identity harness and the operator calculus, and
    only it and ``series`` the series engine; ``json`` loads for ``--format
    json`` alone.  The harness's report records need no ``dataclasses`` (nor
    the ``inspect`` it would bring).  Nor does the CLI load any third-party
    module: every module that ``import degenbell.cli`` adds is degenbell's own
    or the standard library's.
    """
    loaded = _modules_added_by("import degenbell.cli")
    assert "degenbell.cli" in loaded
    unneeded = {"degenbell.identities", "degenbell.opcalc", "degenbell.series", "json",
                "dataclasses", "click"}
    assert not loaded & unneeded
    third_party = [
        m for m in loaded
        if m.partition(".")[0] not in sys.stdlib_module_names | {"degenbell"}
    ]
    assert not third_party

    harness = _modules_added_by("import degenbell.identities")
    assert "degenbell.identities" in harness
    assert not harness & {"dataclasses", "inspect"}
    assert "degenbell.series" in _modules_added_by(
        "from degenbell import Series; assert Series.__module__ == 'degenbell.series'")

    for command in (["table", "bell", "--n-max", "3"], ["eval", "3", "--lambda", "1/2"]):
        for fmt in FORMATS:
            argv = [*command, "--format", fmt]
            loaded = _modules_added_by(f"from degenbell.cli import main; main({argv!r})")
            assert "degenbell.cli" in loaded
            assert "degenbell.series" not in loaded, argv
            assert ("json" in loaded) == (fmt == "json"), argv


def test_a_closed_stdout_exits_1_without_a_traceback():
    """``degenbell table stirling2 --n-max 40 | head -1``: 400 kB do not fit in the pipe."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "degenbell.cli", "table", "stirling2", "--n-max", "40"],
        env=_subprocess_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"stirling2(0,0) = 1\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert stderr == b""


# ----------------------------------------------------------------------
# the whole grammar
# ----------------------------------------------------------------------

# Indices at and around the lower caps, above the index cap and far above it.
# The cap itself (200) is left out: one successful run there costs 3–44 s.
INDICES = ("-1", "0", "1", "3", str(MAX_INDEX + 1), str(10**30))
RATIONAL_TEXT = (
    "sym", "0", "1/2", "-2/3", "-3/2", "0.5", "-1e3", "1/0", "", " ", "٣", "1/٣", "1_0",
    "junk", "-", "--", str(10**150), f"1/{10**150}",
)
NAMES = {
    "table": sorted(TRIANGULAR) + sorted(LINEAR) + ["nope"],
    "eval": list(INDICES) + ["2/3"],
    "verify": ["eq39", "thm2", "all", "nope"],
    "series": list(SERIES) + ["nope"],
    "nosuch": ["x"],
}
OPTIONS = {
    "table": {"--n-max": INDICES, "--lambda": RATIONAL_TEXT},
    "eval": {"--x": RATIONAL_TEXT, "--lambda": RATIONAL_TEXT, "--dobinski-terms": INDICES},
    "verify": {"--n-max": INDICES, "--order": INDICES},
    "series": {"--order": INDICES},
    "nosuch": {},
}
STRAY = ("--n", "--bogus", "extra", "two\nlines", "-1", "--", "-h", "--version", "--format")


@st.composite
def argvs(draw) -> list[str]:
    sub = draw(st.sampled_from(sorted(NAMES)))
    options = {**OPTIONS[sub], "--format": FORMATS + ("xml",)}
    words = [[draw(st.sampled_from(NAMES[sub]))]]
    for option, values in options.items():
        if draw(st.booleans()):
            words.append([option, draw(st.sampled_from(values))])
    words = draw(st.permutations(words))
    for token in draw(st.lists(st.sampled_from(STRAY), max_size=2)):
        words.insert(draw(st.integers(0, len(words))), [token])
    return [sub] + [word for group in words for word in group]


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_any_command_line_exits_0_1_or_2_with_one_error_line(argv):
    """No traceback; a refusal is one ``Error:`` line; csv and json output parse back."""
    result = invoke(*argv)
    assert result.exit_code in (0, 1, 2)
    assert "Traceback" not in result.stdout + result.stderr
    if result.exit_code == 2:
        assert _one_error_line(result.stderr), result.stderr
        assert result.stdout == ""
    if result.exit_code == 0:
        assert result.stderr == ""
        if "--format" in argv and not {"-h", "--version"} & set(argv):
            last = max(i for i, word in enumerate(argv) if word == "--format")
            _parse_back(argv[0], argv[last + 1], result.stdout)


def _parse_back(sub: str, fmt: str, out: str) -> None:
    """Read csv and json output back through the library's parsers."""
    if fmt == "json":
        payload = json.loads(out)
        if sub == "series":
            series_from_json(out)
        elif sub == "table":
            for entry in payload["entries"]:
                lambda_poly_from_ascii(entry["value"])
        elif sub == "eval":
            parse_rational(payload["value"])
    elif fmt == "csv":
        rows = list(csv.reader(io.StringIO(out)))[1:]
        for row in rows:
            if sub == "series":
                xpoly_from_ascii(row[1])
            elif sub == "table":
                lambda_poly_from_ascii(row[2])
            elif sub == "eval":
                parse_rational(row[3])
