"""The cli workload's command space, its seeded corpora and their digests.

Every command in ``space()`` is a successful ``degenbell`` invocation (exit
code 0).  ``corpus(seed)`` draws a stratified sample from it: the same
number of commands per subcommand and, within each, per output format.
``cli_digests.json`` holds the SHA-256 of each command's stdout, recorded
from the unmodified source, so the benchmark can require byte-identical
output for any seed.

Re-record the digests, from the root of a checkout, with

    python3 perfbench/cli_corpus.py

which runs every command, checks its exit code, checks the csv and json
values of ``table``, ``eval`` and ``verify`` (and pretty ``eval``) against
``reference.py``, and only then writes the file.  Re-record only when a
change to the CLI's output is intended.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
DIGESTS = os.path.join(HERE, "cli_digests.json")

FORMATS = ("pretty", "csv", "json")
TABLE_FAMILIES = ("stirling1", "stirling2", "bracket", "bernoulli", "bell")
TABLE_N = (3, 5, 7)
TABLE_LAMBDA = ("sym", "0", "1/2", "-2/3")
EVAL_N = tuple(range(10))
EVAL_X = ("1", "2", "-3/2")
EVAL_LAMBDA = ("0", "1/2", "-2/3")
SERIES_NAMES = ("elam", "loglam", "bellgf", "bernoulligf")
SERIES_ORDER = (3, 5, 7)
VERIFY_IDS = ("thm2", "thm4", "cor7", "eq29", "eq39", "eq56", "eq61", "all")
VERIFY_N = (2, 3)
PER_FORMAT = 4  # commands per (subcommand, format) in one corpus


def space() -> dict[str, list[tuple[str, ...]]]:
    """Every command of the workload, grouped by subcommand."""
    return {
        "table": [
            ("table", fam, "--n-max", str(n), "--lambda", lam, "--format", fmt)
            for fam in TABLE_FAMILIES for n in TABLE_N for lam in TABLE_LAMBDA for fmt in FORMATS
        ],
        "eval": [
            ("eval", str(n), "--x", x, "--lambda", lam, "--format", fmt)
            for n in EVAL_N for x in EVAL_X for lam in EVAL_LAMBDA for fmt in FORMATS
        ],
        "series": [
            ("series", name, "--order", str(order), "--format", fmt)
            for name in SERIES_NAMES for order in SERIES_ORDER for fmt in FORMATS
        ],
        "verify": [
            ("verify", ident, "--n-max", str(n), "--format", fmt)
            for ident in VERIFY_IDS for n in VERIFY_N for fmt in FORMATS
        ],
    }


def corpus(seed: int) -> list[tuple[str, ...]]:
    """A shuffled, stratified sample of the space; the same seed gives the same list.

    ``verify all`` costs about twice any other command, so each format gets
    exactly one of it, keeping the corpus's total cost alike across seeds.
    """
    rng = random.Random(seed)
    picked: list[tuple[str, ...]] = []
    for commands in space().values():
        for fmt in FORMATS:
            same_fmt = [c for c in commands if c[-1] == fmt]
            heavy = [c for c in same_fmt if c[:2] == ("verify", "all")]
            light = [c for c in same_fmt if c not in heavy]
            n_heavy = 1 if heavy else 0
            picked += rng.sample(heavy, n_heavy) + rng.sample(light, PER_FORMAT - n_heavy)
    rng.shuffle(picked)
    return picked


def key(args: tuple[str, ...]) -> str:
    return " ".join(args)


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def load_digests() -> dict[str, str]:
    with open(DIGESTS, encoding="utf-8") as f:
        return json.load(f)


def child_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: the checkout's src first."""
    env = dict(os.environ)
    src = os.path.join(os.getcwd(), "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    env["PYTHONIOENCODING"] = "utf-8"
    return env


def cli_argv(args: tuple[str, ...]) -> list[str]:
    return [sys.executable, "-m", "degenbell.cli", *args]


# ----------------------------------------------------------------------
# Recording: value checks against the reference, then digests
# ----------------------------------------------------------------------

def _parse_ascii_poly(text: str) -> list[Fraction]:
    """Invert the CLI's ASCII λ-polynomial cells, e.g. ``2*lambda^2 - 6*lambda + 5``."""
    toks = text.split(" ")
    terms = [toks[0]] + [sign + term for sign, term in zip(toks[1::2], toks[2::2])]
    coeffs: dict[int, Fraction] = {}
    for term in terms:
        sign = -1 if term.startswith("-") else 1
        body = term.lstrip("+-")
        if "lambda" in body:
            head, _, power = body.partition("lambda")
            c = Fraction(head.rstrip("*")) if head else Fraction(1)
            p = int(power[1:]) if power else 1
        else:
            c, p = Fraction(body), 0
        coeffs[p] = coeffs.get(p, 0) + sign * c
    out = [coeffs.get(i, Fraction(0)) for i in range(max(coeffs) + 1)]
    while out and out[-1] == 0:
        out.pop()
    return out


def _expected_table_cell(family: str, n: int, k: int | None):
    import reference as ref

    if family == "stirling2":
        return ref.stirling2_rows(n)[n][k]
    if family == "stirling1":
        return ref.stirling1_rows(n)[n][k]
    if family == "bracket":
        return ref.bracket_rows(n)[n][k]
    if family == "bernoulli":
        return ref.bernoulli_polys(n)[n]
    return functools.reduce(ref.poly_add, ref.stirling2_rows(n)[n], [])  # Bel_n(1) = Σ_k S₂(n,k)


def _value_errors(args: tuple[str, ...], out: str) -> list[str]:
    """Mismatches between a command's csv/json values and the reference."""
    import reference as ref

    sub, fmt = args[0], args[-1]
    opts = dict(zip(args[2::2], args[3::2]))
    errors = []
    if sub == "verify":
        if fmt == "json":
            statuses = [r["status"] for r in json.loads(out)]
        elif fmt == "csv":
            statuses = [row[2] for row in list(csv.reader(out.splitlines()))[1:]]
        else:
            statuses = [line.split()[0].lower() for line in out.splitlines()]
        return [f"status {s}" for s in statuses if s != "pass"] or ([] if statuses else ["empty"])
    if sub == "eval":
        n, x, lam = int(args[1]), Fraction(opts["--x"]), Fraction(opts["--lambda"])
        if fmt == "json":
            got = Fraction(json.loads(out)["value"])
        elif fmt == "csv":
            got = Fraction(list(csv.reader(out.splitlines()))[1][3])
        else:
            got = Fraction(out.strip())
        want = ref.bell_value(ref.stirling2_rows(n)[n], x, lam)
        return [] if got == want else [f"eval {got} != {want}"]
    if sub == "table" and fmt != "pretty":
        family, lam = args[1], opts["--lambda"]
        if fmt == "json":
            rows = [(e["n"], e["k"], e["value"]) for e in json.loads(out)["entries"]]
        else:
            rows = list(csv.reader(out.splitlines()))[1:]
            rows = [(int(n), int(k) if k else None, v) for n, k, v in rows]
        if len(rows) != sum(n + 1 if family not in ("bernoulli", "bell") else 1
                            for n in range(int(opts["--n-max"]) + 1)):
            errors.append("row count")
        for n, k, cell in rows:
            want = _expected_table_cell(family, n, k)
            if lam == "sym":
                ok = _parse_ascii_poly(cell) == list(want)
            else:
                ok = Fraction(cell) == ref.poly_eval(want, Fraction(lam))
            if not ok:
                errors.append(f"({n},{k}) = {cell}")
    return errors


def record() -> None:
    sys.path.insert(0, HERE)
    env = child_env()
    digests = {}
    bad = 0
    for commands in space().values():
        for args in commands:
            proc = subprocess.run(cli_argv(args), env=env, capture_output=True)
            errors = [] if proc.returncode == 0 else [f"exit {proc.returncode}"]
            errors += _value_errors(args, proc.stdout.decode("utf-8"))
            if errors:
                bad += 1
                print(key(args), errors[:3], file=sys.stderr)
            digests[key(args)] = digest(proc.stdout)
    if bad:
        raise SystemExit(f"{bad} commands failed their checks; digests not written")
    with open(DIGESTS, "w", encoding="utf-8") as f:
        json.dump(digests, f, indent=0, sort_keys=True)
        f.write("\n")
    print(f"recorded {len(digests)} digests in {DIGESTS}")


if __name__ == "__main__":
    record()
