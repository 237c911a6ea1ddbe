"""Command-line front end: tables, point evaluation, series dumps, verification.

Exit codes are a stable contract: 0 on success (and on `verify` only when
every requested identity passes), 1 when a verification fails or the reader
closes stdout early (``… | head``), 2 on any usage or parse error, with
exactly one ``Error:`` line on stderr.  The parser is ``argparse``: option
names are matched in full, ``--lambda -2/3`` is a value, and integers take
ASCII digits only, as :func:`degenbell.core.parse_rational` does.

Output is deterministic — identical invocations produce byte-identical
bytes on stdout.  Pretty output uses the unicode λ renderings; csv and
json cells use the ASCII expression forms from :mod:`degenbell.core`
(``lambda_poly_from_ascii`` / ``xpoly_from_ascii`` parse them back
exactly), except ``series --format json`` which emits the series-engine
JSON schema understood by :func:`degenbell.series.series_from_json`.

Each command loads only what it uses: the identity harness (and with it
the operator calculus and the series engine) is imported inside
``verify``, the series engine inside ``series``, and ``json`` only for
``--format json``.  ``table`` and ``eval`` run on the core types and the
family tables alone.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, Iterator, NoReturn

from . import __version__
from .core import (
    PRETTY,
    Rational,
    format_rational,
    lambda_poly_pretty,
    lambda_poly_to_ascii,
    parse_rational,
    xpoly_pretty,
    xpoly_to_ascii,
)
from .numbers import (MAX_INDEX, bell_deg, bell_dobinski_numeric, bell_gf, bernoulli_deg,
                      bernoulli_gf, bracket_deg, stirling1_deg, stirling2_deg)

if TYPE_CHECKING:
    from .series import Series

FORMATS = ("pretty", "csv", "json")
TRIANGULAR = {"stirling1": stirling1_deg, "stirling2": stirling2_deg, "bracket": bracket_deg}
LINEAR = {"bernoulli": bernoulli_deg, "bell": lambda n: bell_deg(n).eval_x(1)}
SERIES = ("elam", "loglam", "bellgf", "bernoulligf")
DEFAULT_ORDER = 16  # the series command's truncation order
_INTEGER_RE = re.compile(r"[+-]?[0-9]+")
# A quoted or bare word of more than 40 characters, such as a long argument in a refusal.
_LONG_WORD_RE = re.compile(
    r"'(?P<single>[^']{41,})'|\"(?P<double>[^\"]{41,})\"|(?P<bare>[^\s'\"]{41,})")
# A csv cell is quoted when it holds one of these.
_CSV_QUOTED_RE = re.compile(r'[,"\r\n]')


def _bounded(word: re.Match) -> str:
    """A long word as its first 20 characters, ``…`` and its length, in its quotes."""
    quote = "'" if word["single"] else '"' if word["double"] else ""
    text = word["single"] or word["double"] or word["bare"]
    return f"{quote}{text[:20]}…{quote} ({len(text)} characters)"


def _refuse(message: str) -> NoReturn:
    """Exit 2 with one ``Error:`` line on stderr, also when an argument quoted in it has
    one; an argument over 40 characters is shown by its start and its length."""
    message = _LONG_WORD_RE.sub(_bounded, " ".join(message.splitlines()))
    sys.stderr.write(f"Error: {message}\n")
    sys.exit(2)


def _index(minimum: int):
    """An argparse ``type=``: an integer of ASCII digits, at least ``minimum``."""

    def index(text: str) -> int:  # argparse names it in "invalid index value" on ValueError
        s = text.strip()
        n = _read_int(s) if _INTEGER_RE.fullmatch(s) else None
        if n is None or n < minimum:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer ≥ {minimum} (ASCII digits only)")
        return n

    return index


def _read_int(text: str) -> int:
    """Signed ASCII digits as their int, read 4,000 digits at a time: ``int()`` refuses
    over 4,300, and an over-long index must meet the limit check by its value."""
    digits, n = text.lstrip("+-"), 0
    for start in range(0, len(digits), 4000):
        piece = digits[start:start + 4000]
        n = n * 10 ** len(piece) + int(piece)
    return -n if text.startswith("-") else n


def _rational(text: str) -> Fraction:
    """An argparse ``type=``: an exact rational ``p/q`` or integer; floats are rejected."""
    try:
        return parse_rational(text)
    except ValueError:
        message = f"{text!r} is not an exact rational (use p/q; floats are rejected)"
        raise argparse.ArgumentTypeError(message) from None


def _lambda(text: str) -> Fraction | str:
    """An argparse ``type=``: the literal ``sym`` or an exact rational."""
    return "sym" if text == "sym" else _rational(text)


def _require_index(n: int, what: str, limit: int = MAX_INDEX) -> None:
    """Exit 2 with one ``Error:`` line when n exceeds the limit."""
    if n > limit:
        _refuse(f"{what} {n} exceeds the limit {limit}")


def _csv_row(*cells: object) -> str:
    """One csv line of the cells' ``str``, as ``csv.writer(lineterminator="\\n")`` writes a
    row of two or more: a cell that holds ``,``, ``"`` or a line break is quoted, its
    ``"`` doubled.  A carriage return is quoted on every Python, so the row reads back."""
    out = []
    for cell in cells:
        text = str(cell)
        if _CSV_QUOTED_RE.search(text):
            text = '"' + text.replace('"', '""') + '"'
        out.append(text)
    return ",".join(out) + "\n"


def _echo_json(payload) -> None:
    import json  # only --format json needs it
    print(json.dumps(payload, indent=2))


# -- table -------------------------------------------------------------

def table(family: str, n_max: int, lam, fmt: str) -> None:
    """Print a number-family table up to N_MAX.

    Triangular families (stirling1, stirling2, bracket) list every (n, k)
    with k ≤ n; bernoulli and bell(1) are one value per n and leave the
    k column empty.
    """
    _require_index(n_max, "--n-max")
    # Each row is built as it is printed, so csv and pretty output stream.
    if family in TRIANGULAR:
        fn = TRIANGULAR[family]
        rows = ((n, k, fn(n, k)) for n in range(n_max + 1) for k in range(n + 1))
    else:
        rows = ((n, None, LINEAR[family](n)) for n in range(n_max + 1))

    def cell(value, symbolic=lambda_poly_to_ascii) -> str:
        return symbolic(value) if lam == "sym" else format_rational(value.eval(lam))

    if fmt == "csv":
        sys.stdout.write(_csv_row("n", "k", "value"))
        for n, k, value in rows:
            sys.stdout.write(_csv_row(n, "" if k is None else k, cell(value)))
    elif fmt == "json":
        _echo_json({
            "family": family,
            "lambda": "sym" if lam == "sym" else format_rational(lam),
            "n_max": n_max,
            "entries": [{"n": n, "k": k, "value": cell(value)} for n, k, value in rows],
        })
    else:
        for n, k, value in rows:
            place = f"({n},{k})" if k is not None else f"({n})"
            print(f"{family}{place} = {cell(value, lambda_poly_pretty)}")


# -- eval --------------------------------------------------------------

def eval_cmd(n: int, x: Rational, lam: Rational, dobinski_terms: int | None, fmt: str) -> None:
    """Evaluate Bel_{N,λ}(x) exactly."""
    _require_index(n, "N")
    value = bell_deg(n).eval(x, lam)
    approx: float | None = None
    if dobinski_terms is not None:
        try:
            approx = bell_dobinski_numeric(n, x, lam, terms=dobinski_terms)
        except ValueError as exc:
            _refuse(str(exc))

    if fmt == "csv":
        header = ["n", "x", "lambda", "value"]
        row: list[object] = [n, format_rational(x), format_rational(lam), format_rational(value)]
        if approx is not None:
            header += ["dobinski_terms", "dobinski"]
            row += [dobinski_terms, repr(approx)]
        sys.stdout.write(_csv_row(*header) + _csv_row(*row))
    elif fmt == "json":
        payload = {"n": n, "x": format_rational(x), "lambda": format_rational(lam),
                   "value": format_rational(value)}
        if approx is not None:
            payload["dobinski_terms"] = dobinski_terms
            payload["dobinski"] = approx
        _echo_json(payload)
    else:
        print(format_rational(value))
        if approx is not None:
            print(f"dobinski[{dobinski_terms} terms] ≈ {approx!r}")


# -- verify ------------------------------------------------------------

def verify_cmd(identity: str, n_max: int, order: int | None, fmt: str) -> bool:
    """Check one catalog IDENTITY (or 'all') exactly over its grid."""
    _require_index(n_max, "--n-max", MAX_INDEX // 2)  # the grids read rows up to 2·n_max
    if order is not None:
        _require_index(order, "--order")  # the t^n/n! coefficient is row n of a family
    from .identities import verify, verify_all  # only this command needs the harness

    try:
        if identity == "all":
            reports = verify_all(n_max, order)
        else:
            reports = [verify(identity, n_max, order)]
    except ValueError as exc:
        _refuse(str(exc))

    if fmt == "csv":
        sys.stdout.write(_csv_row("identity", "grid", "status", "params", "lhs", "rhs"))
        for r in reports:
            ce = r.counterexample
            sys.stdout.write(_csv_row(
                r.identity, r.grid, r.status,
                *(["", "", ""] if ce is None else ["; ".join(ce.params), ce.lhs, ce.rhs]),
            ))
    elif fmt == "json":
        _echo_json([r.as_dict() for r in reports])
    else:
        for r in reports:
            print(f"{r.status.upper():<5} {r.identity:<16} [{r.grid}]")
            if r.counterexample is not None:
                ce = r.counterexample
                print(f"      at {', '.join(ce.params)}")
                print(f"      lhs: {ce.lhs}")
                print(f"      rhs: {ce.rhs}")
    return any(r.status != "pass" for r in reports)  # main exits 1


# -- series ------------------------------------------------------------

def _pretty_series(s: Series) -> Iterator[str]:
    """The nonzero terms of the pretty form, each as it is made."""
    for n in range(s.order + 1):
        c = s.egf_coeff(n)
        if c.is_zero:
            continue
        if c.degree == 0 and c.coeffs[0].degree == 0:
            scalar = c.coeffs[0].coeffs[0]
            coeff_part = "" if scalar == 1 and n > 0 else f"{format_rational(scalar)}·"
        else:
            body = xpoly_pretty(c) if c.degree > 0 else lambda_poly_pretty(c.coeffs[0])
            coeff_part = f"({body})·" if " " in body else f"{body}·"
        if n == 0:
            term = coeff_part.rstrip("·") or "1"
        else:
            term = coeff_part + PRETTY.power("t", n) + ("" if n == 1 else f"/{n}!")
        yield term


def series_cmd(which: str, order: int, fmt: str) -> None:
    """Dump a truncated generating function.

    elam = e_λ(t); loglam = log_λ(1+t); bellgf = e^{x(e_λ(t)-1)};
    bernoulligf = t/(e_λ(t)-1).
    """
    _require_index(order, "--order")  # the t^n/n! coefficient is row n of a family
    from .series import e_lambda_series, log_lambda_series, series_json_chunks
    s = {"elam": lambda n: e_lambda_series(1, n), "loglam": log_lambda_series,
         "bellgf": bell_gf, "bernoulligf": bernoulli_gf}[which](order)
    if fmt == "json":
        for chunk in series_json_chunks(s):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    elif fmt == "csv":
        sys.stdout.write(_csv_row("n", "value"))
        for n in range(s.order + 1):
            sys.stdout.write(_csv_row(n, xpoly_to_ascii(s.coeff(n))))
    else:
        sep = ""
        for term in _pretty_series(s):
            sys.stdout.write(sep + term)
            sep = " + "
        print("" if sep else "0")


# -- the parser --------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Full option names only, ``-2/3`` read as a value, usage errors as one ``Error:`` line."""

    def __init__(self, **kwargs) -> None:
        super().__init__(allow_abbrev=False, **kwargs)
        # argparse reads an argument that starts with '-' as an option unless
        # this matches it; a negative rational such as -2/3 is a value.
        self._negative_number_matcher = re.compile(r"-[0-9]")

    def error(self, message: str) -> NoReturn:
        _refuse(message)


def _parser() -> _Parser:
    parser = _Parser(prog="degenbell",
                     description="Exact degenerate Bell/Stirling calculator and identity checker.")
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(metavar="COMMAND", required=True)

    def command(name: str, run) -> _Parser:
        sub = commands.add_parser(name, help=run.__doc__.splitlines()[0], description=run.__doc__)
        sub.set_defaults(run=run)
        return sub

    sub = command("table", table)
    sub.add_argument("family", choices=sorted(TRIANGULAR) + sorted(LINEAR))
    sub.add_argument("--n-max", type=_index(0), default=6, help="(default: %(default)s)")
    sub.add_argument("--lambda", dest="lam", metavar="LAMBDA", type=_lambda, default="sym",
                     help="'sym' for symbolic λ, or an exact rational like 1/2 (default: sym).")
    sub = command("eval", eval_cmd)
    sub.add_argument("n", metavar="N", type=_index(0))
    sub.add_argument("--x", type=_rational, default=Fraction(1),
                     help="Evaluation point, exact rational (default: 1).")
    sub.add_argument("--lambda", dest="lam", metavar="LAMBDA", type=_rational, required=True,
                     help="Deformation parameter, exact rational.")
    sub.add_argument("--dobinski-terms", type=_index(1), metavar="K",
                     help="Also print the K-term Dobinski-style float approximation.")
    sub = command("verify", verify_cmd)
    sub.add_argument("identity", metavar="IDENTITY")
    sub.add_argument("--n-max", type=_index(1), default=6, help="(default: %(default)s)")
    sub.add_argument("--order", type=_index(0), help="Series truncation order for "
                     "series-based identities (default: n_max + 6).")
    sub = command("series", series_cmd)
    sub.add_argument("which", choices=SERIES)
    sub.add_argument("--order", type=_index(0), default=DEFAULT_ORDER,
                     help="Truncation order (default: %(default)s).")
    for sub in commands.choices.values():
        sub.add_argument("--format", dest="fmt", choices=FORMATS, default="pretty",
                         help="(default: %(default)s)")
    return parser


_PARSER = _parser()


def main(args: list[str] | None = None, prog_name: str | None = None,
         standalone_mode: bool = True) -> None:
    """Run one command on ``args`` (default ``sys.argv[1:]``); exit 1 or 2 on failure.

    ``prog_name`` and ``standalone_mode`` are ignored: the benchmark child
    (``perfbench/child.py``) passes them, as the click front end took them.
    """
    options = vars(_PARSER.parse_args(args))
    run = options.pop("run")
    # Parsed input keeps the interpreter's digit limit; exact results of any
    # size print (the limit and its setter exist from 3.10.7 on).
    digits = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digits is not None:
        sys.set_int_max_str_digits(0)
    try:
        failed = run(**options)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout (`… | head -1`): point it at devnull so the
        # interpreter's last flush cannot fail, and exit 1 without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    finally:
        if digits is not None:
            sys.set_int_max_str_digits(digits)
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
