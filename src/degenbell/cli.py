"""Command-line front end: tables, point evaluation, series dumps, verification.

Exit codes are a stable contract: 0 on success (and on `verify` only when
every requested identity passes), 1 when a verification fails, 2 on any
usage or parse error.

Output is deterministic — identical invocations produce byte-identical
bytes on stdout.  Pretty output uses the unicode λ renderings; csv and
json cells use the ASCII expression forms from :mod:`degenbell.core`
(``lambda_poly_from_ascii`` / ``xpoly_from_ascii`` parse them back
exactly), except ``series --format json`` which emits the series-engine
JSON schema understood by :func:`degenbell.series.series_from_json`.

Each command loads only what it uses: the identity harness (and with it
the operator calculus) is imported inside ``verify``.
"""

from __future__ import annotations

import csv
import json
import sys
from fractions import Fraction

import click

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
from .numbers import (
    MAX_INDEX,
    bell_deg,
    bell_dobinski_numeric,
    bell_gf,
    bernoulli_deg,
    bernoulli_gf,
    bracket_deg,
    stirling1_deg,
    stirling2_deg,
)
from .series import DEFAULT_ORDER, Series, e_lambda_series, log_lambda_series, series_to_json

FORMATS = ("pretty", "csv", "json")
TRIANGULAR = {"stirling1": stirling1_deg, "stirling2": stirling2_deg, "bracket": bracket_deg}
LINEAR = {"bernoulli": bernoulli_deg, "bell": lambda n: bell_deg(n).eval_x(1)}
SERIES = {
    "elam": lambda order: e_lambda_series(1, order),
    "loglam": log_lambda_series,
    "bellgf": bell_gf,
    "bernoulligf": bernoulli_gf,
}


class RationalParam(click.ParamType):
    """Exact rational ``p/q`` or integer; floats are rejected."""

    name = "rational"

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value)
        except ValueError:
            self.fail(
                f"{value!r} is not an exact rational (use p/q; floats are rejected)",
                param,
                ctx,
            )


class LambdaParam(RationalParam):
    """Either the literal ``sym`` or an exact rational."""

    name = "lambda"

    def convert(self, value, param, ctx):
        if value == "sym":
            return "sym"
        return super().convert(value, param, ctx)


RATIONAL = RationalParam()
LAMBDA = LambdaParam()


def _refuse(message: str) -> click.ClickException:
    """An error that exits 2 with one ``Error:`` line on stderr."""
    error = click.ClickException(message)
    error.exit_code = 2
    return error


def _require_index(n: int, what: str, limit: int = MAX_INDEX) -> None:
    """Exit 2 with one ``Error:`` line when n exceeds the limit."""
    if n > limit:
        raise _refuse(f"{what} {n} exceeds the limit {limit}")


def _csv_writer():
    return csv.writer(sys.stdout, lineterminator="\n")


def _echo_json(payload) -> None:
    click.echo(json.dumps(payload, indent=2))


@click.group()
@click.version_option(version=__version__, prog_name="degenbell")
def main() -> None:
    """Exact degenerate Bell/Stirling calculator and identity checker."""


# ----------------------------------------------------------------------
# table
# ----------------------------------------------------------------------

@main.command()
@click.argument("family", type=click.Choice(sorted(TRIANGULAR) + sorted(LINEAR)))
@click.option("--n-max", type=click.IntRange(min=0), default=6, show_default=True)
@click.option("--lambda", "lam", type=LAMBDA, default="sym", show_default=True,
              help="'sym' for symbolic λ, or an exact rational like 1/2.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty",
              show_default=True)
def table(family: str, n_max: int, lam, fmt: str) -> None:
    """Print a number-family table up to N_MAX.

    Triangular families (stirling1, stirling2, bracket) list every (n, k)
    with k ≤ n; bernoulli and bell(1) are one value per n and leave the
    k column empty.
    """
    _require_index(n_max, "--n-max")
    rows: list[tuple[int, int | None, object]] = []
    if family in TRIANGULAR:
        fn = TRIANGULAR[family]
        for n in range(n_max + 1):
            for k in range(n + 1):
                rows.append((n, k, fn(n, k)))
    else:
        fn = LINEAR[family]
        for n in range(n_max + 1):
            rows.append((n, None, fn(n)))

    def cell(value) -> str:
        if lam == "sym":
            return lambda_poly_to_ascii(value)
        return format_rational(value.eval(lam))

    if fmt == "csv":
        w = _csv_writer()
        w.writerow(["n", "k", "value"])
        for n, k, value in rows:
            w.writerow([n, "" if k is None else k, cell(value)])
    elif fmt == "json":
        _echo_json(
            {
                "family": family,
                "lambda": "sym" if lam == "sym" else format_rational(lam),
                "n_max": n_max,
                "entries": [
                    {"n": n, "k": k, "value": cell(value)} for n, k, value in rows
                ],
            }
        )
    else:
        for n, k, value in rows:
            shown = lambda_poly_pretty(value) if lam == "sym" else format_rational(value.eval(lam))
            place = f"({n},{k})" if k is not None else f"({n})"
            click.echo(f"{family}{place} = {shown}")


# ----------------------------------------------------------------------
# eval
# ----------------------------------------------------------------------

@main.command("eval")
@click.argument("n", type=click.IntRange(min=0))
@click.option("--x", type=RATIONAL, default=Fraction(1), show_default="1",
              help="Evaluation point, exact rational.")
@click.option("--lambda", "lam", type=RATIONAL, required=True,
              help="Deformation parameter, exact rational.")
@click.option("--dobinski-terms", type=click.IntRange(min=1), default=None,
              metavar="K",
              help="Also print the K-term Dobinski-style float approximation.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty",
              show_default=True)
def eval_cmd(n: int, x: Rational, lam: Rational, dobinski_terms: int | None, fmt: str) -> None:
    """Evaluate Bel_{N,λ}(x) exactly."""
    _require_index(n, "N")
    value = bell_deg(n).eval(x, lam)
    approx: float | None = None
    if dobinski_terms is not None:
        try:
            approx = bell_dobinski_numeric(n, x, lam, terms=dobinski_terms)
        except ValueError as exc:
            raise _refuse(str(exc))

    if fmt == "csv":
        w = _csv_writer()
        header = ["n", "x", "lambda", "value"]
        row: list[object] = [n, format_rational(x), format_rational(lam), format_rational(value)]
        if approx is not None:
            header += ["dobinski_terms", "dobinski"]
            row += [dobinski_terms, repr(approx)]
        w.writerow(header)
        w.writerow(row)
    elif fmt == "json":
        payload = {
            "n": n,
            "x": format_rational(x),
            "lambda": format_rational(lam),
            "value": format_rational(value),
        }
        if approx is not None:
            payload["dobinski_terms"] = dobinski_terms
            payload["dobinski"] = approx
        _echo_json(payload)
    else:
        click.echo(format_rational(value))
        if approx is not None:
            click.echo(f"dobinski[{dobinski_terms} terms] ≈ {approx!r}")


# ----------------------------------------------------------------------
# verify
# ----------------------------------------------------------------------

@main.command("verify")
@click.argument("identity")
@click.option("--n-max", type=click.IntRange(min=1), default=6, show_default=True)
@click.option("--order", type=click.IntRange(min=0), default=None,
              help="Series truncation order for series-based identities "
                   "[default: n_max + 6].")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty",
              show_default=True)
def verify_cmd(identity: str, n_max: int, order: int | None, fmt: str) -> None:
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
        raise _refuse(str(exc))

    if fmt == "csv":
        w = _csv_writer()
        w.writerow(["identity", "grid", "status", "params", "lhs", "rhs"])
        for r in reports:
            ce = r.counterexample
            w.writerow(
                [r.identity, r.grid, r.status]
                + (["", "", ""] if ce is None else ["; ".join(ce.params), ce.lhs, ce.rhs])
            )
    elif fmt == "json":
        _echo_json([r.to_json_dict() for r in reports])
    else:
        for r in reports:
            click.echo(f"{r.status.upper():<5} {r.identity:<16} [{r.grid}]")
            if r.counterexample is not None:
                ce = r.counterexample
                click.echo(f"      at {', '.join(ce.params)}")
                click.echo(f"      lhs: {ce.lhs}")
                click.echo(f"      rhs: {ce.rhs}")
    if any(r.status != "pass" for r in reports):
        sys.exit(1)


# ----------------------------------------------------------------------
# series
# ----------------------------------------------------------------------

def _pretty_series(s: Series) -> str:
    parts: list[str] = []
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
        parts.append(term)
    return " + ".join(parts) if parts else "0"


@main.command("series")
@click.argument("which", type=click.Choice(list(SERIES)))
@click.option("--order", type=click.IntRange(min=0), default=DEFAULT_ORDER,
              show_default=True, help="Truncation order.")
@click.option("--format", "fmt", type=click.Choice(FORMATS), default="pretty",
              show_default=True)
def series_cmd(which: str, order: int, fmt: str) -> None:
    """Dump a truncated generating function.

    elam = e_λ(t); loglam = log_λ(1+t); bellgf = e^{x(e_λ(t)-1)};
    bernoulligf = t/(e_λ(t)-1).
    """
    _require_index(order, "--order")  # the t^n/n! coefficient is row n of a family
    s = SERIES[which](order)
    if fmt == "json":
        click.echo(series_to_json(s))
    elif fmt == "csv":
        w = _csv_writer()
        w.writerow(["n", "value"])
        for n in range(s.order + 1):
            w.writerow([n, xpoly_to_ascii(s.coeff(n))])
    else:
        click.echo(_pretty_series(s))


if __name__ == "__main__":
    main()
