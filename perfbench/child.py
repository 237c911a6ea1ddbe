"""One benchmark child: a fresh interpreter for one unit of timed work.

run.py starts this from the checkout root as

    python3 perfbench/child.py WORKLOAD TRACE SEED WORK [CLI_ARG ...]

WORKLOAD is verify, tables, query or cli; TRACE is 0 or 1.  WORK is 0
for a set-up-only child.  Otherwise it is 1 for one verify or tables
pass, a query count ("2000") or a query budget in seconds ("4.0s"), or 1
for one in-process CLI command given by the CLI_ARGs.

The child imports only the standard library and speed.py before
degenbell and stamps ``time.monotonic()`` (CLOCK_MONOTONIC, system-wide on
Linux) when it is ready to time; run.py subtracts its own stamp taken just
before the spawn.  A speed.Speedometer runs from the first line, so every
duration is also reported at reference speed (the ``*_ref_s`` and
``setup_factor`` fields).  The child prints one JSON report as the last
line of stdout.  In the cli workload stdout carries the command's own
output, so the report goes to stderr instead.
"""

import json
import os
import resource
import sys
import time


_now = time.monotonic
T_START = _now()

import speed  # noqa: E402  (the speed samples must cover the imports below)

METER = speed.Speedometer()
WORKLOAD, TRACE, SEED, WORK = sys.argv[1], sys.argv[2] == "1", int(sys.argv[3]), sys.argv[4]
CLI_ARGS = sys.argv[5:]
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

# One cold tables pass builds S₂/Bel to 100, S₁/brackets to 32 and β to 28,
# which takes several seconds; the query warm-up builds smaller tables.
TABLES = {"stirling2": 100, "stirling1": 32, "bracket": 32, "bernoulli": 28}
QUERY = {"bell": 48, "bracket": 24, "bernoulli": 20}
FACTOR_WINDOW_S = 0.1  # a query's speed factor averages the samples of this long before it
VERIFY_ARGS = (10, 16)
CATALOG_SIZE = 29

if WORKLOAD == "cli":
    t_import = _now()
    import degenbell.cli as cli_mod
    import_s = _now() - t_import
else:
    from degenbell import identities, numbers  # imports the whole package

report: dict = {"attempted": 0, "failed": 0}


def _layer_targets(core, series, numbers, opcalc):
    lp, xp = vars(core.LambdaPoly), vars(core.XPoly)
    return [
        ("core.LambdaPoly.mul", lp["__mul__"]),
        ("core.LambdaPoly.mul", lp["__rmul__"]),
        ("core.LambdaPoly.add", lp["__add__"]),
        ("core.LambdaPoly.add", lp["__radd__"]),
        ("core.XPoly.mul", xp["__mul__"]),
        ("core.XPoly.mul", xp["__rmul__"]),
        ("core.XPoly.add", xp["__add__"]),
        ("core.XPoly.add", xp["__radd__"]),
        ("core.eval", lp["eval"]),
        ("core.eval", xp["eval"]),
        ("core.eval", xp["eval_x"]),
        ("core.render", core.lambda_poly_pretty),
        ("core.render", core.xpoly_pretty),
        ("core.render", core.lambda_poly_to_ascii),
        ("core.render", core.xpoly_to_ascii),
        ("core.render", core.format_rational),
        ("series.mul", series.series_mul),
        ("series.exp", series.series_exp),
        ("series.compose", series.series_compose),
        ("series.recip", series.series_recip_unit),
        ("numbers.stirling2", numbers.stirling2_deg),
        ("numbers.stirling1", numbers.stirling1_deg),
        ("numbers.bracket", numbers.bracket_deg),
        ("numbers.bernoulli", numbers.bernoulli_deg),
        ("numbers.bell", numbers.bell_deg),
        ("numbers.basis_expand", numbers.basis_expand),
        ("opcalc.op_apply", opcalc.op_apply),
    ]


def start_trace():
    from degenbell import core, identities, numbers, opcalc, series
    from spans import Tracer

    tracer = Tracer()
    tracer.install(_layer_targets(core, series, numbers, opcalc))
    tracer.wrap_catalog(identities.CATALOG)
    return tracer


def _max_coeff_bits(polys) -> int:
    bits = 0
    for p in polys:
        for c in p.coeffs:
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


def _same(got, want) -> bool:
    """Exact λ-polynomial equality against a reference coefficient list."""
    return tuple(got.coeffs) == tuple(want)


# ----------------------------------------------------------------------
# verify: verify_all(10, 16) from cold caches
# ----------------------------------------------------------------------

def run_verify():
    return identities.verify_all(*VERIFY_ARGS)


def _failed_reports(reports) -> int:
    return sum(r.status != "pass" for r in reports)


def check_verify(reports) -> None:
    report["attempted"] = CATALOG_SIZE
    report["failed"] = _failed_reports(reports) + abs(CATALOG_SIZE - len(reports))
    bumped = identities.verify("eq39", 5, tables=identities.FamilyTables.with_bump(3, 2))
    if _failed_reports([bumped]) != 1:
        raise SystemExit("gate self-check: a bumped S2 table passed eq39")


# ----------------------------------------------------------------------
# tables: one cold build of every family table through the public API
# ----------------------------------------------------------------------

def run_tables():
    n2, n1, nb, nbeta = TABLES.values()
    s2 = [[numbers.stirling2_deg(n, k) for k in range(n + 1)] for n in range(n2 + 1)]
    bell = [numbers.bell_deg(n) for n in range(n2 + 1)]
    s1 = [[numbers.stirling1_deg(n, k) for k in range(n + 1)] for n in range(n1 + 1)]
    br = [[numbers.bracket_deg(n, k) for k in range(n + 1)] for n in range(nb + 1)]
    beta = [numbers.bernoulli_deg(n) for n in range(nbeta + 1)]
    return s2, bell, s1, br, beta


def check_tables(tables) -> None:
    import reference as ref

    s2, bell, s1, br, beta = tables
    n2, n1, nb, nbeta = TABLES.values()
    ref_s2 = ref.stirling2_rows(n2)
    polys = []  # (library λ-polynomial, reference coefficient list)
    for got_rows, want_rows in ((s2, ref_s2), (s1, ref.stirling1_rows(n1)), (br, ref.bracket_rows(nb))):
        for got_row, want_row in zip(got_rows, want_rows):
            polys += zip(got_row, want_row)
    values = []  # (library value, reference value)
    for n, poly in enumerate(bell):
        values.append((len(poly.coeffs), n + 1))
        polys += zip(poly.coeffs, ref_s2[n])
    polys += zip(beta, ref.bernoulli_polys(nbeta))
    classical = ref.bernoulli_classical(nbeta)
    values += ((b.eval(0), classical[n]) for n, b in enumerate(beta))

    report["attempted"] = len(polys) + len(values)
    report["failed"] = sum(not _same(g, w) for g, w in polys) + sum(g != w for g, w in values)
    bumped = list(ref_s2[5][2])
    bumped[0] += 1
    if _same(s2[5][2], bumped):
        raise SystemExit("gate self-check: an S2 entry off by 1 was not caught")
    if TRACE:
        report["max_coeff_bits"] = _max_coeff_bits(
            [p for rows in (s2, s1, br) for row in rows for p in row] + beta
        )


# ----------------------------------------------------------------------
# query: seeded point evaluations on warm tables
# ----------------------------------------------------------------------

def warm_query_tables() -> list:
    """Build the tables the queries read; returns every λ-polynomial built."""
    polys = [c for n in range(QUERY["bell"] + 1) for c in numbers.bell_deg(n).coeffs]
    polys += [
        numbers.bracket_deg(n, k) for n in range(QUERY["bracket"] + 1) for k in range(n + 1)
    ]
    polys += [numbers.bernoulli_deg(n) for n in range(QUERY["bernoulli"] + 1)]
    return polys


def run_query() -> tuple[list, list]:
    """Seeded queries, each timed alone and checked against the reference."""
    import random
    from fractions import Fraction

    import reference as ref

    s2_rows = ref.stirling2_rows(QUERY["bell"])
    br_rows = ref.bracket_rows(QUERY["bracket"])
    beta = ref.bernoulli_polys(QUERY["bernoulli"])
    s2_at: dict = {}

    def expected(kind, n, k, x, lam):
        if kind == "bell":
            if (n, lam) not in s2_at:
                s2_at[n, lam] = [ref.poly_eval(p, lam) for p in s2_rows[n]]
            acc = Fraction(0)
            for v in reversed(s2_at[n, lam]):
                acc = acc * x + v
            return acc
        if kind == "bracket":
            return ref.poly_eval(br_rows[n][k], lam)
        return ref.poly_eval(beta[n], lam)

    rng = random.Random(SEED)
    budget = float(WORK[:-1]) if WORK.endswith("s") else None
    count = None if budget is not None else int(WORK)
    lat: list[float] = []
    lat_ref: list[float] = []
    failed = 0
    clock = _now  # the meter's clock
    start = clock()
    while len(lat) < count if budget is None else clock() - start < budget:
        kind = rng.choice(("bell", "bracket", "bernoulli"))
        n = rng.randint(0, QUERY[kind])
        k = rng.randint(0, n)
        x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        lam = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        t0 = clock()
        if kind == "bell":
            value = numbers.bell_deg(n).eval(x, lam)
        elif kind == "bracket":
            value = numbers.bracket_deg(n, k).eval(lam)
        else:
            value = numbers.bernoulli_deg(n).eval(lam)
        lat.append(clock() - t0)
        lat_ref.append(lat[-1] * METER.factor(t0 - FACTOR_WINDOW_S, t0))
        failed += value != expected(kind, n, k, x, lam)
    report["attempted"] = len(lat)
    report["failed"] = failed
    return lat, lat_ref


# ----------------------------------------------------------------------
# cli: one command run in-process.  Only the traced run uses this; the
# timed cli workload runs whole `python -m degenbell.cli` processes.
# ----------------------------------------------------------------------

def run_cli(tracer) -> int:
    import click

    main = cli_mod.main if tracer is None else tracer.span("cli.main", cli_mod.main)
    try:
        main(CLI_ARGS, prog_name="degenbell", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        exc.show()
        code = exc.exit_code
    sys.stdout.flush()
    return code


def _ready() -> None:
    report["ready"] = _now()
    report["setup_factor"] = METER.factor(T_START, report["ready"])


def main() -> None:
    out = sys.stderr if WORKLOAD == "cli" else sys.stdout
    if WORKLOAD == "cli":
        report["import_s"] = import_s
    if WORK == "0":
        if WORKLOAD == "query":
            warm_query_tables()
        _ready()
        METER.stop()
        print(json.dumps(report), file=out)
        return

    tracer = start_trace() if TRACE else None
    t0 = _now()
    if WORKLOAD == "query":
        built = warm_query_tables()
        _ready()
        report["op_s"], report["op_ref_s"] = run_query()
    else:
        _ready()
        a = _now()
        if WORKLOAD == "verify":
            result = run_verify()
        elif WORKLOAD == "tables":
            result = run_tables()
        else:
            report["exit_code"] = run_cli(tracer)
        b = _now()
        report["op_s"] = [b - a]
        report["op_ref_s"] = [(b - a) * METER.factor(a, b)]
    t1 = _now()
    report["wall_ref_s"] = (t1 - t0) * METER.factor(t0, t1)
    report["rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    METER.stop()
    if tracer is not None:
        tracer.restore()
        report["trace"] = {"calls": tracer.calls, "self_s": tracer.self_s, "total_s": tracer.total_s}

    if WORKLOAD == "verify":
        check_verify(result)
    elif WORKLOAD == "tables":
        check_tables(result)
    elif WORKLOAD == "query" and TRACE:
        report["max_coeff_bits"] = _max_coeff_bits(built)
    print(json.dumps(report), file=out)


if __name__ == "__main__":
    main()
