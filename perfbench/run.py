"""degenbell benchmark: whole runs as users make them, and a traced per-layer run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify|tables|query|cli \\
        [--seed N] [--seconds S] [--trace 0|1]

Workloads, each a closed loop with one client and nothing running
concurrently:

* verify -- ``verify_all(10, 16)``, one call per fresh interpreter.
* tables -- one cold build of the S₂, Bel, S₁, bracket and β tables per
  fresh interpreter.
* query  -- seeded point evaluations of Bel, brackets and β on tables
  built during set-up, in five fresh interpreters.
* cli    -- a seeded corpus of whole ``python -m degenbell.cli`` processes.

verify and tables ignore the seed.  With ``--trace 0`` the last stdout
line is a JSON object carrying the end-to-end metrics named in
BENCHMARK.json, times given at reference speed (see speed.py); with
``--trace 1`` it carries the per-layer metrics from one untraced and one
traced pass over the same fixed work.  The lines
before it state the workload's own figures (the tail percentile and its
sample count, the error rate) and the Python version, nproc and platform.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import cli_corpus
import speed

ROOT = os.getcwd()
CHILD = os.path.join(os.path.dirname(os.path.abspath(__file__)), "child.py")
WORKLOADS = ("verify", "tables", "query", "cli")
DEFAULT_SEED = 1
MIN_SETUPS = 9  # set-ups per run at least; setup_s is their median
QUERY_CHILDREN = 5  # query processes per run, each with its own warm-up
TRACE_QUERIES = 2000
TRACE_CLI_COMMANDS = 16
ENV = cli_corpus.child_env()


def spawn(workload: str, trace: bool, seed: int, work: str, cli_args=()) -> tuple[dict, bytes]:
    """Run one child.py process; return its report (with set-up times) and its stdout."""
    argv = [sys.executable, CHILD, workload, "1" if trace else "0", str(seed), work, *cli_args]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, env=ENV, capture_output=True)
    channel = proc.stderr if workload == "cli" else proc.stdout
    lines = channel.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(
            f"child {workload} exited {proc.returncode}:\n{proc.stderr.decode('utf-8', 'replace')}"
        )
    report = json.loads(lines[-1])
    report["setup_s"] = report["ready"] - start
    report["setup_ref_s"] = report["setup_s"] * report["setup_factor"]
    return report, proc.stdout


def tail(values: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(values)
    if n < 11:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


# ----------------------------------------------------------------------
# End-to-end runs (no tracing)
# ----------------------------------------------------------------------

def _add_setup(run: dict, report: dict) -> None:
    run["setups"].append(report["setup_s"])
    run["setups_ref"].append(report["setup_ref_s"])


def _tally(run: dict, report: dict) -> None:
    run["ops"] += report["op_s"]
    run["ops_ref"] += report["op_ref_s"]
    _add_setup(run, report)
    run["rss_kb"] = max(run["rss_kb"], report["rss_kb"])
    run["attempted"] += report["attempted"]
    run["failed"] += report["failed"]


def _empty_run() -> dict:
    return {"ops": [], "ops_ref": [], "setups": [], "setups_ref": [], "rss_kb": 0,
            "attempted": 0, "failed": 0}


def e2e_cold(workload: str, seed: int, seconds: float) -> dict:
    """verify / tables: one pass per fresh interpreter while another pass still fits."""
    run = _empty_run()
    start, pass_s = time.perf_counter(), 0.0
    while not run["ops"] or time.perf_counter() - start + pass_s <= seconds:
        t0 = time.perf_counter()
        _tally(run, spawn(workload, False, seed, "1")[0])
        pass_s = time.perf_counter() - t0
    while len(run["setups"]) < MIN_SETUPS:
        _add_setup(run, spawn(workload, False, seed, "0")[0])
    return run


def e2e_query(seed: int, seconds: float) -> dict:
    run = _empty_run()
    for i in range(QUERY_CHILDREN):
        budget = f"{seconds / QUERY_CHILDREN}s"
        _tally(run, spawn("query", False, seed * QUERY_CHILDREN + i, budget)[0])
    return run


def e2e_cli(seed: int, seconds: float) -> dict:
    """Whole CLI processes, cycling through the seeded corpus until the time is spent."""
    commands = cli_corpus.corpus(seed)
    digests = cli_corpus.load_digests()
    run = _empty_run()
    for _ in range(MIN_SETUPS):
        _add_setup(run, spawn("cli", False, seed, "0")[0])
    meter = speed.Speedometer()  # the CLI processes run on this process's core
    start = time.monotonic()
    try:
        while not run["ops"] or time.monotonic() - start < seconds:
            args = commands[len(run["ops"]) % len(commands)]
            t0 = time.monotonic()
            proc = subprocess.Popen(cli_corpus.cli_argv(args), cwd=ROOT, env=ENV,
                                    stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)  # reaps the process and gives its ru_maxrss
            proc.returncode = os.waitstatus_to_exitcode(status)
            t1 = time.monotonic()
            run["ops"].append(t1 - t0)
            run["ops_ref"].append((t1 - t0) * meter.factor(t0, t1))
            run["rss_kb"] = max(run["rss_kb"], usage.ru_maxrss)
            run["attempted"] += 1
            run["failed"] += (proc.returncode != 0
                              or cli_corpus.digest(out) != digests[cli_corpus.key(args)])
    finally:
        meter.stop()
    return run


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[dict, int, int, list[str]]:
    if workload == "query":
        run = e2e_query(seed, seconds)
    elif workload == "cli":
        run = e2e_cli(seed, seconds)
    else:
        run = e2e_cold(workload, seed, seconds)
    ops, ops_raw = run["ops_ref"], run["ops"]
    p50, p50_raw, n = statistics.median(ops), statistics.median(ops_raw), len(ops)
    metrics = {
        "setup_s": statistics.median(run["setups_ref"]),
        "peak_rss_mb": run["rss_kb"] / 1024,  # ru_maxrss is in KiB on Linux
        "op_p50_ms": p50 * 1e3,
        "op_per_s": n / sum(ops),
    }
    # Per-workload figures: at reference speed, then raw wall time.
    named = {
        "verify": [f"verify_s {p50:.4f} s (raw {p50_raw:.4f} s; median of {n} cold runs)"],
        "tables": [f"tables_s {p50:.4f} s (raw {p50_raw:.4f} s; median of {n} cold builds)"],
        "query": [f"query_per_s {metrics['op_per_s']:.1f} 1/s (raw {n / sum(ops_raw):.1f} 1/s)",
                  f"query_p50_us {p50 * 1e6:.1f} us (raw {p50_raw * 1e6:.1f} us)"],
        "cli": [f"cli_p50_ms {p50 * 1e3:.2f} ms (raw {p50_raw * 1e3:.2f} ms)"],
    }[workload]
    if workload in ("query", "cli"):
        unit, scale = ("us", 1e6) if workload == "query" else ("ms", 1e3)
        t, t_raw = tail(ops), tail(ops_raw)
        named.append(
            f"{workload}_tail_{unit} {t[1] * scale:.2f} {unit} (raw {t_raw[1] * scale:.2f} {unit};"
            f" p{t[0]:.3f} of n={n})"
            if t else f"{workload}_tail_{unit} n/a (n={n} < 11)"
        )
    error_rate = run["failed"] / run["attempted"]
    named += [
        f"setup_s {metrics['setup_s']:.4f} s (raw {statistics.median(run['setups']):.4f} s;"
        f" median of {len(run['setups'])})",
        f"peak_rss_mb {metrics['peak_rss_mb']:.2f} MB",
        f"error_rate {error_rate:.6g} ({run['failed']}/{run['attempted']})",
    ]
    return metrics, run["attempted"], run["failed"], named


# ----------------------------------------------------------------------
# Traced run: one untraced and one traced pass over the same fixed work
# ----------------------------------------------------------------------

def _merge(traces: list[dict]) -> dict:
    merged: dict = {"calls": {}, "self_s": {}, "total_s": {}}
    for tr in traces:
        for part, values in tr.items():
            for name, v in values.items():
                merged[part][name] = merged[part].get(name, 0) + v
    return merged


def traced(workload: str, seed: int) -> tuple[dict, dict, int, int]:
    """Returns the merged trace, the extra layer figures, attempted and failed."""
    extra = {"numbers.max_coeff_bits": 0, "cli.import_s": 0.0}
    attempted = failed = 0
    walls = {False: 0.0, True: 0.0}
    traces, imports = [], []
    if workload == "cli":
        digests = cli_corpus.load_digests()
        for trace in (False, True):
            for args in cli_corpus.corpus(seed)[:TRACE_CLI_COMMANDS]:
                report, out = spawn("cli", trace, seed, "1", args)
                walls[trace] += report["wall_ref_s"]
                attempted += 1
                failed += report["exit_code"] != 0 or cli_corpus.digest(out) != digests[cli_corpus.key(args)]
                if trace:
                    traces.append(report["trace"])
                    imports.append(report["import_s"])
        extra["cli.import_s"] = statistics.median(imports)
    else:
        work = str(TRACE_QUERIES) if workload == "query" else "1"
        for trace in (False, True):
            report, _ = spawn(workload, trace, seed, work)
            walls[trace] += report["wall_ref_s"]
            attempted += report["attempted"]
            failed += report["failed"]
            if trace:
                traces.append(report["trace"])
                extra["numbers.max_coeff_bits"] = report.get("max_coeff_bits", 0)
    extra["trace.overhead_s"] = walls[True] - walls[False]
    return _merge(traces), extra, attempted, failed


def layer_metric(name: str, trace: dict, extra: dict):
    if name in extra:
        return extra[name]
    span, _, field = name.rpartition(".")
    if field == "calls":
        return trace["calls"].get(span, 0)
    if field == "self_s":
        return trace["self_s"].get(span, 0.0)
    if name.startswith("identities.") and field == "s":
        return trace["total_s"].get(span, 0.0)
    raise KeyError(f"no measurement for per-layer metric {name!r}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "degenbell", "__init__.py")):
        print("perfbench: run from the root of a degenbell checkout (no src/degenbell here)",
              file=sys.stderr)
        return 2
    speed.pin_to_one_cpu()  # children inherit the pin, so speed samples share their core
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# python {platform.python_version()} nproc {os.cpu_count()} platform {platform.platform()}")
    if args.trace:
        trace, extra, attempted, failed = traced(args.workload, args.seed)
        metrics = {m["name"]: {"value": layer_metric(m["name"], trace, extra), "unit": m["unit"]}
                   for m in spec["per_layer"]}
        print(f"# error_rate {failed / attempted:.6g} ({failed}/{attempted})")
    else:
        values, attempted, failed, named = end_to_end(args.workload, args.seed, args.seconds)
        for line in named:
            print(f"# {line}")
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
