"""hamfix benchmark: cold CLI commands, the toric direction sweep, the splitting kernel.

Run from the repository root:

    python3 perfbench/run.py --workload cli|toric-sweep|splittings \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seconds S   # every workload, one table

With ``--trace 0`` the workload runs untraced for S seconds and reports the
end-to-end metrics. With ``--trace 1`` the benchmark makes its outside-in
layer trace instead (see ``trace_run``) and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the environment and the figures that are not gated.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

import tracer
import workloads
from workloads import CLI_COMMANDS, run_child

BENCH = Path(__file__).resolve().parent
CHILD = str(BENCH / "child.py")
WORKLOADS = ("cli", "toric-sweep", "splittings")

# Set-up is repeated in fresh processes and reported as the median.
SETUP_REPEATS = {"cli": 15, "toric-sweep": 3, "splittings": 15}


def percentile(values, q):
    """Nearest-rank percentile: a value that was measured, never interpolated."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def child_setup_times(workload, repeats):
    out = []
    for _ in range(repeats):
        _, status, stdout, stderr = run_child([CHILD, "setup", workload])
        if status != 0:
            raise RuntimeError(f"set-up child failed: {stderr.decode(errors='replace')}")
        out.append(float(stdout))
    return out


# ---------------------------------------------------------------------------
# timed runs
#
# A run is a closed loop of passes; a pass runs every op once, in an order
# shuffled by the seed, and passes repeat until the run's seconds are spent
# (the last one may stop part-way). The gated latency figures are
# best-of-passes: each op's fastest latency in the run, then the median and
# 90th percentile over the distinct ops, and the throughput of a pass made of
# those fastest latencies. On a
# shared machine a fixed CPU-bound loop was seen to slow by up to 70% for
# seconds to minutes at a time, with CPU time tracking wall time (contention
# for the core, not descheduling); the fastest repetition reads the program,
# not that contention. Pooled figures over every sample go to the detail line.


def run_passes(ops, run_op, seconds, seed):
    """(latencies per op, passes begun, failures, elapsed) of one closed loop.

    The first pass always runs whole, so every op has a sample; after it the
    clock is read before each op and the loop stops, mid-pass if need be, once
    the seconds are spent. ``run_op(op)`` returns (latency seconds, output
    correct).
    """
    rng = random.Random(seed)
    per_op = [[] for _ in ops]
    passes, failed = 0, 0
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        order = list(range(len(ops)))
        rng.shuffle(order)
        for i in order:
            if passes and time.perf_counter() - start >= seconds:
                break
            latency, ok = run_op(ops[i])
            per_op[i].append(latency)
            failed += not ok
        passes += 1
    return per_op, passes, failed, time.perf_counter() - start


def cli_ops(seed, seconds):
    expected = workloads.load_data("cli.json")
    workloads.warm_bytecode()
    setup = [run_child(["-c", "import hamfix"])[0] for _ in range(SETUP_REPEATS["cli"])]

    def run_op(name):
        wall, status, stdout, stderr = run_child(["-m", "hamfix.cli", *CLI_COMMANDS[name]])
        ok = workloads.check_cli(name, status, stdout, expected)
        if not ok:
            print(f"cli {name}: exit {status}, output differs from the snapshot\n"
                  f"{stderr.decode(errors='replace')}", file=sys.stderr)
        return wall, ok

    names = list(CLI_COMMANDS)
    per_op, passes, failed, elapsed = run_passes(names, run_op, seconds, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    detail = {f"{name}_s": statistics.median(w) for name, w in zip(names, per_op)}
    return setup, per_op, passes, failed, elapsed, rss_mb, detail


def inprocess_ops(workload, seed, seconds):
    workloads.warm_bytecode()
    if workload == "toric-sweep":
        expected = workloads.load_data("toric.json")
        t0 = time.perf_counter()
        rows, ops = workloads.setup_toric()
        setup = [time.perf_counter() - t0]

        def op_fn(op):
            return workloads.toric_op(op, rows)

        def check(op, got):
            return workloads.check_toric(op, got, expected)
    else:
        expected = workloads.load_data("splittings.json")
        t0 = time.perf_counter()
        ops = workloads.setup_splittings()
        setup = [time.perf_counter() - t0]
        op_fn = workloads.splitting_op

        def check(op, got):
            return workloads.check_splitting(op, got, expected)

    setup += child_setup_times(workload, SETUP_REPEATS[workload] - 1)

    def run_op(op):
        t = time.perf_counter()
        try:
            got = op_fn(op)
        except Exception as err:  # a crashing op is a failed op, not a crashed run
            print(f"{workload} op raised {err!r}", file=sys.stderr)
            return time.perf_counter() - t, False
        latency = time.perf_counter() - t
        ok = check(op, got)
        if not ok:
            print(f"{workload} op result differs from the snapshot", file=sys.stderr)
        return latency, ok

    per_op, passes, failed, elapsed = run_passes(ops, run_op, seconds, seed)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return setup, per_op, passes, failed, elapsed, rss_mb, {}


def timed_run(workload, seed, seconds):
    if workload == "cli":
        result = cli_ops(seed, seconds)
    else:
        result = inprocess_ops(workload, seed, seconds)
    setup, per_op, passes, failed, elapsed, rss_mb, detail = result
    best_ms = [min(samples) * 1000 for samples in per_op]
    pooled_ms = [x * 1000 for samples in per_op for x in samples]
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "ops_per_s": {"value": len(per_op) / (sum(best_ms) / 1000), "unit": "1/s"},
        "op_ms_p50": {"value": percentile(best_ms, 0.5), "unit": "ms"},
        "op_ms_p90": {"value": percentile(best_ms, 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }
    detail.update(
        distinct_ops=len(per_op),
        passes=passes,
        samples=len(pooled_ms),
        setup_samples=len(setup),
        error_rate=failed / len(pooled_ms),
        pooled_ops_per_s=len(pooled_ms) / elapsed,
        pooled_op_ms_p50=percentile(pooled_ms, 0.5),
        pooled_op_ms_p90=percentile(pooled_ms, 0.9),
    )
    return len(pooled_ms), failed, metrics, detail


# ---------------------------------------------------------------------------
# traced run


def _cli_pass(order, expected, spans_dir=None):
    """Wall time, failures and span records of one pass of cold commands."""
    wall_total, failed, records = 0.0, 0, []
    for name in order:
        if spans_dir is None:
            argv = ["-m", "hamfix.cli", *CLI_COMMANDS[name]]
        else:
            path = Path(spans_dir) / f"cli-{name}.json"
            argv = [CHILD, "cli", str(path), *CLI_COMMANDS[name]]
        wall, status, stdout, _ = run_child(argv)
        wall_total += wall
        failed += not workloads.check_cli(name, status, stdout, expected)
        if spans_dir is not None and path.exists():
            records.append(json.loads(path.read_text(encoding="utf-8")))
    return wall_total, failed, records


def _toric_unit(seed, spans_path=None):
    argv = [CHILD, "unit", str(seed)] + ([str(spans_path)] if spans_path else [])
    wall, status, stdout, stderr = run_child(argv)
    if status != 0:
        raise RuntimeError(f"toric-sweep unit failed: {stderr.decode(errors='replace')}")
    summary = json.loads(stdout)
    record = json.loads(Path(spans_path).read_text(encoding="utf-8")) if spans_path else None
    return wall, summary["attempted"], summary["failed"], record


def trace_run(seed):
    """The outside-in layer trace, the same for every workload.

    It runs one pass of the four cold commands through ``child.py cli`` and
    one cold toric-sweep unit (set-up with ``classify_all``, then one pass of
    the 364 ops) with the tracer installed, and the same two untraced, in
    that order. ``cli.*`` and ``classify4.*`` come from the command pass;
    every other layer metric comes from the toric-sweep unit, so its counts
    are those of exactly one ``classify_all`` and one sweep pass.
    """
    expected = workloads.load_data("cli.json")
    workloads.warm_bytecode()
    order = list(CLI_COMMANDS)
    random.Random(seed).shuffle(order)
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=workloads.ROOT) as spans_dir:
        plain_cli, failed_plain, _ = _cli_pass(order, expected)
        traced_cli, failed_traced, cli_records = _cli_pass(order, expected, spans_dir)
        plain_unit, n_plain, f_plain, _ = _toric_unit(seed)
        traced_unit, n_traced, f_traced, record = _toric_unit(
            seed, Path(spans_dir) / "toric-sweep.json"
        )
    metrics = tracer.engine_metrics(record)
    metrics.update(tracer.cli_metrics(cli_records))
    metrics["trace.overhead_s"] = (traced_cli + traced_unit) - (plain_cli + plain_unit)
    absent = sorted({a for r in [record, *cli_records] for a in r["absent"]})
    attempted = 2 * len(order) + n_plain + n_traced
    failed = failed_plain + failed_traced + f_plain + f_traced
    detail = {
        "traced_wall_s": traced_cli + traced_unit,
        "untraced_wall_s": plain_cli + plain_unit,
        "spans": len(record["spans"]) + sum(len(r["spans"]) for r in cli_records),
        "absent": absent,
        "error_rate": failed / attempted,
    }
    return attempted, failed, metrics, detail


def funnel_changes(metrics, seed_counts) -> list[str]:
    """Every exact count of the trace that differs from its stored seed value."""
    changes = []
    for name, want in seed_counts.items():
        got = metrics.get(name)
        if got != want:
            changes.append(f"{name}: {got} (seed {want})")
    return changes


# ---------------------------------------------------------------------------


def with_units(metrics: dict) -> dict:
    units = {m["name"]: m["unit"] for m in load_benchmark()["per_layer"]}
    return {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}


def load_benchmark() -> dict:
    with open(workloads.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def environment() -> dict:
    src_lines = sum(
        len(p.read_text(encoding="utf-8").splitlines())
        for p in sorted((workloads.SRC / "hamfix").glob("*.py"))
    )
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": src_lines,
    }


def run_all(seed, seconds) -> int:
    """Every workload in its own process, one table of every metric with its unit."""
    rows = []
    for workload in WORKLOADS:
        argv = [str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", "0"]
        _, status, stdout, stderr = run_child(argv, timeout=None)
        lines = stdout.decode().splitlines()
        if status != 0 or not lines:
            print(f"{workload}: failed\n{stderr.decode(errors='replace')}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        detail = json.loads(next(x for x in lines if x.startswith("detail: "))[8:])
        for name, m in result["metrics"].items():
            rows.append((workload, name, m["value"], m["unit"]))
        for name in ("classify6_s", "classify4_s", "tables_diff_s", "toric_verify_s"):
            if name in detail:
                rows.append((workload, name, detail[name], "s"))
        rows.append((workload, "error_rate", detail["error_rate"], "ratio"))
    for workload, name, value, unit in rows:
        print(f"{workload:12} {name:16} {value:14.6g} {unit}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not workloads.have_program():
        print(f"hamfix sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    if args.trace:
        attempted, failed, metrics, detail = trace_run(args.seed)
        detail["funnel_changes"] = funnel_changes(
            metrics, workloads.load_data("funnel_seed.json")
        )
        metrics = with_units(metrics)
    else:
        attempted, failed, metrics, detail = timed_run(args.workload, args.seed, args.seconds)
    print("env: " + json.dumps(environment()))
    print("detail: " + json.dumps(detail))
    for change in detail.get("funnel_changes", ()):
        print(f"funnel count changed: {change}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
