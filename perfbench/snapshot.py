"""Record the benchmark's expected outputs from the program as it is now.

    python3 perfbench/snapshot.py

Writes under ``perfbench/data/``:

* ``cli.json``: exit status and exact stdout of each timed command;
* ``toric.json``: per (polytope, direction), the outcome and the degree;
* ``splittings.json``: the (lattice, total) inputs that reach
  ``component_splittings`` during ``classify_all``, with their splittings;
* ``funnel_seed.json``: the exact counts of the layer trace.

Run it only at a commit whose outputs are known to be right: every later
benchmark run is checked against these files.
"""

from __future__ import annotations

import json
import sys

import run
import workloads
from workloads import CLI_COMMANDS, DATA


def write(name, value) -> None:
    with open(DATA / name, "w", encoding="utf-8") as fh:
        json.dump(value, fh, indent=1, sort_keys=True)
        fh.write("\n")


def snapshot_cli() -> dict:
    out = {}
    for name, args in CLI_COMMANDS.items():
        _, status, stdout, _ = workloads.run_child(["-m", "hamfix.cli", *args])
        out[name] = {"argv": list(args), "exit": status, "stdout": stdout.decode("utf-8")}
    return out


def snapshot_splittings() -> list:
    """Inputs seen by component_splittings inside one cold classify_all."""
    workloads.use_source()
    from hamfix import classify6

    seen = []
    original = classify6.component_splittings

    def recording(lattice, total, *args, **kwargs):
        result = original(lattice, total, *args, **kwargs)
        seen.append({
            "kind": lattice.kind,
            "blowups": lattice.blowups,
            "total": list(total.coeffs),
            "splittings": sorted(
                [[list(c), g] for c, g in split]
                for split in workloads.splitting_set(result)
            ),
        })
        return result

    classify6.component_splittings = recording
    try:
        classify6.classify_all(strict=False)
    finally:
        classify6.component_splittings = original
    return seen


def snapshot_toric() -> dict:
    rows, ops = workloads.setup_toric()
    out = {}
    for op in ops:
        outcome, degree = workloads.toric_op(op, rows)
        out[workloads.toric_key(op)] = {"outcome": outcome, "degree": degree}
    return out


def main() -> int:
    DATA.mkdir(exist_ok=True)
    write("cli.json", snapshot_cli())
    write("splittings.json", snapshot_splittings())
    write("toric.json", snapshot_toric())
    attempted, failed, metrics, _ = run.trace_run(0)
    if failed:
        print(f"{failed} of {attempted} traced ops disagree with the snapshot", file=sys.stderr)
        return 1
    counts = {m["name"] for m in run.load_benchmark()["per_layer"] if m["unit"] == "count"}
    write("funnel_seed.json", {k: v for k, v in sorted(metrics.items()) if k in counts})
    return 0


if __name__ == "__main__":
    sys.exit(main())
