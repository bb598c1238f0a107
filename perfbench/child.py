"""Entry point of the benchmark's child processes.

    child.py cli SPANS ARG...     run ``hamfix ARG...`` with the tracer installed
    child.py setup WORKLOAD       time one cold set-up and print the seconds
    child.py unit SEED [SPANS]    toric-sweep set-up plus one pass, traced when
                                  SPANS is given; print {"attempted", "failed"}

Traced children write their spans to the file SPANS when they end.
"""

from __future__ import annotations

import json
import random
import sys
import time

import workloads
from tracer import Tracer

SETUPS = {"toric-sweep": workloads.setup_toric, "splittings": workloads.setup_splittings}


def traced_cli(spans_path: str, argv: list[str]) -> int:
    tracer = Tracer(f"cli {' '.join(argv)}")
    with tracer.span("cli.import"):
        workloads.use_source()
        import hamfix.cli
    tracer.install()
    try:
        return hamfix.cli.run(argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


def toric_unit(seed: int, spans_path: str | None) -> int:
    expected = workloads.load_data("toric.json")
    tracer = None
    if spans_path:
        tracer = Tracer(f"toric-sweep unit {seed}")
        workloads.use_source()
        import hamfix  # noqa: F401  (the tracer wraps loaded modules only)

        tracer.install()
    rows, ops = workloads.setup_toric()
    random.Random(seed).shuffle(ops)
    failed = 0
    for op in ops:
        if not workloads.check_toric(op, workloads.toric_op(op, rows), expected):
            failed += 1
    if tracer:
        tracer.dump(spans_path)
    print(json.dumps({"attempted": len(ops), "failed": failed}))
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return traced_cli(rest[0], rest[1:])
    if mode == "setup":
        start = time.perf_counter()
        SETUPS[rest[0]]()
        print(time.perf_counter() - start)
        return 0
    if mode == "unit":
        return toric_unit(int(rest[0]), rest[1] if len(rest) > 1 else None)
    print(f"unknown child mode {mode!r}", file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
