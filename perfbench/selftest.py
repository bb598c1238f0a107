"""Self-test of the benchmark's checks: a corrupted expectation must be caught.

    python3 perfbench/selftest.py

For each workload it runs a few real operations, checks them against the
snapshot (they must pass) and against a copy with one expectation altered
(they must fail). It does the same for the funnel-count comparison. Exits 0
only if every corruption is caught and every true expectation holds.
"""

from __future__ import annotations

import copy
import sys

import run
import workloads
from workloads import CLI_COMMANDS


def check_cli(results) -> None:
    expected = workloads.load_data("cli.json")
    _, status, stdout, _ = workloads.run_child(["-m", "hamfix.cli", *CLI_COMMANDS["classify4"]])
    bad_text = copy.deepcopy(expected)
    bad_text["classify4"]["stdout"] = bad_text["classify4"]["stdout"].replace("0", "1", 1)
    bad_exit = copy.deepcopy(expected)
    bad_exit["classify4"]["exit"] = 1
    results.append(("cli snapshot holds", workloads.check_cli("classify4", status, stdout, expected)))
    results.append(("cli stdout corruption caught",
                    not workloads.check_cli("classify4", status, stdout, bad_text)))
    results.append(("cli exit corruption caught",
                    not workloads.check_cli("classify4", status, stdout, bad_exit)))


def check_toric(results) -> None:
    expected = workloads.load_data("toric.json")
    rows, ops = workloads.setup_toric()
    by_outcome = {}
    for op in ops:
        outcome = expected[workloads.toric_key(op)]["outcome"]
        kind = outcome if outcome in (workloads.NOT_SEMIFREE, "NoMatchingTFD") else "matched"
        by_outcome.setdefault(kind, op)
    for kind, op in sorted(by_outcome.items()):
        key = workloads.toric_key(op)
        got = workloads.toric_op(op, rows)
        results.append((f"toric {kind} snapshot holds", workloads.check_toric(op, got, expected)))
        bad = copy.deepcopy(expected)
        if kind == "matched":
            bad[key]["degree"] += 2
        else:
            bad[key]["outcome"] = "II-3.3"
        results.append((f"toric {kind} corruption caught",
                        not workloads.check_toric(op, got, bad)))


def check_splittings(results) -> None:
    expected = workloads.load_data("splittings.json")
    ops = workloads.setup_splittings()
    op = next(op for op in ops if expected[op[0]]["splittings"] and op[1].rank <= 2)
    got = workloads.splitting_op(op)
    results.append(("splittings snapshot holds", workloads.check_splitting(op, got, expected)))
    bad = copy.deepcopy(expected)
    bad[op[0]]["splittings"][0][0][1] += 1  # genus of the first class
    results.append(("splittings genus corruption caught",
                    not workloads.check_splitting(op, got, bad)))
    bad = copy.deepcopy(expected)
    bad[op[0]]["splittings"] = []
    results.append(("splittings missing-result corruption caught",
                    not workloads.check_splitting(op, got, bad)))

    def run_op(o):
        return 0.0, workloads.check_splitting(o, workloads.splitting_op(o), bad)

    _, _, failed, _ = run.run_passes([op, op], run_op, 0, seed=1)
    results.append(("timed loop counts the corrupted op as failed", failed == 2))


def check_funnel(results) -> None:
    seed = workloads.load_data("funnel_seed.json")
    results.append(("funnel seed matches itself", run.funnel_changes(dict(seed), seed) == []))
    moved = dict(seed, **{"classify6.candidates_yielded": seed["classify6.candidates_yielded"] - 1})
    changes = run.funnel_changes(moved, seed)
    results.append(("funnel count change named",
                    len(changes) == 1 and changes[0].startswith("classify6.candidates_yielded")))


def main() -> int:
    if not workloads.have_program():
        print(f"hamfix sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    results: list[tuple[str, bool]] = []
    check_cli(results)
    check_toric(results)
    check_splittings(results)
    check_funnel(results)
    for name, ok in results:
        print(f"{'ok  ' if ok else 'FAIL'} {name}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
