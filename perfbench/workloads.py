"""The three benchmark workloads: their set-up, one operation, and its check.

Every workload is a closed loop with one client. The workload seed only
shuffles the order of operations; the inputs themselves are fixed:

* ``cli``: the four cold commands users run, each in a fresh interpreter;
* ``toric-sweep``: every nonzero direction in {-1,0,1}^3 on each of the 14
  corpus polytopes, matched against the classified rows;
* ``splittings``: the 19 (lattice, total) inputs that reach
  ``component_splittings`` during ``classify_all``.

Expected outputs live under ``data/`` and were recorded by ``snapshot.py``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = BENCH / "data"
CORPUS = SRC / "hamfix" / "corpus"

# A child that runs longer than this is killed and counted as failed.
CHILD_TIMEOUT_S = 150

CLI_COMMANDS = {
    "classify6": ("classify", "--dim", "6"),
    "classify4": ("classify", "--dim", "4"),
    "tables_diff": ("tables", "diff"),
    "toric_verify": ("toric", "verify"),
}

DIRECTIONS = tuple(
    (a, b, c)
    for a in (-1, 0, 1)
    for b in (-1, 0, 1)
    for c in (-1, 0, 1)
    if (a, b, c) != (0, 0, 0)
)

NOT_SEMIFREE = "not semifree"


def have_program() -> bool:
    return (SRC / "hamfix" / "__init__.py").is_file() and (SRC / "hamfix" / "cli.py").is_file()


def use_source() -> None:
    """Import hamfix from ``src`` in this process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def load_data(name: str):
    with open(DATA / name, encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    """Environment of every child: the package from ``src``, the packaged corpus."""
    env = dict(os.environ)
    env.pop("HAMFIX_CORPUS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def run_child(argv, timeout=CHILD_TIMEOUT_S) -> tuple[float, int, bytes, bytes]:
    """(wall seconds, exit status, stdout, stderr) of one Python child process."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as err:  # run() has killed and reaped the child
        return time.perf_counter() - start, -1, err.stdout or b"", b"timeout"
    return time.perf_counter() - start, proc.returncode, proc.stdout, proc.stderr


# ---------------------------------------------------------------------------
# cli


def warm_bytecode() -> None:
    """Fill the bytecode cache so the timed children do not compile."""
    run_child(["-m", "compileall", "-q", str(SRC / "hamfix")])


def check_cli(name: str, status: int, stdout: bytes, expected: dict) -> bool:
    want = expected[name]
    return status == want["exit"] and stdout == want["stdout"].encode("utf-8")


# ---------------------------------------------------------------------------
# toric-sweep


def setup_toric():
    """Import the package, classify once and load the corpus.

    Returns (rows, ops) with one op per (polytope, direction) pair.
    """
    use_source()
    from hamfix.classify6 import classify_all
    from hamfix.toric import load_corpus

    rows = classify_all(strict=False)
    polytopes = [poly for poly, _, _ in load_corpus(CORPUS)]
    ops = [(poly, xi) for poly in polytopes for xi in DIRECTIONS]
    return rows, ops


def toric_op(op, rows):
    """(outcome, degree): matched label, exception name or "not semifree".

    On a match the degree is the normalized volume, returned only when it
    equals the localization Chern number of the row and of its flip.
    """
    from hamfix import classify6, errors, localization, toric

    poly, xi = op
    d = toric.CircleDirection(xi)
    if not toric.is_semifree(poly, d):
        return NOT_SEMIFREE, None
    try:
        match = toric.tfd_from_polytope(poly, d, rows)
    except errors.HamfixError as err:
        return type(err).__name__, None
    degree = toric.chern_number_from_volume(poly)
    chern = localization.chern_number
    if not degree == chern(match) == chern(classify6.flip(match)):
        return match.label, None
    return match.label, degree


def toric_key(op) -> str:
    poly, xi = op
    return f"{poly.name} {','.join(map(str, xi))}"


def check_toric(op, got, expected: dict) -> bool:
    want = expected[toric_key(op)]
    return list(got) == [want["outcome"], want["degree"]]


# ---------------------------------------------------------------------------
# splittings


def setup_splittings():
    """Import the lattice layer and build the recorded inputs as ops."""
    use_source()
    from hamfix.lattice import CohClass, SurfaceLattice

    ops = []
    for i, entry in enumerate(load_data("splittings.json")):
        lattice = SurfaceLattice(entry["kind"], entry["blowups"])
        ops.append((i, lattice, CohClass(lattice, tuple(entry["total"]))))
    return ops


def splitting_op(op):
    """The order-free set of splittings of one input, as (coeffs, genus) tuples."""
    from hamfix import lattice

    _, lat, total = op
    return splitting_set(lattice.component_splittings(lat, total))


def splitting_set(splittings) -> frozenset:
    return frozenset(
        tuple(sorted((tuple(c.coeffs), g) for c, g in split)) for split in splittings
    )


def check_splitting(op, got, expected: list) -> bool:
    want = frozenset(
        tuple((tuple(coeffs), g) for coeffs, g in split)
        for split in expected[op[0]]["splittings"]
    )
    return got == want
