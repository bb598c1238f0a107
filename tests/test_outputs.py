"""Byte-identity of every command's output against a checked-in digest table.

Each command runs in process through `cli.run`.  Its exit code, stdout and
stderr, with the corpus directory written as CORPUS, hash to a short sha256
that `outputs.tsv` records; each file that `--emit-dh` writes is hashed too.
A change that claims identical output leaves the table untouched.  A change
that moves an output re-records the table on purpose:

    PYTHONPATH=src python tests/test_outputs.py --record

which first names each command whose digest moved, was dropped or was
added, so that the change can list them.  pytest only compares, and never
writes the table.
"""

import contextlib
import hashlib
import io
import itertools
import sys
import tempfile
from pathlib import Path

from hamfix import golden
from hamfix.cli import run
from hamfix.toric import corpus_dir

TABLE = Path(__file__).with_name("outputs.tsv")
CORPUS = "CORPUS"


def _corpus_files():
    return sorted(p.name for p in corpus_dir().glob("*.json") if p.name != "index.json")


def commands():
    """Every command line the table covers, with the corpus written as CORPUS."""
    out = [
        ["classify", "--dim", dim, "--format", fmt, "--case", case]
        for dim in ("6", "4") for fmt in ("tsv", "json") for case in ("I", "II", "III", "all")
    ]
    out += [["tables", "diff"], ["capacities"], ["case3-tuples"]]
    out += [["toric", "verify"], ["toric", "verify", "--corpus", CORPUS]]
    labels = [row["label"] for row in golden.GOLDEN6] + ["II-4.1b", "IX-7"]
    out += [["chern", "--row", label] for label in labels]
    for name in _corpus_files():
        for xi in itertools.product((-1, 0, 1), repeat=3):
            if any(xi):
                out.append(["toric", "verify", "--polytope", f"{CORPUS}/{name}",
                            "--xi=" + ",".join(map(str, xi))])
    p3 = f"{CORPUS}/p3.json"
    # the usage errors and help forms of tests/test_cli.py::test_parser_contract
    out += [
        [], ["bogus"], ["--dim", "6"], ["classify", "--dim", "6", "-v"],
        ["classify", "--dim"], ["classify", "--dim", "5"], ["classify", "--dim", "six"],
        ["classify", "--dim", "6", "--case", "IV"], ["classify", "--case", "I"],
        ["toric", "--polytope", p3, "--xi", "1,1,1"], ["toric", "check"],
        ["tables", "diff", "diff"], ["capacities", "x"],
        ["--help"], ["classify", "-h"], ["toric", "-h"], ["classify", "-v", "-h"],
    ]
    # the option conflicts, and an option given an empty value
    out += [
        ["toric", "verify", "--polytope", p3], ["toric", "verify", "--xi", "1,1,1"],
        ["toric", "verify", "--polytope", p3, "--xi", "1,1,1", "--corpus", CORPUS],
        ["toric", "verify", "--corpus="], ["toric", "verify", "--polytope=", "--xi", "1,1,1"],
        ["classify", "--dim", "6", "--emit-dh="],
    ]
    # a direction that is not three ints, or not primitive, or not ASCII digits
    out += [["toric", "verify", "--polytope", p3, "--xi", xi]
            for xi in ("1,x,1", "1,0", "2,0,0", "0,0,0", "1_0,1,1", " 1,1,1", "١,1,1")]
    return out


def _digest(*parts) -> str:
    return hashlib.sha256("\0".join(map(str, parts)).encode("utf-8")).hexdigest()[:16]


def _run(argv, corpus):
    """(status, stdout, stderr) of one in-process command, corpus as CORPUS."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = run([a.replace(CORPUS, corpus) for a in argv])
    return status, out.getvalue().replace(corpus, CORPUS), err.getvalue().replace(corpus, CORPUS)


def compute(directory):
    """{command: (digest, status, stdout, stderr)}, the `--emit-dh` files
    written under `directory`."""
    corpus = str(corpus_dir())
    got = {}
    for argv in commands():
        result = _run(argv, corpus)
        got[" ".join(argv) or "(no arguments)"] = (_digest(*result), *result)
    for dim in ("4", "6"):
        result = _run(["classify", "--dim", dim, "--emit-dh", str(directory)], corpus)
        got[f"classify --dim {dim} --emit-dh DIR"] = (_digest(*result), *result)
    for path in sorted(Path(directory).glob("*.tsv")):
        body = path.read_text(encoding="utf-8")
        got[f"classify --dim 6 --emit-dh DIR: {path.name}"] = (_digest(body), 0, body, "")
    return got


def read_table():
    rows = (line.split("\t", 1) for line in TABLE.read_text(encoding="utf-8").splitlines())
    return {command: digest for digest, command in rows}


def changes(want, got):
    """(moved, dropped, added): the commands whose digest in `got` differs
    from `want`, that `got` no longer runs, and that `want` does not record."""
    moved = [c for c in got if c in want and got[c][0] != want[c]]
    return moved, [c for c in want if c not in got], [c for c in got if c not in want]


def test_outputs_match_recorded_digests(tmp_path):
    got = compute(tmp_path)
    moved, missing, new = changes(read_table(), got)
    if moved or missing or new:
        lines = [f"{len(moved)} outputs moved:"] + [f"  {c}" for c in moved]
        lines += [f"not run: {c}" for c in missing] + [f"not recorded: {c}" for c in new]
        if moved:
            _, status, out, err = got[moved[0]]
            lines += [f"new output of {moved[0]!r}: exit {status}",
                      "stdout:", out, "stderr:", err]
        raise AssertionError("\n".join(lines))


def record():
    """Write the table anew, first naming each command whose digest moved,
    was dropped or was added."""
    with tempfile.TemporaryDirectory() as directory:
        got = compute(directory)
    for verb, names in zip(("moved", "dropped", "added"), changes(read_table(), got)):
        for command in names:
            print(f"{verb}: {command}")
    TABLE.write_text("".join(f"{d}\t{c}\n" for c, (d, *_) in got.items()), encoding="utf-8")
    print(f"recorded {len(got)} digests in {TABLE}")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_outputs.py --record")
    record()
