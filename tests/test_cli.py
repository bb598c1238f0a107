"""Command-line behavior: formats, exit codes, table diffs."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from hamfix.cli import run
from hamfix.toric import corpus_dir


def capture(capsys):
    out = capsys.readouterr()
    return out.out, out.err


def test_classify_dim4_matches_reference(capsys):
    assert run(["classify", "--dim", "4"]) == 0
    out, _ = capture(capsys)
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["label", "m", "crit", "components", "b2", "euler_min"]
    assert len(lines) == 9
    assert lines[1].startswith("I-1\tP1xP1")


def test_classify_dim6_reports_mismatch(capsys):
    assert run(["classify", "--dim", "6"]) == 1
    out, err = capture(capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 20  # header + 19 rows
    assert "differs from the embedded reference" in err
    assert any(line.startswith("II-4.1b\t") for line in lines)


def test_classify_case_filter(capsys):
    assert run(["classify", "--dim", "6", "--case", "III"]) == 0
    out, _ = capture(capsys)
    rows = out.strip().splitlines()[1:]
    assert len(rows) == 10
    assert all(r.startswith("III-") for r in rows)


def test_classify_json_round_trip(capsys):
    run(["classify", "--dim", "6", "--format", "json", "--case", "I"])
    out, _ = capture(capsys)
    rows = json.loads(out)
    assert [r["label"] for r in rows] == ["I-1", "I-2", "I-3"]
    assert json.loads(json.dumps(rows)) == rows


def test_chern_row(capsys):
    assert run(["chern", "--row", "III-3.2"]) == 0
    out, _ = capture(capsys)
    assert out.strip() == "46"


def test_chern_unknown_row(capsys):
    assert run(["chern", "--row", "IX-7"]) == 2
    _, err = capture(capsys)
    assert "unknown row" in err


def test_capacities_table(capsys):
    assert run(["capacities"]) == 0
    out, _ = capture(capsys)
    lines = out.strip().splitlines()
    assert len(lines) == 20
    assert "III-1\t4\t4" in out


def test_toric_verify_corpus(capsys):
    assert run(["toric", "verify"]) == 0
    out, _ = capture(capsys)
    assert "verified 14 polytopes" in out


def test_toric_verify_single(capsys):
    path = str(corpus_dir() / "p3.json")
    assert run(["toric", "verify", "--polytope", path, "--xi", "1,1,1"]) == 0
    out, _ = capture(capsys)
    assert "matches III-1" in out
    assert "degree 64" in out


@pytest.mark.parametrize(
    "name,xi,out",
    [
        (
            "v7", "0,-1,0",
            "level -3: vertex (3,)\nlevel -1: vertex (2,)\nlevel 1: facet (0, 1, 4, 5)\n"
            "v7: matches III-2, anticanonical degree 56\n",
        ),
        (
            "p1xf1", "-1,0,-1",
            "level -3: vertex (5,)\nlevel -1: vertex (1,)\nlevel -1: vertex (7,)\n"
            "level 0: edge (4, 6)\nlevel 1: vertex (3,)\nlevel 2: edge (0, 2)\n"
            "p1xf1: matches II-4.1b, anticanonical degree 48\n",
        ),
    ],
    ids=["v7", "p1xf1"],
)
def test_toric_verify_prints_faces_by_sorted_vertex_index(capsys, name, xi, out):
    # the indices name the vertices in sorted order, as they are derived
    path = str(corpus_dir() / f"{name}.json")
    assert run(["toric", "verify", "--polytope", path, f"--xi={xi}"]) == 0
    assert capture(capsys) == (out, "")


def test_toric_verify_negative_direction_after_a_space(capsys):
    # the token after an option is its value, even one that starts with a
    # minus sign, so a space and an `=` read the same direction
    path = str(corpus_dir() / "p1xf1.json")
    assert run(["toric", "verify", "--polytope", path, "--xi=-1,0,-1"]) == 0
    out, _ = capture(capsys)
    proc = hamfix("toric", "verify", "--xi", "-1,0,-1", "--polytope", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, out, "")


@pytest.mark.parametrize(
    "argv",
    [["--polytope", str(corpus_dir() / "p3.json"), "--xi", "1,1,1"], []],
    ids=["polytope", "corpus"],
)
def test_toric_verify_checks_volume_degree(monkeypatch, capsys, argv):
    # a volume that disagrees with the row's c1^3 fails on either path; p3
    # comes first in the corpus index
    from hamfix import toric

    monkeypatch.setattr(toric, "chern_number_from_volume", lambda p: 63)
    assert run(["toric", "verify", *argv]) == 1
    err = "verification failed: p3: volume degree 63 != III-1 c1^3 64\n"
    assert capture(capsys) == ("", err)


def test_toric_verify_non_semifree(capsys):
    # the same failure line as the corpus path gives
    path = str(corpus_dir() / "p3.json")
    assert run(["toric", "verify", "--polytope", path, "--xi", "2,1,1"]) == 1
    assert capture(capsys) == ("", "verification failed: p3: direction (2, 1, 1) is not semifree\n")


def test_toric_verify_non_semifree_classifies_nothing(capsys, monkeypatch):
    # the semifree check comes first, so a rejected direction costs no search
    from hamfix import cli, toric

    def refuse(*_args, **_kwargs):
        raise AssertionError("classified before the semifree check")

    monkeypatch.setattr(cli, "classify_all", refuse)
    monkeypatch.setattr(toric, "classify_all", refuse)
    path = str(corpus_dir() / "p3.json")
    assert run(["toric", "verify", "--polytope", path, "--xi", "2,1,1"]) == 1
    assert capture(capsys) == ("", "verification failed: p3: direction (2, 1, 1) is not semifree\n")


@pytest.mark.parametrize(
    "name,profile",
    [
        ("p1xf1", "-1: fourmanifold blowup 1 4; 1: fourmanifold blowup 1 4"),
        (
            "bl_y2",
            "-1: fourmanifold blowup 2 7/2; 0: sphere 1; "
            "1: pt (-1, -1, 1), pt (-1, -1, 1); 3: pt (-1, -1, -1)",
        ),
    ],
    ids=["p1xf1", "bl_y2"],
)
def test_toric_verify_no_match_prints_profile(capsys, name, profile):
    # the observed profile reads as levels and kinds with exact rationals
    path = str(corpus_dir() / f"{name}.json")
    assert run(["toric", "verify", "--polytope", path, "--xi", "1,0,0"]) == 1
    err = f"verification failed: {name}: 0 classified rows match profile {profile}\n"
    assert capture(capsys) == ("", err)


def test_toric_verify_needs_direction(capsys):
    path = str(corpus_dir() / "p3.json")
    assert run(["toric", "verify", "--polytope", path]) == 2


def hamfix(*argv):
    """Run the CLI in a fresh process, as a user would."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    return subprocess.run(
        [sys.executable, "-m", "hamfix.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60,
    )


def p3_with(tmp_path, keys, value):
    """Path of a copy of the packaged p3 record with record[k0][k1]...[kn] = value."""
    record = json.loads((corpus_dir() / "p3.json").read_text(encoding="utf-8"))
    *parents, last = keys
    target = record
    for key in parents:
        target = target[key]
    target[last] = value
    path = tmp_path / "p3.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    return path


@pytest.mark.parametrize(
    "polytope,xi,prefix",
    [("p3.json", "1,0", "hamfix toric: --xi: "), ("index.json", "1,0,0", "invalid input: ")],
    ids=["p3.json-1,0", "index.json-1,0,0"],
)
def test_toric_verify_bad_input_exits_2(polytope, xi, prefix):
    # a short direction, and a JSON file that is not a polytope record
    proc = hamfix("toric", "verify", "--polytope", str(corpus_dir() / polytope), "--xi", xi)
    assert proc.returncode == 2
    assert proc.stderr.startswith(prefix)
    assert "Traceback" not in proc.stderr


def test_toric_verify_direction_needs_polytope():
    # --xi alone would be ignored and the corpus verified
    proc = hamfix("toric", "verify", "--xi", "1,1,1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("hamfix toric: --xi needs --polytope FILE\nusage:\n")


def test_toric_verify_corpus_excludes_polytope():
    # --corpus would be ignored in favour of the one polytope
    path = str(corpus_dir() / "p3.json")
    proc = hamfix(
        "toric", "verify", "--polytope", path, "--xi", "1,1,1", "--corpus", str(corpus_dir())
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith(
        "hamfix toric: --corpus and --polytope exclude each other\nusage:\n"
    )


@pytest.mark.parametrize("normal", [[0, 1], [0, 1, 0, 0]], ids=["two", "four"])
def test_toric_verify_malformed_normal_exits_2(tmp_path, normal):
    # a facet normal of another length than three is malformed input, named
    # in the message
    path = p3_with(tmp_path, ("facets", 1, "normal"), normal)
    proc = hamfix("toric", "verify", "--polytope", str(path), "--xi", "1,1,1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"invalid input: facet normal {normal} is not three integers\n"


@pytest.mark.parametrize(
    "keys,value",
    [
        (("facets", 1, "normal", 2), 0.5),
        (("facets", 2, "offset"), 4.0),
        (("facets", 3, "normal", 0), True),
        (("facets", 3, "offset"), True),
        (("facets", 0, "normal", 0), -1.0),
        (("facets", 0, "offset"), -4.0),
        (("name",), ["x"]),
        (("name",), None),
        (("name",), 5),
    ],
)
def test_toric_verify_non_integer_record_exits_2(tmp_path, keys, value):
    # JSON values are checked, not coerced: int() read 0.5 as 0 and true as
    # 1, so most of these records verified, and a name that is no string
    # was printed as it was
    path = p3_with(tmp_path, keys, value)
    proc = hamfix("toric", "verify", "--polytope", str(path), "--xi", "1,1,1")
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("invalid input: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("where", ["polytope", "corpus"])
def test_toric_verify_deeply_nested_json_exits_2(tmp_path, capsys, where):
    # the JSON parser recurses once per level, so 100,000 nested brackets
    # raised a RecursionError traceback with exit 1
    deep = "[" * 100_000
    if where == "polytope":
        path = tmp_path / "deep.json"
        argv = ["toric", "verify", "--polytope", str(path), "--xi", "1,1,1"]
    else:
        path = tmp_path / "index.json"
        argv = ["toric", "verify", "--corpus", str(tmp_path)]
    path.write_text(deep, encoding="utf-8")
    assert run(argv) == 2
    out, err = capture(capsys)
    assert out == ""
    assert err == f"invalid input: {path}: JSON nested too deeply to read\n"
    assert "Traceback" not in err


@pytest.mark.parametrize("xi", [[1, 1, 1.0], [True, 1, 1]])
def test_toric_verify_non_integer_index_direction_exits_2(tmp_path, xi):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir(), corpus)
    index = json.loads((corpus / "index.json").read_text(encoding="utf-8"))
    index[0]["xi"] = xi
    (corpus / "index.json").write_text(json.dumps(index), encoding="utf-8")
    proc = hamfix("toric", "verify", "--corpus", str(corpus))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("invalid input: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "edit",
    [
        lambda entry: entry.pop("row"),
        lambda entry: entry.pop("file"),
        lambda entry: entry.update(xi=5),
    ],
    ids=["no-row", "no-file", "scalar-xi"],
)
def test_toric_verify_malformed_index_entry_exits_2(tmp_path, edit):
    corpus = tmp_path / "corpus"
    shutil.copytree(corpus_dir(), corpus)
    index = json.loads((corpus / "index.json").read_text(encoding="utf-8"))
    edit(index[0])
    (corpus / "index.json").write_text(json.dumps(index), encoding="utf-8")
    proc = hamfix("toric", "verify", "--corpus", str(corpus))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("invalid input: ")
    assert "Traceback" not in proc.stderr


def test_toric_verify_not_delzant_exits_1(tmp_path):
    # the facet -x - y - z >= -4, tilted to -x - y - 2z >= -4
    path = p3_with(tmp_path, ("facets", 0, "normal"), [-1, -1, -2])
    proc = hamfix("toric", "verify", "--polytope", str(path), "--xi", "1,1,1")
    assert proc.returncode == 1
    assert proc.stderr == (
        "verification failed: p3: facet normals at (0, 0, 2) not unimodular\n"
    )


def test_toric_verify_not_reflexive_exits_1(tmp_path):
    # the size-2 simplex is Delzant but has no interior lattice point
    record = {
        "name": "bad",
        "facets": [
            {"normal": list(n), "offset": o}
            for n, o in (((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((-1, -1, -1), -2))
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record), encoding="utf-8")
    proc = hamfix("toric", "verify", "--polytope", str(path), "--xi", "1,1,1")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "verification failed: bad: facet (-1, -1, -1) at lattice distance -1\n"


def test_toric_verify_ignores_a_reflexive_flag(tmp_path, capsys):
    # reflexivity is read from the facets, so a stale "reflexive": false key
    # verifies like the packaged record
    flagged = p3_with(tmp_path, ("reflexive",), False)
    outcomes = []
    for path in (corpus_dir() / "p3.json", flagged):
        code = run(["toric", "verify", "--polytope", str(path), "--xi", "1,1,1"])
        outcomes.append((code, *capture(capsys)))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == 0 and outcomes[0][1].endswith("p3: matches III-1, anticanonical degree 64\n")


def test_tables_diff_shows_known_discrepancies(capsys):
    assert run(["tables", "diff"]) == 1
    out, _ = capture(capsys)
    assert "+II-4.1b" in out
    added = [l for l in out.splitlines() if l.startswith("+") and "\t" in l]
    removed = [l for l in out.splitlines() if l.startswith("-") and "\t" in l]
    # one extra six-dimensional row plus the one capacity cell
    assert len(added) == 2 and len(removed) == 1


def test_tables_diff_deterministic(capsys):
    run(["tables", "diff"])
    first, _ = capture(capsys)
    run(["tables", "diff"])
    second, _ = capture(capsys)
    assert first == second


def test_case3_tuples_listing(capsys):
    assert run(["case3-tuples"]) == 0
    out, _ = capture(capsys)
    assert "(1, -1, 2)" in out and "(3, 1, 0)" in out


def test_emit_dh(tmp_path, capsys):
    run(["classify", "--dim", "6", "--case", "I", "--emit-dh", str(tmp_path)])
    capture(capsys)
    files = sorted(p.name for p in tmp_path.glob("*.tsv"))
    assert files == ["dh_I-1.tsv", "dh_I-2.tsv", "dh_I-3.tsv"]
    body = (tmp_path / "dh_I-1.tsv").read_text()
    assert body.startswith("t\tDH\n")
    assert "-3\t0" in body
    assert "0\t9" in body  # the reduced class 3u has square nine


def test_emit_dh_needs_dim_6(tmp_path):
    # the DH tables are six-dimensional slices; with --dim 4 the flag would
    # be ignored without a word
    target = tmp_path / "dh"
    proc = hamfix("classify", "--dim", "4", "--emit-dh", str(target))
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("hamfix classify: --emit-dh needs --dim 6\nusage:\n")
    assert not target.exists()


def test_unknown_flag_exits_2(capsys):
    # the search ranges are derived, so the box option and its witness are gone
    for argv in (["--dim", "5"], ["--dim", "6", "--bound", "5"], ["--dim", "6", "-v"]):
        assert run(["classify", *argv]) == 2, argv
    capture(capsys)


P3 = str(corpus_dir() / "p3.json")


@pytest.mark.parametrize(
    "kind,argv,want",
    [
        # a usage error: exit 2, no stdout, and `hamfix[ command]: reason` then the usage
        ("usage", [], "hamfix: "),
        ("usage", ["bogus"], "hamfix: "),
        ("usage", ["--dim", "6"], "hamfix: "),
        ("usage", ["classify", "--dim", "6", "-v"], "hamfix classify: "),
        ("usage", ["classify", "--dim"], "hamfix classify: "),
        ("usage", ["classify", "--dim", "5"], "hamfix classify: "),
        ("usage", ["classify", "--dim", "six"], "hamfix classify: "),
        ("usage", ["classify", "--dim", "6", "--case", "IV"], "hamfix classify: "),
        ("usage", ["classify", "--case", "I"], "hamfix classify: "),
        ("usage", ["toric", "--polytope", P3, "--xi", "1,1,1"], "hamfix toric: "),
        ("usage", ["toric", "check"], "hamfix toric: "),
        ("usage", ["tables", "diff", "diff"], "hamfix tables: "),
        ("usage", ["capacities", "x"], "hamfix capacities: "),
        # a form argparse accepted: the canonical form's status and stdout
        ("same", ["classify", "--dim=6"], ["classify", "--dim", "6"]),
        ("same", ["classify", "--dim", "6", "--fo", "json", "--ca", "I"],
         ["classify", "--dim", "6", "--format", "json", "--case", "I"]),
        ("same", ["classify", "--dim", "4", "--dim", "6"], ["classify", "--dim", "6"]),
        ("same", ["classify", "--dim", "06"], ["classify", "--dim", "6"]),
        ("same", ["toric", "--polytope", P3, "--xi", "1,1,1", "verify"],
         ["toric", "verify", "--polytope", P3, "--xi", "1,1,1"]),
        ("same", ["tables", "--", "diff"], ["tables", "diff"]),
        # help: exit 0, naming every command or option
        ("help", ["--help"], ["classify", "chern", "capacities", "toric", "tables", "case3-tuples"]),
        ("help", ["classify", "-h"], ["--dim", "--case", "--format", "--emit-dh"]),
        ("help", ["toric", "-h"], ["verify", "--polytope", "--xi", "--corpus"]),
        ("help", ["classify", "-v", "-h"], ["--dim", "--case", "--format", "--emit-dh"]),
        # a handler's usage error: an option conflict, or a row the search lacks
        ("usage", ["toric", "verify", "--polytope", P3],
         "hamfix toric: --polytope needs --xi a,b,c\n"),
        ("usage", ["toric", "verify", "--xi", "1,1,1"],
         "hamfix toric: --xi needs --polytope FILE\n"),
        ("usage",
         ["toric", "verify", "--polytope", P3, "--xi", "1,1,1", "--corpus", str(corpus_dir())],
         "hamfix toric: --corpus and --polytope exclude each other\n"),
        ("usage", ["classify", "--dim", "4", "--emit-dh", "dh"],
         "hamfix classify: --emit-dh needs --dim 6\n"),
        ("usage", ["chern", "--row", "IX-7"], "hamfix chern: unknown row 'IX-7'\n"),
        # an empty value: a handler would read it as an option not given
        ("usage", ["toric", "verify", "--corpus="], "hamfix toric: --corpus needs a value\n"),
        ("usage", ["toric", "verify", "--polytope=", "--xi", "1,1,1"],
         "hamfix toric: --polytope needs a value\n"),
        ("usage", ["classify", "--dim", "6", "--emit-dh="],
         "hamfix classify: --emit-dh needs a value\n"),
        ("usage", ["classify", "--dim", "6", "--emit-dh", ""],
         "hamfix classify: --emit-dh needs a value\n"),
        # a direction that is not three ints, or not primitive
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", "1,x,1"],
         "hamfix toric: --xi: '1,x,1' is not a primitive direction a,b,c\n"),
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", "1,0"],
         "hamfix toric: --xi: '1,0' is not a primitive direction a,b,c\n"),
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", "2,0,0"],
         "hamfix toric: --xi: '2,0,0' is not a primitive direction a,b,c\n"),
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", "0,0,0"],
         "hamfix toric: --xi: '0,0,0' is not a primitive direction a,b,c\n"),
        # int() would read these as 10, 1 and 1
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", "1_0,1,1"],
         "hamfix toric: --xi: '1_0,1,1' is not a primitive direction a,b,c\n"),
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", " 1,1,1"],
         "hamfix toric: --xi: ' 1,1,1' is not a primitive direction a,b,c\n"),
        ("usage", ["toric", "verify", "--polytope", P3, "--xi", "١,1,1"],
         "hamfix toric: --xi: '١,1,1' is not a primitive direction a,b,c\n"),
    ],
)
def test_parser_contract(capsys, kind, argv, want):
    status = run(argv)
    out, err = capture(capsys)
    if kind == "usage":
        assert (status, out) == (2, "")
        assert err.startswith(want) and "\nusage:\n" in err, err
        assert "Traceback" not in err
    elif kind == "same":
        assert (status, out) == (run(want), capture(capsys)[0])
    else:
        assert (status, err) == (0, "")
        assert all(name in out for name in want), out


def test_usage_errors_have_one_path():
    # a handler raises UsageError, and `run` prints it in the one usage form;
    # a bare `return 2` prints no `hamfix COMMAND:` prefix and no usage
    import ast

    from hamfix import cli

    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    handlers = [
        f for f in tree.body if isinstance(f, ast.FunctionDef) and f.name.startswith("cmd_")
    ]
    returns_2 = [
        f.name for f in handlers for node in ast.walk(f)
        if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
        and node.value.value == 2
    ]
    catches = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.ExceptHandler) and isinstance(node.type, ast.Name)
        and node.type.id == "UsageError"
    ]
    assert handlers and returns_2 == [] and len(catches) == 1


@pytest.mark.parametrize("buffering", [1, -1], ids=["on-write", "at-flush"])
def test_closed_stdout_exits_1_without_a_message(monkeypatch, capsys, buffering):
    # `hamfix tables diff | head -c 1`: the reader closes the pipe, and the
    # write raises BrokenPipeError, an OSError that is no invalid input
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w", buffering=buffering) as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        status = run(["tables", "diff"])
        stdout.write("at exit\n")
        stdout.flush()  # stdout now writes to devnull
        monkeypatch.undo()
    assert (status, capture(capsys)) == (1, ("", ""))


def test_reference_tables_round_trip():
    # `classify` compares parsed rows and `tables diff` the stored text
    from hamfix import golden

    assert golden.render_tsv(golden.GOLDEN6, golden.FIELDS6) == golden.GOLDEN6_TSV
    assert golden.render_tsv(golden.GOLDEN4, golden.FIELDS4) == golden.GOLDEN4_TSV
