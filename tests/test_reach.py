"""Every function in the package is reached by some command, or is listed here.

A fresh interpreter runs `cli.run` on every command and flag, the error
paths included, under `sys.setprofile`, so that imports and the classify
cache start cold.  The defs of `src/hamfix` it never enters must be exactly
the allowlist below: code that only tests reach belongs in `tests/`.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGE = SRC / "hamfix"

ALLOWED = {
    "classify6.flip": "public API in the README example; perfbench flips every match",
    "localization.IsolatedPoint.flipped": "called by flip",
    "localization.InteriorSurface.flipped": "called by flip",
    "localization.ExtremalSurface.flipped": "called by flip",
    "localization.ExtremalFourManifold.flipped": "called by flip",
    "localization.LaurentPoly.coeff": "README example reads a constant term with it",
    "localization.LaurentPoly.__repr__": "readable value in a REPL and in test failures",
    "lattice.SurfaceLattice.__repr__": "readable value in a REPL and in test failures",
    "classify6.TFD.__repr__": "readable value in a REPL and in test failures",
    "cli.main": "console-script entry point; the scan calls cli.run",
    "record._frozen": "raises on assignment to a record; no command assigns",
    "record._repr": "repr of a record without its own; no command prints one",
    "errors.ClassificationMismatch.__init__": "raised only with strict=True, which "
    "perfbench and snapshot.py still pass as False",
}

# (argv, expected exit code); {corpus} and {tmp} are filled in by the scan
COMMANDS = [
    (["classify", "--dim", "6"], 1),
    (["classify", "--dim", "6", "--format", "json"], 1),
    (["classify", "--dim", "6", "--case", "II"], 1),
    (["classify", "--dim", "6", "--case", "III", "--emit-dh", "{tmp}/dh"], 0),
    (["classify", "--dim", "4"], 0),
    (["classify", "--dim", "4", "--format", "json", "--case", "I"], 0),
    (["classify", "--dim", "4", "--emit-dh", "{tmp}/dh4"], 2),
    (["classify", "--dim", "5"], 2),
    (["chern", "--row", "II-4.1b"], 0),
    (["chern", "--row", "IX-7"], 2),
    (["capacities"], 0),
    (["toric", "verify"], 0),
    (["toric", "verify", "--corpus", "{corpus}"], 0),
    (["toric", "verify", "--polytope", "{corpus}/v7.json", "--xi", "0,-1,0"], 0),
    (["toric", "verify", "--polytope", "{corpus}/p3.json", "--xi", "2,1,1"], 1),
    (["toric", "verify", "--polytope", "{corpus}/p1xf1.json", "--xi", "1,0,0"], 1),
    (["toric", "verify", "--polytope", "{corpus}/p3.json", "--xi", "1,0"], 2),
    (["toric", "verify", "--polytope", "{corpus}/p3.json"], 2),
    (["toric", "verify", "--xi", "1,1,1"], 2),
    (["toric", "verify", "--polytope", "{corpus}/p3.json", "--xi", "1,1,1",
      "--corpus", "{corpus}"], 2),
    (["tables", "diff"], 1),
    (["case3-tuples"], 0),
    (["--help"], 0),
    (["toric", "-h"], 0),
]

SCAN = r"""
import contextlib, io, json, sys, tempfile
from pathlib import Path

package = sys.argv[1]
entered = set()

def profile(frame, event, arg):
    code = frame.f_code
    if event == "call" and code.co_filename.startswith(package):
        entered.add((Path(code.co_filename).stem, code.co_firstlineno))

sys.setprofile(profile)
from hamfix.cli import run
from hamfix.toric import corpus_dir

codes = []
with tempfile.TemporaryDirectory() as tmp:
    for argv in json.loads(sys.argv[2]):
        argv = [a.format(corpus=corpus_dir(), tmp=tmp) for a in argv]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes.append(run(argv))
sys.setprofile(None)
print(json.dumps({"codes": codes, "entered": sorted(entered)}))
"""


def package_defs():
    """{(module, first line of the code object): qualified name} of every def."""
    defs = {}

    def walk(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                # a decorated def's code object starts at its first decorator
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                defs[(module, line)] = prefix + child.name
                walk(child, module, prefix + child.name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, module, prefix + child.name + ".")

    for path in sorted(PACKAGE.glob("*.py")):
        walk(ast.parse(path.read_text(encoding="utf-8")), path.stem, "")
    return defs


def test_every_unreached_def_is_allowlisted():
    env = dict(os.environ, PYTHONPATH=str(SRC) + os.pathsep + os.environ.get("PYTHONPATH", ""))
    argvs = [argv for argv, _ in COMMANDS]
    proc = subprocess.run(
        [sys.executable, "-c", SCAN, str(PACKAGE) + os.sep, json.dumps(argvs)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    scan = json.loads(proc.stdout)
    assert scan["codes"] == [code for _, code in COMMANDS]
    entered = {tuple(key) for key in scan["entered"]}
    unreached = {
        f"{module}.{name}"
        for (module, line), name in package_defs().items()
        if (module, line) not in entered
    }
    assert sorted(unreached - ALLOWED.keys()) == [], "reached by no command"
    assert sorted(ALLOWED.keys() - unreached) == [], "allowlisted but reached"
