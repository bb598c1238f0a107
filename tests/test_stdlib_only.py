"""The package depends on the standard library only, and imports little of it."""

import ast
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hamfix"


def test_absolute_imports_are_standard_library():
    outside = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [
                f"{path.name}: {n}" for n in names
                if n.split(".")[0] not in sys.stdlib_module_names
            ]
    assert not outside


def test_cli_import_skips_dataclasses_and_inspect():
    # -S: a site-packages .pth file can import modules of its own, which must
    # neither hide a regression here nor cause one
    code = (
        f"import sys; sys.path.insert(0, {str(SRC.parent)!r}); import hamfix.cli; "
        "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\n"


def _child(code):
    """stdout of `code` run in a fresh `-S` interpreter that imports `hamfix` from src."""
    code = f"import sys; sys.path.insert(0, {str(SRC.parent)!r})\n{code}"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, timeout=120
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    return proc.stdout


def test_commands_skip_json_and_fractions():
    # a TSV table and a table diff are ints and text; `json` serves --format
    # json and polytope files, `fractions` (with `decimal` and `numbers`) the
    # toric areas and --emit-dh, and `pathlib` files
    code = (
        "import io; from hamfix import cli; real = sys.stdout; seen = []\n"
        "for argv in (['classify', '--dim', '6'], ['tables', 'diff']):\n"
        "    sys.stdout = sys.stderr = io.StringIO()\n"
        "    status = cli.run(argv)\n"
        "    sys.stdout, sys.stderr = real, sys.__stderr__\n"
        "    unused = {'json', 'fractions', 'decimal', 'numbers', 'pathlib'}\n"
        "    seen.append((status, sorted(unused & set(sys.modules))))\n"
        "print(seen)"
    )
    assert _child(code) == "[(1, []), (1, [])]\n"


def test_package_import_loads_the_traced_modules():
    # the benchmark tracer wraps only modules loaded when it is installed,
    # right after a bare `import hamfix`; a lazy package would leave every
    # per-layer span empty without an error
    code = (
        "import hamfix\n"
        "traced = ('classify6', 'classify4', 'lattice', 'localization', 'reduction', 'toric')\n"
        "print([m for m in traced if 'hamfix.' + m not in sys.modules])"
    )
    assert _child(code) == "[]\n"
