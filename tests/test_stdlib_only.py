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
