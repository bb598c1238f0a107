"""Search ranges are derived from the predicates, not set by a box.

No `range(...)` in the classification modules has bounds that are all
integer literals, and no function takes a `box` or `bound` parameter: each
range comes from an inequality argued in a docstring.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hamfix"
SEARCHES = ("classify4.py", "classify6.py")


def literal_ranges(tree) -> list[str]:
    """`range` calls whose bounds are all integer literals."""
    return [
        f"{node.lineno}: {ast.unparse(node)}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "range"
        and node.args[:2]
        and all(
            isinstance(a, ast.Constant) and isinstance(a.value, int)
            for a in node.args[:2]
        )
    ]


def box_parameters(tree) -> list[str]:
    """Functions with a parameter named `box` or `bound`."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs:
                if arg.arg in ("box", "bound"):
                    found.append(f"{node.lineno}: {getattr(node, 'name', 'lambda')}({arg.arg})")
    return found


def test_search_ranges_are_not_literal():
    offenders = [
        f"{name}:{hit}"
        for name in SEARCHES
        for hit in literal_ranges(ast.parse((SRC / name).read_text(encoding="utf-8")))
    ]
    assert not offenders


def test_no_box_or_bound_parameter():
    offenders = [
        f"{path.name}:{hit}"
        for path in sorted(SRC.glob("*.py"))
        for hit in box_parameters(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offenders


def test_guard_sees_each_form():
    source = """
range(1, 9)
range(5)
range(0, 10, 2)
range(k)
range(1, k + 1)
range(4 - a)
def f(box=4): pass
def g(*, bound): pass
lambda box: box
def h(boxes, bounds): pass
"""
    tree = ast.parse(source)
    assert literal_ranges(tree) == ["2: range(1, 9)", "3: range(5)", "4: range(0, 10, 2)"]
    assert box_parameters(tree) == ["8: f(box)", "9: g(bound)", "10: lambda(box)"]
