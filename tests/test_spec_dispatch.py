"""Only the localization module tells the kinds of fixed component apart by type.

Every other module asks a component for its behaviour (`fc.column()`,
`fc.dim`, `fc.index`, ...) instead of testing its class, so a new kind of
component is added in one place.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "hamfix"
SPECS = {"IsolatedPoint", "InteriorSurface", "ExtremalSurface", "ExtremalFourManifold"}


def _spec_refs(node, constructors=frozenset()):
    """Spec class names referenced in the subtree, other than as constructors."""
    for sub in ast.walk(node):
        name = sub.id if isinstance(sub, ast.Name) else getattr(sub, "attr", None)
        if name in SPECS and id(sub) not in constructors:
            yield name


def type_tests(tree) -> list[str]:
    constructors = frozenset(
        id(n.func) for n in ast.walk(tree) if isinstance(n, ast.Call)
    )
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
            and len(node.args) == 2
        ):
            found += [f"{node.lineno}: isinstance {n}" for n in _spec_refs(node.args[1])]
        elif isinstance(node, ast.Compare):
            # type(x) is A, type(x) in (A, B), {type(x) ...} == {A}
            found += [
                f"{node.lineno}: compares {n}" for n in _spec_refs(node, constructors)
            ]
        elif isinstance(node, ast.MatchClass):
            found += [f"{node.lineno}: match {n}" for n in _spec_refs(node.cls)]
    return found


def test_no_spec_type_tests_outside_localization():
    offenders = [
        f"{path.name}:{hit}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "localization.py"
        for hit in type_tests(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not offenders


def test_guard_sees_each_form_of_type_test():
    source = """
isinstance(s, IsolatedPoint)
isinstance(s, (InteriorSurface, localization.ExtremalSurface))
type(s) is ExtremalFourManifold
kinds == {IsolatedPoint}
s == IsolatedPoint((1, 1, 1))
IsolatedPoint((1, 1, 1))
isinstance(s, int)
"""
    hits = type_tests(ast.parse(source))
    assert hits == [
        "2: isinstance IsolatedPoint",
        "3: isinstance InteriorSurface",
        "3: isinstance ExtremalSurface",
        "4: compares ExtremalFourManifold",
        "5: compares IsolatedPoint",
    ]
