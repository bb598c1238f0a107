"""The benchmark's tracer wraps package functions by name; keep those names.

A wrapped name that no longer resolves is skipped by the tracer and the
metrics built on it are silently omitted, so a rename must fail here first.
The tracer is read as source and not imported, so this test runs nothing of
the benchmark.
"""

import ast
import importlib
import inspect
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# listed by the tracer but no longer in the package; their metrics are omitted
ALREADY_ABSENT = {
    ("hamfix.cli", "report_row_from_golden6"),
    ("hamfix.cli", "report_row_from_golden4"),
}


def _tracer_constant(name):
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER.name}")


def test_every_wrapped_function_resolves():
    pairs = {(module, attr) for module, attr, _span in _tracer_constant("WRAPPED")}
    assert ALREADY_ABSENT <= pairs
    missing = sorted(
        (module, attr)
        for module, attr in pairs - ALREADY_ABSENT
        if not callable(getattr(importlib.import_module(module), attr, None))
    )
    assert missing == []


def test_traced_generators_are_generator_functions():
    # the tracer times each next() of these, so they must stay generators
    generators = _tracer_constant("GENERATORS")
    assert "_candidate_totals" in generators
    for module, attr, _span in _tracer_constant("WRAPPED"):
        if attr in generators:
            assert inspect.isgeneratorfunction(getattr(importlib.import_module(module), attr))
