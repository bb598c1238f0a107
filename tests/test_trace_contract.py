"""The benchmark's tracer wraps package functions by name; keep those names.

A wrapped name that no longer resolves is skipped by the tracer and the
metrics built on it are silently omitted, so a rename must fail here first.
The tracer is read as source and not imported, so this test runs nothing of
the benchmark.
"""

import ast
import importlib
import inspect
import json
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"

# listed by the tracer but no longer in the package; their metrics are omitted
ALREADY_ABSENT = {
    ("hamfix.cli", "report_row_from_golden6"),
    ("hamfix.cli", "report_row_from_golden4"),
    # slice positivity is derived, not checked; classify6.sweep_s still
    # comes from _sweep_path and _check_top, which share its span
    ("hamfix.classify6", "_check_slices"),
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


def _load_tracer():
    """The tracer module, compiled from its source without writing bytecode."""
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module


def _layer_metrics(tracer, absent):
    """The per-layer metric names a traced run reports when `absent` is missing."""
    record = {"run": "contract", "spans": [], "counts": {}, "absent": sorted(absent)}
    names = set(tracer.engine_metrics(record)) | set(tracer.cli_metrics([record]))
    return names | {"trace.overhead_s"}  # run.py adds the tracer's own cost


def test_traced_run_reports_every_per_layer_metric():
    # the tracer drops the metrics of a wrapped function that no longer
    # resolves without a message, so every gated per-layer name must still
    # come out of the functions the package has
    tracer = _load_tracer()
    absent = {
        f"{module}.{attr}"
        for module, attr, _span in tracer.WRAPPED
        if not callable(getattr(importlib.import_module(module), attr, None))
    }
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    want = {metric["name"] for metric in benchmark["per_layer"]}
    assert len(want) == 34
    assert _layer_metrics(tracer, absent) == want
    dropped = _layer_metrics(tracer, absent | {"hamfix.classify6._canonicalize"})
    assert want - dropped == {"classify6.canonicalize_s"}
