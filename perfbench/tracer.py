"""In-memory span tracer that wraps hamfix functions from outside the package.

The tracer replaces selected module attributes with timing wrappers. A name
bound with ``from .x import y`` is a separate attribute of every importing
module, so each function is replaced wherever a loaded ``hamfix`` module
holds it. Recursive and hot leaf functions (``pair``, ``_sorted_tails``,
``_bounded_vectors``, ``_split_search``) are deliberately not wrapped: their
per-call cost is close to the wrapper's own.

A span is ``(run id, name, start, end, parent index)``; spans stay in memory
and are written out once, when the traced process ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import json
import sys
import time
from collections import Counter

# (module, attribute, span name). Several functions may share one span name;
# the layer's time is the self time summed over all of them.
WRAPPED = (
    ("hamfix.classify6", "classify_all", "classify6.classify_all"),
    ("hamfix.classify6", "_candidate_totals", "classify6.candidates"),
    ("hamfix.classify6", "_sweep_path", "classify6.sweep"),
    ("hamfix.classify6", "_check_top", "classify6.sweep"),
    ("hamfix.classify6", "_check_slices", "classify6.sweep"),
    ("hamfix.classify6", "_canonicalize", "classify6.canonicalize"),
    ("hamfix.classify4", "classify4", "classify4.classify"),
    ("hamfix.lattice", "component_splittings", "lattice.splittings"),
    ("hamfix.lattice", "exceptional_classes", "lattice.exceptional"),
    ("hamfix.reduction", "vanishing_classes", "reduction.vanishing"),
    ("hamfix.reduction", "blowdown_lattice", "reduction.blowdown"),
    ("hamfix.localization", "integrate", "localization.integrate"),
    ("hamfix.localization", "chern_number", "localization.chern"),
    ("hamfix.toric", "is_semifree", "toric.semifree"),
    ("hamfix.toric", "tfd_from_polytope", "toric.match"),
    ("hamfix.toric", "chern_number_from_volume", "toric.volume"),
    ("hamfix.cli", "report_row_from_tfd", "cli.render"),
    ("hamfix.cli", "report_row_from_golden6", "cli.render"),
    ("hamfix.cli", "report_row_from_tfd4", "cli.render"),
    ("hamfix.cli", "report_row_from_golden4", "cli.render"),
    ("hamfix.cli", "render_tsv", "cli.render"),
    ("hamfix.cli", "render_json", "cli.render"),
)

# Generator functions: the span covers each next() call, not the creation.
GENERATORS = {"_candidate_totals"}


class Tracer:
    """Collects spans and exact counts for one traced process."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []

    # -- spans ---------------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block."""
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, attr: str, name: str, fn):
        counts = self.counts

        if attr in GENERATORS:
            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                counts[attr] += 1
                gen = fn(*args, **kwargs)

                def steps():
                    while True:
                        with self.span(name):
                            try:
                                item = next(gen)
                            except StopIteration:
                                return
                        counts[attr + ".yielded"] += 1
                        yield item

                return steps()

            return traced_gen

        hook = _HOOKS.get(attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[attr] += 1
            context = hook[0](self) if hook else None
            with self.span(name):
                result = fn(*args, **kwargs)
            if hook:
                hook[1](counts, context, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function of the loaded hamfix modules, wherever bound.

        A listed module or function that no longer exists is skipped and
        recorded in ``absent``; the metrics built on it are then omitted.
        """
        for module_name, attr, name in WRAPPED:
            module = sys.modules.get(module_name)
            if module is None:
                if importlib.util.find_spec(module_name) is None:
                    self.absent.append(f"{module_name}.{attr}")
                continue  # not used by this process
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrap(attr, name, fn)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "hamfix" or mod_name.startswith("hamfix.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)

    def dump(self, path) -> None:
        record = {
            "run": self.run_id,
            "spans": [[self.run_id, *s] for s in self.spans],
            "counts": dict(self.counts),
            "absent": self.absent,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(record, fh)


# Result hooks: (context taken before the call, update after it returns).


def _no_context(_tracer):
    return None


def _splittings_hook(counts, in_sweep, result):
    counts["component_splittings.found"] += len(result)
    if in_sweep:
        counts["component_splittings.in_sweep"] += 1


def _integrate_hook(counts, _ctx, result):
    if result.is_zero():
        counts["integrate.zero"] += 1


def _semifree_hook(counts, nested, result):
    # tfd_from_polytope re-checks semifreeness; count only outside calls
    if not nested:
        counts["is_semifree.outer"] += 1
        if result:
            counts["is_semifree.true"] += 1


def _match_hook(counts, _ctx, _result):
    counts["tfd_from_polytope.matched"] += 1


def _rows_hook(counts, _ctx, result):
    counts["classify_all.rows"] += len(result)


_HOOKS = {
    "component_splittings": (lambda t: t._inside("classify6.classify_all"), _splittings_hook),
    "integrate": (_no_context, _integrate_hook),
    "is_semifree": (lambda t: t._inside("toric.match"), _semifree_hook),
    "tfd_from_polytope": (_no_context, _match_hook),
    "classify_all": (_no_context, _rows_hook),
}


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans) -> tuple[Counter, Counter]:
    """(self time, inclusive time) per span name, over spans of one record."""
    child_time = [0.0] * len(spans)
    for run, name, start, end, parent in spans:
        if parent is not None:
            child_time[parent] += end - start
    own, total = Counter(), Counter()
    for i, (run, name, start, end, parent) in enumerate(spans):
        own[name] += (end - start) - child_time[i]
        total[name] += end - start
    return own, total


def _ratio(num, den):
    return num / den if den else 0.0


def engine_metrics(record) -> dict:
    """Layer metrics of one traced set-up plus sweep pass (toric-sweep unit)."""
    own, total = self_times(record["spans"])
    c = Counter(record["counts"])

    def need(*attrs):
        return _present(record, *attrs)

    m = {}
    if need("_candidate_totals"):
        m["classify6.candidates_s"] = own["classify6.candidates"]
        m["classify6.candidates_yielded"] = c["_candidate_totals.yielded"]
    if need("_sweep_path", "_check_top", "_check_slices"):
        m["classify6.sweep_s"] = own["classify6.sweep"]
    if need("_sweep_path"):
        m["classify6.sweep_calls"] = c["_sweep_path"]
    if need("_candidate_totals", "component_splittings"):
        m["classify6.sweep_pass_ratio"] = _ratio(
            c["component_splittings.in_sweep"], c["_candidate_totals.yielded"]
        )
    if need("_canonicalize"):
        m["classify6.canonicalize_s"] = own["classify6.canonicalize"]
    if need("classify_all"):
        m["classify6.rows"] = c["classify_all.rows"]
        m["classify6.classify_all_s"] = total["classify6.classify_all"]
    if need("component_splittings"):
        m["lattice.splittings_s"] = own["lattice.splittings"]
        m["lattice.splittings_calls"] = c["component_splittings"]
        m["lattice.splittings_found"] = c["component_splittings.found"]
    if need("exceptional_classes"):
        m["lattice.exceptional_s"] = own["lattice.exceptional"]
        m["lattice.exceptional_calls"] = c["exceptional_classes"]
    if need("vanishing_classes"):
        m["reduction.vanishing_s"] = own["reduction.vanishing"]
        m["reduction.vanishing_calls"] = c["vanishing_classes"]
    if need("blowdown_lattice"):
        m["reduction.blowdown_s"] = own["reduction.blowdown"]
        m["reduction.blowdown_calls"] = c["blowdown_lattice"]
    if need("integrate"):
        m["localization.integrate_s"] = own["localization.integrate"]
        m["localization.integrate_calls"] = c["integrate"]
        m["localization.accept_ratio"] = _ratio(c["integrate.zero"], c["integrate"])
    if need("chern_number"):
        m["localization.chern_s"] = own["localization.chern"]
        m["localization.chern_calls"] = c["chern_number"]
    if need("is_semifree"):
        m["toric.semifree_s"] = own["toric.semifree"]
        m["toric.directions"] = c["is_semifree.outer"]
        m["toric.semifree"] = c["is_semifree.true"]
    if need("tfd_from_polytope"):
        m["toric.match_s"] = own["toric.match"]
        m["toric.matched"] = c["tfd_from_polytope.matched"]
        m["toric.match_ratio"] = _ratio(c["tfd_from_polytope.matched"], c["tfd_from_polytope"])
    if need("chern_number_from_volume"):
        m["toric.volume_s"] = own["toric.volume"]
    if need("classify_all", "_candidate_totals", "component_splittings"):
        m["trace.hot_path_share"] = _ratio(
            own["classify6.candidates"] + own["lattice.splittings"],
            total["classify6.classify_all"],
        )
    return m


def cli_metrics(records) -> dict:
    """Layer metrics of one traced pass of cold CLI commands."""
    own = Counter()
    for record in records:
        own.update(self_times(record["spans"])[0])
    m = {"cli.import_s": own["cli.import"]}
    if all(_present(r, "classify4") for r in records):
        m["classify4.classify_s"] = own["classify4.classify"]
    if all(_present(r, "report_row_from_tfd", "render_tsv") for r in records):
        m["cli.render_s"] = own["cli.render"]
    return m


def _present(record, *attrs) -> bool:
    """Whether any of the wrapped functions named by attrs still exists."""
    absent = {a.rsplit(".", 1)[1] for a in record["absent"]}
    return not all(a in absent for a in attrs)
