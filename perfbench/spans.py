"""Outside-in tracing: wrap cellgauge's public callables and record spans.

No line of cellgauge changes. Each wrapped name is replaced, in the module
or class that binds it, by a wrapper that records ``(name, start, end,
parent)`` in memory. Return values that the per-layer counters need are kept
and read after the audit, so counting adds nothing to the timed spans.

A name that no longer exists (after a refactor) is reported as absent and
its metrics read 0; the run does not fail.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# (span name, module[:class] that binds it, attribute, keep the return value)
TARGETS = (
    ("analyze", "cellgauge.cli", "analyze", False),
    ("emit_report", "cellgauge.cli", "emit_report", False),
    ("analyze_workbook", "cellgauge.report", "analyze_workbook", False),
    ("load_workbook", "cellgauge.report", "load_workbook", False),
    ("parse_formula", "cellgauge.workbook", "parse_formula", False),
    ("_resolve_all", "cellgauge.report", "_resolve_all", True),
    ("build_graph", "cellgauge.report", "build_graph", True),
    ("formula_metrics", "cellgauge.report", "formula_metrics", False),
    ("find_conditionals", "cellgauge.report", "find_conditionals", True),
    ("all_complexities", "cellgauge.report", "all_complexities", False),
    ("cascade_stats", "cellgauge.graph:CellGraph", "cascade_stats", True),
    ("cascade_reliability", "cellgauge.report", "cascade_reliability", False),
    ("check_range_linkage", "cellgauge.report", "check_range_linkage", True),
    ("modular_metrics", "cellgauge.report", "modular_metrics", False),
)


def _owner(path: str):
    """The module, or ``module:Class``, that binds a traced name; None if gone."""
    module, _, cls = path.partition(":")
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(owner, cls, None) if cls else owner


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.kept: dict[str, list] = defaultdict(list)
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> None:
        for name, owner_path, attr, keep in TARGETS:
            owner = _owner(owner_path)
            fn = getattr(owner, attr, None) if owner is not None else None
            if not callable(fn):
                self.absent.append(name)
                continue
            setattr(owner, attr, self._wrap(name, fn, keep))

    def _wrap(self, name, fn, keep):
        spans, stack, kept = self.spans, self._stack, self.kept[name]
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if keep:
                kept.append(result)
            return result

        return wrapper

    def times_ms(self) -> dict:
        """Per span name: call count and self time in ms.

        Self time is a span's duration minus the durations of its direct
        children.
        """
        child_ms = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "self_ms": 0.0})
            entry["calls"] += 1
            entry["self_ms"] += (end - start) * 1e3 - child_ms[i]
        return out

    def counters(self) -> dict:
        """Counts read from the kept return values of the wrapped calls.

        A count whose source is absent or no longer has the attribute read
        here is left out rather than failing the audit.
        """
        kept = self.kept
        counts = {
            "arcs": lambda: sum(len(refs) for refs, _ in kept["_resolve_all"]),
            "range_arcs": lambda: sum(
                1 for refs, _ in kept["_resolve_all"] for r in refs if r.via_range),
            "nodes": lambda: sum(g.node_count for g in kept["build_graph"]),
            "edges": lambda: sum(g.edge_count for g in kept["build_graph"]),
            "materialized": lambda: sum(
                len(g.materialized_cells()) for g in kept["build_graph"]),
            "constructs": lambda: sum(len(cs) for cs in kept["find_conditionals"]),
            "finals": lambda: sum(
                1 for cs in kept["find_conditionals"] for c in cs if c.is_final),
            "cascade_members": lambda: sum(s.cell_count for s in kept["cascade_stats"]),
            "range_findings": lambda: sum(len(f) for f in kept["check_range_linkage"]),
        }
        out: dict = {}
        for name, count in counts.items():
            try:
                out[name] = count()
            except (AttributeError, TypeError, ValueError):
                continue
        return out
