"""Spans at the module boundaries of fano3, recorded from outside the package.

A traced run rebinds, for the length of a ``with Tracer(...)`` block, the
names through which one fano3 module calls another (and the criteria that
``classify`` calls inside its own module) to wrappers that record a span:
name, start, end, parent span and polytope id.  Spans stay in memory and
are written out at the end of the run.  Nothing under ``src/`` changes.
"""

from __future__ import annotations

import json
from time import perf_counter_ns

# (module, attribute rebound there, span name); the span name is
# <layer>.<function> of the module that defines the function
BOUNDARIES = (
    ("polytope", "convex_hull", "polytope.convex_hull"),
    ("polytope", "count_box_points", "kernels.count_box_points"),
    ("polytope", "convex_hull_2d", "polygon.convex_hull_2d"),
    ("polygon", "convex_hull_2d", "polygon.convex_hull_2d"),
    ("polygon", "smith_normal_form", "intlinalg.smith_normal_form"),
    ("polygon", "inverse_unimodular", "intlinalg.inverse_unimodular"),
    ("polygon", "matvec", "intlinalg.matvec"),
    ("criteria", "classify", "criteria.classify"),
    ("criteria", "criterion_indec", "criteria.criterion_indec"),
    ("criteria", "criterion_aft", "criteria.criterion_aft"),
    ("criteria", "criterion_rigid_face", "criteria.criterion_rigid_face"),
    ("criteria", "criterion_totaro_rigid", "criteria.criterion_totaro_rigid"),
    ("criteria", "facet_to_polygon", "polygon.facet_to_polygon"),
    ("criteria", "classify_polygon", "polygon.classify_polygon"),
    ("criteria", "is_minkowski_indecomposable", "polygon.is_minkowski_indecomposable"),
    ("criteria", "extends_to_basis", "intlinalg.extends_to_basis"),
    ("criteria", "solve_height_one", "intlinalg.solve_height_one"),
    ("criteria", "polar", "polytope.polar"),
    ("criteria", "normalized_volume", "polytope.normalized_volume"),
    ("criteria", "lattice_points", "polytope.lattice_points"),
    ("db", "parse_palp", "db.parse_palp"),
    ("db", "write_reports", "db.write_reports"),
)

# span names whose calls and self time the per-layer metrics report
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in BOUNDARIES)) + (
    "bench.list_assembly",
)


class Tracer:
    """Records spans while active; the package is restored on exit.

    ``spans`` holds [name, start_ns, end_ns, parent_index, polytope_id] lists;
    the parent index is -1 for the calls the benchmark itself makes.
    ``polytope_id`` is set by the caller before each record.
    """

    def __init__(self, modules: dict):
        self.modules = modules
        self.spans: list[list] = []
        self.polytope_id = None
        self.columns_scanned = 0
        self.box_cells = 0
        self.points_counted = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count_kernel = name == "kernels.count_box_points"

        def traced(*args, **kwargs):
            span = [name, 0, 0, stack[-1] if stack else -1, self.polytope_id]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter_ns()
                stack.pop()
            if count_kernel:
                self._count_box(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count_box(self, args, result) -> None:
        _, _, lo, hi = args[:4]
        widths = [max(0, int(h) - int(l) + 1) for l, h in zip(lo, hi)]
        self.columns_scanned += widths[0] * widths[1]
        self.box_cells += widths[0] * widths[1] * widths[2]
        self.points_counted += result

    def __enter__(self):
        for module, attr, name in BOUNDARIES:
            mod = self.modules[module]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self.wrap(name, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds; plus top-level total."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        stats: dict[str, dict] = {}
        top_ns = 0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = stats.setdefault(name, {"calls": 0, "total_ns": 0, "self_ns": 0})
            entry["calls"] += 1
            entry["total_ns"] += end - start
            entry["self_ns"] += end - start - child_ns[i]
            if parent < 0:
                top_ns += end - start
        return {"spans": stats, "top_level_ns": top_ns}

    def dump(self, path) -> None:
        """Write the spans as JSON lines (name, start, end, parent, id)."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")))
                fh.write("\n")

