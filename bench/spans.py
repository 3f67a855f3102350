"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the orbitscope modules at every name
their callers look them up by (the defining module, every module that
imported the name, and the package namespace), records one span per call in
memory, and restores the original bindings when uninstalled.  A span is
(name, start, end, parent index, item id); the parent is the innermost span
open when the call started, so self time is a span's duration minus the part
of it that its child spans cover.
"""

from __future__ import annotations

import json
import sys
import time

# Per-layer span names and the functions each one wraps, as (module, name).
# A layer is a module of the package; `states.construct` groups the state
# family constructors because callers reach them through one spec parser.
SPAN_TARGETS = {
    "states.construct": [
        ("states", "make_basis"),
        ("states", "make_cat"),
        ("states", "make_singlet_product"),
        ("states", "make_singlet_product_plus_zero"),
        ("states", "sample_haar_state"),
        ("states", "tensor"),
    ],
    "states.load_state": [("states", "load_state")],
    "lie_action.triple_columns_exact": [("lie_action", "triple_columns_exact")],
    "lie_action.triple_columns": [("lie_action", "triple_columns")],
    "lie_action.apply_group": [("lie_action", "apply_group")],
    "orbit_matrix.build_matrix": [("orbit_matrix", "build_matrix")],
    "orbit_matrix.rank_exact": [("orbit_matrix", "rank_exact")],
    "orbit_matrix.exact_nullspace": [("orbit_matrix", "exact_nullspace")],
    "orbit_matrix.rank_float": [("orbit_matrix", "rank_float")],
    "orbit_matrix.float_nullspace": [("orbit_matrix", "float_nullspace")],
    "orbit_matrix.numerical_rank": [("orbit_matrix", "numerical_rank")],
    "inner_products.table_inner_product": [("inner_products", "table_inner_product")],
    "inner_products.direct_inner_product": [("inner_products", "direct_inner_product")],
    "inner_products.orthogonality_report": [("inner_products", "orthogonality_report")],
    "z2.find_parity_set": [("z2", "find_parity_set")],
    "z2.zero_rows": [("z2", "zero_rows")],
    "lu_adjust.adjust_dependency": [("lu_adjust", "adjust_dependency")],
    "lu_adjust.adjust_two_common": [("lu_adjust", "adjust_two_common")],
    "lu_adjust.triple_span_dim": [("lu_adjust", "triple_span_dim")],
    "cli.main": [("cli", "main")],
    "cli.analyze_state": [("cli", "analyze_state")],
    "cli.dumps": [("cli", "dumps")],
}

# The root span the benchmark opens around each item; its self time is the
# harness's own share of the traced wall time.
ITEM_SPAN = "bench.item"

# Spans whose calls count as one factorization of M each.
FACTORIZATION_SPANS = (
    "orbit_matrix.rank_exact",
    "orbit_matrix.exact_nullspace",
    "orbit_matrix.rank_float",
    "orbit_matrix.float_nullspace",
)


class SpanRecorder:
    """Collects spans in memory; `install` patches, `uninstall` restores."""

    def __init__(self, package: str = "orbitscope"):
        self.package = package
        self.spans: list[tuple] = []
        self.item = None
        self.matrix_entries = 0
        self.missing: set[str] = set()
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def span(self, name, fn, on_result=None):
        """Return `fn` wrapped so that each call records one span."""
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.item)
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _count_entries(self, matrix) -> None:
        data = getattr(matrix, "data", None)
        if data is None:
            self.missing.add("orbit_matrix.matrix_entries")
        else:
            self.matrix_entries += int(data.size)

    def install(self) -> None:
        """Wrap every target at every module-level name bound to it."""
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]
        for span_name, targets in SPAN_TARGETS.items():
            for module_name, func_name in targets:
                home = sys.modules.get(f"{self.package}.{module_name}")
                original = getattr(home, func_name, None)
                if original is None:
                    self.missing.add(span_name)
                    continue
                on_result = self._count_entries if span_name == "orbit_matrix.build_matrix" else None
                wrapper = self.span(span_name, original, on_result)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "item"], "spans": self.spans}, fh,
                      separators=(",", ":"))


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of the parts of
    it covered by its direct children."""
    children: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        children.setdefault(span[3], []).append(index)
    out = []
    for index, (_, start, end, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child in sorted(children.get(index, ()), key=lambda c: spans[c][1]):
            lo = max(spans[child][1], reach)
            hi = min(spans[child][2], end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, dict]:
    """Total self seconds and call count per span name."""
    totals: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        entry = totals.setdefault(span[0], {"self_s": 0.0, "calls": 0})
        entry["self_s"] += own
        entry["calls"] += 1
    return totals
