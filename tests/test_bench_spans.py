"""The benchmark's span recorder wraps package functions by name; a name
that no longer resolves turns that layer's traced metrics into null."""

import importlib
import importlib.util
from pathlib import Path

SPANS_PATH = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_resolves():
    spans = load_spans()
    targets = [target for group in spans.SPAN_TARGETS.values() for target in group]
    assert targets
    missing = [
        f"orbitscope.{module}.{name}"
        for module, name in targets
        if not callable(getattr(importlib.import_module(f"orbitscope.{module}"), name, None))
    ]
    assert missing == []
    assert set(spans.FACTORIZATION_SPANS) <= set(spans.SPAN_TARGETS)
