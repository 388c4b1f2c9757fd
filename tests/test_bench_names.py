"""Every function the benchmark's tracer binds by name still exists.

``bench/tracing.py`` patches its targets by name, and a target that is gone
shows up only as ``missing`` in a traced benchmark run.  This test reads the
tracer's name lists (importing the file changes nothing) and resolves each
against the package.
"""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_is_a_function_of_its_layer():
    tracing = _tracing()
    targets = [(layer, fn) for layer, fns in tracing.LAYER_SPANS.items() for fn in fns]
    _, layer, attr = tracing.BATCHED_SOLVE
    targets.append((layer, attr))
    missing = [
        f"rkhslab.{layer}.{fn}" for layer, fn in targets
        if not callable(getattr(importlib.import_module(f"rkhslab.{layer}"), fn, None))
    ]
    assert ("kernel", "_solve_columns") in targets
    assert missing == []
