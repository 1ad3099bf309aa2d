"""The benchmark's tracer finds its layer functions by name: a renamed one
would record no span, and its metrics would read 0 with no error."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_layer_function_exists():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{attr}"
        for module, attr in tracing.LAYER_FUNCTIONS.values()
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing
