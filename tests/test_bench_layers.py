"""The benchmark's traced layers still exist in risim, with their split parameters.

bench/tracer.py wraps each layer function by name and splits some spans by a
parameter (kind, theta2). A renamed function or parameter reads as an absent
layer there, not as an error, so this checks the names from the tier-1 suite.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_is_a_risim_function_with_its_split(monkeypatch):
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracer)  # dataclasses resolves the module by name
    spec.loader.exec_module(tracer)
    assert {layer.split for layer in tracer.LAYERS} >= {"kind", "theta2"}
    for layer in tracer.LAYERS:
        fn = getattr(importlib.import_module(f"risim.{layer.module}"), layer.func, None)
        assert callable(fn), f"risim.{layer.module}.{layer.func} is gone"
        if layer.split is not None:
            assert layer.split in inspect.signature(fn).parameters, (layer.func, layer.split)
