"""The benchmark tracer's bindings still exist in the library.

``bench/tracer.py`` wraps public functions at the module bindings their
callers use. A binding that the library drops (say, an import that only the
tracer read) would otherwise surface only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "bench_tracer", Path(__file__).resolve().parent.parent / "bench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)
BINDINGS = tracer.BINDINGS


@pytest.mark.parametrize("module, attr, name", BINDINGS,
                         ids=[f"{m.__name__}.{a}" for m, a, _ in BINDINGS])
def test_binding_resolves_to_the_function_its_span_names(module, attr, name):
    layer, function = name.split(".")
    bound = getattr(module, attr)
    assert callable(bound)
    assert bound is getattr(importlib.import_module(f"plateaulab.{layer}"), function)
