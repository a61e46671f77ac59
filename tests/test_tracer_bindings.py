"""The benchmark tracer's bindings still exist in the library.

``bench/tracer.py`` wraps public functions at the module bindings their
callers use. A binding that the library drops (say, an import that only the
tracer read) would otherwise surface only in a traced benchmark run.
"""

import ast
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


SRC = Path(__file__).resolve().parent.parent / "src" / "plateaulab"


def _unused_imports(path):
    """Names bound by the imports of ``path`` marked ``# noqa: F401``."""
    lines = path.read_text(encoding="utf-8").splitlines()
    for node in ast.walk(ast.parse("\n".join(lines))):
        if isinstance(node, (ast.Import, ast.ImportFrom)) and any(
                "# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
            yield from (alias.asname or alias.name for alias in node.names)


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_every_unused_import_is_a_binding_the_tracer_wraps(path):
    # An import kept only for the tracer is unused in its module, so it is
    # marked for the linter; each such mark must name a BINDINGS row, and
    # the row and the import go together.
    module = importlib.import_module(f"plateaulab.{path.stem}")
    wrapped = {attr for m, attr, _ in BINDINGS if m is module}
    stray = [name for name in _unused_imports(path) if name not in wrapped]
    assert not stray, f"plateaulab.{path.stem} keeps {stray} with no BINDINGS row"
