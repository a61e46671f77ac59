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


ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "plateaulab"


def _unused_imports(path, marked=True):
    """Names bound by the imports of ``path`` marked ``# noqa: F401``, or with
    ``marked=False`` those of unmarked imports that the module never reads.
    ``import a.b`` binds ``a``, and ``__future__`` imports bind nothing."""
    lines = path.read_text(encoding="utf-8").splitlines()
    tree = ast.parse("\n".join(lines))
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.Import, ast.ImportFrom))
                or getattr(node, "module", None) == "__future__"):
            continue
        if marked == any("# noqa: F401" in line
                         for line in lines[node.lineno - 1:node.end_lineno]):
            names = (alias.asname or alias.name.split(".")[0] for alias in node.names)
            yield from (name for name in names if marked or name not in read)


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


# The package's __init__ imports only to re-export.
@pytest.mark.parametrize("path", sorted(
    p for p in [*SRC.glob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    if p != SRC / "__init__.py"), ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read_unless_marked(path):
    unread = list(_unused_imports(path, marked=False))
    assert not unread, f"{path.relative_to(ROOT)} imports {unread} and never reads them"
