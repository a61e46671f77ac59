"""Each explanation has one home: every public name documents its own
contract, and README's module map names only what each module holds."""

import importlib
import pkgutil
import re
import types
from pathlib import Path

import pytest

import plateaulab

README = Path(__file__).resolve().parent.parent / "README.md"

PUBLIC = sorted(name for name, obj in vars(plateaulab).items()
                if not name.startswith("_") and not isinstance(obj, types.ModuleType))


def _module_map() -> dict[str, str]:
    """README's "Library layout" bullets, keyed by the module each one names."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.split(r"^- ", section, flags=re.MULTILINE)[1:]
    assert bullets, "the module map has no bullets"
    modules = {}
    for bullet in bullets:
        match = re.match(r"`plateaulab\.(\w+)`", bullet)
        assert match, f"bullet does not start with a plateaulab module: {bullet[:40]!r}"
        modules[match[1]] = bullet
    return modules


MODULE_MAP = _module_map()


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_has_its_own_docstring(name):
    obj = getattr(plateaulab, name)
    # A class's own entry, not one inherited from Enum or object.
    doc = vars(obj).get("__doc__") if isinstance(obj, type) else obj.__doc__
    assert doc and doc.strip(), f"{name} has no docstring"
    assert doc != "An enumeration.", f"{name} has only Enum's generic docstring"
    # A dataclass without a docstring gets its signature as one.
    assert not doc.startswith(f"{name}("), f"{name} has only its generated signature"


def test_module_map_covers_every_module():
    modules = {info.name for info in pkgutil.iter_modules(plateaulab.__path__)}
    assert set(MODULE_MAP) == modules


@pytest.mark.parametrize("module", sorted(MODULE_MAP))
def test_module_map_names_are_module_attributes(module):
    mod = importlib.import_module(f"plateaulab.{module}")
    missing = [name for name in re.findall(r"`([A-Za-z_]\w*)`", MODULE_MAP[module])
               if not hasattr(mod, name)]
    assert not missing, f"plateaulab.{module} has no {missing}"
