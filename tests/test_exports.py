"""Every name a `hermes_seal` module lists in `__all__` exists, the
package's star import works, and no file imports a name it never uses, so a
deletion that leaves a stale export or import fails here in seconds."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hermes_seal

MODULES = sorted(m.name for m in pkgutil.iter_modules(hermes_seal.__path__))
ROOT = Path(__file__).resolve().parent.parent
# a package's __init__.py imports names to re-export them
SOURCES = sorted(str(f.relative_to(ROOT)) for d in ("src", "tests", "demos")
                 for f in (ROOT / d).rglob("*.py") if f.name != "__init__.py")


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"hermes_seal.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"hermes_seal.{name}.__all__ lists missing {missing}"


def test_package_star_import():
    namespace = {}
    exec("from hermes_seal import *", namespace)
    assert "FieldElement" in namespace


def _unused_imports(source: str) -> list:
    """Names `source` imports but never loads, nor lists in `__all__`."""
    imported, loaded = set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) != "__future__":
                imported.update((a.asname or a.name).split(".")[0]
                                for a in node.names if a.name != "*")
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            loaded.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            loaded.update(ast.literal_eval(node.value))
    return sorted(imported - loaded)


@pytest.mark.parametrize("path", SOURCES)
def test_no_unused_imports(path):
    unused = _unused_imports((ROOT / path).read_text())
    assert not unused, f"{path} imports {unused} but never uses them"
