"""Every name a `hermes_seal` module lists in `__all__` exists, the
package's star import works, no file imports a name it never uses, and
every public function or class in `src/` has a caller outside the tests, so
a deletion that leaves a stale export or import, or code only tests use,
fails here in seconds."""

import ast
import importlib
import pkgutil
import re
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


# the non-test callers: the package, the demos, the benchmark harness, the
# README and the release criteria
CALLERS = sorted([f for d in ("src", "demos", "perfbench")
                  for f in (ROOT / d).rglob("*.py") if f.name != "__init__.py"]
                 + [ROOT / "tests" / "test_acceptance.py"])


def test_src_names_have_a_caller():
    defined = {}
    for f in (ROOT / "src").rglob("*.py"):
        for node in ast.parse(f.read_text()).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defined[node.name] = f.name
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for f in CALLERS:
        for top in ast.parse(f.read_text()).body:
            own = getattr(top, "name", None)   # a definition is no caller
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name) else
                        node.attr if isinstance(node, ast.Attribute) else None)
                if name and name != own:
                    used.add(name)
    orphans = sorted(f"{defined[n]}:{n}" for n in defined if n not in used)
    assert not orphans, f"only tests call {orphans}; move them to tests/"
