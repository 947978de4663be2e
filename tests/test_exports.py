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


def _public_names(tree) -> dict:
    """{qualified name: name} for the public functions and classes of a
    module and the public methods and class-level aliases (`b = a`) of its
    classes, private classes included."""
    names = {}
    for node in tree.body:
        if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                and not node.name.startswith("_")):
            names[node.name] = node.name
        for item in node.body if isinstance(node, ast.ClassDef) else []:
            if isinstance(item, ast.FunctionDef):
                own = [item.name]
            elif (isinstance(item, ast.Assign)
                  and isinstance(item.value, ast.Name)):
                own = [t.id for t in item.targets if isinstance(t, ast.Name)]
            else:
                continue
            names.update((f"{node.name}.{n}", n) for n in own
                         if not n.startswith("_"))
    return names


def _is_all(node) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)


def _uses(source: str) -> set:
    """The names a caller's `source` uses: loads, as a name or an attribute,
    and strings (perfbench's `spans.WRAPPED` patches methods by name).  A
    definition does not use its own name, an assignment uses nothing, and a
    module's `__all__` lists what it exports, not what it calls."""
    used = set()
    for top in ast.parse(source).body:
        if _is_all(top):
            continue
        own = getattr(top, "name", None)
        for node in ast.walk(top):
            if isinstance(getattr(node, "ctx", None), ast.Store):
                continue
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else
                    node.value if isinstance(node, ast.Constant)
                    and isinstance(node.value, str) else None)
            if name and name != own:
                used.add(name)
    return used


def test_uses_skip_exports_and_definitions():
    source = ('__all__ = ["helper", "Box"]\n'
              'def helper():\n    return helper\n'
              'class Box:\n    def size(self):\n        return 1\n'
              '    length = size\n'
              'WRAPPED = [(Box, "size")]\n')
    assert _uses(source) == {"Box", "size"}
    assert _public_names(ast.parse(source)) == {
        "helper": "helper", "Box": "Box", "Box.size": "size",
        "Box.length": "length"}


def test_src_names_have_a_caller():
    defined = {}
    for f in (ROOT / "src").rglob("*.py"):
        defined.update((f"{f.name}:{q}", n) for q, n in
                       _public_names(ast.parse(f.read_text())).items())
    used = set(re.findall(r"\w+", (ROOT / "README.md").read_text()))
    for f in CALLERS:
        used |= _uses(f.read_text())
    orphans = sorted(q for q, n in defined.items() if n not in used)
    assert not orphans, f"only tests call {orphans}; move them to tests/"
