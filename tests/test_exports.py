"""Every name a `hermes_seal` module lists in `__all__` exists, and the
package's star import works, so a deletion that leaves a stale export fails
here in seconds."""

import importlib
import pkgutil

import pytest

import hermes_seal

MODULES = sorted(m.name for m in pkgutil.iter_modules(hermes_seal.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_exist(name):
    module = importlib.import_module(f"hermes_seal.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert not missing, f"hermes_seal.{name}.__all__ lists missing {missing}"


def test_package_star_import():
    namespace = {}
    exec("from hermes_seal import *", namespace)
    assert "FieldElement" in namespace
