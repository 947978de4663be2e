"""Smoke test: each walkthrough under demos/ runs to the end."""

import contextlib
import importlib.util
import io
import pathlib

import pytest

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["stop_sign_broadcast", "audit_challenge",
                                  "fleet_simulation"])
def test_demo_main_returns(name):
    spec = importlib.util.spec_from_file_location(
        f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        module.main()
    assert out.getvalue().strip()
