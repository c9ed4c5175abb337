"""Every name the package and its modules export resolves, and the CLI's
import graph stays free of scipy, which only the tests need."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import pytest

import jacobi_fading

MODULES = ["jacobi_fading"] + [
    f"jacobi_fading.{info.name}" for info in pkgutil.iter_modules(jacobi_fading.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    stale = [export for export in getattr(module, "__all__", ()) if not hasattr(module, export)]
    assert not stale, f"{name}.__all__ names missing attributes: {stale}"


def test_cli_import_loads_no_scipy():
    src = str(pathlib.Path(jacobi_fading.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = (
        "import jacobi_fading.cli, sys; "
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "[]"
