"""Every name the package and its modules export resolves."""

import importlib
import pkgutil

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
