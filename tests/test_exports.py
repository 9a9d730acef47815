"""Every name the package exports resolves, so a stale entry left in an
`__all__` by a deletion fails here and not in a user's
``from ci_toolkit import *``."""

import importlib
import pkgutil

import pytest

import ci_toolkit

MODULES = ["ci_toolkit"] + [
    f"ci_toolkit.{info.name}" for info in pkgutil.iter_modules(ci_toolkit.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what {name} lacks: {missing}"
