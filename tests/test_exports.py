"""Every name a llab module exports in `__all__` resolves in that module,
so that deleting a function cannot leave a stale export behind."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import llab

MODULES = [
    name
    for name in ["llab"] + [m.name for m in pkgutil.walk_packages(llab.__path__, "llab.")]
    if hasattr(importlib.import_module(name), "__all__")
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names {missing}"
