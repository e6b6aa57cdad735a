"""Every exported name resolves.

Wildcard imports and tools that walk the public surface call ``getattr`` on
each name in ``__all__``, so a stale entry breaks them at import time.
"""
import importlib
import pkgutil

import pytest

import cesaro

_MODULES = ["cesaro"] + [f"cesaro.{m.name}"
                         for m in pkgutil.iter_modules(cesaro.__path__)]


@pytest.mark.parametrize("module", _MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(module)
    names = getattr(mod, "__all__", [])
    missing = [name for name in names if not hasattr(mod, name)]
    assert not missing, f"{module}.__all__ names {missing}"
    assert len(set(names)) == len(names), f"{module}.__all__ repeats a name"
