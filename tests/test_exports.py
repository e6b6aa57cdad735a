"""Every exported name resolves.

Wildcard imports and tools that walk the public surface call ``getattr`` on
each name in ``__all__``, so a stale entry breaks them at import time.
"""
import ast
import importlib
import pathlib
import pkgutil
import sys

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


def test_names_the_benchmark_calls_resolve():
    # bench/ reaches the package as ``api``; its tests run outside this
    # suite, so a renamed or dropped export would only break it there
    bench = pathlib.Path(__file__).resolve().parent.parent / "bench"
    used = set()
    for path in bench.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "api"):
                used.add(node.attr)
    assert {"advance_primitives", "zeta_via_cesaro"} <= used
    assert not sorted(name for name in used if not hasattr(cesaro, name))


def test_oracles_import_only_the_standard_library():
    # the oracles stay independent of the code they check, and need nothing
    # beyond the interpreter
    path = pathlib.Path(__file__).resolve().parent / "oracles.py"
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "oracles.py imports relatively"
            roots.add(node.module.split(".")[0])
    assert roots, "no imports found"
    assert not roots & {"cesaro", "numpy", "scipy", "bench"}
    assert roots <= sys.stdlib_module_names, sorted(roots - sys.stdlib_module_names)
