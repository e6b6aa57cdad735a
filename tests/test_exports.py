"""Every exported name resolves.

Wildcard imports and tools that walk the public surface call ``getattr`` on
each name in ``__all__``, so a stale entry breaks them at import time.
"""
import ast
import importlib
import os
import pathlib
import pkgutil
import subprocess
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


# the public surface, in order: CesaroEvaluation and __version__, then the
# __all__ of accumulate, exact, finite_part, integral, series and zeta
_PUBLIC = [
    "CesaroEvaluation", "__version__",
    "compensated_prefix_sums",
    "BernoulliTable", "bernoulli", "faulhaber_sum", "zeta_neg_int", "PeriodicPolynomial",
    "pm_polynomial", "periodic_mean",
    "FinitePartDecomposition", "IllConditionedFitError", "fp_power_integral",
    "fp_power_integral_exact", "fp_log_power_integral", "fp_log_power_integral_exact",
    "extract_finite_part",
    "IntegrandSpec", "QuadratureError", "default_grid", "riesz_mean", "cesaro_integral",
    "primitive_limit", "sin_wave", "cos_wave", "exp_decay", "power_log", "periodic_poly",
    "sampled",
    "SeriesSpec", "iterated_partial_sums", "cesaro_sum", "detect_order",
    "StaircaseSpec", "new_primitive_state", "staircase_value", "advance_primitives",
    "zeta_via_cesaro", "zeta_prime_via_cesaro", "lemma_witness",
]
_SUBMODULES = ["accumulate", "evaluation", "exact", "finite_part", "integral", "series",
               "zeta"]


def test_the_public_surface_is_pinned():
    assert cesaro.__all__ == _PUBLIC
    assert set(dir(cesaro)) >= set(_PUBLIC) | set(_SUBMODULES)
    assert cesaro.QuadratureError is cesaro.integral.QuadratureError
    assert cesaro.CesaroEvaluation is cesaro.evaluation.CesaroEvaluation
    star = {}
    exec("from cesaro import *", star)
    del star["__builtins__"]
    assert star == {name: getattr(cesaro, name) for name in _PUBLIC}


def _probe(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this checkout's cesaro."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cesaro.__file__)))
    return subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)


_LAZY_PROBE = """
import sys
import cesaro
if "numpy" in sys.modules:
    sys.exit("import cesaro loaded numpy")
from cesaro import bernoulli, fp_power_integral
if "numpy" in sys.modules:
    sys.exit("an exact name loaded numpy")
cesaro.zeta_via_cesaro(0.5), cesaro.zeta_prime_via_cesaro(0.0)
cesaro.lemma_witness(cesaro.pm_polynomial(2, 1))
cesaro.extract_finite_part(lambda e: 1 / e + 7, [(1, 0)], [10.0 ** -i for i in range(2, 8)])
if "numpy" in sys.modules:
    sys.exit("a zeta estimate or a finite-part fit read off the package loaded numpy")
cesaro.__all__
listed = dir(cesaro)
if "numpy" in sys.modules:
    sys.exit("cesaro.__all__ or dir(cesaro) loaded numpy")
if vars(cesaro)["bernoulli"] is not cesaro.exact.bernoulli:
    sys.exit("cesaro.bernoulli was not cached")
print(listed)
cesaro.integral, cesaro.evaluation  # submodules still resolve
"""


def test_import_cesaro_loads_no_numpy_and_lists_what_an_eager_import_did():
    proc = _probe(_LAZY_PROBE)
    assert proc.returncode == 0, proc.stderr
    module_dunders = ["__all__", "__builtins__", "__cached__", "__doc__", "__file__",
                      "__loader__", "__name__", "__package__", "__path__", "__spec__"]
    assert ast.literal_eval(proc.stdout) == sorted(module_dunders + _PUBLIC + _SUBMODULES)


def _loaded_after(reads: str) -> set:
    """The cesaro submodules loaded once ``reads`` has run after ``import cesaro``."""
    proc = _probe(f"import sys, cesaro\n{reads}\n"
                  "print(sorted(m for m in sys.modules if m.startswith('cesaro.')))")
    assert proc.returncode == 0, proc.stderr
    return set(ast.literal_eval(proc.stdout))


def test_a_public_name_imports_only_its_owner():
    # series imports accumulate and evaluation itself; nothing else is read
    loaded = _loaded_after("cesaro.SeriesSpec")
    assert "cesaro.series" in loaded
    assert not loaded & {"cesaro.exact", "cesaro.finite_part", "cesaro.integral",
                         "cesaro.zeta"}
    assert _loaded_after("cesaro.zeta_neg_int") == {"cesaro.exact"}


@pytest.mark.parametrize("name", ["no_such_name", "_private", "_weighted_fit",
                                  "tail_judgement", "__wrapped__"])
def test_an_unknown_or_private_name_imports_nothing(name):
    reads = (f"try:\n    getattr(cesaro, {name!r})\nexcept AttributeError:\n    pass\n"
             f"else:\n    sys.exit('cesaro.{name} resolved')")
    assert _loaded_after(reads) == set()


def test_the_package_table_repeats_each_module_all():
    # the package lists each name beside its owner, a second copy of each
    # module's __all__; evaluation's other names serve the modules only
    for module, names in cesaro._EXPORTS.items():
        owner = importlib.import_module(f"cesaro.{module}")
        if module == "evaluation":
            assert names == ("CesaroEvaluation",)
            assert set(names) <= set(owner.__all__)
        else:
            assert list(names) == owner.__all__, module
    assert sorted(cesaro._EXPORTS) == _SUBMODULES


def _unused_imports(path: pathlib.Path) -> list:
    """The names a module imports and never reads; a name in its __all__
    counts as read, and __future__ imports are skipped."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


@pytest.mark.parametrize("path", sorted(pathlib.Path(cesaro.__file__).parent.glob("*.py")),
                         ids=lambda path: path.name)
def test_no_module_imports_a_name_it_never_uses(path):
    assert not _unused_imports(path)
