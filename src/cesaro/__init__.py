"""Generalized summation toolkit.

Cesaro (C,k) limits of series, integrals, and functions; Hadamard finite
parts of divergent integrals; exact Bernoulli/Faulhaber algebra; and zeta
special values recovered both exactly (zeta(-n) = -B_{n+1}/(n+1)) and
numerically as Cesaro limits of power-sum staircases.

Submodules and public names are imported on first access (PEP 562), so
``import cesaro`` and the exact layer load no numpy.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# every submodule, in the order a public name is looked for: the first three
# load no numpy, so reading an exact name does not import it
_SUBMODULES = ("evaluation", "exact", "finite_part", "accumulate", "integral",
               "series", "zeta")
# the public surface is CesaroEvaluation and __version__, then these modules'
# __all__, in this order
_REPUBLISHED = ("accumulate", "exact", "finite_part", "integral", "series", "zeta")


def _exports(module: str) -> list:
    """The names the package republishes from ``module``."""
    if module == "evaluation":  # the rest of its __all__ serves the other modules
        return ["CesaroEvaluation"]
    return _import_module(f"{__name__}.{module}").__all__


def _public() -> tuple:
    """Every public name, in __all__ order; imports every module."""
    return ("CesaroEvaluation", "__version__",
            *(name for module in _REPUBLISHED for name in _exports(module)))


def __getattr__(name):
    # reached only by a name not yet in the package globals; a private or
    # dunder name never imports anything
    from importlib.util import find_spec
    if name == "__all__":
        value = list(_public())
    elif name.startswith("_"):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    elif find_spec(f"{__name__}.{name}") is not None:
        return _import_module(f"{__name__}.{name}")  # which binds it here
    else:
        owner = next((module for module in _SUBMODULES if name in _exports(module)), None)
        if owner is None:
            raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
        value = getattr(_import_module(f"{__name__}.{owner}"), name)
    globals()[name] = value
    return value


def __dir__():
    # what an eager import listed: dunders, submodules and public names
    listed = {name for name in globals() if not name.startswith("_")
              or name.startswith("__") and name not in ("__getattr__", "__dir__")}
    return sorted(listed | {"__all__", *_SUBMODULES, *_public()})
