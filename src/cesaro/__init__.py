"""Generalized summation toolkit.

Cesaro (C,k) limits of series, integrals, and functions; Hadamard finite
parts of divergent integrals; exact Bernoulli/Faulhaber algebra; and zeta
special values recovered both exactly (zeta(-n) = -B_{n+1}/(n+1)) and
numerically as Cesaro limits of power-sum staircases.

Submodules and public names are imported on first access (PEP 562): a
public name imports the one module that defines it, as _EXPORTS says, and
``__all__`` and ``dir()`` import nothing.  So ``import cesaro``, the exact
layer, the zeta estimators and the integral layer's closed-form orders load
no numpy.
"""
from importlib import import_module as _import_module

__version__ = "0.1.0"

# each submodule and the names the package republishes from it, in __all__
# order: the module's whole __all__ (a test pins the two copies), except that
# evaluation's other names serve the modules, not the package
_EXPORTS = {
    "evaluation": ("CesaroEvaluation",),
    "accumulate": ("compensated_prefix_sums",),
    "exact": ("BernoulliTable", "bernoulli", "faulhaber_sum", "zeta_neg_int",
              "PeriodicPolynomial", "pm_polynomial", "periodic_mean"),
    "finite_part": ("FinitePartDecomposition", "IllConditionedFitError",
                    "fp_power_integral", "fp_power_integral_exact", "fp_log_power_integral",
                    "fp_log_power_integral_exact", "extract_finite_part"),
    "integral": ("IntegrandSpec", "QuadratureError", "default_grid", "riesz_mean",
                 "cesaro_integral", "primitive_limit", "sin_wave", "cos_wave", "exp_decay",
                 "power_log", "periodic_poly", "sampled"),
    "series": ("SeriesSpec", "iterated_partial_sums", "cesaro_sum", "detect_order"),
    "zeta": ("StaircaseSpec", "new_primitive_state", "staircase_value", "advance_primitives",
             "zeta_via_cesaro", "zeta_prime_via_cesaro", "lemma_witness"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    # reached only by a name not yet in the package globals
    if name == "__all__":
        value = list(_OWNER)
        value.insert(1, "__version__")  # after CesaroEvaluation
    elif name in _EXPORTS or name == "cli":
        return _import_module(f"{__name__}.{name}")  # which binds it here
    elif name in _OWNER:
        value = getattr(_import_module(f"{__name__}.{_OWNER[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    # what an eager import listed: dunders, submodules and public names
    listed = {name for name in globals() if not name.startswith("_")
              or name.startswith("__") and name not in ("__getattr__", "__dir__")}
    return sorted(listed | {"__all__", *_EXPORTS, *_OWNER})
