"""Generalized summation toolkit.

Cesaro (C,k) limits of series, integrals, and functions; Hadamard finite
parts of divergent integrals; exact Bernoulli/Faulhaber algebra; and zeta
special values recovered both exactly (zeta(-n) = -B_{n+1}/(n+1)) and
numerically as Cesaro limits of power-sum staircases.
"""
from .accumulate import compensated_prefix_sums
from .evaluation import CesaroEvaluation
from .exact import (
    BernoulliTable,
    PeriodicPolynomial,
    bernoulli,
    faulhaber_sum,
    periodic_mean,
    pm_polynomial,
    zeta_neg_int,
)
from .finite_part import (
    FinitePartDecomposition,
    IllConditionedFitError,
    extract_finite_part,
    fp_log_power_integral,
    fp_log_power_integral_exact,
    fp_power_integral,
    fp_power_integral_exact,
)
from .integral import (
    IntegrandSpec,
    QuadratureError,
    cesaro_integral,
    constant,
    cos_wave,
    default_grid,
    exp_decay,
    from_primitives,
    periodic_poly,
    power_log,
    primitive_limit,
    riesz_mean,
    sampled,
    sin_wave,
)
from .series import (
    SeriesSpec,
    asymptotic_normalized,
    cesaro_sum,
    detect_order,
    iterated_partial_sums,
)
from .zeta import (
    PrimitiveState,
    StaircaseSpec,
    advance_primitives,
    lemma_witness,
    new_primitive_state,
    staircase_value,
    zeta_prime_via_cesaro,
    zeta_via_cesaro,
)

__version__ = "0.1.0"

__all__ = [
    "compensated_prefix_sums",
    "CesaroEvaluation",
    "BernoulliTable",
    "PeriodicPolynomial",
    "bernoulli",
    "faulhaber_sum",
    "periodic_mean",
    "pm_polynomial",
    "zeta_neg_int",
    "FinitePartDecomposition",
    "IllConditionedFitError",
    "extract_finite_part",
    "fp_log_power_integral",
    "fp_log_power_integral_exact",
    "fp_power_integral",
    "fp_power_integral_exact",
    "IntegrandSpec",
    "QuadratureError",
    "cesaro_integral",
    "constant",
    "cos_wave",
    "default_grid",
    "exp_decay",
    "from_primitives",
    "periodic_poly",
    "power_log",
    "primitive_limit",
    "riesz_mean",
    "sampled",
    "sin_wave",
    "SeriesSpec",
    "asymptotic_normalized",
    "cesaro_sum",
    "detect_order",
    "iterated_partial_sums",
    "PrimitiveState",
    "StaircaseSpec",
    "advance_primitives",
    "lemma_witness",
    "new_primitive_state",
    "staircase_value",
    "zeta_prime_via_cesaro",
    "zeta_via_cesaro",
    "__version__",
]
