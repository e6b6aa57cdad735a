"""Shared convergence record for the numeric Cesaro evaluators.

The series and integral estimators sample a normalized quantity along a
tail of indices or grid points and judge convergence against a tolerance by
the dispersion (max - min) of the tail samples; the fitted staircase limits
of ``zeta`` judge it by the gap between two extrapolations.  The exact
paths of ``zeta`` sample nothing: integer alpha >= 0 reads the limit off an
exact polynomial and ``lemma_witness`` reads the mean of p, and each
converges exactly when the order admits a limit.  Divergence is a result,
never an exception.  MAX_ORDER bounds the integer orders of the staircase
and series layers, whose work grows with the order.

QuadratureError, which the integral layer re-exports, is defined here so the
CLI can catch it without importing that layer.  This module imports no
numpy: a judgement reads an array's tail through the array's own ``max`` and
``min``, and a list's or a tuple's in pure Python.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["CesaroEvaluation", "tail_judgement"]

TRACE_LEN = 8
# the largest order of a staircase limit or a (C, k) series mean, and of an
# exact staircase's degree alpha + k; detect_order tries every order up to it
MAX_ORDER = 512


@dataclass(frozen=True)
class CesaroEvaluation:
    """Outcome of a Cesaro-style limit evaluation.

    value          last sample of the normalized quantity; for a fitted
                   staircase limit, the constant fitted to the samples; for
                   an exact staircase limit, the limit rounded once (+-inf
                   where the mean diverges)
    order          the Cesaro order k used (float to allow Riesz real orders)
    n_terms        how many terms / boundaries / grid points were consumed;
                   for a fitted staircase limit, the top boundary summed; for
                   an exact one, the polynomial values summed
    trace          the last few raw samples, oldest first (length >= 2); for
                   an exact staircase limit, the value alone (length 1)
    error_estimate dispersion of the tail window; for a fitted staircase
                   limit, the gap between two fits (inf when non-finite);
                   for an exact one, 0 where the limit exists and inf where
                   it does not (order k <= alpha)
    converged      True iff error_estimate is finite and <= tol (and, for a
                   fitted staircase limit, the order k exceeds alpha); for
                   an exact staircase limit, iff the order k exceeds alpha
    """

    value: float
    order: float
    n_terms: int
    trace: tuple[float, ...]
    error_estimate: float
    converged: bool


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify its own result."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate


def require_finite(**named) -> None:
    """Reject a NaN, infinite or float-overflowing argument by name, before
    any work starts."""
    for name, value in named.items():
        try:
            finite = math.isfinite(value)
        except OverflowError:
            raise ValueError(f"{name} is too large for a float") from None
        if not finite:
            raise ValueError(f"{name} must be finite, got {value!r}")


def require_count(name: str, value) -> int:
    """A count as an int: finite, non-negative and integral (2.0 counts as
    2), else ValueError by name."""
    require_finite(**{name: value})
    if value < 0 or value != int(value):
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return int(value)


def require_order(k) -> int:
    """A Cesaro order as a count: named k where it is not finite, order k
    where it is not a non-negative integer."""
    require_finite(k=k)
    return require_count("order k", k)


def require_tol(tol) -> None:
    """A convergence tolerance: finite and >= 0 (0 asks for an exact tail)."""
    require_finite(tol=tol)
    if tol < 0:
        raise ValueError(f"tol must be >= 0, got {tol!r}")


def tail_window(n_samples: int) -> int:
    """The default dispersion window: the last quarter, never fewer than 4."""
    return max(4, n_samples // 4)


def tail_judgement(samples, order, n_terms, tol,
                   tail_count=None) -> CesaroEvaluation:
    """Build a CesaroEvaluation from a full sample sequence: a list, a tuple
    or a float array; an array's tail is read by its own ``max`` and ``min``.

    ``tail_count`` samples from the end form the dispersion window; the
    default is ``tail_window(len(samples))``.  The reported value
    is always the final sample, converged or not.
    """
    if len(samples) < 2:
        raise ValueError("need at least two samples to judge convergence")
    if tail_count is None:
        tail_count = tail_window(len(samples))
    tail_count = max(2, min(tail_count, len(samples)))
    tail, last = samples[-tail_count:], samples[-TRACE_LEN:]
    if hasattr(tail, "tolist"):  # an array: its own max and min, which propagate nan
        high, low = float(tail.max()), float(tail.min())
        finite = math.isfinite(high) and math.isfinite(low)
        last = last.tolist()
    else:
        finite = all(map(math.isfinite, tail))
        high, low = (float(max(tail)), float(min(tail))) if finite else (0.0, 0.0)
    dispersion = high - low if finite else math.inf
    converged = math.isfinite(dispersion) and dispersion <= tol
    trace = tuple(map(float, last))
    return CesaroEvaluation(
        value=trace[-1],
        order=order,
        n_terms=n_terms,
        trace=trace,
        error_estimate=dispersion,
        converged=converged,
    )
