"""Cesaro (C, k) summation of number series.

The k-th iterated partial sums of a_0, a_1, ... are

    A^0_n = a_0 + ... + a_n,      A^(k+1)_n = A^k_0 + ... + A^k_n,

and the (C, k) mean is the exactly normalized quotient

    C^k_n = A^k_n / C(n + k, k).

The binomial denominator, not its n^k/k! asymptotic, is used throughout: it
is what makes C^k_n of the constant series equal 1 for every n.

A series that fails to settle is reported through the ``converged`` flag of
the returned evaluation; divergence is a result, never an exception.
Overflow in the terms propagates as inf through the partial sums.

The terms and the normalized tail are float64 arrays.  The terms are called
_TERMS_PER_CHUNK at a time, and each chunk's values become floats in one C
step (``array("d", ...)``).  The k + 1 prefix passes run in place over the
terms array, so a call holds that one array plus a few block-sized buffers
where a pass once needed five arrays; only ``iterated_partial_sums`` returns
a list.  More than MAX_SERIES_TERMS terms, an order above
``evaluation.MAX_ORDER`` (512), or an order whose normalization leaves the
float range, is refused before any term is called.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .accumulate import _prefix_into
from .evaluation import (MAX_ORDER, CesaroEvaluation, require_count, require_order,
                         require_tol, tail_judgement)

__all__ = [
    "SeriesSpec",
    "iterated_partial_sums",
    "cesaro_sum",
    "detect_order",
]

DEFAULT_TOL = 1e-6
MAX_SERIES_TERMS = 10**8  # a 0.8 GB float64 array, summed in place
_TERMS_PER_CHUNK = 1 << 12  # terms called, then converted, per step; 2^11..2^14 time alike
_BEYOND_FLOAT = "order k={} with n_terms={} needs a normalization beyond the float range"


def _bounded_order(k, name: str = "order k") -> int:
    """A (C, k) order as an int, refused above MAX_ORDER: each order is one
    more prefix pass, and ``detect_order`` tries every order up to k_max."""
    k = require_order(k)
    if k > MAX_ORDER:
        raise ValueError(f"{name}={k} is above {MAX_ORDER}, the most a (C, k) mean takes")
    return k


@dataclass(frozen=True)
class SeriesSpec:
    """A series given by its term generator.

    ``term(n)`` is a pure function of the index n >= 0.  Series whose natural
    index starts later (harmonic-type sums, for instance) declare ``start``;
    indices below it contribute 0 and still count toward n_terms, so (C, k)
    normalization is unaffected.
    """

    term: Callable[[int], float]
    start: int = 0

    def terms(self, n_terms: int) -> np.ndarray:
        """a_0 .. a_{n_terms-1} as a float64 array: float(term(n)), +inf
        where the term's call overflows, and an infinity of the term's sign
        where its conversion does.  Each term is called once, in order.

        list.extend keeps the values read before a call's OverflowError, and
        the map resumes after the index that raised; np.fromiter would lose
        them.  array("d") converts a chunk through PyFloat_AsDouble, which
        gives float(v) for every v but a str; a chunk it refuses (a str, an
        int past the float range, None) goes through ``_floats``."""
        n_terms = require_count("n_terms", n_terms)
        if n_terms > MAX_SERIES_TERMS:
            raise ValueError(f"n_terms={n_terms} exceeds MAX_SERIES_TERMS = "
                             f"{MAX_SERIES_TERMS:.0e}")
        out = np.zeros(n_terms)
        for lo in range(max(self.start, 0), n_terms, _TERMS_PER_CHUNK):
            hi = min(lo + _TERMS_PER_CHUNK, n_terms)
            calls, raw = map(self.term, range(lo, hi)), []
            while True:
                try:
                    raw.extend(calls)
                    break
                except OverflowError:
                    raw.append(math.inf)
            try:
                out[lo:hi] = array("d", raw)
            except (TypeError, OverflowError):
                out[lo:hi] = _floats(raw)
        return out


def _floats(raw: list) -> list[float]:
    """float(v) for each value v, and an infinity of v's sign where float(v)
    raises OverflowError."""
    values, floats = map(float, raw), []
    while True:
        try:
            floats.extend(values)
            return floats
        except OverflowError:
            floats.append(math.inf if raw[len(floats)] > 0 else -math.inf)


def _iterated_sums(spec: SeriesSpec, k: int, n_terms: int) -> np.ndarray:
    """A^k_0 .. A^k_{n_terms-1} as a float64 array: k + 1 compensated
    prefix passes, each in place over the terms array."""
    if n_terms < 1:
        raise ValueError("need at least one term")
    sums = spec.terms(n_terms)
    for _ in range(k + 1):
        _prefix_into(sums, sums)
    return sums


def _binomials(k: int, lo: int, hi: int) -> np.ndarray:
    """float(C(n + k, k)) for n = lo .. hi - 1, each correctly rounded, as
    Python's float / int rounds its divisor.  The products are exact: int64
    while k C(hi - 1 + k, k) fits in it, Python ints beyond."""
    exact = np.int64 if k * math.comb(hi - 1 + k, k) < 2**63 else object
    n = np.arange(lo, hi).astype(exact)
    c = np.ones(hi - lo, dtype=exact)
    for i in range(1, k + 1):
        c *= n + i  # i C(n + i, i)
        c //= i
    return c.astype(np.float64)


def iterated_partial_sums(spec: SeriesSpec, k: int, n_terms: int) -> list[float]:
    """A^k_0 .. A^k_{n_terms-1}: the k-th iterated partial sums.

    k = 0 gives the plain partial sums.  Every pass is a compensated prefix
    sum, so iterating does not amplify rounding drift.
    """
    return _iterated_sums(spec, _bounded_order(k), require_count("n_terms", n_terms)).tolist()


def cesaro_sum(spec: SeriesSpec, k: int, n_terms: int,
               tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Evaluate the series at (C, k) with n_terms terms.

    The dispersion window is the last max(8, n_terms // 10) normalized
    samples; the reported value is C^k at the final index.  An order above
    512 raises ValueError before any term is called.
    """
    k = _bounded_order(k)
    require_tol(tol)
    n_terms = require_count("n_terms", n_terms)
    if n_terms < 8:
        raise ValueError(f"n_terms={n_terms} leaves no tail window to judge convergence")
    tail_count = max(8, n_terms // 10)
    try:
        float(math.comb(n_terms - 1 + k, k))  # the largest divisor
    except OverflowError:
        raise ValueError(_BEYOND_FLOAT.format(k, n_terms)) from None
    sums = _iterated_sums(spec, k, n_terms)
    lo = n_terms - tail_count
    samples = sums[lo:] / _binomials(k, lo, n_terms)
    return tail_judgement(samples, order=k, n_terms=n_terms, tol=tol,
                          tail_count=tail_count)


def detect_order(spec: SeriesSpec, k_max: int, n_terms: int,
                 tol: float = DEFAULT_TOL) -> Optional[tuple[int, CesaroEvaluation]]:
    """Smallest k <= k_max at which the series settles, with its evaluation.

    Returns None when no order up to k_max converges (for instance for
    geometric growth, where every A^k_n outruns the n^k normalization).
    A k_max above 512 raises ValueError before any term is called.
    """
    k_max, n_terms = _bounded_order(k_max, "k_max"), require_count("n_terms", n_terms)
    for k in range(k_max + 1):
        ev = cesaro_sum(spec, k, n_terms, tol=tol)
        if ev.converged:
            return k, ev
    return None

