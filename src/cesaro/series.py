"""Cesaro (C, k) summation of number series.

The k-th iterated partial sums of a_0, a_1, ... are

    A^0_n = a_0 + ... + a_n,      A^(k+1)_n = A^k_0 + ... + A^k_n,

and the (C, k) mean is the exactly normalized quotient

    C^k_n = A^k_n / C(n + k, k).

The binomial denominator, not its n^k/k! asymptotic, is used throughout: it
is what makes C^k_n of the constant series equal 1 for every n.  The
asymptotic form is available separately as a cross-check diagnostic.

A series that fails to settle is reported through the ``converged`` flag of
the returned evaluation; divergence is a result, never an exception.
Overflow in the terms propagates as inf through the partial sums.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .accumulate import compensated_prefix_sums
from .evaluation import CesaroEvaluation, require_order, tail_judgement

__all__ = [
    "SeriesSpec",
    "iterated_partial_sums",
    "cesaro_sum",
    "detect_order",
    "asymptotic_normalized",
]

DEFAULT_TOL = 1e-6


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
    label: str = ""

    def terms(self, n_terms: int) -> list[float]:
        out = []
        term = self.term
        start = self.start
        for n in range(n_terms):
            if n < start:
                out.append(0.0)
                continue
            try:
                out.append(float(term(n)))
            except OverflowError:
                out.append(math.inf)
        return out


def iterated_partial_sums(spec: SeriesSpec, k: int, n_terms: int) -> list[float]:
    """A^k_0 .. A^k_{n_terms-1}: the k-th iterated partial sums.

    k = 0 gives the plain partial sums.  Every pass is a compensated prefix
    sum, so iterating does not amplify rounding drift.
    """
    k = require_order(k)
    if n_terms < 1:
        raise ValueError("need at least one term")
    sums = compensated_prefix_sums(spec.terms(n_terms))
    for _ in range(k):
        sums = compensated_prefix_sums(sums)
    return sums.tolist()


def cesaro_sum(spec: SeriesSpec, k: int, n_terms: int,
               tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Evaluate the series at (C, k) with n_terms terms.

    The dispersion window is the last max(8, n_terms // 10) normalized
    samples; the reported value is C^k at the final index.
    """
    k = require_order(k)
    tail_count = max(8, n_terms // 10)
    if n_terms < tail_count or n_terms < 8:
        raise ValueError(f"n_terms={n_terms} leaves no tail window to judge convergence")
    sums = iterated_partial_sums(spec, k, n_terms)
    lo = n_terms - tail_count
    samples = []
    for n in range(lo, n_terms):
        denom = math.comb(n + k, k)
        samples.append(sums[n] / denom)
    return tail_judgement(samples, order=k, n_terms=n_terms, tol=tol,
                          tail_count=tail_count)


def detect_order(spec: SeriesSpec, k_max: int, n_terms: int,
                 tol: float = DEFAULT_TOL) -> Optional[tuple[int, CesaroEvaluation]]:
    """Smallest k <= k_max at which the series settles, with its evaluation.

    Returns None when no order up to k_max converges (for instance for
    geometric growth, where every A^k_n outruns the n^k normalization).
    """
    for k in range(require_order(k_max) + 1):
        ev = cesaro_sum(spec, k, n_terms, tol=tol)
        if ev.converged:
            return k, ev
    return None


def asymptotic_normalized(spec: SeriesSpec, k: int, n_terms: int) -> float:
    """Diagnostic only: k! * A^k_N / N^k at the final index N.

    Agrees with the binomial normalization as N grows; exposed so the two
    normalizations can be compared, not for use as an estimator.
    """
    k = require_order(k)
    sums = iterated_partial_sums(spec, k, n_terms)
    n = n_terms - 1
    if n == 0:
        return sums[0]
    return math.factorial(k) * sums[n] / float(n) ** k
