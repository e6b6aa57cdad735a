"""Compensated floating-point accumulation, by one numpy TwoSum scan.

Long prefix-sum chains are the backbone of the Cesaro machinery, so plain
running sums would drift.  A carry holds the exact rounding errors of the
running total, so the pair (total, carry) loses almost nothing.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_prefix_sums"]


def compensated_prefix_sums(values) -> np.ndarray:
    """Return the compensated running sums of the float sequence ``values``
    as an array, accurate to a few ulps even for millions of terms.  A
    running sum that is no longer finite is returned as is, without its
    carry.

    np.cumsum adds in order from 0, so TwoSum recovers each step's error
    from the running totals s (Knuth; Ogita, Rump and Oishi, SIAM J. Sci.
    Comput. 26, 2005), and the carries err are the running sums of those
    errors.  Where s is not finite the carry is 0, or an honest inf would
    read nan; inf and nan absorb later terms, so that takes one check of
    s[-1]."""
    x = np.asarray(values, dtype=np.float64)
    if not len(x):
        return x
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(np.concatenate(([0.0], x)))
        prev, s = s[:-1], s[1:]
        bb = s - prev
        e = np.subtract(s, bb)  # e = (prev - (s - bb)) + (x - bb), in place
        np.subtract(prev, e, out=e)
        np.subtract(x, bb, out=bb)
        e += bb
        err = np.cumsum(e, out=e)
    if not math.isfinite(s[-1]):
        err[~np.isfinite(s)] = 0.0
    s += err
    return s
