"""Compensated floating-point accumulation helpers.

Long prefix-sum chains are the backbone of the Cesaro machinery, so plain
running sums would drift.  The Kahan-Babuska-Neumaier update keeps a carry
term alongside the running total; the pair (total, carry) loses essentially
nothing until the carry itself underflows.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["CompensatedSum", "compensated_prefix_sums"]


def _two_sum_scan(x: np.ndarray, total: float = 0.0,
                  carry: float = 0.0) -> tuple[np.ndarray, np.ndarray]:
    """Running totals s and carries err of adding x in order to (total,
    carry), bit for bit as add() would.  np.cumsum adds in order, so TwoSum
    recovers each step's error from s (Knuth; Ogita, Rump and Oishi, SIAM J.
    Sci. Comput. 26, 2005).  Where s is not finite, callers mask err."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.cumsum(np.concatenate(([total], x)))
        prev, s = s[:-1], s[1:]
        bb = s - prev
        e = np.subtract(s, bb)  # e = (prev - (s - bb)) + (x - bb), in place
        np.subtract(prev, e, out=e)
        np.subtract(x, bb, out=bb)
        e += bb
        e[0] += carry
        return s, np.cumsum(e, out=e)


class CompensatedSum:
    """Running sum with a Neumaier carry.

    Non-finite inputs are propagated, not masked: once the total overflows to
    infinity the carry is dropped (it would otherwise poison the value with
    inf - inf = nan even for a series that is honestly +inf).
    """

    __slots__ = ("total", "carry")

    def __init__(self, start: float = 0.0):
        self.total = float(start)
        self.carry = 0.0

    def add(self, x: float) -> None:
        t = self.total + x
        if math.isfinite(t):
            if abs(self.total) >= abs(x):
                self.carry += (self.total - t) + x
            else:
                self.carry += (x - t) + self.total
        else:
            self.carry = 0.0
        self.total = t

    def add_array(self, x: np.ndarray) -> None:
        """add() each element of the float array x, through the TwoSum scan."""
        if len(x):
            s, err = _two_sum_scan(x, self.total, self.carry)
            self.total = float(s[-1])
            self.carry = float(err[-1]) if math.isfinite(self.total) else 0.0

    @property
    def value(self) -> float:
        return self.total + self.carry

    def copy(self) -> "CompensatedSum":
        out = CompensatedSum(self.total)
        out.carry = self.carry
        return out

    def __repr__(self) -> str:
        return f"CompensatedSum({self.value!r})"


def compensated_prefix_sums(values) -> np.ndarray:
    """Return the compensated running sums of the float sequence ``values``
    as an array, accurate to a few ulps even for millions of terms.  A
    running sum that is no longer finite is returned as is, without its
    carry."""
    x = np.asarray(values, dtype=np.float64)
    if not len(x):
        return x
    s, err = _two_sum_scan(x)
    err[~np.isfinite(s)] = 0.0
    s += err
    return s
