"""Compensated floating-point accumulation, by one numpy TwoSum scan.

Long prefix-sum chains are the backbone of the Cesaro machinery, so plain
running sums would drift.  A carry holds the exact rounding errors of the
running total, so the pair (total, carry) loses almost nothing.

The scan walks its input in blocks of _BLOCK floats through three
block-sized buffers, carrying the running total and the running carry from
one block to the next.  Every value is the one a single pass over the whole
array gives, bit for bit, and the scan may write over its own input: an
n-float pass needs the input, the output and the block buffers, not five
n-float arrays.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = ["compensated_prefix_sums"]

_BLOCK = 1 << 14  # 128 KiB of float64 per buffer, so a block stays in cache


def compensated_prefix_sums(values) -> np.ndarray:
    """Return the compensated running sums of the float sequence ``values``
    as a new array, accurate to a few ulps even for millions of terms.  A
    running sum that is no longer finite is returned as is, without its
    carry.  ``values`` itself is never written."""
    x = np.asarray(values, dtype=np.float64)
    out = np.empty(len(x))
    _prefix_into(x, out)
    return out


def _prefix_into(x: np.ndarray, out: np.ndarray) -> None:
    """Write the compensated running sums of the float64 array x into out,
    which may be x itself.

    np.cumsum adds in order from the previous total, so TwoSum recovers each
    step's error from the running totals s (Knuth; Ogita, Rump and Oishi,
    SIAM J. Sci. Comput. 26, 2005), and the carries err are the running sums
    of those errors.  Where s is not finite the carry is 0, or an honest inf
    would read nan; inf and nan absorb later terms, so that takes one check
    of each block's last total.

    Each block's totals run on from the previous total, put in front of the
    block (0.0 in front of block 0), and its carries from the previous carry,
    added to the block's first error; block 0's carries start at its first
    error itself, as a 0.0 in front would turn a -0.0 into +0.0.  A block's
    sums are written only after its last read of x."""
    run = np.empty(_BLOCK + 1)  # the previous total, then the block's totals
    bb, e = np.empty(_BLOCK), np.empty(_BLOCK)
    total = carry = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(x), _BLOCK):
            xs = x[lo:lo + _BLOCK]
            m = len(xs)
            s = run[:m + 1]
            s[0] = total
            s[1:] = xs
            np.cumsum(s, out=s)
            prev, s = s[:-1], s[1:]
            b = np.subtract(s, prev, out=bb[:m])
            err = np.subtract(s, b, out=e[:m])  # (prev - (s - b)) + (x - b)
            np.subtract(prev, err, out=err)
            np.subtract(xs, b, out=b)
            err += b
            if lo:
                err[0] = carry + err[0]
            np.cumsum(err, out=err)
            total, carry = s[-1], err[-1]
            if not math.isfinite(total):
                err[~np.isfinite(s)] = 0.0
            np.add(s, err, out=out[lo:lo + m])
