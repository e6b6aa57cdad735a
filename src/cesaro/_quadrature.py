"""The numpy quadrature behind ``integral``'s off-chain orders.

``integral`` imports this module only when an order is not read off a
primitive chain, so every closed-form path runs without numpy.  Two readers
serve it: ``stitched_means`` (order 0 along a grid, each segment integrated
once and the segments added by one prefix pass) and ``riesz_quadrature``
(any other order at one X).  Both integrate ~50-wide windows in one batch
by ``_quadrature_windows``; see that function and the ``integral`` module
docstring for the rule and its acceptance test.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .accumulate import compensated_prefix_sums
from .evaluation import QuadratureError

_GAUSS_POINTS = 32
_MAX_WINDOWS = 4096  # quadrature windows per integral
_MAX_PIECES = 200  # pieces per quadrature window (QUADPACK's limit)
_STALL_LIMIT = 6  # roundoff-limited bisections per window (QAG's count)
_EPS = math.ulp(1.0)


def stitched_means(spec, grid: tuple) -> list[float]:
    """int_0^X f at each X of grid, a positive increasing tuple: each
    segment between grid points integrated once, the segments added by one
    compensated prefix pass."""
    windows = [_quadrature_windows(functools.partial(_sample, spec), *_windows(a, X),
                                   spec.label) for a, X in zip((0.0,) + grid, grid)]
    ends = np.cumsum([len(v) for v in windows]) - 1  # each X's last window
    return compensated_prefix_sums(np.concatenate(windows))[ends].tolist()


def _windows(a: float, b: float) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper ends of the ~50-wide windows that split [a, b], at most
    _MAX_WINDOWS of them."""
    n_windows = int(min(_MAX_WINDOWS, max(1, math.ceil((b - a) / 50.0))))
    edges = np.linspace(a, b, n_windows + 1)
    return edges[:-1], edges[1:]


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss-Legendre rule on [0, 1]: nodes, weights, and the matrix that
    maps values at the nodes to the derivative there of their interpolating
    polynomial.  Built on first use."""
    from numpy.polynomial.legendre import leggauss

    x, w = leggauss(_GAUSS_POINTS)
    diff = x[:, None] - x[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)  # barycentric weights of the nodes
    dmat = bary[None, :] / bary[:, None] / diff
    np.fill_diagonal(dmat, 0.0)
    np.fill_diagonal(dmat, -dmat.sum(axis=1))
    rule = (0.5 * (1.0 + x), 0.5 * w, 2.0 * dmat)
    for part in rule:
        part.flags.writeable = False
    return rule


def _sample(spec, t: np.ndarray) -> np.ndarray:
    """The integrand at each node: one call of spec.array_func where the
    spec has one (sin_wave, cos_wave, exp_decay), else one scalar call of
    spec.func per node."""
    if spec.array_func is not None:
        return spec.array_func(t)
    return np.fromiter(map(spec.func, t.tolist()), np.float64, len(t))


def _gauss(g, lo: np.ndarray, hi: np.ndarray):
    """The rule on each piece [lo, hi] of the vectorized integrand g: the
    node values (one row per piece), the rule's value and its value for |g|.

    A node t = lo + (hi - lo) u is rounded to a double, by up to eps |t|,
    which far from 0 is noise of that size in every value of g.  The TwoSum
    residual r of that addition is exact, so the value adds the first-order
    term sum w g'(t) r, with g' from the piece's interpolating polynomial.
    """
    u, w, dmat = _gauss_legendre()
    width = hi - lo
    q = width[:, None] * u
    t = lo[:, None] + q
    bb = t - lo[:, None]
    r = (lo[:, None] - (t - bb)) + (q - bb)
    vals = g(t.ravel()).reshape(t.shape)
    value = (vals @ w) * width + ((vals @ dmat.T) * r) @ w
    return vals, value, (np.abs(vals) @ w) * width


class _Pieces(NamedTuple):
    """The pieces of the open quadrature windows, one entry per piece."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray  # the rule on the two halves, summed
    error: np.ndarray
    absval: np.ndarray  # the rule for |g| on the two halves, summed
    left: np.ndarray  # the rule on each half: the whole-piece values
    right: np.ndarray  # of the two pieces that bisecting this one makes


def _bisected(g, lo: np.ndarray, hi: np.ndarray, whole: np.ndarray) -> _Pieces:
    """The pieces [lo, hi], whose rule values are whole, with the rule on
    both halves of each.

    The estimate is the gap between whole and the halves' sum.  A node sits
    an ulp or so off its ideal place, which can move a rule by about eps |t|
    times the variation of g on the piece; a gap within twice that is
    rounding, not truncation, and counts as zero.  Either way the estimate
    is at least QUADPACK's rounding floor, 50 eps int |g|.
    """
    m = len(lo)
    mid = 0.5 * (lo + hi)
    vals, rule, abs_rule = _gauss(g, np.concatenate((lo, mid)), np.concatenate((mid, hi)))
    left, right = rule[:m], rule[m:]
    value = left + right
    gap = np.abs(whole - value)
    variation = np.abs(np.diff(np.hstack((vals[:m], vals[m:])), axis=1)).sum(axis=1)
    noise = 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) * variation
    absval = abs_rule[:m] + abs_rule[m:]
    error = np.maximum(np.where(gap > noise, gap, 0.0), 50.0 * _EPS * absval)
    return _Pieces(lo, hi, value, error, absval, left, right)


def _quadrature_windows(g, lo: np.ndarray, hi: np.ndarray, label: str) -> np.ndarray:
    """int g over each window [lo[i], hi[i]], all windows integrated in one
    batch by adaptive bisection.

    g maps an array of nodes to the integrand's values there.  Every window
    starts as one piece; each round bisects the worst piece of every window
    still open.  A window closes when its summed estimate meets
    max(1e-10 |value|, 1e-13 int |g|), a target that scales with g; when it
    holds _MAX_PIECES pieces; or after _STALL_LIMIT bisections that neither
    moved the piece's value by 1e-5 relative nor shrank its estimate (QAG's
    roundoff test).  A window whose value or estimate is not finite raises
    QuadratureError, and so does a summed estimate above the acceptance
    rule, max(1e-8 |sum|, 1e-12 int |g|).
    """
    n_windows = len(lo)
    out = np.empty((3, n_windows))
    is_open = np.ones(n_windows, dtype=bool)
    count = np.ones(n_windows, dtype=np.int64)
    stalls = np.zeros(n_windows, dtype=np.int64)
    win = np.arange(n_windows)  # the window of each piece
    pieces = _bisected(g, lo, hi, _gauss(g, lo, hi)[1])
    while True:
        sums = np.array([np.bincount(win, part, n_windows)
                         for part in (pieces.value, pieces.error, pieces.absval)])
        total, est, absval = sums
        # a NaN total or estimate closes its window, which then raises
        meets = ~(est > np.maximum(1e-10 * np.abs(total), 1e-13 * absval))
        closing = is_open & (meets | (count >= _MAX_PIECES) | (stalls >= _STALL_LIMIT))
        if closing.any():
            bad = np.flatnonzero(closing & ~(np.isfinite(total) & np.isfinite(est)))
            if len(bad):
                raise QuadratureError(
                    f"quadrature of {label} is not finite on "
                    f"[{lo[bad[0]]:g}, {hi[bad[0]]:g}]", math.inf)
            out[:, closing] = sums[:, closing]
            is_open &= ~closing
            keep = is_open[win]
            win = win[keep]
            pieces = _Pieces(*(part[keep] for part in pieces))
        if not len(win):
            break
        order = np.lexsort((pieces.error, win))
        worst = order[np.append(win[order][1:] != win[order][:-1], True)]
        split = win[worst]
        old = _Pieces(*(part[worst] for part in pieces))
        mid = 0.5 * (old.lo + old.hi)
        new = _bisected(g, np.concatenate((old.lo, mid)), np.concatenate((mid, old.hi)),
                        np.concatenate((old.left, old.right)))
        keep = np.ones(len(win), dtype=bool)
        keep[worst] = False
        win = np.concatenate((win[keep], split, split))
        pieces = _Pieces(*(np.concatenate((part[keep], added))
                           for part, added in zip(pieces, new)))
        m = len(split)
        value = new.value[:m] + new.value[m:]
        error = new.error[:m] + new.error[m:]
        stalls[split] += ((np.abs(old.value - value) <= 1e-5 * np.abs(value))
                          & (error >= 0.99 * old.error))
        count[split] += 1
    values, errors, absvals = out
    error = float(errors.sum())
    if error > max(1e-8 * abs(float(values.sum())), 1e-12 * float(absvals.sum())):
        raise QuadratureError(
            f"quadrature of {label} on [{lo[0]:g}, {hi[-1]:g}] did not converge "
            f"(error estimate {error:.3e})", error)
    return values


def riesz_quadrature(spec, k: float, X: float) -> float:
    """int_0^X (1 - t/X)^k f(t) dt for real k > -1, by quadrature."""
    lo, hi = _windows(0.0, X)
    start = lo[-1]
    h = X - start

    def weighted(u):
        if k >= 0:  # a bounded weight: bisection toward X is enough
            return (1.0 - u / X) ** k * _sample(spec, u)
        # on the last window, t = X - h v^(1/(k+1)) with v = (X - u)/h turns
        # (X - t)^k dt into the constant h^(k+1)/(k+1) dv; t is computed from
        # its distance to start (0 when X <= 50), so it keeps its digits there
        t, w = u.copy(), (1.0 - u / X) ** k
        tail = u > start
        t[tail] = start - h * np.expm1(np.log1p((start - u[tail]) / h) / (k + 1.0))
        w[tail] = (h / X) ** k / (k + 1.0)
        return w * _sample(spec, t)

    return float(compensated_prefix_sums(_quadrature_windows(weighted, lo, hi, spec.label))[-1])
