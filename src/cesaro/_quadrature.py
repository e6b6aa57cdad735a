"""The numpy quadrature behind ``integral``'s off-chain orders.

``integral`` imports this module only when an order is not read off a
primitive chain, so every closed-form path runs without numpy.  Two readers
serve it, each with one pass of ``_quadrature_windows`` over ~50-wide
windows per X grid:

- ``numeric_chain``, an integer order 0 <= k <= MAX_DEGREE: the grid's
  stitched windows (every X a window edge) are integrated once, each
  returning its moments m_j(w) = int_w (c_w - t)^j f dt, j = 0..k, about its
  centre c_w, and each X reads X^-k sum_w sum_j C(k, j) (X - c_w)^(k-j) m_j(w)
  over the windows of [0, X];
- ``riesz_quadrature``, any other order: the weighted integrand
  (1 - t/X)^k f over the windows of [0, X], every X's windows integrated
  together.

Either way each X's mean is accepted or refused over its own [0, X]; see
``_quadrature_windows`` and the ``integral`` module docstring for the rule.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .evaluation import QuadratureError

_GAUSS_POINTS = 32
_MAX_WINDOWS = 4096  # windows per range: a grid segment, or [0, X]
_BATCH_WINDOWS = 512  # windows per batch: fewer rounds, arrays that stay in cache
_MAX_PIECES = 200  # pieces per quadrature window (QUADPACK's limit)
_STALL_LIMIT = 6  # roundoff-limited bisections per window (QAG's count)
_EPS = math.ulp(1.0)
# the highest moment a window returns: the 32-point rule is exact on
# (c - t)^j p(t) for deg p <= 63 - j, so up to here the rule that resolves f
# on a piece still resolves its moments there
MAX_DEGREE = 16


def numeric_chain(spec, k: int, grid: tuple) -> list[float]:
    """int_0^X (1 - t/X)^k f(t) dt at each X of grid, a positive increasing
    tuple, for an integer 0 <= k <= MAX_DEGREE: one pass over the grid's
    stitched windows, each X's mean read off the window moments below it.

    The error estimate and int |f| of each piece are weighted alike, by
    (1 - t/X)^k at the piece's midpoint, so each X is accepted by the same
    rule as a fractional order over [0, X]."""
    bounds = [_windows(a, X) for a, X in zip((0.0,) + grid, grid)]
    lo, hi = (np.concatenate(part) for part in zip(*bounds))
    counts = [len(a) for a, _ in bounds]
    moments = _quadrature_windows(lambda t, win: _sample(spec, t), lo, hi, spec.label, k,
                                  np.repeat(grid, counts))
    centre = 0.5 * (lo + hi)
    return [_certified(spec.label, X, *_at_x(moments[:, :n], (X - centre[:n]) / X, X, k))
            for X, n in zip(grid, np.cumsum(counts))]


def _at_x(moments, rel, X, k: int):
    """sum_j C(k, j) rel^(k-j) m_j / X^j, m_j = moments[..., j]: the integral
    of (1 - t/X)^k g over a stretch whose moments int (c - t)^j g dt about c
    are m, with rel = (X - c)/X.  X^j is never formed, as it can overflow."""
    scaled = moments.copy()
    for j in range(1, k + 1):
        scaled[..., j:] /= X
    acc = scaled[..., 0]
    for j in range(1, k + 1):  # by Horner's rule in rel
        acc = acc * rel + math.comb(k, j) * scaled[..., j]
    return acc


def riesz_quadrature(spec, k: float, grid: tuple) -> list[float]:
    """int_0^X (1 - t/X)^k f(t) dt at each X of grid, a positive increasing
    tuple, for real k > -1: the windows of every [0, X] integrated together,
    each window weighted for its own X."""
    bounds = [_windows(0.0, X) for X in grid]
    lo, hi = (np.concatenate(part) for part in zip(*bounds))
    counts = [len(a) for a, _ in bounds]
    ends = np.cumsum(counts)
    starts = [a[-1] for a, _ in bounds]  # each X's last window starts here
    X_of, start_of = np.repeat(grid, counts), np.repeat(starts, counts)
    h_of = X_of - start_of
    is_last = np.zeros(len(lo), dtype=bool)
    is_last[ends - 1] = True
    # the constant weight (h/X)^k/(k+1) of the last window of X, h = X - start
    tail_of = np.repeat([((X - a) / X) ** k / (k + 1.0) for X, a in zip(grid, starts)],
                        counts)

    def weighted(u, win):
        w = (1.0 - u / X_of[win][:, None]) ** k
        if k >= 0:  # a bounded weight: bisection toward X is enough
            return w * _sample(spec, u)
        # on the last window, t = X - h v^(1/(k+1)) with v = (X - u)/h turns
        # (X - t)^k dt into the constant h^(k+1)/(k+1) dv; t is computed from
        # its distance to start (0 when X <= 50), so it keeps its digits there
        t = u.copy()
        rows = np.flatnonzero(is_last[win])
        last = win[rows][:, None]
        t_last, w_last = t[rows], w[rows]
        tail = t_last > start_of[last]
        start, h = (np.broadcast_to(part[last], tail.shape)[tail] for part in (start_of, h_of))
        t_last[tail] = start - h * np.expm1(np.log1p((start - t_last[tail]) / h) / (k + 1.0))
        w_last[tail] = np.broadcast_to(tail_of[last], tail.shape)[tail]
        t[rows], w[rows] = t_last, w_last
        return w * _sample(spec, t)

    windows = _quadrature_windows(weighted, lo, hi, spec.label)[:, :, 0]
    return [_certified(spec.label, X, *windows[:, end - n:end])
            for X, n, end in zip(grid, counts, ends)]


def _certified(label: str, X: float, values, errors, absvals) -> float:
    """The sum of the window values over [0, X], correctly rounded by
    ``math.fsum``, if the summed estimate meets the acceptance rule
    max(1e-8 |sum|, 1e-12 int |g|); else QuadratureError."""
    total = math.fsum(values.tolist())
    error = float(errors.sum())
    if error > max(1e-8 * abs(total), 1e-12 * float(absvals.sum())):
        raise QuadratureError(
            f"quadrature of {label} on [0, {X:g}] did not converge "
            f"(error estimate {error:.3e})", error)
    return total


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
    """The integrand at each node of the array t: one call of spec.array_func
    where the spec has one (sin_wave, cos_wave, exp_decay), else one scalar
    call of spec.func per node."""
    if spec.array_func is not None:
        return spec.array_func(t)
    return np.fromiter(map(spec.func, t.ravel().tolist()), np.float64, t.size).reshape(t.shape)


def _gauss(g, lo: np.ndarray, hi: np.ndarray, win: np.ndarray):
    """The rule on each piece [lo, hi] of the vectorized integrand g, whose
    window is win: the node values (one row per piece), their rounding term,
    the rule's value and its value for |g|.

    A node t = lo + (hi - lo) u is rounded to a double, by up to eps |t|,
    which far from 0 is noise of that size in every value of g.  The TwoSum
    residual r of that addition is exact, so the value adds the first-order
    term sum w g'(t) r, with g' from the piece's interpolating polynomial;
    the rounding term is g'(t) r at each node, per unit of u.
    """
    u, w, dmat = _gauss_legendre()
    width = hi - lo
    q = width[:, None] * u
    t = lo[:, None] + q
    bb = t - lo[:, None]
    r = (lo[:, None] - (t - bb)) + (q - bb)
    vals = g(t, win)
    shift = (vals @ dmat.T) * r
    value = (vals @ w) * width + shift @ w
    return vals, shift, value, (np.abs(vals) @ w) * width


@functools.cache
def _moment_rules(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule's weights times ((mid - t)/half)^i, i = 1..degree, on the
    lower half (mid - t = half (1 - u)) and the upper half (mid - t = -half u)
    of a piece whose midpoint is mid."""
    u, w, _ = _gauss_legendre()
    powers = np.arange(1, degree + 1)
    return w[:, None] * (1.0 - u)[:, None] ** powers, w[:, None] * (-u)[:, None] ** powers


def _piece_moments(vals, shift, below: np.ndarray, above: np.ndarray,
                   degree: int) -> np.ndarray:
    """int (mid - t)^i g over each piece, i = 1..degree, mid its midpoint,
    from the node values of its two halves, which are below and above wide:
    a small matrix product on the samples the value already took."""
    m = len(below)
    if not degree:
        return np.empty((m, 0))
    powers = np.arange(1, degree + 1)

    def half_moments(rows, rule, half):
        half = half[:, None]
        return ((vals[rows] @ rule) * half + shift[rows] @ rule) * half ** powers

    lower, upper = _moment_rules(degree)
    return half_moments(slice(m), lower, below) + half_moments(slice(m, None), upper, above)


class _Pieces(NamedTuple):
    """The pieces of the open quadrature windows, one entry per piece."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray  # the rule on the two halves, summed
    error: np.ndarray
    absval: np.ndarray  # the rule for |g| on the two halves, summed
    left: np.ndarray  # the rule on each half: the whole-piece values
    right: np.ndarray  # of the two pieces that bisecting this one makes
    moments: np.ndarray  # int (mid - t)^i g on the two halves, i = 0..degree, a row each


def _bisected(g, lo: np.ndarray, hi: np.ndarray, win: np.ndarray, whole: np.ndarray,
              degree: int) -> _Pieces:
    """The pieces [lo, hi] of windows win, whose rule values are whole, with
    the rule on both halves of each, and the halves' moments to degree.

    The estimate is the gap between whole and the halves' sum.  A node sits
    an ulp or so off its ideal place, which can move a rule by about eps |t|
    times the variation of g on the piece; a gap within twice that is
    rounding, not truncation, and counts as zero.  Either way the estimate
    is at least QUADPACK's rounding floor, 50 eps int |g|.
    """
    m = len(lo)
    mid = 0.5 * (lo + hi)
    vals, shift, rule, abs_rule = _gauss(g, np.concatenate((lo, mid)),
                                         np.concatenate((mid, hi)), np.concatenate((win, win)))
    left, right = rule[:m], rule[m:]
    value = left + right
    gap = np.abs(whole - value)
    variation = np.abs(np.diff(np.hstack((vals[:m], vals[m:])), axis=1)).sum(axis=1)
    noise = 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) * variation
    absval = abs_rule[:m] + abs_rule[m:]
    error = np.maximum(np.where(gap > noise, gap, 0.0), 50.0 * _EPS * absval)
    moments = np.column_stack((value, _piece_moments(vals, shift, mid - lo, hi - mid, degree)))
    return _Pieces(lo, hi, value, error, absval, left, right, moments)


def _quadrature_windows(g, lo: np.ndarray, hi: np.ndarray, label: str, degree: int = 0,
                        x_of=None) -> np.ndarray:
    """int g over each window [lo[i], hi[i]] by adaptive bisection, the
    windows integrated together in batches of _BATCH_WINDOWS.

    g maps nodes, an array with one row per piece, and win, the window of
    each row, to the integrand's values there.  Every window starts as one
    piece; each round bisects the worst piece of every window still open.  A
    window closes when its summed estimate meets max(1e-10 |value|,
    1e-13 int |g|), a target that scales with g; when it holds _MAX_PIECES
    pieces; or after _STALL_LIMIT bisections that neither moved the piece's
    value by 1e-5 relative nor shrank its estimate (QAG's roundoff test).  A
    window whose value or estimate is not finite raises QuadratureError.
    With moments (degree >= 1), a window also closes only once the target
    holds for g weighted by (1 - t/X)^degree, X = x_of[i] the grid point
    that ends its segment, where the weight varies most across it.

    Returns an array of shape (3, windows, degree + 1): each window's
    moments int_w (c - t)^j g dt about its centre c, j = 0..degree, and the
    same moments of its pieces' error estimates and of int |g|, each placed
    at its piece's midpoint.  The caller accepts the sums.
    """
    cuts = [*range(0, len(lo), _BATCH_WINDOWS), len(lo)]
    return np.concatenate([
        _batch(lambda t, win, first=first: g(t, win + first), lo[first:last], hi[first:last],
               label, degree, None if x_of is None else x_of[first:last])
        for first, last in zip(cuts[:-1], cuts[1:])], axis=1)


def _batch(g, lo: np.ndarray, hi: np.ndarray, label: str, degree: int, x_of) -> np.ndarray:
    """``_quadrature_windows`` on one batch of windows."""
    n_windows = len(lo)
    out = np.zeros((3, n_windows, degree + 1))
    centre = 0.5 * (lo + hi)
    is_open = np.ones(n_windows, dtype=bool)
    count = np.ones(n_windows, dtype=np.int64)
    stalls = np.zeros(n_windows, dtype=np.int64)
    win = np.arange(n_windows)  # the window of each piece
    pieces = _bisected(g, lo, hi, win, _gauss(g, lo, hi, win)[2], degree)
    while True:
        sums = np.array([np.bincount(win, part, n_windows)
                         for part in (pieces.value, pieces.error, pieces.absval)])
        total, est, absval = sums
        # a NaN total or estimate closes its window, which then raises
        meets = ~(est > np.maximum(1e-10 * np.abs(total), 1e-13 * absval))
        if degree:
            X = x_of[win]
            rel = (X - 0.5 * (pieces.lo + pieces.hi)) / X
            weight = rel ** degree
            w_total, w_est, w_absval = (
                np.bincount(win, part, n_windows)
                for part in (_at_x(pieces.moments, rel, X[:, None], degree),
                             pieces.error * weight, pieces.absval * weight))
            meets &= ~(w_est > np.maximum(1e-10 * np.abs(w_total), 1e-13 * w_absval))
        closing = is_open & (meets | (count >= _MAX_PIECES) | (stalls >= _STALL_LIMIT))
        if closing.any():
            bad = np.flatnonzero(closing & ~(np.isfinite(total) & np.isfinite(est)))
            if len(bad):
                raise QuadratureError(
                    f"quadrature of {label} is not finite on "
                    f"[{lo[bad[0]]:g}, {hi[bad[0]]:g}]", math.inf)
            out[:, closing, 0] = sums[:, closing]
            if degree:
                _close_moments(out, closing, pieces, win, centre, degree)
            is_open &= ~closing
            keep = is_open[win]
            win = win[keep]
            pieces = _Pieces(*(part[keep] for part in pieces))
        if not len(win):
            return out
        order = np.lexsort((pieces.error, win))
        worst = order[np.append(win[order][1:] != win[order][:-1], True)]
        split = win[worst]
        old = _Pieces(*(part[worst] for part in pieces))
        mid = 0.5 * (old.lo + old.hi)
        new = _bisected(g, np.concatenate((old.lo, mid)), np.concatenate((mid, old.hi)),
                        np.concatenate((split, split)), np.concatenate((old.left, old.right)),
                        degree)
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


def _close_moments(out, closing, pieces: _Pieces, win, centre, degree: int) -> None:
    """Moments 1..degree of the closing windows, about their centres, into
    out: each piece's moments moved from its midpoint by the binomial
    theorem, and its error estimate and int |g| placed at its midpoint."""
    sel = closing[win]
    at, n_windows = win[sel], len(centre)
    d = centre[at] - 0.5 * (pieces.lo[sel] + pieces.hi[sel])
    mu = pieces.moments[sel]
    error, absval = pieces.error[sel], pieces.absval[sel]
    for j in range(1, degree + 1):
        acc = mu[:, 0]
        for i in range(1, j + 1):  # sum_i C(j, i) d^(j-i) mu_i, by Horner's rule
            acc = acc * d + math.comb(j, i) * mu[:, i]
        dj = d ** j
        for row, part in enumerate((acc, error * dj, absval * dj)):
            out[row, closing, j] = np.bincount(at, part, n_windows)[closing]
