"""The numpy quadrature behind ``integral``'s off-chain orders.

``integral`` imports this module only when an order is not read off a
primitive chain, so every closed-form path runs without numpy.  One reader,
``riesz_means``, serves every such order k.  Its windows come from one
lattice that no X decides (``_lattice``): the windows of [0, X] are the
lattice windows below X plus one window cut at X, so an X of a grid reads the
windows that X alone reads, bit for bit.  One pass of ``_quadrature_windows``
over those windows returns each one's moments m_j(w) = int_w (c_w - t)^j f dt
about its centre c_w, j = 0..d: d = k for an integer 0 <= k <= MAX_DEGREE,
else d = MAX_DEGREE.  Each X reads a window of [0, X] far from it as the
binomial series X^-k sum_{j<=d} C(k, j) (X - c_w)^(k-j) m_j(w), exact where
k = d, and integrates the few windows near it under the weight
(1 - t/X)^k.  Each X's mean is accepted or refused over its own [0, X]; see
``_quadrature_windows`` and the ``integral`` module docstring for the rule.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .evaluation import QuadratureError

_GAUSS_POINTS = 32
_WIDTH = 3225 / 64  # the lattice's uniform window width; see _lattice
_UNIFORM = 4096  # the lattice's uniform windows, before they grow with t
_BATCH_WINDOWS = 512  # windows per batch: fewer rounds, arrays that stay in cache
_MAX_PIECES = 200  # pieces per quadrature window (QUADPACK's limit)
_STALL_LIMIT = 6  # roundoff-limited bisections per window (QAG's count)
_EPS = math.ulp(1.0)
# the highest moment a window returns: the 32-point rule is exact on
# (c - t)^j p(t) for deg p <= 63 - j, so up to here the rule that resolves f
# on a piece still resolves its moments there
MAX_DEGREE = 16


def riesz_means(spec, k: float, grid: tuple) -> list[float]:
    """int_0^X (1 - t/X)^k f(t) dt at each X of grid, a positive increasing
    tuple, for real k > -1: X reads its far windows off their moments, with
    each piece's error estimate and int |f| weighted at its midpoint, and
    integrates the windows near it under the weight."""
    degree = int(k) if k == int(k) and 0 <= k <= MAX_DEGREE else MAX_DEGREE
    edges = _lattice(grid[-1])
    ends = np.searchsorted(edges, grid) - 1  # the last edge below each X
    # the lattice windows below the last X, then the window cut at each X
    lo = np.concatenate((edges[:-1], edges[ends]))
    hi = np.concatenate((edges[1:], grid))
    moments = _quadrature_windows(lambda t, win: _sample(spec, t), lo, hi, spec.label, degree)
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    # cut after u^d, the series of (1 - u)^k errs by about |C(k, d+1)| u^(d+1),
    # u = h/(X - c) on a window of half-width h: a far window keeps that below
    # 1e-16 (X - c >= 6.3 h at k = 0.5, 14 h at k = 20.5; any X - c at k = d)
    reach = (abs(_binomials(k, degree + 1)[-1]) * 1e16) ** (1.0 / (degree + 1))
    far_reads, near = [], []
    for X, n, cut in zip(grid, ends, range(len(edges) - 1, len(lo))):
        # X owns lattice windows 0..n-1 and window cut; at k = d all are far,
        # else the far ones are a prefix, as X - c falls and h grows along the
        # lattice, and the rest are near
        if k == degree:
            parts, near_idx = (slice(n), slice(cut, cut + 1)), []
        else:
            far = X - centre[:n] >= reach * half[:n]
            n_far = n if far.all() else int(far.argmin())
            parts, near_idx = (slice(n_far),), [*range(n_far, n), cut]
        far_reads.append([_at_x(moments[:, s], (X - centre[s]) / X, X, k) for s in parts])
        near.append(np.array(near_idx, dtype=np.intp))
    return [_certified(spec.label, X, *np.concatenate([*reads, near_part], axis=1))
            for X, reads, near_part in zip(grid, far_reads,
                                           _near_windows(spec, k, grid, near, lo, hi))]


def _lattice(X: float) -> np.ndarray:
    """The edges below X of the one window lattice: i w for i <= 4096, then
    each 1 + 1/4096 times the one before, so a window is max(w, t/4096) wide.
    The edges below X are a prefix of those below any larger X, as the
    geometric ones are running products.  w = 3225/64 is no integer, and its
    first integer multiple is the 64th: windows on the integers let the
    estimate that compares a piece with its halves miss period-1 kinks."""
    top = _UNIFORM * _WIDTH
    edges = np.arange(min(_UNIFORM, math.ceil(X / _WIDTH)) + 1) * _WIDTH
    if X > top:
        ratios = np.full(math.ceil(math.log(X / top) / math.log1p(1.0 / _UNIFORM)) + 2,
                         1.0 + 1.0 / _UNIFORM)
        ratios[0] = top
        edges = np.concatenate((edges[:-1], np.multiply.accumulate(ratios)))
    return edges[:np.searchsorted(edges, X)]


def _binomials(k: float, n: int) -> list[float]:
    """C(k, j) for j = 0..n, k real: exact for an integer 0 <= k <= 16, whose
    products C(k, j - 1) (k - j + 1) are integers below 2^53."""
    row = [1.0]
    for j in range(1, n + 1):
        row.append(row[-1] * (k - j + 1) / j)
    return row


def _at_x(moments, rel, X, k: float):
    """The integral of (1 - t/X)^k g over a stretch whose moments
    int (c - t)^j g dt about c are m_j = moments[..., j], j = 0..d, and
    rel = (X - c)/X: ``_series`` of m_j / X^j, each column formed as the
    series reads it.  X^j is never formed, as it can overflow."""
    def scaled():
        for j in range(moments.shape[-1]):
            column = moments[..., j]
            for _ in range(j):
                column = column / X
            yield column
    return _series(scaled(), rel, k, moments.shape[-1] - 1)


def _series(scaled, rel, k: float, degree: int):
    """sum_j C(k, j) rel^(k-j) s_j, j = 0..degree, s_j the j-th of the
    iterable scaled, by Horner's rule in rel: the binomial series of
    (1 - t/X)^k g over a stretch whose moments about c, over X^j, are s_j,
    with rel = (X - c)/X, cut after j = degree (exact where k = degree)."""
    scaled = iter(scaled)
    acc = next(scaled)
    for column, binomial in zip(scaled, _binomials(k, degree)[1:]):
        acc = acc * rel + binomial * column
    return acc if k == degree else acc * rel ** (k - degree)


def _near_windows(spec, k: float, grid: tuple, near: list, lo, hi) -> list:
    """(1 - t/X)^k f over the windows near[i] of each X = grid[i], all
    integrated together: a (3, windows) array of (value, error, int |g|) per
    X.  For k < 0 the window that ends at X carries the weight's singularity."""
    counts = [len(idx) for idx in near]
    idx = np.concatenate(near)
    if not len(idx):
        return [np.empty((3, 0))] * len(grid)
    X_of, start_of = np.repeat(grid, counts), lo[idx]
    h_of = X_of - start_of
    is_last = hi[idx] == X_of
    # the constant weight (h/X)^k/(k+1) of the last window of X, h = X - start
    tail_of = (h_of / X_of) ** k / (k + 1.0)

    def weighted(u, win):
        w = (1.0 - u / X_of[win][:, None]) ** k
        if k >= 0:  # a bounded weight: bisection toward X is enough
            return w * _sample(spec, u)
        # on the last window, t = X - h v^(1/(k+1)) with v = (X - u)/h turns
        # (X - t)^k dt into the constant h^(k+1)/(k+1) dv; t is computed from
        # its distance to start (0 when X <= w), so it keeps its digits there
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

    windows = _quadrature_windows(weighted, lo[idx], hi[idx], spec.label)[:, :, 0]
    return np.split(windows, np.cumsum(counts)[:-1], axis=1)


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
    shift = _rows(vals, dmat.T) * r
    value = np.einsum("pn,n->p", vals, w) * width + np.einsum("pn,n->p", shift, w)
    return vals, shift, value, np.einsum("pn,n->p", np.abs(vals), w) * width


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b one row of a at a time.  A stacked matmul calls BLAS once per
    row, so a row's product does not depend on the rows beside it, as in a
    blocked a @ b it can, and it runs faster than np.einsum."""
    return np.matmul(a[:, None, :], b)[:, 0]


@functools.cache
def _moment_rules(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """The rule's weights times ((e - t)/width)^i, i = 1..degree, on a piece
    of that width below the point e (e - t = width (1 - u)) and above it
    (e - t = -width u)."""
    u, w, _ = _gauss_legendre()
    powers = np.arange(1, degree + 1)
    return w[:, None] * (1.0 - u)[:, None] ** powers, w[:, None] * (-u)[:, None] ** powers


def _moments(vals, shift, value, rule, width) -> np.ndarray:
    """int ((e - t)/width)^i g over each piece of that width, i = 0..degree,
    e the end of it that rule (a ``_moment_rules`` half) measures from:
    value, the rule's own, then a small matrix product on the node values it
    already took."""
    return np.column_stack((value, _rows(vals, rule) * width[:, None] + _rows(shift, rule)))


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
    w_error: np.ndarray  # the estimate, left and right for g (1 - t/X)^degree,
    w_left: np.ndarray  # X the upper end of the piece's window
    w_right: np.ndarray


def _bisected(g, lo: np.ndarray, hi: np.ndarray, win: np.ndarray, whole: np.ndarray,
              w_whole: np.ndarray, top: np.ndarray, degree: int) -> _Pieces:
    """The pieces [lo, hi] of windows win, whose rule values are whole, with
    the rule on both halves of each, and the halves' moments to degree; the
    same for g weighted by (1 - t/top)^degree, top the window's upper end,
    whose rule values are w_whole.

    The estimate is the gap between whole and the halves' sum.  A node sits
    an ulp or so off its ideal place, which can move a rule by about eps |t|
    times the variation of g on the piece; a gap within twice that is
    rounding, not truncation, and counts as zero.  Either way the estimate
    is at least QUADPACK's rounding floor, 50 eps int |g|, and the weighted
    estimate at least the estimate times the weight at the midpoint.  The
    weighted gap matters where the rule is exact by symmetry: an f odd
    about the midpoint of every piece integrates to 0 on each, while its
    moments do not.
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
    if not degree:  # the weight is 1
        return _Pieces(lo, hi, value, error, absval, left, right, value[:, None],
                       error, left, right)
    lower, upper = _moment_rules(degree)
    width = np.concatenate((mid - lo, hi - mid))
    halves = np.concatenate((_moments(vals[:m], shift[:m], left, lower, width[:m]),
                             _moments(vals[m:], shift[m:], right, upper, width[m:])))
    rel, ratio = (top - mid) / top, width / np.tile(top, 2)

    def scaled():  # the halves' moments about mid over top^j
        power = 1.0
        for column in halves.T:
            yield column * power
            power = power * ratio
    w_left, w_right = np.split(_series(scaled(), np.tile(rel, 2), degree, degree), 2)
    halves *= width[:, None] ** np.arange(degree + 1)
    w_gap = np.abs(w_whole - (w_left + w_right))
    w_error = np.maximum(np.where(w_gap > noise, w_gap, 0.0), error * rel ** degree)
    return _Pieces(lo, hi, value, error, absval, left, right, halves[:m] + halves[m:],
                   w_error, w_left, w_right)


def _quadrature_windows(g, lo: np.ndarray, hi: np.ndarray, label: str,
                        degree: int = 0) -> np.ndarray:
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
    holds for g weighted by (1 - t/X)^degree, X = hi[i] its own upper end,
    where the weight varies most across it.  Every reduction runs row by
    row, so a window's result does not depend on the windows beside it.

    Returns an array of shape (3, windows, degree + 1): each window's
    moments int_w (c - t)^j g dt about its centre c, j = 0..degree, and the
    same moments of its pieces' error estimates and of int |g|, each placed
    at its piece's midpoint.  The caller accepts the sums.
    """
    out = np.empty((3, len(lo), degree + 1))
    for first in range(0, len(lo), _BATCH_WINDOWS):
        last = first + _BATCH_WINDOWS
        _batch(lambda t, win, first=first: g(t, win + first), lo[first:last], hi[first:last],
               label, degree, out[:, first:last])
    return out


def _batch(g, lo: np.ndarray, hi: np.ndarray, label: str, degree: int, out) -> None:
    """``_quadrature_windows`` on one batch of windows, into out, its slice
    of the result."""
    n_windows = len(lo)
    centre = 0.5 * (lo + hi)
    is_open = np.ones(n_windows, dtype=bool)
    count = np.ones(n_windows, dtype=np.int64)
    stalls = np.zeros(n_windows, dtype=np.int64)
    win = np.arange(n_windows)  # the window of each piece
    vals, shift, whole, _ = _gauss(g, lo, hi, win)
    # (1 - t/hi)^degree g over each window: its degree-th moment about hi
    last = _moment_rules(degree)[0][:, degree - 1:]
    w_whole = _moments(vals, shift, whole, last, hi - lo)[:, -1] * ((hi - lo) / hi) ** degree
    pieces = _bisected(g, lo, hi, win, whole, w_whole, hi, degree)
    while True:
        sums = np.array([np.bincount(win, part, n_windows)
                         for part in (pieces.value, pieces.error, pieces.absval)])
        total, est, absval = sums
        # a NaN total or estimate closes its window, which then raises
        meets = ~(est > np.maximum(1e-10 * np.abs(total), 1e-13 * absval))
        if degree:
            X = hi[win]
            w_total, w_est, w_absval = (
                np.bincount(win, part, n_windows)
                for part in (pieces.w_left + pieces.w_right, pieces.w_error,
                             pieces.absval * ((X - 0.5 * (pieces.lo + pieces.hi)) / X) ** degree))
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
            return
        order = np.lexsort((pieces.error, win))
        worst = order[np.append(win[order][1:] != win[order][:-1], True)]
        split = win[worst]
        old = _Pieces(*(part[worst] for part in pieces))
        mid = 0.5 * (old.lo + old.hi)
        new = _bisected(g, np.concatenate((old.lo, mid)), np.concatenate((mid, old.hi)),
                        np.concatenate((split, split)), np.concatenate((old.left, old.right)),
                        np.concatenate((old.w_left, old.w_right)), np.tile(hi[split], 2), degree)
        keep = np.ones(len(win), dtype=bool)
        keep[worst] = False
        win = np.concatenate((win[keep], split, split))
        pieces = _Pieces(*(np.concatenate((part[keep], added))
                           for part, added in zip(pieces, new)))
        m = len(split)
        stalled = np.ones(m, dtype=bool)  # for g and for the weighted g alike
        for value, error, old_value, old_error in (
                (new.value, new.error, old.value, old.error),
                (new.w_left + new.w_right, new.w_error, old.w_left + old.w_right, old.w_error)):
            value, error = value[:m] + value[m:], error[:m] + error[m:]
            stalled &= ((np.abs(old_value - value) <= 1e-5 * np.abs(value))
                        & (error >= 0.99 * old_error))
        stalls[split] += stalled
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
