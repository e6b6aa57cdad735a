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

Every piece of a window takes one Gauss-Kronrod pair (``_kronrod``): the
65-node Kronrod rule K65 gives its value, int |g| and moments, and the gap to
the 32-node Gauss rule G32 on every other node of the same 65 is its error
estimate, as in QUADPACK's QAG (Piessens et al., *QUADPACK*, 1983).  A window
that meets its target at once costs 65 integrand calls, and a bisection
130: both new pieces take the pair afresh.
"""
from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .evaluation import QuadratureError

_WIDTH = 3225 / 64  # the lattice's uniform window width; see _lattice
_UNIFORM = 4096  # the lattice's uniform windows, before they grow with t
_BATCH_WINDOWS = 512  # windows per batch: fewer rounds, arrays that stay in cache
_MAX_PIECES = 200  # pieces per quadrature window (QUADPACK's limit)
_STALL_LIMIT = 6  # roundoff-limited bisections per window (QAG's count)
_EPS = math.ulp(1.0)
# the highest moment a window returns: the K65 weights are exact on
# (c - t)^j p(t) for deg p <= 97 - j, and a piece passes only where the G32
# rule, exact to degree 63, agrees with them, so up to here the rule that
# resolves f on a piece still resolves its moments there
MAX_DEGREE = 16
# the most windows one X may use, about 4096 (1 + ln(X/206,400)): 76,600 at
# X = 1e13, and this cap near X = 6e18, where the moment pass's array of
# 3 x 2^17 x 17 doubles takes 53 MB
MAX_WINDOWS = 2**17


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
    terms = np.moveaxis(moments, 2, 0).copy()  # C(k, j) m_j of every window, j first
    terms *= np.array(_binomials(k, degree))[:, None, None]
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
        far_reads.append([_at_x(terms[:, :, s], X, centre[s], k) for s in parts])
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
    error estimate miss period-1 kinks.  An X past MAX_WINDOWS windows is
    refused with ValueError before any edge is built."""
    top = _UNIFORM * _WIDTH
    grown = math.ceil(math.log(X / top) / math.log1p(1.0 / _UNIFORM)) + 2 if X > top else 0
    if _UNIFORM + grown > MAX_WINDOWS:
        raise ValueError(f"X = {X:g} needs {_UNIFORM + grown} quadrature windows, more "
                         f"than the cap MAX_WINDOWS = {MAX_WINDOWS}")
    edges = np.arange(min(_UNIFORM, math.ceil(X / _WIDTH)) + 1) * _WIDTH
    if X > top:
        ratios = np.full(grown, 1.0 + 1.0 / _UNIFORM)
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


def _at_x(terms, X, centre, k: float):
    """The integral of (1 - t/X)^k g over a stretch whose moments
    m_j = int (c - t)^j g dt about c = centre give terms[j] = C(k, j) m_j,
    j = 0..d: the binomial series rel^k sum_j C(k, j) m_j / (X - c)^j,
    rel = (X - c)/X, cut after j = d (exact where k = d), by Horner's rule
    in 1/(X - c).  X^j is never formed, as it can overflow; on a stretch of
    half-width h <= X - c, |m_j| / (X - c)^j <= 2 h max |g|, so no step
    overflows where m_0 does not."""
    gap = X - centre
    acc = terms[-1]
    for term in terms[-2::-1]:
        acc = acc / gap + term
    return acc * (gap / X) ** k


def _near_windows(spec, k: float, grid: tuple, near: list, lo, hi) -> list:
    """(1 - t/X)^k f over the windows near[i] of each X = grid[i], all
    integrated together: a (3, windows) array of (value, error, int |g|) per
    X.  At a fractional k the window that ends at X is integrated in a
    variable that smooths the weight's end there."""
    counts = [len(idx) for idx in near]
    idx = np.concatenate(near)
    if not len(idx):
        return [np.empty((3, 0))] * len(grid)
    X_of, start_of = np.repeat(grid, counts), lo[idx]
    h_of = X_of - start_of
    is_last = hi[idx] == X_of
    # on the last window of X, t = X - h v^p with v = (X - u)/h, h = X - start,
    # turns (1 - t/X)^k dt into p (h/X)^k v^(p(k+1)-1) du: a constant for
    # k < 0 with p = 1/(k+1), and v^(2k+1) for k > 0 with p = 2, which the
    # rule resolves far sooner than (X - t)^k (exactly at a half-integer k)
    power, exponent = (1.0 / (k + 1.0), 0.0) if k < 0 else (2.0, 2.0 * k + 1.0)
    tail_of = power * (h_of / X_of) ** k

    def weighted(u, win):
        w = (1.0 - u / X_of[win][:, None]) ** k
        if k == int(k):  # a polynomial weight: bisection toward X is enough
            return w * _sample(spec, u)
        # t is computed from its distance to start (0 when X <= w), so it
        # keeps its digits there
        t = u.copy()
        rows = np.flatnonzero(is_last[win])
        X, start, h, tail = (np.broadcast_to(part[win[rows]][:, None], (len(rows), u.shape[1]))
                             for part in (X_of, start_of, h_of, tail_of))
        t[rows] = start - h * np.expm1(np.log1p((start - u[rows]) / h) * power)
        w[rows] = tail * ((X - u[rows]) / h) ** exponent
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


# the 65 nodes of K65 on [0, 1], increasing; the G32 nodes are _NODES[1::2]
_NODES = (
    0.0002270489378177607, 0.0013680690752592183, 0.0036859823685140435, 0.007194244227365833,
    0.011844858192668097, 0.017618872206246784, 0.024522657575669408, 0.03254696203113015,
    0.041661366674317836, 0.05183942211697394, 0.0630651155273447, 0.07531619313371501,
    0.08855852493197434, 0.1027581020160288, 0.11788587400109815, 0.13390894062985517,
    0.15078672110239474, 0.1684778665348924, 0.186943531149088, 0.20614212137961885,
    0.22602684290042377, 0.2465500455338853, 0.2676653457590039, 0.2893243619346823,
    0.31147528942293945, 0.33406569885893617, 0.3570437707052701, 0.38035631887393145,
    0.40394819550842875, 0.42776401920860174, 0.4517486515615528, 0.4758461671561308, 0.5,
    0.5241538328438692, 0.5482513484384471, 0.5722359807913983, 0.5960518044915712,
    0.6196436811260685, 0.6429562292947298, 0.6659343011410638, 0.6885247105770606,
    0.7106756380653176, 0.7323346542409961, 0.7534499544661147, 0.7739731570995763,
    0.7938578786203812, 0.813056468850912, 0.8315221334651076, 0.8492132788976052,
    0.8660910593701449, 0.8821141259989018, 0.8972418979839712, 0.9114414750680256,
    0.9246838068662849, 0.9369348844726553, 0.9481605778830261, 0.9583386333256821,
    0.9674530379688698, 0.9754773424243306, 0.9823811277937532, 0.9881551418073319,
    0.9928057557726342, 0.996314017631486, 0.9986319309247408, 0.9997729510621822,
)
# the K65 weights of nodes 0..32; nodes 64..32 take the same
_K65_WEIGHTS = (
    0.000611680408975736, 0.0017134093878861856, 0.002920868539583347, 0.004086252019265834,
    0.005211993699403409, 0.006338027403327201, 0.007468051803043014, 0.008574902604892127,
    0.009649385715163406, 0.010704456592410958, 0.011743329836081663, 0.012752847740447326,
    0.013726049211105202, 0.01466847834481033, 0.015581662780986869, 0.0164575388219518,
    0.017291061372366516, 0.01808488473782115, 0.0188395653228067, 0.019549710066653306,
    0.02021174618518655, 0.020827009992821527, 0.021395557798223372, 0.021913772015069874,
    0.02237931937488347, 0.022792913282273536, 0.023154378369012858, 0.023461484140851807,
    0.02371303093694119, 0.023909454368494235, 0.024050484592728873, 0.024135096537888694,
    0.02416319199328388,
)
# the G32 weights of nodes 1, 3, ..., 31; nodes 63, 61, ..., 33 take the same
_G32_WEIGHTS = (
    0.003509305004735048, 0.008137197365452835, 0.01269603265463103, 0.017136931456510716,
    0.02141794901111334, 0.025499029631188087, 0.029342046739267772, 0.032911111388180925,
    0.03617289705442425, 0.039096947893535156, 0.041655962113473374, 0.043826046502201906,
    0.045586939347881945, 0.04692219954040228, 0.04781936003963743, 0.0482700442573639,
)


@functools.cache
def _kronrod() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Gauss-Kronrod pair G32/K65 on [0, 1]: the 65 Kronrod nodes u, which
    hold the 32 Gauss-Legendre nodes at u[1::2]; their weights, a column for
    the K65 rule and one for the G32 rule (0 off the Gauss nodes); and the
    matrix that maps values at the nodes to the derivative there of their
    interpolating polynomial (values @ matrix).

    The tables come from Laurie's algorithm (Math. Comp. 66, 1997) in 36-digit
    decimal and one Newton step per node, each value rounded once to a double.
    """
    u = np.array(_NODES)
    weights = np.zeros((len(u), 2))
    weights[:, 0] = _K65_WEIGHTS + _K65_WEIGHTS[-2::-1]
    weights[1::2, 1] = _G32_WEIGHTS + _G32_WEIGHTS[::-1]
    diff = u[:, None] - u[None, :]
    np.fill_diagonal(diff, 1.0)
    bary = 1.0 / diff.prod(axis=1)  # barycentric weights of the nodes
    deriv = bary[None, :] / bary[:, None] / diff
    np.fill_diagonal(deriv, 0.0)
    np.fill_diagonal(deriv, -deriv.sum(axis=1))
    rule = (u, weights, deriv.T.copy())
    for part in rule:
        part.flags.writeable = False
    return rule


@functools.cache
def _rules(degree: int) -> np.ndarray:
    """The weights applied to the 65 node values of a piece, a column each:
    the K65 rule times (1/2 - u)^j, j = 0..degree, then the G32 rule times
    the same, which give int ((mid - t)/width)^j g over a piece of that
    width under each rule."""
    u, weights, _ = _kronrod()
    powers = (0.5 - u)[:, None] ** np.arange(degree + 1)
    rule = np.column_stack((weights[:, :1] * powers, weights[:, 1:] * powers))
    rule.flags.writeable = False
    return rule


def _sample(spec, t: np.ndarray) -> np.ndarray:
    """The integrand at each node of the array t: one call of spec.array_func
    where the spec has one (sin_wave, cos_wave, exp_decay), else one scalar
    call of spec.func per node, which a memoryview hands out as Python
    floats without a list of them all."""
    if spec.array_func is not None:
        return spec.array_func(t)
    return np.fromiter(map(spec.func, memoryview(t.ravel())), np.float64, t.size).reshape(t.shape)


def _rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b one row of a at a time, b one matrix or one per row.  A stacked
    matmul calls BLAS once per row, so a row's product does not depend on
    the rows beside it, as in a blocked a @ b it can, and it runs faster
    than np.einsum."""
    return np.matmul(a[:, None, :], b)[:, 0]


def _floored(gap, noise, floor):
    """gap where it exceeds noise, else 0, and at least floor."""
    return np.maximum(np.where(gap > noise, gap, 0.0), floor)


class _Pieces(NamedTuple):
    """The pieces of the open quadrature windows, one entry per piece."""

    lo: np.ndarray
    hi: np.ndarray
    value: np.ndarray  # the K65 rule
    error: np.ndarray  # its estimate, |K65 - G32| with its floors
    absval: np.ndarray  # the K65 rule for |g|
    moments: np.ndarray  # int (mid - t)^i g, i = 0..degree, a row each
    w_value: np.ndarray  # the K65 rule and the estimate for g (1 - t/X)^degree,
    w_error: np.ndarray  # X the upper end of the piece's window


def _pieces(g, lo: np.ndarray, hi: np.ndarray, win: np.ndarray, top: np.ndarray,
            degree: int) -> _Pieces:
    """The G32/K65 pair on each piece [lo, hi] of the vectorized integrand g,
    whose window is win, with the piece's moments about its midpoint to
    degree; the same pair for g weighted by (1 - t/top)^degree, top the
    window's upper end.  The value, int |g| and the moments come from the
    K65 weights; the estimate is |K65 - G32|, and with moments the larger of
    that and twice the gap of the two rules on (mid - t)/width g.

    A node t = lo + (hi - lo) u is rounded to a double, by up to eps |t|,
    which far from 0 is noise of that size in every value of g.  The TwoSum
    residual r of that addition is exact, so each rule adds the first-order
    term sum w g'(t) r, with g' from the piece's interpolating polynomial.
    A node an ulp or so off its ideal place can still move a rule by about
    eps |t| times the variation of g on the piece; a gap within twice that
    is rounding, not truncation, and counts as zero.  Either way the
    estimate is at least QUADPACK's rounding floor, 50 eps int |g|, and the
    weighted estimate at least the estimate times the weight at the
    midpoint.  The second gap and the weighted one matter where both rules
    are exact by symmetry: an f odd about a piece's midpoint integrates to 0
    under each, while its odd moments do not, and an estimate blind to them
    would accept the moments of a window that runs out of pieces.
    """
    u, pair, deriv = _kronrod()
    width = hi - lo
    q = width[:, None] * u
    t = lo[:, None] + q
    r = t - lo[:, None]  # TwoSum: r = (lo - (t - bb)) + (q - bb), bb = t - lo
    q -= r
    np.subtract(t, r, out=r)
    np.subtract(lo[:, None], r, out=r)
    r += q
    vals = g(t, win)
    corrected = _rows(vals, deriv)
    corrected *= r
    corrected += vals * width[:, None]  # width g plus its rounding term, per node
    sums = _rows(corrected, _rules(degree))
    kronrod, gauss = sums[:, :degree + 1], sums[:, degree + 1:]
    value = kronrod[:, 0]
    absval = np.einsum("pn,n->p", np.abs(vals), pair[:, 0]) * width
    variation = np.diff(vals, axis=1)
    variation = np.abs(variation, out=variation).sum(axis=1)
    noise = 2.0 * _EPS * np.maximum(np.abs(lo), np.abs(hi)) * variation
    gap = np.abs(value - gauss[:, 0])
    if degree:  # the gap of g (mid - t)/width, which the odd moments need
        gap = np.maximum(gap, 2.0 * np.abs(kronrod[:, 1] - gauss[:, 1]))
    error = _floored(gap, noise, 50.0 * _EPS * absval)
    if not degree:  # the weight is 1
        return _Pieces(lo, hi, value, error, absval, value[:, None], value, error)
    mid = 0.5 * (lo + hi)
    both = sums.reshape(-1, 2, degree + 1) * width[:, None, None] ** np.arange(degree + 1)
    moments = both[:, 0]
    terms = np.moveaxis(both, 2, 0) * np.array(_binomials(degree, degree))[:, None, None]
    w_value, w_gauss = _at_x(terms, top[:, None], mid[:, None], degree).T
    w_error = _floored(np.abs(w_value - w_gauss), noise, error * ((top - mid) / top) ** degree)
    return _Pieces(lo, hi, value, error, absval, moments, w_value, w_error)


def _quadrature_windows(g, lo: np.ndarray, hi: np.ndarray, label: str,
                        degree: int = 0) -> np.ndarray:
    """int g over each window [lo[i], hi[i]] by adaptive bisection, the
    windows integrated together in batches of _BATCH_WINDOWS.

    g maps nodes, an array with one row per piece, and win, the window of
    each row, to the integrand's values there.  Every window starts as one
    piece under the G32/K65 pair (``_pieces``); each round bisects the worst
    piece of every window still open and takes the pair afresh on both
    halves.  A window closes when its summed estimate meets
    max(1e-10 |value|, 1e-13 int |g|), a target that scales with g; when it
    holds _MAX_PIECES pieces; or after _STALL_LIMIT bisections that neither
    moved the piece's value by 1e-5 relative nor shrank its estimate (QAG's
    roundoff test).  A window whose value or estimate is not finite raises
    QuadratureError.  With moments (degree >= 1), a window also closes only
    once the target holds for g weighted by (1 - t/X)^degree, X = hi[i] its
    own upper end, where the weight varies most across it.  Every reduction
    runs row by row, so a window's result does not depend on the windows
    beside it.

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
    pieces = _pieces(g, lo, hi, win, hi, degree)
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
                for part in (pieces.w_value, pieces.w_error,
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
        new = _pieces(g, np.concatenate((old.lo, mid)), np.concatenate((mid, old.hi)),
                      np.concatenate((split, split)), np.tile(hi[split], 2), degree)
        keep = np.ones(len(win), dtype=bool)
        keep[worst] = False
        win = np.concatenate((win[keep], split, split))
        pieces = _Pieces(*(np.concatenate((part[keep], added))
                           for part, added in zip(pieces, new)))
        m = len(split)
        stalled = np.ones(m, dtype=bool)  # for g and for the weighted g alike
        for value, error, old_value, old_error in (
                (new.value, new.error, old.value, old.error),
                (new.w_value, new.w_error, old.w_value, old.w_error)):
            value, error = value[:m] + value[m:], error[:m] + error[m:]
            stalled &= ((np.abs(old_value - value) <= 1e-5 * np.abs(value))
                        & (error >= 0.99 * old_error))
        stalls[split] += stalled
        count[split] += 1


@functools.cache
def _binomial_shift(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """C(j, i) for i = 0..degree, j = 1..degree (0 where i > j), and the
    power j - i of the shift that each one multiplies (0 where i > j)."""
    i, j = np.arange(degree + 1)[:, None], np.arange(1, degree + 1)
    pascal = np.array([[math.comb(b, a) for b in range(1, degree + 1)]
                       for a in range(degree + 1)], dtype=float)
    return pascal, np.maximum(j - i, 0)


def _close_moments(out, closing, pieces: _Pieces, win, centre, degree: int) -> None:
    """Moments 1..degree of the closing windows, about their centres, into
    out: each piece's moments mu_i moved from its midpoint by one binomial
    shift, sum_i C(j, i) d^(j-i) mu_i with d = centre - midpoint, and its
    error estimate and int |g| placed at its midpoint; each window's pieces
    are summed in piece order, one ``np.bincount`` per row of out."""
    sel = closing[win]
    at, n_windows = win[sel], len(centre)
    d = centre[at] - 0.5 * (pieces.lo[sel] + pieces.hi[sel])
    powers = np.cumprod(np.column_stack((np.ones_like(d), np.repeat(d[:, None], degree, 1))),
                        axis=1)  # d^0..d^degree
    mu = pieces.moments[sel]
    moved = mu[:, 1:]
    off = np.flatnonzero(d)  # a window of one piece is centred on it
    if len(off):
        pascal, exponent = _binomial_shift(degree)
        moved[off] = _rows(mu[off], pascal * powers[off][:, exponent])
    slot = (at[:, None] * degree + np.arange(degree)).ravel()
    for row, part in enumerate((moved, pieces.error[sel, None] * powers[:, 1:],
                                pieces.absval[sel, None] * powers[:, 1:])):
        out[row, closing, 1:] = np.bincount(slot, part.ravel(), n_windows * degree).reshape(
            n_windows, degree)[closing]
