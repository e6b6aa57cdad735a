"""Cesaro / Riesz means of integrals over [0, inf), and Cesaro limits of
functions via iterated primitives.

``riesz_mean`` and ``cesaro_integral`` evaluate, for real order k > -1,

      int_0^X (1 - t/X)^k f(t) dt,

whose X -> inf limit is the Cesaro value of int_0^inf f.  ``primitive_limit``
evaluates k! F_k(X) / X^k, F_k the k-fold primitive of f (F_0 = f), whose
limit is the Cesaro limit of the *function* f.  By Cauchy's formula
F_k(X) = int_0^X (X - t)^(k-1) f(t) dt / (k-1)!, that sample is k/X times
the order k-1 Riesz mean, so all three read one reader, ``_riesz_means``,
and no order of ``primitive_limit`` needs a chain that deep.
The reader takes one of three paths.  An integer k below the chain depth
integrates by parts k times into the closed form k! F_{k+1}(X)/X^k, read
off the integrand's primitive chain (Estrada and Kanwal, *A Distributional
Approach to Asymptotics*, 2002).  Order 0 off the chain
integrates each segment of the X grid once and adds the segments by one
prefix pass.  Every other order is quadrature over [0, X] at each X.

Quadrature splits its range into ~50-wide windows and integrates every
window in one numpy batch: a Gauss-Legendre rule on each piece, an error
estimate from the same rule on its two halves, and each round a bisection
of the worst piece of every window still short of its target,
max(1e-10 |value|, 1e-13 int |g|).  It accepts a sum whose summed estimate
is at most max(1e-8 |sum|, 1e-12 int |g|), raises QuadratureError on a sum
that fails it or is not finite, and adds the windows by
``compensated_prefix_sums``.  No target has an absolute floor, so 2^m g
gets exactly 2^m times the answer.  The rule is built on first use, so
``import cesaro`` and every closed-form path never build it, and no path
needs scipy.

The quadrature nodes of one call reach the integrand as one array.
``sin_wave``, ``cos_wave`` and ``exp_decay`` evaluate it in numpy, through
their ``array_func``; every other integrand (``power_log``, ``constant``,
``periodic_poly``, ``from_primitives``, ``sampled`` and any ``primitive()``)
is called once per node with a Python float.
"""
from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .accumulate import compensated_prefix_sums
from .evaluation import CesaroEvaluation, require_finite, require_order, tail_judgement
from .exact import PeriodicPolynomial, periodic_mean

__all__ = [
    "IntegrandSpec",
    "QuadratureError",
    "default_grid",
    "riesz_mean",
    "cesaro_integral",
    "primitive_limit",
    "sin_wave",
    "cos_wave",
    "exp_decay",
    "power_log",
    "constant",
    "periodic_poly",
    "from_primitives",
    "sampled",
]

MAX_CHAIN = 8
DEFAULT_TOL = 1e-3
_GAUSS_POINTS = 32
_MAX_WINDOWS = 4096  # quadrature windows per integral
_MAX_PIECES = 200  # pieces per quadrature window (QUADPACK's limit)
_STALL_LIMIT = 6  # roundoff-limited bisections per window (QAG's count)
_EPS = math.ulp(1.0)


class QuadratureError(RuntimeError):
    """Raised when adaptive quadrature cannot certify its own result."""

    def __init__(self, message: str, error_estimate: float):
        super().__init__(message)
        self.error_estimate = error_estimate


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand plus the closed-form primitive chain it carries.

    func        the integrand itself
    primitives  iterated integrals from 0: primitives[j] is the (j+1)-fold
                primitive of func (so primitives[0](x) = int_0^x f); integer
                Riesz orders k < len(primitives) are read off this chain
    label       human-readable tag for CLI output and reprs
    array_func  optional: func on a float64 array of nodes, in one call; the
                quadrature fallbacks use it in place of one func call per
                node.  sin_wave, cos_wave and exp_decay set it.

    Build instances through the factory functions below; a user's chain is
    checked by ``from_primitives``, a built-in one is exact by construction.
    """

    func: Callable[[float], float]
    primitives: tuple = ()
    label: str = "f"
    array_func: Optional[Callable[[np.ndarray], np.ndarray]] = None

    def primitive(self) -> "IntegrandSpec":
        """The spec of int_0^x f, with the chain shifted down by one.

        Feeding this to primitive_limit turns a function-limit evaluation
        into an integral-value evaluation (one integration by parts).  The
        new func is a primitive, so the array form is not carried over.
        """
        if not self.primitives:
            raise ValueError(f"{self.label}: no antiderivative chain to shift")
        return IntegrandSpec(func=self.primitives[0], primitives=self.primitives[1:],
                             label=f"int({self.label})")

    def __repr__(self):
        return f"IntegrandSpec({self.label})"


# -- factories ----------------------------------------------------------------

def sin_wave(a: float = 1.0) -> IntegrandSpec:
    """sin(a t), with its iterated-primitive chain to depth MAX_CHAIN."""
    return _trig_wave(a, "sin", math.sin, np.sin, "imag")


def cos_wave(a: float = 1.0) -> IntegrandSpec:
    """cos(a t), with its iterated-primitive chain to depth MAX_CHAIN."""
    return _trig_wave(a, "cos", math.cos, np.cos, "real")


def _trig_wave(a: float, name: str, wave, array_wave, part: str) -> IntegrandSpec:
    require_finite(a=a)
    if a == 0:
        raise ValueError(f"{name}_wave needs a nonzero frequency")
    a = float(a)
    try:
        chain = _exp_chain(1j * a, part)
    except OverflowError:  # (ia)^j, for |a| past about 1.6e38
        raise ValueError(f"a={a:g} is too large: its primitive chain overflows "
                         "a float") from None
    return IntegrandSpec(func=lambda t: wave(a * t), primitives=chain,
                         label=f"{name}({a:g}t)", array_func=lambda t: array_wave(a * t))


def exp_decay() -> IntegrandSpec:
    """exp(-t), with its iterated-primitive chain to depth MAX_CHAIN."""
    return IntegrandSpec(func=lambda t: math.exp(-t), primitives=_exp_chain(-1.0, "real"),
                         label="exp(-t)", array_func=lambda t: np.exp(-t))


def power_log(alpha: float, p: int = 0) -> IntegrandSpec:
    """t^alpha * (ln t)^p with alpha > -1 (locally integrable at 0).

    Anything with alpha <= -1 is not an integral over [0, X] at all but a
    finite part; use the finite_part module for those.  p is a non-negative
    integer (2.0 counts as 2).
    """
    require_finite(alpha=alpha, p=p)
    alpha = float(alpha)
    if alpha <= -1.0:
        raise ValueError(
            f"alpha={alpha} is not locally integrable at 0; "
            "use finite_part.fp_power_integral / fp_log_power_integral instead")
    if p < 0 or p != int(p):
        raise ValueError(f"log power p must be a non-negative integer, got {p!r}")
    p = int(p)

    body = _power_log_layer(alpha, [(p, 1.0)])
    at_zero = 0.0 if alpha > 0 or (alpha == 0 and p > 0) else (1.0 if alpha == 0 else math.inf)
    return IntegrandSpec(func=lambda t: at_zero if t == 0.0 else body(t),
                         primitives=_power_log_chain(alpha, p, 1.0),
                         label=f"t^{alpha:g}" + (f"*ln^{p}(t)" if p else ""))


def constant(c: float = 1.0) -> IntegrandSpec:
    require_finite(c=c)
    c = float(c)
    return IntegrandSpec(func=lambda t: c, primitives=_power_log_chain(0.0, 0, c),
                         label=f"{c:g}")


def periodic_poly(p: PeriodicPolynomial) -> IntegrandSpec:
    """x -> p({x}) with its first primitive mean*floor(x) + R({x})."""
    mean = float(periodic_mean(p))
    r_coeffs = [0.0] + [float(c) / (j + 1) for j, c in enumerate(p.coeffs)]

    def f1(t):
        fl = math.floor(t)
        u = t - fl
        acc = 0.0
        for c in reversed(r_coeffs):
            acc = acc * u + c
        return mean * fl + acc

    return IntegrandSpec(func=lambda t: p(t), primitives=(f1,), label=f"{p!r}@frac")


def from_primitives(func, primitives, label: str = "user") -> IntegrandSpec:
    """User-supplied chain: primitives[0] must be int_0^x f, and so on.

    Each consecutive pair is checked by central differences at 32 fixed
    pseudo-random points in [0.5, 20]; a wrong chain raises ValueError.  Two
    misses per pair are allowed, for a probe that lands on a kink or jump.
    """
    rng = np.random.default_rng(20260815)
    pts = np.exp(rng.uniform(math.log(0.5), math.log(20.0), size=32)).tolist()
    layers = (func, *primitives)
    h = 1e-5
    for lower, upper in zip(layers[:-1], layers[1:]):
        misses = 0
        for x in pts:
            above, below = upper(x + h), upper(x - h)
            d = (above - below) / (2.0 * h)
            want = lower(x)
            # the slack scales with upper(x); the mean of the two differenced
            # values is that to O(h^2 |lower'|), and costs no extra call
            tol = 1e-4 * (1.0 + abs(want)) + 1e-10 * abs(0.5 * (above + below))
            if not math.isfinite(d) or abs(d - want) > tol:
                misses += 1
        if misses > 2:
            raise ValueError(f"antiderivative chain of {label} fails differentiation "
                             f"check ({misses}/{len(pts)} probe points off)")
    return IntegrandSpec(func=func, primitives=layers[1:], label=label)


def sampled(func, label: str = "sampled") -> IntegrandSpec:
    """A bare callable; everything downstream goes through quadrature."""
    return IntegrandSpec(func=func, label=label)


def default_grid(lo: float = 1e2, hi: float = 1e5, num: int = 16) -> tuple[float, ...]:
    """Geometric evaluation grid, 16 points over [1e2, 1e5] by default."""
    require_finite(lo=lo, hi=hi)
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    if num < 8:
        raise ValueError("grid needs at least 8 points")
    return tuple(float(x) for x in np.geomspace(lo, hi, num))


def _validate_grid(grid) -> tuple[float, ...]:
    g = tuple(float(x) for x in grid)
    if not all(math.isfinite(x) for x in g):
        raise ValueError("X grid must hold finite points only")
    if len(g) < 8:
        raise ValueError("X grid needs at least 8 points")
    if g[0] <= 0 or any(b <= a for a, b in zip(g, g[1:])):
        raise ValueError("X grid must be positive and strictly increasing")
    if g[-1] / g[0] < 99.999:
        raise ValueError("X grid should span at least two decades")
    return g


# -- Riesz means ------------------------------------------------------------

def riesz_mean(spec: IntegrandSpec, k: float, X: float) -> float:
    """int_0^X (1 - t/X)^k f(t) dt for real order k > -1: k! F_{k+1}(X)/X^k
    at an integer k below the chain depth, quadrature at every other order."""
    require_finite(X=X)
    if X <= 0:
        raise ValueError("X must be positive")
    return float(_riesz_means(spec, k, (X,))[0])


def _riesz_means(spec: IntegrandSpec, k: float, grid: tuple) -> np.ndarray:
    """The order-k Riesz mean at each X of grid, a positive increasing tuple,
    by the chain, by stitched segments (order 0) or by quadrature at each X."""
    require_finite(k=k)
    if k <= -1:
        raise ValueError(f"Riesz order must exceed -1, got {k}")
    if k == int(k) and k < len(spec.primitives):
        k = int(k)
        Fk, kfact = spec.primitives[k], math.factorial(k)
        return np.array([kfact * Fk(X) / X ** k for X in grid])
    if k == 0:
        windows = [_quadrature_windows(functools.partial(_sample, spec), *_windows(a, X),
                                       spec.label) for a, X in zip((0.0,) + grid, grid)]
        ends = np.cumsum([len(v) for v in windows]) - 1  # each X's last window
        return compensated_prefix_sums(np.concatenate(windows))[ends]
    return np.array([_riesz_quadrature(spec, k, X) for X in grid])


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
    polynomial.  Built on first use: closed forms never need it."""
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


def _sample(spec: IntegrandSpec, t: np.ndarray) -> np.ndarray:
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


def _riesz_quadrature(spec: IntegrandSpec, k: float, X: float) -> float:
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


def cesaro_integral(spec: IntegrandSpec, k: float, X_grid=None,
                    tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Cesaro value of int_0^inf f at order k, judged along an X grid.

    The grid must hold at least 8 increasing points across two decades; the
    value is the Riesz mean at the last point and convergence is dispersion
    of the tail samples (``tail_judgement``'s default window) against tol.
    """
    grid = _validate_grid(default_grid() if X_grid is None else X_grid)
    samples = _riesz_means(spec, k, grid)
    return tail_judgement(samples, order=float(k), n_terms=len(grid), tol=tol)


def primitive_limit(spec: IntegrandSpec, k: int, X_grid=None,
                    tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Cesaro limit of the function f at integer order k: k! F_k(X) / X^k.

    F_k is the k-fold iterated primitive of f (F_0 = f, F_1 = int_0^x f).
    For the Cesaro value of the *integral* of f, pass ``spec.primitive()``
    so the chain starts one level up.

    Order 0 samples f; by Cauchy's formula, every order k >= 1 is k/X times
    the Riesz mean of order k - 1, read off the chain or by quadrature.
    """
    k = require_order(k)
    grid = _validate_grid(default_grid() if X_grid is None else X_grid)
    if k == 0:
        samples = [spec.func(X) for X in grid]
    else:
        samples = k * _riesz_means(spec, k - 1, grid) / grid
    return tail_judgement(samples, order=k, n_terms=len(grid), tol=tol)


# -- closed-form chains ---------------------------------------------------------

def _power_log_chain(alpha: float, p: int, coeff: float) -> tuple:
    """The 1..MAX_CHAIN-fold primitives of coeff t^alpha ln^p t, alpha > -1,
    each vanishing at 0.

    Layer j is t^g sum_q c[q] ln^q t with g = alpha + j.  Integrating
    t^(g-1) ln^q t = t^g sum_i (-1)^i q!/(q-i)! ln^(q-i) t / g^(i+1) gives
    the next layer's coefficients from this one's.  A coefficient that
    underflows to 0 is kept, so that its layer still reads inf where t^g
    overflows; only coeff = 0 gives layers with no terms.
    """
    chain, g, terms = [], alpha, [(p, coeff)]
    for _ in range(MAX_CHAIN):
        g += 1.0
        coeffs = [0.0] * (p + 1)
        for q, c in terms:
            fall, sign, denom = 1.0, 1.0, g  # q!/(q-i)!, (-1)^i, g^(i+1)
            for i in range(q + 1):
                coeffs[q - i] += sign * c * fall / denom
                fall *= q - i
                sign = -sign
                denom *= g
        terms = [(q, coeffs[q]) for q in range(p, -1, -1)] if coeff else []
        chain.append(_power_log_layer(g, terms))
    return tuple(chain)


def _power_log_layer(g: float, terms) -> Callable[[float], float]:
    """t -> t^g sum_q c[q] ln^q t for t > 0, and 0 at t = 0; terms holds the
    (q, c[q]) pairs, q descending.  A value past the float range reads +-inf."""
    has_log = any(q for q, _ in terms)

    def F(t):
        t = float(t)
        if t < 0.0:
            raise ValueError("power_log and its primitives are defined on t >= 0")
        if t == 0.0 or not terms:
            return 0.0
        lt = math.log(t) if has_log else 0.0
        try:
            tg = t ** g
        except OverflowError:  # t^g leaves the float range; the layer may not
            s = sum(c * lt ** q for q, c in terms)
            try:
                half = t ** (0.5 * g)
            except OverflowError:
                return math.copysign(math.inf, s)
            return s * half * half
        acc = 0.0
        for q, c in terms:
            v = c * tg
            if q:
                v *= lt ** q
            acc += v
        return acc
    return F


def _exp_chain(c, part: str) -> tuple:
    """The 1..MAX_CHAIN-fold primitives of e^{ct} (c real or imaginary) that
    vanish at 0, each reduced to the ``part`` ("real" or "imag") of

        F_j(t) = (e^{ct} - sum_{m<j} (ct)^m / m!) / c^j = t^j sum_{e>=0} (ct)^e / (e+j)!.

    The first form cancels where |ct| is below about j, so where |ct| <= j + 1
    the second is summed, until a term no longer moves the selected part;
    (ct)^2 is real, so that part runs on real recurrences over even and odd e.
    """
    exp = math.exp if isinstance(c, float) else cmath.exp

    def layer(j):
        cj = c ** j
        first = 1.0 / math.factorial(j)
        even0 = first if part == "real" else 0.0  # the part of z^0 / j!

        def F(t):
            z = c * t
            if abs(z) <= j + 1:
                w = (z * z).real
                even, odd = even0, getattr(z, part) * first / (j + 1)
                acc, m = even + odd, j + 1
                while True:
                    even *= w / (m * (m + 1))
                    odd *= w / ((m + 1) * (m + 2))
                    m += 2
                    acc += even + odd
                    if abs(even) + abs(odd) <= _EPS * abs(acc):
                        return t ** j * acc
            head, term = 0.0, 1.0
            for m in range(j):
                head += term
                term *= z / (m + 1)
            return getattr((exp(z) - head) / cj, part)
        return F

    return tuple(layer(j) for j in range(1, MAX_CHAIN + 1))
