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
The reader takes one of two paths.  An integer k below the chain depth
integrates by parts k times into the closed form k! F_{k+1}(X)/X^k, read
off the integrand's primitive chain (Estrada and Kanwal, *A Distributional
Approach to Asymptotics*, 2002).  Every other order is one quadrature pass
over the windows of one lattice that no X decides, about 50 wide up to
t = 206,400 and t/4096 wide past it, plus one window cut at each X of the
grid: each window returns its moments about its centre to degree d (d = k
for an integer k up to ``_quadrature.MAX_DEGREE``, else that degree), each X
reads the windows of [0, X] off them by the binomial series of (X - t)^k,
exact where k = d, and only the windows near X, where the cut series would
err, take quadrature of the weighted integrand.  So X reads the same
windows, bit for bit, in any grid and in ``riesz_mean`` alone.

Quadrature, in the private ``_quadrature`` module, integrates its windows in
numpy batches: the Gauss-Kronrod pair G32/K65 on each piece, whose 65-node
Kronrod rule gives the value and whose gap |K65 - G32| to the Gauss rule on
32 of the same nodes is the error estimate, and each round a bisection of
the worst piece of every window still short of its target, max(1e-10
|value|, 1e-13 int |g|) (in the moment pass, for f and for f (1 - t/X)^d,
X the window's upper end).  It accepts each X's sum whose summed estimate over
[0, X] is at most max(1e-8 |sum|, 1e-12 int |g|), g the weighted
integrand, raises QuadratureError on a sum that fails it or is not finite,
and adds the windows of each X by ``math.fsum``.  No target has an
absolute floor, so 2^m g gets exactly 2^m times the answer.  No path needs
scipy.

The chain path, ``default_grid`` and the factories are pure Python: numpy
is imported, with ``_quadrature``, only for an order past the integrand's
chain, so ``cesaro-int`` at orders 0..MAX_CHAIN-1 loads none.

The quadrature nodes of one call reach the integrand as one array.
``sin_wave``, ``cos_wave`` and ``exp_decay`` evaluate it in numpy, through
their ``array_func``, which imports numpy when it is first called; every
other integrand (``power_log``, ``periodic_poly``, ``sampled`` and any spec
built without an ``array_func``) is called once per node with a
Python float.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import zip_longest
from typing import Callable, Optional

from .evaluation import (CesaroEvaluation, QuadratureError, require_count, require_finite,
                         require_order, require_tol, tail_judgement)
from .exact import PeriodicPolynomial, _periodic_primitives

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
    "periodic_poly",
    "sampled",
]

MAX_CHAIN = 8
DEFAULT_TOL = 1e-3
_EPS = math.ulp(1.0)


@dataclass(frozen=True)
class IntegrandSpec:
    """An integrand plus the closed-form primitive chain it carries.

    func        the integrand itself
    primitives  iterated integrals from 0: primitives[j] is the (j+1)-fold
                primitive of func (so primitives[0](x) = int_0^x f); integer
                Riesz orders k < len(primitives) are read off this chain
    label       human-readable tag for reprs and QuadratureError messages
    array_func  optional: func on a float64 array of nodes, in one call; the
                quadrature fallbacks use it in place of one func call per
                node.  sin_wave, cos_wave and exp_decay set it.

    The factory functions below build chains that are exact by construction.
    A caller may pass a chain of their own, as IntegrandSpec(func,
    primitives=..., label=...); it is used as given, not checked.
    """

    func: Callable[[float], float]
    primitives: tuple = ()
    label: str = "f"
    array_func: Optional[Callable] = None

    def __repr__(self):
        return f"IntegrandSpec({self.label})"


# -- factories ----------------------------------------------------------------

def sin_wave(a: float = 1.0) -> IntegrandSpec:
    """sin(a t), with its iterated-primitive chain to depth MAX_CHAIN."""
    return _trig_wave(a, "sin", "imag")


def cos_wave(a: float = 1.0) -> IntegrandSpec:
    """cos(a t), with its iterated-primitive chain to depth MAX_CHAIN."""
    return _trig_wave(a, "cos", "real")


def _trig_wave(a: float, name: str, part: str) -> IntegrandSpec:
    require_finite(a=a)
    if a == 0:
        raise ValueError(f"{name}_wave needs a nonzero frequency")
    a = float(a)
    try:
        chain = _exp_chain(1j * a, part)
    except OverflowError:  # (ia)^j, for |a| past about 1.6e38
        raise ValueError(f"a={a:g} is too large: its primitive chain overflows "
                         "a float") from None
    wave = getattr(math, name)
    return IntegrandSpec(func=lambda t: wave(a * t), primitives=chain,
                         label=f"{name}({a:g}t)", array_func=_numpy_ufunc(name, a))


def exp_decay() -> IntegrandSpec:
    """exp(-t), with its iterated-primitive chain to depth MAX_CHAIN."""
    return IntegrandSpec(func=lambda t: math.exp(-t), primitives=_exp_chain(-1.0, "real"),
                         label="exp(-t)", array_func=_numpy_ufunc("exp", -1.0))


def _numpy_ufunc(name: str, c: float) -> Callable:
    """t -> numpy.<name>(c t) on an array of quadrature nodes; numpy is
    imported at the first call, so building the spec does not load it."""
    def array_func(t):
        import numpy as np

        return getattr(np, name)(c * t)
    return array_func


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
    p = require_count("p", p)

    body = _power_log_layer(alpha, [(p, 1.0)])
    at_zero = 0.0 if alpha > 0 or (alpha == 0 and p > 0) else (1.0 if alpha == 0 else math.inf)
    return IntegrandSpec(func=lambda t: at_zero if t == 0.0 else body(t),
                         primitives=_power_log_chain(alpha, p),
                         label=f"t^{alpha:g}" + (f"*ln^{p}(t)" if p else ""))


def periodic_poly(p: PeriodicPolynomial) -> IntegrandSpec:
    """x -> p({x}), with its primitive chain to depth MAX_CHAIN: the exact
    layers P_j(x) + Q_j({x}) of ``exact._periodic_primitives``, read in float.
    A coefficient past the float range raises ValueError."""
    try:
        chain = tuple(_periodic_layer(P, Q) for P, Q in _periodic_primitives(p, MAX_CHAIN))
        for F in (p, *chain):
            F(0.0)  # converts every periodic coefficient to float, once
    except OverflowError:
        raise ValueError(f"p of degree {p.degree}: its primitive chain leaves the "
                         "float range") from None
    return IntegrandSpec(func=lambda t: p(t), primitives=chain, label=f"{p!r}@frac")


def sampled(func, label: str = "sampled") -> IntegrandSpec:
    """A bare callable; everything downstream goes through quadrature."""
    return IntegrandSpec(func=func, label=label)


def default_grid(lo: float = 1e2, hi: float = 1e5, num: int = 16) -> tuple[float, ...]:
    """Geometric evaluation grid, 16 points over [1e2, 1e5] by default.

    Point i is 10^(log10 lo + i step), as in numpy.geomspace, and the two
    ends are lo and hi themselves; an interior point can differ from
    geomspace's by a few ulps, since numpy's power is not libm's.  num is an
    integer; an integral float counts (8.0 is 8)."""
    require_finite(lo=lo, hi=hi)
    if not (0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    num = require_count("num", num)
    if num < 8:
        raise ValueError("grid needs at least 8 points")
    a, b = math.log10(lo), math.log10(hi)
    step = (b - a) / (num - 1)
    return (float(lo), *(10.0 ** (i * step + a) for i in range(1, num - 1)), float(hi))


def _validate_grid(grid) -> tuple[float, ...]:
    try:
        g = tuple(float(x) for x in grid)
        finite = all(map(math.isfinite, g))
    except OverflowError:  # an int point past the float range
        finite = False
    if not finite:
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
    at an integer k below the chain depth, quadrature at every other order
    (see ``_riesz_means``)."""
    require_finite(X=X)
    if X <= 0:
        raise ValueError("X must be positive")
    return float(_riesz_means(spec, k, (X,))[0])


def _riesz_means(spec: IntegrandSpec, k: float, grid: tuple) -> list[float]:
    """The order-k Riesz mean at each X of grid, a positive increasing tuple,
    by the closed-form chain or by one quadrature pass over the grid's
    windows; only the second imports ``_quadrature``, and numpy with it."""
    require_finite(k=k)
    if k <= -1:
        raise ValueError(f"Riesz order must exceed -1, got {k}")
    if k == int(k) and k < len(spec.primitives):
        k = int(k)
        Fk, kfact = spec.primitives[k], math.factorial(k)
        means = []
        for X in grid:
            mean = Fk(X)
            for _ in range(k):  # not / X ** k, which overflows where the mean need not
                mean /= X
            means.append(kfact * mean)
        return means
    from ._quadrature import riesz_means
    return riesz_means(spec, k, grid)


def cesaro_integral(spec: IntegrandSpec, k: float, X_grid=None,
                    tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Cesaro value of int_0^inf f at order k, judged along an X grid.

    The grid must hold at least 8 increasing points across two decades; the
    value is the Riesz mean at the last point and convergence is dispersion
    of the tail samples (``tail_judgement``'s default window) against tol.
    """
    grid = _validate_grid(default_grid() if X_grid is None else X_grid)
    require_tol(tol)
    samples = _riesz_means(spec, k, grid)
    return tail_judgement(samples, order=float(k), n_terms=len(grid), tol=tol)


def primitive_limit(spec: IntegrandSpec, k: int, X_grid=None,
                    tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Cesaro limit of the function f at integer order k: k! F_k(X) / X^k.

    F_k is the k-fold iterated primitive of f (F_0 = f, F_1 = int_0^x f).
    For the Cesaro value of the *integral* of f, use ``cesaro_integral``.

    Order 0 samples f; by Cauchy's formula, every order k >= 1 is k/X times
    the Riesz mean of order k - 1, read off the chain or by quadrature.
    """
    k = require_order(k)
    grid = _validate_grid(default_grid() if X_grid is None else X_grid)
    require_tol(tol)
    if k == 0:
        samples = [spec.func(X) for X in grid]
    else:
        samples = [k * mean / X for mean, X in zip(_riesz_means(spec, k - 1, grid), grid)]
    return tail_judgement(samples, order=k, n_terms=len(grid), tol=tol)


# -- closed-form chains ---------------------------------------------------------

def _power_log_chain(alpha: float, p: int) -> tuple:
    """The 1..MAX_CHAIN-fold primitives of t^alpha ln^p t, alpha > -1, each
    vanishing at 0: the chain of ``power_log``.

    Layer j is t^g sum_q c[q] ln^q t with g = alpha + j.  Integrating
    t^(g-1) ln^q t = t^g sum_i (-1)^i q!/(q-i)! ln^(q-i) t / g^(i+1) gives
    the next layer's coefficients from this one's.  A coefficient that
    underflows to 0 is kept, so that its layer still reads inf where t^g
    overflows.  A coefficient that overflows (q!/(q-i)! past p = 170, or
    1/g^(i+1) for alpha near -1) raises ValueError.
    """
    chain, g, terms = [], alpha, [(p, 1.0)]
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
        if not all(map(math.isfinite, coeffs)):
            raise ValueError(f"alpha={alpha:g} with log power p={p} is out of range: "
                             "its primitive chain's coefficients overflow a float")
        terms = [(q, coeffs[q]) for q in range(p, -1, -1)]
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
        if t == 0.0:
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


def _periodic_layer(P, Q: PeriodicPolynomial) -> Callable[[float], float]:
    """t -> P(t) + Q({t}) in float, by Horner's rule.  In the first period
    {t} = t, and a deep layer is far smaller there than P(t) and Q(t), so
    there it is the one polynomial P + Q, its coefficients summed exactly."""
    coeffs = [float(c) for c in reversed(P)]
    first = [float(a + b) for a, b in zip_longest(P, Q.coeffs, fillvalue=0)][::-1]

    def F(t):
        head = first if 0.0 <= t < 1.0 else coeffs
        acc = 0.0
        for c in head:
            acc = acc * t + c
        return acc if head is first else acc + Q(t)
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
