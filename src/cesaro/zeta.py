"""Zeta special values as Cesaro limits of power-sum staircases.

The estimator is built on one identity: for alpha != -1,

    zeta(-alpha)   = Cesaro-lim_{x->inf} ( sum_{n<=x} n^alpha      - F.p. int_0^x t^alpha dt )
    -zeta'(-alpha) = Cesaro-lim_{x->inf} ( sum_{n<=x} n^alpha ln n - F.p. int_0^x t^alpha ln t dt )

The staircase f(x) = (partial sum) - (finite-part integral) oscillates; its
order-k Cesaro limit is evaluated as k! F_k(n) / n^k along integer
boundaries n, where F_k is the k-fold iterated primitive of f.  Boundaries
are where the within-interval polynomial layers vanish, so the samples are
clean; k = 0 degenerates to ordinary convergence, which is the right tool
for alpha < -1.

For integer alpha >= 0 without the log weight, every primitive at the
boundaries is a polynomial in n with rational coefficients, and so is every
primitive of a periodic layer in ``lemma_witness``.  Those paths step the
recursion exactly over the first few boundaries only, which fix the
polynomial, and evaluate it at the sample boundaries in Newton form; their
cost does not depend on X.  The float recursion below and the ordinary
k = 0 sums still run up to X, so they refuse X beyond MAX_STEPPED_N.

Primitives advance one unit interval at a time in closed form.  On [n, n+1)
the staircase is (constant S_n) - P(t) with P the finite-part antiderivative
of the weight, so each advance needs the iterated unit-interval integrals of
P starting at n.  Evaluating those as differences of global antiderivatives
cancels catastrophically for large n; instead they are expanded around n,

    int_0^1 (1-u)^(j-1)/(j-1)! (n+u)^beta du = n^beta * sum_i d_{j,i} n^-i,
    d_{j,i} = C(beta, i) i! / (i+j)!,

(log weights add a matching series from ln(n+u) = ln n + ln(1+u/n)), which
is exact for integer beta and converges at machine precision for n >= 16;
below that the plain antiderivative difference is harmless and used as is.
All primitives are taken with the finite-part convention at the origin, so
alpha < -2 with k >= 1 is well-defined too; shifting F_1 by a constant only
perturbs k! F_k / x^k by O(1/x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from typing import Optional

import numpy as np

from .accumulate import CompensatedSum
from .evaluation import CesaroEvaluation, require_finite, tail_judgement
from .exact import PeriodicPolynomial
from .finite_part import fp_log_power_integral, fp_power_integral
from .powerlog import PowerLogExpr

__all__ = [
    "StaircaseSpec",
    "PrimitiveState",
    "new_primitive_state",
    "staircase_value",
    "advance_primitives",
    "zeta_via_cesaro",
    "zeta_prime_via_cesaro",
    "lemma_witness",
]

POLE_GUARD = 1e-6
DEFAULT_TOL = 1e-3
DEFAULT_XMAX = 1e4
_SWITCH_N = 16
_IMAX = 30
_CHUNK = 1 << 20
MAX_STEPPED_N = 10**9


@dataclass(frozen=True)
class StaircaseSpec:
    """Weight n^alpha (log_weight adds a factor ln n) and its staircase.

    alpha = -1 sits on the pole of the finite-part antiderivative and is
    rejected outright, with a small guard band for floats that merely round
    to the pole.
    """

    alpha: float
    log_weight: bool = False

    def __post_init__(self):
        a = float(self.alpha)
        if abs(a + 1.0) < POLE_GUARD:
            raise ValueError(
                f"alpha={a} is within {POLE_GUARD:g} of the pole at -1; "
                "the finite-part antiderivative degenerates there")
        object.__setattr__(self, "alpha", a)

    def summand(self, n: int) -> float:
        if n < 1:
            raise ValueError("summand index starts at 1")
        v = float(n) ** self.alpha
        return v * math.log(n) if self.log_weight else v

    def fp_integral(self, x: float) -> float:
        """F.p. int_0^x of the weight, the staircase's smooth subtrahend."""
        if self.log_weight:
            return fp_log_power_integral(self.alpha, x)
        return fp_power_integral(self.alpha, x)


@dataclass(frozen=True)
class PrimitiveState:
    """Snapshot at an integer boundary n.

    values[j] is F_j(n) (F_0 = the staircase itself, finite-part convention
    at the origin), and partial_sum accumulates sum_{j<=n} of the weight with
    compensation.  States are immutable; advancing returns a fresh one.
    """

    boundary: int
    values: tuple[float, ...]
    partial_sum: CompensatedSum


def new_primitive_state(spec: StaircaseSpec, k: int) -> PrimitiveState:
    if k < 0:
        raise ValueError("order k must be >= 0")
    return PrimitiveState(boundary=0, values=(0.0,) * (k + 1),
                          partial_sum=CompensatedSum())


def staircase_value(spec: StaircaseSpec, x: float) -> float:
    """f(x) = sum_{n<=x} weight(n) - F.p. int_0^x weight, directly.

    Linear in x (the sum is rebuilt each call); meant for spot checks and
    cross-validation, not for driving limits.
    """
    x = float(x)
    if x <= 0:
        raise ValueError("staircase_value needs x > 0")
    m = math.floor(x)
    s = math.fsum(spec.summand(n) for n in range(1, m + 1))
    return s - spec.fp_integral(x)


# -- closed-form interval plan ----------------------------------------------

def _binom_series(beta: float, top: int) -> list[float]:
    out = [1.0]
    for i in range(1, top + 1):
        out.append(out[-1] * (beta - (i - 1)) / i)
    return out


def _trim(arr: list[float]) -> list[float]:
    scale = max(1.0, abs(arr[0]))
    while len(arr) > 1 and abs(arr[-1]) * _SWITCH_N ** (-(len(arr) - 1)) < 1e-22 * scale:
        arr.pop()
    return arr


@lru_cache(maxsize=64)
def _interval_plan(alpha: float, log_weight: bool, k: int):
    """Per-(weight, order) tables driving the unit-interval advance."""
    beta = alpha + 1.0
    if log_weight:
        c_pow, c_log = -1.0 / beta ** 2, 1.0 / beta
    else:
        c_pow, c_log = 1.0 / beta, 0.0

    inv_fact = [1.0 / math.factorial(i) for i in range(k + 2)]

    binom = _binom_series(beta, _IMAX)
    d_arrs = []
    e_arrs = []
    if log_weight:
        b = [0.0] * (_IMAX + 1)
        for m in range(1, _IMAX + 1):
            b[m] = math.fsum(((-1.0) ** (l + 1) / l) * binom[m - l]
                             for l in range(1, m + 1))
    for j in range(1, k + 1):
        d = [binom[i] * math.factorial(i) / math.factorial(i + j)
             for i in range(_IMAX + 1)]
        d_arrs.append(_trim(d))
        if log_weight:
            e = [b[m] * math.factorial(m) / math.factorial(m + j)
                 for m in range(_IMAX + 1)]
            e_arrs.append(_trim(e))

    p_expr = PowerLogExpr({(beta, 1): c_log, (beta, 0): c_pow})
    q_exprs = []
    expr = p_expr
    for _ in range(k):
        expr = expr.antiderivative()
        q_exprs.append(expr)

    return beta, c_pow, c_log, inv_fact, d_arrs, e_arrs, q_exprs


def _advance_values(values, s_n: float, n: int, spec: StaircaseSpec, plan):
    """One unit-interval step n -> n+1 of (F_0 .. F_k)."""
    beta, c_pow, c_log, inv_fact, d_arrs, e_arrs, q_exprs = plan
    k = len(values) - 1
    new = [0.0] * (k + 1)
    if n >= _SWITCH_N:
        x = 1.0 / n
        nb = n ** beta
        front = c_pow + (c_log * math.log(n) if c_log else 0.0)
        for j in range(1, k + 1):
            acc = 0.0
            for c in reversed(d_arrs[j - 1]):
                acc = acc * x + c
            r = nb * front * acc
            if c_log:
                acc_e = 0.0
                for c in reversed(e_arrs[j - 1]):
                    acc_e = acc_e * x + c
                r += nb * c_log * acc_e
            taylor = 0.0
            for i in range(j):
                taylor += values[j - i] * inv_fact[i]
            new[j] = taylor + s_n * inv_fact[j] - r
    else:
        for j in range(1, k + 1):
            q = q_exprs[j - 1]
            r = q(n + 1.0) - math.fsum(
                q_exprs[j - i - 1](float(n)) * inv_fact[i] for i in range(j))
            taylor = 0.0
            for i in range(j):
                taylor += values[j - i] * inv_fact[i]
            new[j] = taylor + s_n * inv_fact[j] - r
    return new


def advance_primitives(state: PrimitiveState, spec: StaircaseSpec,
                       k: int) -> PrimitiveState:
    """Advance all primitives from boundary n to n+1 in closed form."""
    if len(state.values) != k + 1:
        raise ValueError(f"state carries {len(state.values) - 1} primitives, expected k={k}")
    plan = _interval_plan(spec.alpha, spec.log_weight, k)
    n = state.boundary
    s_n = state.partial_sum.value
    new = _advance_values(state.values, s_n, n, spec, plan)
    acc = state.partial_sum.copy()
    acc.add(spec.summand(n + 1))
    new[0] = acc.value - spec.fp_integral(n + 1.0)
    return PrimitiveState(boundary=n + 1, values=tuple(new), partial_sum=acc)


# -- drivers ------------------------------------------------------------------

def _sample_boundaries(n_max: int, num: int = 48) -> list[int]:
    # geomspace in float, rounded to Python ints: int64 would overflow
    # above about 9.2e18, and the exact paths answer at any X
    lo = max(8, int(round(math.sqrt(n_max))))
    if n_max <= lo:
        lo = max(2, n_max // 4)
    raw = np.geomspace(float(lo), float(n_max), num)
    return sorted({int(round(v)) for v in raw})


def default_order(alpha: float) -> int:
    """max(0, ceil(alpha) + 1): one averaging per polynomial degree."""
    return max(0, math.ceil(alpha) + 1)


def _ordinary_samples(spec: StaircaseSpec, boundaries: list[int]) -> list[float]:
    """k = 0: partial sums in vectorized chunks, sampled at the boundaries."""
    acc = CompensatedSum()
    samples = []
    prev = 0
    for b in boundaries:
        start = prev + 1
        while start <= b:
            stop = min(b, start + _CHUNK - 1)
            arr = np.arange(start, stop + 1, dtype=np.float64)
            vals = arr ** spec.alpha
            if spec.log_weight:
                vals *= np.log(arr)
            acc.add(float(np.sum(vals)))
            start = stop + 1
        samples.append(acc.value - spec.fp_integral(float(b)))
        prev = b
    return samples


def _polynomial_at(step, values, deg: int, boundaries: list[int]) -> list:
    """Exact values[-1] at each boundary m, without stepping up to m.

    values is the state at n = 0 and step(values, n) the state at n + 1;
    values[-1] must be a polynomial in n of degree <= deg with exact (int or
    Fraction) coefficients.  Its first deg + 1 values fix it, so only those
    are stepped, and Newton's forward-difference form

        values[-1](m) = sum_d Delta^d(0) * C(m, d)

    gives every boundary in O(deg) exact operations, whatever its size.
    """
    head = [values[-1]]
    for n in range(deg):
        values = step(values, n)
        head.append(values[-1])
    diffs = []
    while head:
        diffs.append(head[0])
        head = [b - a for a, b in zip(head, head[1:])]
    return [sum(d * math.comb(m, i) for i, d in enumerate(diffs))
            for m in boundaries]


def _cesaro_limit_samples_exact(spec: StaircaseSpec, k: int,
                                boundaries: list[int]) -> list[float]:
    """Integer alpha >= 0: the advance in exact integer arithmetic.

    The float recursion subtracts quantities of size ~n^(alpha+1) whose
    difference is what matters, so for alpha >= 4 roundoff swamps the limit
    by X ~ 1e4.  For integer alpha everything in sight is rational with a
    tame denominator: w_j = F_j(n) * (beta+j)! stays integral (each update
    coefficient below is an integer), so the recursion runs on Python ints
    and the only rounding is in the final float(sample).

    w_k is moreover a polynomial in n of degree alpha + k.  S_n is
    Faulhaber's polynomial of degree beta, whose leading n^beta/beta cancels
    against Rint_j, so each forcing term has degree alpha; each order j then
    sums once more in n.  So the recursion runs only over n = 0..alpha+k and
    ``_polynomial_at`` evaluates w_k at the boundaries exactly: the samples
    are those of the unit-step recursion up to X, and the cost does not
    depend on X.
    """
    beta = int(spec.alpha) + 1
    # w'_j = sum_i C(beta+j, i) w_{j-i} + [(beta+j)!/j!] S_n - Rint_j(n)
    # with Rint_j(n) = sum_i rint[j][i] n^(beta-i); integrality of
    # rint[j][i] = C(beta,i) i! (beta+j)! / ((i+j)! beta) follows from
    # rewriting it as [(beta-1)!/(beta-i)!] * (beta+j)!/(i+j)!.
    taylor_mul = [[math.comb(beta + j, i) for i in range(j)]
                  for j in range(k + 1)]
    s_mul = [math.factorial(beta + j) // math.factorial(j)
             for j in range(k + 1)]
    rint = [[math.comb(beta, i) * math.factorial(i) * math.factorial(beta + j)
             // (math.factorial(i + j) * beta) for i in range(beta + 1)]
            for j in range(k + 1)]
    alpha_int = beta - 1
    deg = alpha_int + k
    partial_sums = list(accumulate((m ** alpha_int for m in range(1, deg)),
                                   initial=0))

    def step(w, n):
        s_n = partial_sums[n]
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            acc = 0
            for c in rint[j]:
                acc = acc * n + c
            total = s_n * s_mul[j] - acc
            mul = taylor_mul[j]
            for i in range(j):
                total += w[j - i] * mul[i]
            new[j] = total
        return new

    w_k = _polynomial_at(step, [0] * (k + 1), deg, boundaries)
    kfact = math.factorial(k)
    scale = math.factorial(beta + k)
    return [float(Fraction(v * kfact, scale * m ** k))
            for v, m in zip(w_k, boundaries)]


def _cesaro_limit_samples(spec: StaircaseSpec, k: int,
                          boundaries: list[int]) -> list[float]:
    plan = _interval_plan(spec.alpha, spec.log_weight, k)
    wanted = set(boundaries)
    n_max = boundaries[-1]
    kfact = math.factorial(k)
    values = [0.0] * (k + 1)
    s_total = 0.0
    s_carry = 0.0
    samples = []
    alpha = spec.alpha
    log_weight = spec.log_weight
    for n in range(n_max):
        values = _advance_values(values, s_total + s_carry, n, spec, plan)
        m = n + 1
        w = float(m) ** alpha
        if log_weight:
            w *= math.log(m)
        t = s_total + w
        if abs(s_total) >= abs(w):
            s_carry += (s_total - t) + w
        else:
            s_carry += (w - t) + s_total
        s_total = t
        if m in wanted:
            samples.append(kfact * values[k] / float(m) ** k)
    return samples


def _staircase_evaluation(spec: StaircaseSpec, k: Optional[int], X_max: float,
                          tol: float) -> CesaroEvaluation:
    require_finite(alpha=spec.alpha, k=k, X_max=X_max)
    if X_max < 64:
        raise ValueError("X_max is too small to form a sample tail")
    if k is None:
        k = default_order(spec.alpha)
    if k < 0 or k != int(k):
        raise ValueError("order k must be a non-negative integer")
    k = int(k)
    n_max = int(math.floor(X_max))
    boundaries = _sample_boundaries(n_max)
    if k > 0 and not spec.log_weight and spec.alpha >= 0 and spec.alpha.is_integer():
        samples = _cesaro_limit_samples_exact(spec, k, boundaries)
    else:
        if n_max > MAX_STEPPED_N:  # hours of unit steps
            raise ValueError(
                f"X_max={n_max:.3g} exceeds {MAX_STEPPED_N:.0e} unit steps; only "
                "integer alpha >= 0 at order k >= 1 runs at any X_max")
        if k == 0:
            samples = _ordinary_samples(spec, boundaries)
        else:
            samples = _cesaro_limit_samples(spec, k, boundaries)
    return tail_judgement(samples, order=k, n_terms=n_max, tol=tol)


def zeta_via_cesaro(alpha: float, k: Optional[int] = None,
                    X_max: float = DEFAULT_XMAX,
                    tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Estimate zeta(-alpha) from the power-sum staircase at order k.

    k defaults to max(0, ceil(alpha) + 1).  Convergence is judged on a
    geometric subsequence of integer boundaries up to X_max; the value is
    the last sample either way.

    Caveat for k = 0 with alpha >= -1: boundary sampling sees the staircase
    exactly at the points where its sawtooth layers vanish, so the honest
    oscillation is invisible there (alpha = 0 "converges" to 0, an artifact).
    The default order avoids this; ask for k = 0 only in the absolutely
    convergent regime alpha < -1.
    """
    spec = StaircaseSpec(alpha)
    return _staircase_evaluation(spec, k, X_max, tol)


def zeta_prime_via_cesaro(alpha: float, k: Optional[int] = None,
                          X_max: float = DEFAULT_XMAX,
                          tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Estimate zeta'(-alpha) from the log-weighted staircase.

    The staircase limit itself is -zeta'(-alpha); the returned evaluation is
    already negated so ``value`` estimates zeta'(-alpha).
    """
    spec = StaircaseSpec(alpha, log_weight=True)
    ev = _staircase_evaluation(spec, k, X_max, tol)
    return replace(ev, value=-ev.value, trace=tuple(-s for s in ev.trace))


def lemma_witness(p: PeriodicPolynomial, k: int = 1, X_max: float = DEFAULT_XMAX,
                  tol: float = 1e-6) -> CesaroEvaluation:
    """Cesaro limit of x -> p({x}) at order k >= 1.

    For a periodic function with zero mean the first primitive is itself
    periodic, so k! F_k(x)/x^k collapses at any order k >= 1; this witnesses
    that such functions are Cesaro-negligible.  With nonzero mean the same
    evaluation converges to the mean instead, which makes a handy control.

    At integer boundaries F_j advances by a Taylor step plus the constant
    j-fold integral of p over one period, so F_k(n) is a polynomial in n of
    degree <= k with Fraction coefficients.  It is stepped exactly for
    n = 0..k only and evaluated at the boundaries in closed form; each
    sample is the correctly rounded exact value, and the cost does not
    depend on X_max.
    """
    require_finite(k=k, X_max=X_max)
    if k < 0:
        raise ValueError("order k must be >= 0")
    n_max = int(math.floor(X_max))
    if n_max < 64:
        raise ValueError("X_max is too small to form a sample tail")
    boundaries = _sample_boundaries(n_max)
    if k == 0:
        samples = [p(0.0)] * len(boundaries)
        return tail_judgement(samples, order=0, n_terms=n_max, tol=tol)

    # exact j-fold iterated integrals of p over one period, taken once
    r_at_one = []
    coeffs = list(p.coeffs)
    for _ in range(k):
        coeffs = [Fraction(0)] + [c / (i + 1) for i, c in enumerate(coeffs)]
        r_at_one.append(sum(coeffs))
    inv_fact = [Fraction(1, math.factorial(i)) for i in range(k + 1)]

    def step(values, n):
        new = [Fraction(0)] * (k + 1)
        for j in range(1, k + 1):
            taylor = Fraction(0)
            for i in range(j):
                taylor += values[j - i] * inv_fact[i]
            new[j] = taylor + r_at_one[j - 1]
        return new

    f_k = _polynomial_at(step, [Fraction(0)] * (k + 1), k, boundaries)
    kfact = math.factorial(k)
    samples = [float(kfact * v / m ** k) for v, m in zip(f_k, boundaries)]
    return tail_judgement(samples, order=k, n_terms=n_max, tol=tol)
