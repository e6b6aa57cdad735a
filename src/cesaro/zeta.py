"""Zeta special values as Cesaro limits of power-sum staircases.

The estimator is built on one identity: for alpha != -1,

    zeta(-alpha)   = Cesaro-lim_{x->inf} ( sum_{m<=x} m^alpha      - F.p. int_0^x t^alpha dt )
    -zeta'(-alpha) = Cesaro-lim_{x->inf} ( sum_{m<=x} m^alpha ln m - F.p. int_0^x t^alpha ln t dt )

The staircase f(x) = (partial sum) - (finite-part integral) oscillates; its
order-k Cesaro limit is evaluated as k! F_k(n) / n^k along integer
boundaries n, F_k being the k-fold iterated primitive of f.  Boundaries are
where the within-interval polynomial layers vanish, so the samples are
clean; k = 0 degenerates to ordinary convergence, the right tool for
alpha < -1.

At a boundary the sample is a Riesz mean of the weights w(m) = m^alpha
[ln m] minus one finite-part integral (Hardy and Riesz, 1915):

    k! F_k(n) / n^k = sum_{m<=n} w(m) ((n-m)/n)^k - I_k(n),
    I_k(n) = sum_{i=0..k} C(k,i) (-1)^i n^-i F.p. int_0^n t^(alpha+i) [ln t] dt,

with the finite part ln n (or (ln n)^2 / 2) at alpha + i = -1, so the poles
alpha = -2 .. -(k+1) need no other formula.  Every term carries
n^(alpha+1) (at the pole n^-i is n^(alpha+1)), so I_k(n) = n^(alpha+1)
(A + B ln n + C ln^2 n) with constants A, B, C free of n.  Both terms of
the sample grow like n^(alpha+1) while the sample is O(1), and the
alternating sums of A, B and C cancel by 1e3..1e4 more, up to 2^k at order
k.  So I_k(n) stays in ``decimal`` at 5 guard digits: its constants summed
once per call, alpha + i too (in float it moves n^(alpha+i) by an ulp,
magnified as much), then n^(alpha+1) and ln n at each boundary; rounded once
to 40 + k log10(2) digits, it is taken off exactly, and the sample rounded once.

The Riesz sums of a list of boundaries come from one kernel, ``_riesz_sums``:
by the surjection identity (n-m)^k = sum_j j! S(k, j) C(n-m, j), S the
Stirling numbers of the second kind, k + 1 iterated prefix sums of the
weights serve every boundary.  Every float weight is a dyadic rational, so
times 2^(53 - e), e the exponent of the least non-zero weight, each is an
integer and the sums are exact; where the weights span more than the float
range, so that the product overflows, the scale is their largest
denominator.  Each sample is the exact Riesz sum of the rounded weights
minus I_k(n), rounded once, for (k + 1) n_max integer additions.

The limit is not the sample at X_max but the constant of the sample's
large-n expansion, whose exponents theory gives (Estrada and Kanwal, *A
Distributional Approach to Asymptotics*, 2002): n^-j for j = 1..k, and
n^(alpha-l) for odd l >= k (l = 0 too at k = 0), each with an n^e ln n
partner under the log weight.  It is fitted by generalized Richardson
extrapolation (Sidi, *Practical Extrapolation Methods*, 2003) on a ladder
of boundaries 2^a and 3 * 2^a, 16 .. 256 at first, and its error is the gap
between the fits on two windows of the ladder one rung apart.  The ladder
climbs a rung at a time only while that gap is above tol / 10 and still
shrinking: a float sample carries noise of about eps n^(alpha+1/2), so
higher boundaries help only until that noise overtakes the truncation
error.  X_max and _TOP_RUNG cap the climb, and the cost follows tol, not
X_max.

Integer alpha >= 0 without the log weight takes the same identity, through
the same kernel, with the integer weights m^alpha and the Beta integral
n^(alpha+k+1) alpha! k! / (alpha+k+1)! as its finite part; for an integer
scale, P(n) = scale k! F_k(n) is then an integer polynomial, summed at
n = 0..degree only, and the limit is Delta^k P(0) / (k! scale), or the sign
of the highest non-zero difference above k.  ``lemma_witness`` reports the
mean of p, the x^k coefficient of its own polynomial k! F_k(n).  On both
exact paths X_max only passes the shared checks.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from decimal import Decimal, Overflow, localcontext
from functools import lru_cache
from itertools import accumulate
from typing import Optional

from .evaluation import (MAX_ORDER, TRACE_LEN, CesaroEvaluation, require_finite,
                         require_order, require_tol)
from .exact import PeriodicPolynomial, periodic_mean
from .finite_part import (IllConditionedFitError, _weighted_fit, fp_log_power_integral,
                          fp_power_integral)

__all__ = [
    "StaircaseSpec",
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
MAX_STAIRCASE_X = 10**7  # staircase_value sums every m <= x: a few seconds at this bound
_FP_DIGITS = 40
_GUARD = 5  # extra digits for I_k(n) before its one rounding
_EMIN = -400  # an I_k(n) below 10^-400, far below every float, keeps fewer digits
# the extrapolated limit: a ladder of rungs 2^a and 3 * 2^a, fitted in windows
_LADDER_FLOOR = 16  # the lowest rung
_FIRST_TOP = 256  # the first fit reads the rungs up to here; the least X_max
_TOP_RUNG = 4096  # the climb's cap: at tol = 0 it stops by 2048
_FIT_RUNGS = 8  # rungs per fit window
_FIT_COLUMNS = _FIT_RUNGS - 2  # the slowest decaying terms of the expansion, besides the constant
_MERGE_GAP = 1e-3  # exponents closer than this share one column
_STEEPEST = -13  # 16^-13 < eps: a term that decays faster is below every rung's resolution
# an order or exact degree alpha + k above MAX_ORDER; at it a float limit takes
# about 0.3 s, an exact one up to 0.5 s (alpha = 255, k = 257: the Riesz sums)
_UNBOUNDED = (f"{{}} is above {MAX_ORDER}, the most a staircase limit takes; exact "
              "zeta(-n) is `cesaro zeta -n` or zeta_neg_int(n)")


@dataclass(frozen=True)
class StaircaseSpec:
    """Weight n^alpha (log_weight adds a factor ln n) and its staircase.

    alpha = -1 sits on the pole of the finite-part antiderivative and is
    rejected outright, with a small guard band for floats that merely round
    to the pole.  A NaN or infinite alpha, or an int past the float range,
    is refused by name before it is converted.
    """

    alpha: float
    log_weight: bool = False

    def __post_init__(self):
        require_finite(alpha=self.alpha)
        a = float(self.alpha)
        if abs(a + 1.0) < POLE_GUARD:
            raise ValueError(
                f"alpha={a} is within {POLE_GUARD:g} of the pole at -1; "
                "the finite-part antiderivative degenerates there")
        object.__setattr__(self, "alpha", a)

    def summand(self, n: int) -> float:
        if n < 1:
            raise ValueError("summand index starts at 1")
        try:
            v = float(n) ** self.alpha
        except OverflowError:  # every weight is >= 0
            return math.inf
        return v * math.log(n) if self.log_weight else v

    def fp_integral(self, x: float) -> float:
        """F.p. int_0^x of the weight, the staircase's smooth subtrahend."""
        if self.log_weight:
            return fp_log_power_integral(self.alpha, x)
        return fp_power_integral(self.alpha, x)


@dataclass(frozen=True)
class PrimitiveState:
    """values[j] is F_j at the integer boundary; F_0 is the staircase."""

    boundary: int
    values: tuple[float, ...]


def new_primitive_state(spec: StaircaseSpec, k: int) -> PrimitiveState:
    k = _bounded_order(k)
    return PrimitiveState(boundary=0, values=(0.0,) * (k + 1))


def staircase_value(spec: StaircaseSpec, x: float) -> float:
    """f(x) = sum_{n<=x} weight(n) - F.p. int_0^x weight, directly.

    Linear in x (the sum is rebuilt each call); meant for spot checks and
    cross-validation, not for driving limits.  An x above MAX_STAIRCASE_X is
    refused before any summand is called.  A sum past the float range reads
    +inf, and where the finite part is infinite too, so that their
    difference is no number, the x is refused by name.
    """
    require_finite(x=x)
    x = float(x)
    if x <= 0:
        raise ValueError("staircase_value needs x > 0")
    if x > MAX_STAIRCASE_X:
        raise ValueError(f"x={x!r} is above MAX_STAIRCASE_X = {MAX_STAIRCASE_X:.0e}; "
                         "staircase_value sums every m <= x")
    m = math.floor(x)
    try:
        s = math.fsum(spec.summand(n) for n in range(1, m + 1))
    except OverflowError:  # finite weights whose sum leaves the float range
        s = math.inf
    f = s - spec.fp_integral(x)
    if math.isnan(f):
        raise ValueError(f"staircase_value at x={x!r}, alpha={spec.alpha!r}: the sum and "
                         "the finite part both leave the float range")
    return f


# -- the Riesz-sum sampler --------------------------------------------------

@lru_cache(maxsize=None)
def _ln2_ln3(prec: int) -> tuple[Decimal, Decimal]:
    """ln 2 and ln 3 to prec digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(2).ln(), Decimal(3).ln()


def _two_three(n: int) -> Optional[tuple[int, int]]:
    """(a, b) with n = 2^a 3^b, as every ladder rung is, else None."""
    a = (n & -n).bit_length() - 1
    rest, b = n >> a, 0
    while rest % 3 == 0:
        rest, b = rest // 3, b + 1
    return (a, b) if rest == 1 else None


@lru_cache(maxsize=64)
def _rung_bases(alpha: float, prec: int) -> tuple[Decimal, Decimal]:
    """2^(alpha+1) and 3^(alpha+1) to prec digits."""
    with localcontext() as ctx:
        ctx.prec = prec
        ln2, ln3 = _ln2_ln3(prec)
        e = Decimal(alpha) + 1
        return (e * ln2).exp(), (e * ln3).exp()


def _subtrahend_coefficients(spec: StaircaseSpec, k: int) -> tuple[Decimal, Decimal, Decimal]:
    """(A, B, C) with I_k(n) = n^(alpha+1) (A + B ln n + C ln^2 n) at every
    n, summed over i = 0..k in the current context.

    Off the pole b = alpha+i+1 = 0, n^-i F.p. int_0^n t^(alpha+i) dt is
    n^(alpha+1) / b, and with the log weight n^(alpha+1) (ln n / b - 1/b^2);
    on it, the term is n^-i ln n, or n^-i ln^2 n / 2, and n^-i = n^(alpha+1).
    """
    alpha = Decimal(spec.alpha)
    a = b = c = Decimal(0)
    for i in range(k + 1):
        binom = (-1) ** i * math.comb(k, i)
        pole = alpha + (i + 1)
        if pole == 0:
            if spec.log_weight:
                c = binom / Decimal(2)
            else:
                b = Decimal(binom)
        elif spec.log_weight:
            q = binom / pole
            a, b = a - q / pole, b + q
        else:
            a += binom / pole
    return a, b, c


def _subtrahends(spec: StaircaseSpec, k: int,
                 boundaries: list[int]) -> list[Optional[Decimal]]:
    """I_k(n) at each boundary n to 40 + k log10(2) digits, or None past
    Decimal's range.  All of it runs at _GUARD more digits, rounded once at
    the end: A, B and C, summed once since the C(k, i) cancel up to 2^k,
    then at each boundary n^(alpha+1), ln n and a few products.  On a rung
    n = 2^a 3^b, ln n is a ln 2 + b ln 3 and n^(alpha+1) is (2^(alpha+1))^a
    (3^(alpha+1))^b, from constants cached per precision (and alpha); any
    other n, and every n where 2^(alpha+1) or 3^(alpha+1) leaves Decimal's
    range or underflows to 0, takes ``Decimal.ln`` and exp((alpha+1) ln n).
    The rounding runs at Emin _EMIN: a total far below every float keeps
    fewer digits, so its ratio of integers stays small."""
    prec = _FP_DIGITS + math.ceil(k * math.log10(2))
    totals = []
    with localcontext() as ctx:
        ctx.prec = prec + _GUARD
        a, b, c = _subtrahend_coefficients(spec, k)
        ln2, ln3 = _ln2_ln3(ctx.prec)
        try:
            two, three = _rung_bases(spec.alpha, ctx.prec)
        except Overflow:
            two = three = Decimal(0)
        e = Decimal(spec.alpha) + 1
        for n in boundaries:
            rung = _two_three(n) if two and three else None
            try:
                if rung is None:
                    ln_n = Decimal(n).ln()
                    power = (e * ln_n).exp()
                else:
                    ln_n = rung[0] * ln2 + rung[1] * ln3
                    power = two ** rung[0] * three ** rung[1]
                totals.append(power * (a + ln_n * (b + ln_n * c)))
            except Overflow:
                totals.append(None)
        ctx.prec, ctx.Emin = prec, _EMIN
        return [None if t is None else +t for t in totals]


def _surjection_counts(k: int) -> list[int]:
    """j! S(k, j) for j = 0..k, S the Stirling numbers of the second kind:
    the maps of a k-set onto a j-set, so d^k = sum_j j! S(k, j) C(d, j) for
    every integer d >= 0 (Graham, Knuth and Patashnik, *Concrete
    Mathematics*, 6.1)."""
    row = [1]
    for _ in range(k):
        row.append(0)
        row = [0] + [j * (row[j - 1] + row[j]) for j in range(1, len(row))]
    return row


def _riesz_sums(weights: list[int], k: int, boundaries: list[int]) -> list[int]:
    """sum_{m<=n} w(m) (n-m)^k at each boundary n, exactly, for the integer
    weights w(1), w(2), ... in that list.

    With A_1 the prefix sums of the weights and A_{j+1} those of A_j,
    sum_{m<=n} w(m) C(n-m, j) = A_{j+1}(n - j), so by d^k = sum_j
    j! S(k, j) C(d, j)

        sum_{m<=n} w(m) (n-m)^k = sum_{j=0..k} j! S(k, j) A_{j+1}(n - j),

    A(i) = 0 for i < 1: k + 1 prefix passes serve every boundary.  A term
    that reads past the last weight is left out.
    """
    sums, level = [0] * len(boundaries), weights
    for j, count in enumerate(_surjection_counts(k)):
        level = list(accumulate(level))  # A_{j+1}
        if count:
            for b, n in enumerate(boundaries):
                if 0 < n - j <= len(level):
                    sums[b] += count * level[n - j - 1]
    return sums


def _weights(spec: StaircaseSpec, n_max: int) -> list[float]:
    """The float weights w(m) for m = 1..n_max, up to the first that leaves
    the float range (m^alpha grows with m, so every later one does too).
    Where n_max^alpha < 2^1000 none can, even times ln m, and one
    comprehension makes them all."""
    alpha, ms = spec.alpha, range(1, n_max + 1)
    if alpha * math.log2(n_max) < 1000:
        if spec.log_weight:
            return [m ** alpha * math.log(m) for m in ms]
        return [m ** alpha for m in ms]
    weights = []
    for m in ms:
        try:
            w = m ** alpha
        except OverflowError:
            break
        if spec.log_weight:
            w *= math.log(m)
        if w == math.inf:
            break
        weights.append(w)
    return weights


def _integer_weights(weights: list[float]) -> tuple[list[int], int]:
    """The weights times one power of two, as integers, and that power.

    With e the exponent of the least non-zero weight (every weight is >= 0),
    each w(m) = M 2^(e_m - 53), M an integer and e_m >= e, so w(m)
    2^(53 - e) is an integer, made exactly by ``math.ldexp``.  Where the
    weights span more than the float range, that product overflows, and the
    power is the largest denominator of the weights' ``as_integer_ratio``.
    """
    scale = max(0, 53 - math.frexp(min(filter(None, weights), default=1.0))[1])
    try:
        return [int(math.ldexp(w, scale)) for w in weights], 1 << scale
    except OverflowError:
        ratios = [w.as_integer_ratio() for w in weights]
        top = max(d for _, d in ratios).bit_length()  # every denominator is a power of two
        return [a << (top - d.bit_length()) for a, d in ratios], 1 << (top - 1)


def _riesz_samples(spec: StaircaseSpec, k: int,
                   boundaries: list[int]) -> list[float]:
    """k! F_k(n) / n^k at each of the increasing boundaries n.

    Each float weight w(m) is a dyadic rational, so times one power of two,
    2^(53 - e) with e the exponent of the least non-zero weight, every weight
    is an integer (``_integer_weights``; past a span of the float range,
    |alpha| above about 121 at n = 256, the power is their largest
    denominator), and ``_riesz_sums`` gives the Riesz sums of every boundary
    exactly.  Each sample takes the Decimal I_k(n) off the exact Riesz sum
    and is rounded once.

    A sample that reads a weight past the float range, or whose I_k(n) is
    past Decimal's, is nan: its true value can be finite and of either
    sign.  At k >= 1 the sum reads the weights up to n - 1 only, since the
    term m = n has weight (n-n)^k = 0.
    """
    weights = _weights(spec, boundaries[-1])
    integers, den = _integer_weights(weights)
    sums = _riesz_sums(integers, k, boundaries)
    samples = []
    for n, riesz, total in zip(boundaries, sums, _subtrahends(spec, k, boundaries)):
        if total is None or n - (k > 0) > len(weights):
            samples.append(math.nan)
        else:
            p, q = total.as_integer_ratio()
            samples.append(_quotient(riesz * q - den * n ** k * p, den * q * n ** k))
    return samples


def advance_primitives(state: PrimitiveState, spec: StaircaseSpec,
                       k: int) -> PrimitiveState:
    """F_0 .. F_k at boundary n + 1, each from its closed-form sample:
    F_j(n+1) = (n+1)^j / j! times the order-j Riesz sample there."""
    k = _bounded_order(k)
    if len(state.values) != k + 1:
        raise ValueError(f"state carries {len(state.values) - 1} primitives, expected k={k}")
    n = state.boundary + 1
    values = tuple(n ** j / math.factorial(j) * _riesz_samples(spec, j, [n])[0]
                   for j in range(k + 1))
    return PrimitiveState(boundary=n, values=values)


# -- drivers ------------------------------------------------------------------

def default_order(alpha: float) -> int:
    """max(0, ceil(alpha) + 1): one averaging per polynomial degree."""
    return max(0, math.ceil(alpha) + 1)


def _quotient(v, d: int) -> float:
    """The exact v / d (d > 0) rounded once; past the float range it reads
    as an infinity of v's sign (compared, since float(v) would overflow)."""
    try:
        return float(v / d)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


def _exact_limit(alpha: int, k: int) -> float:
    """Integer alpha >= 0: the order-k limit of the Riesz identity, in integers.

    The float sum cancels quantities of size ~n^(alpha+1), so for alpha >= 4
    roundoff swamps the limit by X ~ 1e4.  For integer alpha the finite part
    is a Beta integral, n^k I_k(n) = n^(alpha+k+1) alpha! k! / (alpha+k+1)!,
    so with scale = (alpha+k+1)!

        P(n) = scale k! F_k(n) = scale sum_{m<=n} m^alpha (n-m)^k - alpha! k! n^(alpha+k+1)

    is an integer polynomial (the n^(alpha+k+1) terms cancel).  Its values
    at n = 0..alpha+k take the Riesz sums of the integer weights m^alpha from
    ``_riesz_sums``, the float path's kernel, at the lower of the two orders:
    where k > alpha, the same sums are sum_{d<=n} d^k (n-d)^alpha, the
    weights d^k at order alpha (less the term d = n at alpha = 0).  The
    limit is c_k / scale, c_j the n^j coefficient of P; if P has degree D,
    Delta^D P(0) = D! c_D != 0 and Delta^i P(0) = 0 for i > D.  So the limit
    is Delta^k P(0) / (k! scale), rounded once, or the sign of the highest
    non-zero difference above k, to whose infinity the mean diverges (as
    below order alpha + 1).  A degree above MAX_ORDER is refused first.
    """
    deg = alpha + k
    if deg > MAX_ORDER:
        raise ValueError(_UNBOUNDED.format(f"degree alpha + k = {deg}"))
    scale = math.factorial(deg + 1)
    fp = math.factorial(alpha) * math.factorial(k)  # scale * B(alpha+1, k+1)
    ns = range(deg + 1)
    low, high = sorted((alpha, k))
    riesz = _riesz_sums([m ** high for m in range(1, deg + 1)], low, ns)
    if alpha == 0:  # the term d = n of sum_d d^k (n-d)^0, as 0^0 = 1
        riesz = [s - n ** k for n, s in zip(ns, riesz)]
    values = [scale * s - fp * n ** (deg + 1) for n, s in zip(ns, riesz)]
    diffs = []  # Delta^i P(0) for i = 0..deg
    while values:
        diffs.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    top = next((d for d in reversed(diffs[k + 1:]) if d), 0)
    if top:
        return math.inf if top > 0 else -math.inf
    return _quotient(diffs[k], math.factorial(k) * scale)


def _exact_evaluation(value: float, k: int, n_terms: int,
                      converged: bool) -> CesaroEvaluation:
    """The record of a limit read exactly: no sample tail, and no error where
    the limit exists.  Where it does not (k <= alpha), the value is no
    estimate of the limit, so its error is unbounded."""
    return CesaroEvaluation(value=value, order=k, n_terms=n_terms, trace=(value,),
                            error_estimate=0.0 if converged else math.inf,
                            converged=converged)


def _bounded_order(k) -> int:
    """A staircase order as an int, refused above MAX_ORDER."""
    k = require_order(k)
    if k > MAX_ORDER:
        raise ValueError(_UNBOUNDED.format(f"order k={k}"))
    return k


def _order_and_domain(k, X_max: float, tol: float) -> tuple[int, int]:
    """The order of a staircase limit and the last integer boundary up to
    X_max.  A bad order, or one above MAX_ORDER, is refused first, then a bad
    X_max or tol, all before any sample is taken."""
    k = _bounded_order(k)
    require_finite(X_max=X_max)
    require_tol(tol)
    if X_max < _FIRST_TOP:
        raise ValueError(f"X_max must be at least {_FIRST_TOP}, got {X_max:g}")
    return k, int(math.floor(X_max))


def _ladder(n_max: int) -> list[int]:
    """The rungs 2^a and 3 * 2^a from _LADDER_FLOOR up to n_max, so the
    ratios are 3/2 and 4/3 in turn."""
    rungs, r = [], _LADDER_FLOOR
    while r <= n_max:
        rungs.append(r)
        r = r * 3 // 2 if r & (r - 1) == 0 else r * 4 // 3
    return rungs


def _expansion_exponents(spec: StaircaseSpec, k: int) -> list[tuple[float, int]]:
    """(e, b) for the columns n^e (ln n)^b of the sample's expansion: the
    _FIT_COLUMNS slowest decaying ones, slowest first.

    At an integer boundary, Euler-Maclaurin at both ends of sum_{m<=n}
    m^alpha (1 - m/n)^k gives the moment asymptotic expansion (Estrada and
    Kanwal, *A Distributional Approach to Asymptotics*, 2002)

        T(n) = zeta(-alpha) + sum_{j=1..k} C(k, j) (-1)^j zeta(-alpha-j) n^-j
               + sum_{l odd, l >= k} e_l n^(alpha-l),

    with l = 0 too at k = 0 (the half weight n^alpha / 2).  The log weight
    adds n^e ln n next to each endpoint column n^(alpha-l).  Only the
    exponents come from theory; the coefficients are fitted, so the limit
    owes nothing to the exact route.  An exponent within _MERGE_GAP of one
    taken already (alpha - l = -j at integer alpha) shares its column, and
    one below _STEEPEST is left out: the columns would be near-parallel on
    the ladder, for terms below eps of the sample.  A growing or constant
    term is never a column, so a mean that diverges at order k cannot be
    fitted into converging.
    """
    endpoint = ([0] if k == 0 else []) + list(range(k | 1, (k | 1) + 2 * _FIT_COLUMNS, 2))
    terms = [(-j, 0) for j in range(1, min(k, _FIT_COLUMNS) + 1)]
    for l in endpoint:
        terms += [(spec.alpha - l, b) for b in ((0, 1) if spec.log_weight else (0,))]
    columns, last = [], {}  # slowest first, so last[b], the last e taken with b, is the nearest
    for e, b in sorted(terms, reverse=True):
        if _STEEPEST <= e < 0 and last.get(b, math.inf) - e >= _MERGE_GAP:
            columns.append((e, b))
            last[b] = e
            if len(columns) == _FIT_COLUMNS:
                break
    return columns


def _fit(rungs: list[int], samples: list[float],
         exponents: list[tuple[float, int]]) -> Optional[float]:
    """The constant fitted on the last _FIT_RUNGS samples, at their rungs,
    beside the columns n^e (ln n)^b of the exponents, _FIT_COLUMNS at most;
    None where one of those samples is not finite or the fit is
    ill-conditioned."""
    n, y = rungs[len(samples) - _FIT_RUNGS:len(samples)], samples[-_FIT_RUNGS:]
    if not all(math.isfinite(v) for v in y):
        return None
    columns = [[r ** e * math.log(r) for r in n] if b else [r ** e for r in n]
               for e, b in exponents]
    try:
        return _weighted_fit(columns + [[1.0] * len(n)], y)[0][-1]
    except IllConditionedFitError:
        return None


def _extrapolated_evaluation(spec: StaircaseSpec, k: int, n_max: int,
                             tol: float) -> CesaroEvaluation:
    """The limit as the fitted constant of the sample's expansion, read on
    a ladder of boundaries that climbs only as far as tol asks.

    The first ladder, the rungs up to _FIRST_TOP, is read in one Riesz-sum
    pass and fitted twice: on its top window and on the window one rung
    lower, their gap the error.  A rung is added only while that gap is
    above tol / 10, and the rung is at most n_max and _TOP_RUNG; each
    climbed rung makes one fit, of the new top window, whose gap is to the
    fit it replaces.  It is kept only while the gap still shrinks: a float
    sample carries noise of about eps n^(alpha+1/2), so past the point where
    the gap grows, climbing makes the fit worse.  There the fit below is
    kept, with the larger of its two gaps as its error.  A fit that fails
    gives gap inf (on the first ladder, beside the last sample), and so
    does a gap that is not a finite number.

    An order k <= alpha never converges: there the staircase's order-k
    Cesaro mean does not exist, though its samples can settle, since the
    layers vanish at integer boundaries and a term n^(alpha-l) just above
    n^0 grows too slowly to see (alpha = 1.001 at k = 1 settles at twice
    zeta(-1)).
    """
    rungs = _ladder(min(n_max, _TOP_RUNG))
    samples = _riesz_samples(spec, k, _ladder(_FIRST_TOP))
    exponents = _expansion_exponents(spec, k)
    value, gap, below = None, math.inf, _fit(rungs, samples[:-1], exponents)
    while True:
        fit = _fit(rungs, samples, exponents)
        failed = fit is None or below is None
        g = math.inf if failed else abs(fit - below)
        g = g if math.isfinite(g) else math.inf  # an overflow, or inf - inf
        if value is None or g < gap:
            value = samples[-1] if failed else fit
        climb = g < gap and tol / 10 < g and len(samples) < len(rungs)
        gap, below = g, fit
        if not climb:
            break
        samples += _riesz_samples(spec, k, rungs[len(samples):len(samples) + 1])
    return CesaroEvaluation(value=value, order=k, n_terms=rungs[len(samples) - 1],
                            trace=tuple(samples[-TRACE_LEN:]), error_estimate=gap,
                            converged=gap <= tol and k > spec.alpha)


def _staircase_evaluation(spec: StaircaseSpec, k: Optional[int], X_max: float,
                          tol: float) -> CesaroEvaluation:
    if k is None:
        k = default_order(spec.alpha)
    k, n_max = _order_and_domain(k, X_max, tol)
    if k > 0 and not spec.log_weight and spec.alpha >= 0 and spec.alpha.is_integer():
        alpha = int(spec.alpha)
        return _exact_evaluation(_exact_limit(alpha, k), k, alpha + k + 1, k > alpha)
    return _extrapolated_evaluation(spec, k, n_max, tol)


def zeta_via_cesaro(alpha: float, k: Optional[int] = None,
                    X_max: float = DEFAULT_XMAX,
                    tol: float = DEFAULT_TOL) -> CesaroEvaluation:
    """Estimate zeta(-alpha) from the power-sum staircase at order k.

    k defaults to max(0, ceil(alpha) + 1).  Integer alpha >= 0 at k >= 1
    reports the exact limit, rounded once, with error_estimate 0, or inf
    where k <= alpha and no limit exists; X_max is checked but unused there.
    Every other alpha and order reports the extrapolated limit, with the gap
    of two fits as its error; X_max only caps the boundaries it sums.  No
    order k <= alpha converges: there the staircase's order-k mean does not
    exist.  An order above 512, or on the exact path a degree alpha + k
    above 512, raises ValueError.

    Caveat for k = 0 with alpha >= -1: boundary sampling sees the staircase
    exactly at the points where its sawtooth layers vanish, so the honest
    oscillation is invisible there (alpha = 0 reads 0, an artifact, and is
    reported not converged, as is every order k <= alpha).  The default
    order avoids this; ask for k = 0 only where alpha < 0.
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

    At an integer n, k! F_k(n) is a polynomial of degree k whose x^k
    coefficient is the mean of p, since each primitive adds the mean of the
    periodic part to the polynomial one.  So the limit is
    ``periodic_mean(p)`` at every order k >= 1, exact and rounded once, with
    error_estimate 0.  X_max and tol are checked but unused.
    """
    k, _ = _order_and_domain(k, X_max, tol)
    if k == 0:
        raise ValueError("lemma_witness needs order k >= 1, got k=0")
    return _exact_evaluation(_quotient(periodic_mean(p), 1), k, k + 1, True)
