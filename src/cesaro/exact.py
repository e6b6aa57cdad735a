"""Exact rational algebra: Bernoulli numbers, Faulhaber power sums, zeta at
non-positive integers, and the periodic polynomials that split the power-sum
staircase into x-power layers.

Everything here is computed over ``fractions.Fraction``; no floats enter.
Convention: B_1 = -1/2 (the generating function t/(e^t - 1)).  The Faulhaber
identity below requires this sign and would be silently wrong under B_1 = +1/2.
"""
from __future__ import annotations

import math
import threading
from fractions import Fraction
from math import comb
from numbers import Rational

__all__ = [
    "BernoulliTable",
    "bernoulli",
    "faulhaber_sum",
    "zeta_neg_int",
    "PeriodicPolynomial",
    "pm_polynomial",
    "periodic_mean",
]

# the largest Bernoulli index the table builds: about a second of integer
# work, growing as n^2.5, so a larger index is refused before any starts
MAX_BERNOULLI = 2048


def _tangent_numbers(n: int) -> list[int]:
    """Tangent numbers T_1..T_n (1, 2, 16, 272, ...), as ``out[k-1] = T_k``.

    Brent and Harvey, "Fast computation of Bernoulli, Tangent and Secant
    numbers" (2011), Algorithm TangentNumbers: an in-place integer triangle
    with O(n^2) multiply-adds and no division.
    """
    t = [0] * n
    if n:
        t[0] = 1
    for k in range(1, n):
        t[k] = k * t[k - 1]
    for k in range(1, n):
        for j in range(k, n):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t


def _bernoulli_values(length: int) -> tuple[Fraction, ...]:
    """B_0 .. B_{length-1} from the tangent numbers (length >= 2)."""
    out = [Fraction(0)] * length
    out[0] = Fraction(1)
    out[1] = Fraction(-1, 2)
    for n, t in enumerate(_tangent_numbers((length - 1) // 2), start=1):
        four_n = 4 ** n
        b = Fraction(2 * n * t, four_n * (four_n - 1))
        out[2 * n] = b if n % 2 else -b
    return tuple(out)


class BernoulliTable:
    """Memoized Bernoulli numbers B_0, B_1, ... with B_1 = -1/2.

    Values come from the tangent numbers T_n of ``_tangent_numbers``:

        B_{2n} = (-1)^(n-1) * 2n * T_n / (4^n (4^n - 1)),

    with B_0 = 1, B_1 = -1/2 and every other odd value 0.  Only the final
    division per entry leaves the integers, so building B_0..B_N costs
    O(N^2) integer operations.  Each extension rebuilds the whole table to
    at least twice its previous length, but never past MAX_BERNOULLI, which
    keeps a run of small extensions amortized O(N^2) as well.  An index
    above MAX_BERNOULLI is refused with ValueError before any work starts.

    Thread safety: the table is an immutable tuple that an extension
    replaces with one reference assignment, so a reader sees either the old
    table or the new one, never a half-built one.  Extensions are serialized
    by a lock and only ever lengthen the table, so one instance may be
    shared freely across threads.
    """

    def __init__(self):
        self._values: tuple[Fraction, ...] = (Fraction(1),)
        self._lock = threading.Lock()

    def extend_to(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"Bernoulli index must be >= 0, got {n}")
        if n < len(self._values):
            return
        if n > MAX_BERNOULLI:
            raise ValueError(f"Bernoulli index {n} is above MAX_BERNOULLI = {MAX_BERNOULLI}, "
                             "the most the exact table builds")
        with self._lock:
            length = len(self._values)
            if n >= length:
                self._values = _bernoulli_values(
                    min(max(n + 1, 2 * length), MAX_BERNOULLI + 1))

    def value(self, n: int) -> Fraction:
        self.extend_to(n)
        return self._values[n]

    @property
    def values(self) -> tuple[Fraction, ...]:
        """Snapshot of everything computed so far."""
        return self._values


_TABLE = BernoulliTable()


def bernoulli(n: int) -> Fraction:
    """n-th Bernoulli number (B_1 = -1/2 convention), exact."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise TypeError("bernoulli expects an int index")
    return _TABLE.value(n)


def faulhaber_sum(n: int, m: int) -> Fraction:
    """Exact power sum 1^n + 2^n + ... + (m-1)^n via the Bernoulli form

        sum_{k=1}^{m-1} k^n = 1/(n+1) * sum_{k=0}^{n} C(n+1, k) B_k m^(n-k+1).

    Note the upper limit m-1: the identity is cleanest with an exclusive
    endpoint, and callers who want 1..M pass m = M + 1.  Requires n >= 1
    (the n = 0 counting case does not fit the identity) and m >= 1.
    """
    if n < 1:
        raise ValueError(f"faulhaber_sum needs exponent n >= 1, got {n}")
    if m < 1:
        raise ValueError(f"faulhaber_sum needs upper bound m >= 1, got {m}")
    _TABLE.extend_to(n)
    b = _TABLE.values[:n + 1]
    # scale B_0..B_n to integers so the sum runs on ints, one division at the end
    lcm = math.lcm(*(v.denominator for v in b))
    acc = sum(comb(n + 1, k) * (v.numerator * (lcm // v.denominator))
              * m ** (n - k + 1) for k, v in enumerate(b))
    return Fraction(acc, lcm * (n + 1))


def zeta_neg_int(n: int) -> Fraction:
    """Riemann zeta at -n for integer n >= 0, exact.

    zeta(0) = -1/2, and zeta(-n) = -B_{n+1}/(n+1) for n >= 1.  The n = 0
    case is special: -B_1/1 would give +1/2, the wrong sign.
    """
    if n < 0:
        raise ValueError(f"zeta_neg_int expects n >= 0 (the argument is -n), got {n}")
    if n == 0:
        return Fraction(-1, 2)
    return -bernoulli(n + 1) / (n + 1)


class PeriodicPolynomial:
    """A 1-periodic function u -> p({u}) given by polynomial coefficients in
    the fractional part, p(u) = sum_j coeffs[j] * u^j with exact Fraction
    coefficients.

    Calling it with a Fraction keeps the arithmetic exact; calling it with a
    float evaluates in float.  Either way the argument is reduced mod 1 first.
    The float coefficients are converted on the first float call, so a
    polynomial used only exactly may hold coefficients past the float range.
    """

    __slots__ = ("coeffs", "_floats")

    def __init__(self, coeffs):
        cs = [Fraction(c) for c in coeffs]
        while len(cs) > 1 and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)
        self._floats = None  # the coefficients in float, highest power first

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        if type(x) is not float and isinstance(x, Rational):  # the ABC check is slow
            u = Fraction(x) - math.floor(x)
            acc = Fraction(0)
            for c in reversed(self.coeffs):
                acc = acc * u + c
            return acc
        if self._floats is None:
            self._floats = tuple(float(c) for c in reversed(self.coeffs))
        xf = float(x)
        u = xf - math.floor(xf)
        acc = 0.0
        for c in self._floats:
            acc = acc * u + c
        return acc

    def __eq__(self, other):
        return isinstance(other, PeriodicPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __repr__(self):
        body = " + ".join(f"({c})*{{x}}^{j}" for j, c in enumerate(self.coeffs) if c != 0)
        return f"PeriodicPolynomial[{body or '0'}]"


def pm_polynomial(n: int, m: int) -> PeriodicPolynomial:
    """The coefficient polynomial P_m in the exact staircase split

        sum_{k=1}^{[x]} k^n - x^(n+1)/(n+1) = sum_{m=0}^{n} P_m({x}) x^m.

    Substituting [x] + 1 = x + (1 - {x}) into the Faulhaber form of the
    power sum and expanding binomially in x gives

        P_m(u) = 1/(n+1) * sum_k C(n+1, k) C(n-k+1, m) B_k (1 - u)^(n-k-m+1),

    where k runs over 0..n for m = 0 and 0..n-m+1 otherwise.  The x^(n+1)
    term of the expansion cancels the subtracted x^(n+1)/(n+1) exactly, so
    the layers stop at m = n.  The result is returned expanded in the
    monomial basis of u = {x}.

    Means over one period: P_m has mean 0 for 1 <= m <= n, and P_0 has mean
    -B_{n+1}/(n+1), which is what makes the staircase converge to zeta(-n)
    in the Cesaro sense.
    """
    if n < 1:
        raise ValueError(f"pm_polynomial needs n >= 1, got {n}")
    if not 0 <= m <= n:
        raise ValueError(f"pm_polynomial index m out of range: need 0 <= m <= {n}, got {m}")
    _TABLE.extend_to(n)
    top = n if m == 0 else n - m + 1
    # (1 - u)^e expands as sum_i C(e, i) (-1)^i u^i
    coeffs = [Fraction(0)] * (n - m + 2)
    for k in range(top + 1):
        c = Fraction(comb(n + 1, k) * comb(n - k + 1, m)) * _TABLE.value(k)
        if c == 0:
            continue
        e = n - k - m + 1
        for i in range(e + 1):
            term = c * comb(e, i)
            coeffs[i] += -term if i % 2 else term
    return PeriodicPolynomial([c / (n + 1) for c in coeffs])


def periodic_mean(p: PeriodicPolynomial) -> Fraction:
    """Exact mean of p({x}) over one period: sum_j coeffs[j] / (j+1)."""
    return sum((c / (j + 1) for j, c in enumerate(p.coeffs)), Fraction(0))


def _periodic_primitives(p: PeriodicPolynomial, depth: int) -> list:
    """F_1..F_depth of x -> p({x}), each the primitive from 0 of the last, as
    exact pairs (P, Q): F_j(x) = P(x) + Q({x}), P a polynomial in x (Fractions,
    lowest power first) and Q a PeriodicPolynomial, Q(0) = 0.  With m the mean
    of Q, F_{j+1}(x) = int_0^x (P + m) + R({x}), R(u) = int_0^u (Q - m), and
    R(1) = 0 is the paper's lemma: the primitive of a zero-mean p is periodic."""
    chain, P, Q = [], [Fraction(0)], list(p.coeffs) or [Fraction(0)]
    for _ in range(depth):
        m = periodic_mean(PeriodicPolynomial(Q))
        P = [Fraction(0), P[0] + m] + [c / (i + 1) for i, c in enumerate(P) if i]
        Q = [Fraction(0), Q[0] - m] + [c / (i + 1) for i, c in enumerate(Q) if i]
        chain.append((tuple(P), PeriodicPolynomial(Q)))
    return chain
