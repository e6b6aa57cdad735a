"""Reference values the benchmark checks the package against.

Nothing here imports ``cesaro``: every reference comes by a route of its own,
so agreement between the package and this file means something.

* Fixed zeta / zeta' values are hardcoded constants.  They were computed once
  with mpmath 1.3.0 at 40 decimal digits (``mpmath.zeta(s)`` and
  ``mpmath.zeta(s, derivative=1)``) and are written with 25 significant
  digits; mpmath is not used when the benchmark runs.
* Zeta values at the alphas drawn from a seed come from an Euler-Maclaurin
  evaluation in ``decimal`` arithmetic at 50 digits with the even Bernoulli
  numbers B_2..B_40 written down below.
* Bernoulli numbers come from the Akiyama-Tanigawa triangle, power sums by
  brute force, and the staircase layer polynomials P_m by interpolating
  brute-force power sums in exact arithmetic.
"""
from __future__ import annotations

import decimal
import math
from fractions import Fraction
from functools import lru_cache

# (alpha, prime) -> zeta(-alpha) or zeta'(-alpha); mpmath 1.3.0, 40 digits.
FIXED_ZETA = {
    (0.0, False): "-0.5",
    (0.5, False): "-0.2078862249773545660173067",
    (1.0, False): "-0.08333333333333333333333333",
    (1.5, False): "-0.02548520188983303594954299",
    (2.0, False): "0",
    (2.5, False): "0.008516928777850330542358567",
    (3.0, False): "0.008333333333333333333333333",
    (3.5, False): "0.004441011335479431958534658",
    (4.0, False): "0",
    (-0.5, False): "-1.460354508809586812889499",
    (-2.0, False): "1.644934066848226436472415",
    (0.0, True): "-0.9189385332046727417803297",
    (0.5, True): "-0.3608543395999476073474208",
    (2.0, True): "-0.03044845705839327078025153",
    (3.0, True): "0.005378576357774301144416974",
}

# B_2, B_4, ..., B_40, standard values (checked against Akiyama-Tanigawa
# in the benchmark's tests).
EVEN_BERNOULLI = tuple(Fraction(s) for s in (
    "1/6", "-1/30", "1/42", "-1/30", "5/66", "-691/2730", "7/6",
    "-3617/510", "43867/798", "-174611/330", "854513/138",
    "-236364091/2730", "8553103/6", "-23749461029/870",
    "8615841276005/14322", "-7709321041217/510", "2577687858367/6",
    "-26315271553053477373/1919190", "2929993913841559/6",
    "-261082718496449122051/13530",
))

_EM_CUT = 20
_EM_DIGITS = 50


def zeta_em(alpha: float, prime: bool = False) -> float:
    """zeta(-alpha), or zeta'(-alpha) with ``prime``, by Euler-Maclaurin.

    zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
              + sum_j B_2j/(2j)! s(s+1)..(s+2j-2) N^(-s-2j+1)

    and its s-derivative, term by term, for s = -alpha.  With N = 20 and
    twenty Bernoulli terms the remainder is below 1e-25 for |s| <= 6.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = _EM_DIGITS
        D = decimal.Decimal
        s = D(repr(float(-alpha)))
        if s == 1:
            raise ValueError("pole of zeta at s = 1")
        N = D(_EM_CUT)
        lnN = N.ln()

        def pw(x, e):  # x^e for x > 0
            return (e * x.ln()).exp()

        head = D(0)
        for n in range(2, _EM_CUT):
            dn = D(n)
            v = pw(dn, -s)
            head += -dn.ln() * v if prime else v
        if not prime:
            head += 1
        n1s = pw(N, 1 - s)
        ns = pw(N, -s)
        if prime:
            total = head - lnN * n1s / (s - 1) - n1s / (s - 1) ** 2 - lnN * ns / 2
        else:
            total = head + n1s / (s - 1) + ns / 2
        for j, b in enumerate(EVEN_BERNOULLI, start=1):
            coef = D(b.numerator) / D(b.denominator) / D(math.factorial(2 * j))
            factors = [s + i for i in range(2 * j - 1)]
            poly = D(1)
            for f in factors:
                poly *= f
            npow = pw(N, -s - 2 * j + 1)
            if prime:
                dpoly = D(0)
                for i in range(len(factors)):
                    part = D(1)
                    for l, f in enumerate(factors):
                        if l != i:
                            part *= f
                    dpoly += part
                total += coef * (dpoly - lnN * poly) * npow
            else:
                total += coef * poly * npow
        return float(total)


@lru_cache(maxsize=None)
def zeta_reference(alpha: float, prime: bool = False) -> float:
    """The hardcoded constant where one exists, else Euler-Maclaurin."""
    text = FIXED_ZETA.get((float(alpha), prime))
    if text is not None:
        return float(text)
    return zeta_em(alpha, prime)


@lru_cache(maxsize=4)
def bernoulli_table(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n (B_1 = -1/2) from the Akiyama-Tanigawa triangle."""
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    out = [row[0]]
    for m in range(1, n + 1):
        for j in range(n + 1 - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]  # the triangle gives B_1 = +1/2
    return tuple(out)


def zeta_neg_int(n: int) -> Fraction:
    """zeta(-n) for integer n >= 0, from the Akiyama-Tanigawa numbers."""
    if n == 0:
        return Fraction(-1, 2)
    return -bernoulli_table(n + 1)[n + 1] / (n + 1)


def power_sum(n: int, m: int) -> int:
    """1^n + 2^n + ... + (m-1)^n, literally."""
    return sum(k ** n for k in range(1, m))


def _interpolate(xs, ys) -> list[Fraction]:
    """Monomial coefficients of the polynomial through (xs, ys), exactly."""
    size = len(xs)
    rows = [[Fraction(x) ** p for p in range(size)] + [Fraction(y)]
            for x, y in zip(xs, ys)]
    for col in range(size):
        pivot = next(r for r in range(col, size) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        for r in range(size):
            if r != col and rows[r][col] != 0:
                f = rows[r][col] / rows[col][col]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[col])]
    return [rows[i][size] / rows[i][i] for i in range(size)]


@lru_cache(maxsize=None)
def pm_coefficients(n: int, m: int) -> tuple[Fraction, ...]:
    """Coefficients in u = {x} of the layer polynomial P_m of exponent n.

    The layers are defined by
        sum_{k<=x} k^n - x^(n+1)/(n+1) = sum_{j=0}^{n} P_j({x}) x^j.
    At a fixed u, the values at x = N + u for N = 0..n fix the polynomial
    Q(x) = sum_j P_j(u) x^j; P_m(u) is its x^m coefficient.  P_m has degree
    at most n + 1 in u, so n + 2 values of u fix it.  Trailing zeros are
    dropped.
    """
    us = [Fraction(i, n + 3) for i in range(n + 2)]
    values = []
    for u in us:
        xs = [N + u for N in range(n + 1)]
        ys = [power_sum(n, N + 1) - x ** (n + 1) / (n + 1) for N, x in enumerate(xs)]
        values.append(_interpolate(xs, ys)[m])
    coeffs = _interpolate(us, values)
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def periodic_mean(coeffs) -> Fraction:
    """Mean over one period of u -> sum_j coeffs[j] u^j."""
    return sum((Fraction(c) / (j + 1) for j, c in enumerate(coeffs)), Fraction(0))
