"""Independent reference implementations used to pin expected values.

Everything here is deliberately written by a different route than the
package: Bernoulli numbers via the Akiyama-Tanigawa triangle instead of
tangent numbers, power sums by brute force, zeta values via Euler-Maclaurin
with hardcoded even Bernoulli numbers, zeta' by direct summation with
integral tail corrections.  Agreement is then meaningful.
"""
from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import lru_cache

# B_2 .. B_40, written down rather than computed
_EVEN_BERNOULLI = [Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42),
                   Fraction(-1, 30), Fraction(5, 66), Fraction(-691, 2730),
                   Fraction(7, 6), Fraction(-3617, 510), Fraction(43867, 798),
                   Fraction(-174611, 330), Fraction(854513, 138),
                   Fraction(-236364091, 2730), Fraction(8553103, 6),
                   Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
                   Fraction(-7709321041217, 510), Fraction(2577687858367, 6),
                   Fraction(-26315271553053477373, 1919190),
                   Fraction(2929993913841559, 6),
                   Fraction(-261082718496449122051, 13530)]


def bernoulli_table_akiyama_tanigawa(n: int) -> tuple[Fraction, ...]:
    """B_0..B_n from one Akiyama-Tanigawa triangle: B_m is row[0] after m
    reduction steps.

    The triangle natively produces the B_1 = +1/2 convention; flip the sign
    at index 1 to match the generating-function convention z/(e^z - 1).
    """
    row = [Fraction(1, m + 1) for m in range(n + 1)]
    out = [row[0]]
    for m in range(1, n + 1):
        for j in range(n + 1 - m):
            row[j] = (j + 1) * (row[j] - row[j + 1])
        out.append(row[0])
    if n >= 1:
        out[1] = -out[1]
    return tuple(out)


def bernoulli_akiyama_tanigawa(n: int) -> Fraction:
    """B_n alone, from the same triangle."""
    return bernoulli_table_akiyama_tanigawa(n)[n]


def power_sum_brute(n: int, m: int) -> int:
    """sum_{k=1}^{m-1} k^n, literally."""
    return sum(k ** n for k in range(1, m))


def euler_maclaurin_zeta(s: float, M: int = 50, terms: int = 7) -> float:
    """zeta(s) for real s > -2 (s != 1) by Euler-Maclaurin off the tail at M."""
    if s == 1.0:
        raise ValueError("pole")
    head = math.fsum(n ** (-s) for n in range(1, M + 1))
    total = head + M ** (1.0 - s) / (s - 1.0) - 0.5 * M ** (-s)
    fac = s
    for r in range(1, terms + 1):
        b2r = float(_EVEN_BERNOULLI[r - 1])
        total += b2r / math.factorial(2 * r) * fac * M ** (-s - 2 * r + 1)
        fac *= (s + 2 * r - 1) * (s + 2 * r)
    return total


@lru_cache(maxsize=None)
def euler_maclaurin_zeta_decimal(s: float, prime: bool = False) -> float:
    """zeta(s), or zeta'(s) with ``prime``, for real s >= -8 (s != 1), by
    Euler-Maclaurin off the tail at N = 20 in 50-digit ``decimal``:

        zeta(s) = sum_{n<N} n^-s + N^(1-s)/(s-1) + N^-s/2
                  + sum_{j=1..20} B_2j/(2j)! s(s+1)..(s+2j-2) N^(1-s-2j).

    Every term is carried with its s-derivative, as a pair (f, df/ds), so
    zeta' is the same sum differentiated term by term.  The first omitted
    term is below 1e-30 for every s >= -8."""
    if s == 1:
        raise ValueError("pole")
    with localcontext() as ctx:
        ctx.prec = 50
        S, N = Decimal(s), 20

        def mul(a, b):
            return a[0] * b[0], a[0] * b[1] + a[1] * b[0]

        def power(n, e):  # n^(e - s) and its s-derivative
            ln = Decimal(n).ln()
            v = ((e - S) * ln).exp()
            return v, -ln * v

        total = (Decimal(0), Decimal(0))
        for n in range(1, N):
            total = tuple(map(sum, zip(total, power(n, 0))))
        v, dv = power(N, 1)
        inv = 1 / (S - 1)  # d/ds 1/(s-1) = -inv^2
        terms = [mul((v, dv), (inv, -inv * inv)), mul(power(N, 0), (Decimal("0.5"), 0))]
        rising = (Decimal(1), Decimal(0))  # s(s+1)..(s+2j-2)
        tail = (v, dv)  # N^(1-s-2j+2), stepped down by N^-2
        for j, b in enumerate(_EVEN_BERNOULLI, start=1):
            for i in (2 * j - 3, 2 * j - 2):
                if i >= 0:
                    rising = mul(rising, (S + i, Decimal(1)))
            tail = (tail[0] / N ** 2, tail[1] / N ** 2)
            c = Decimal(b.numerator) / (b.denominator * math.factorial(2 * j))
            terms.append(mul((c, Decimal(0)), mul(rising, tail)))
        for t in terms:
            total = (total[0] + t[0], total[1] + t[1])
        return float(total[1] if prime else total[0])


def zeta_prime_by_summation(s: float, M: int = 200_000) -> float:
    """zeta'(s) = -sum ln(n) n^-s for s > 1, with integral tail corrections.

    Tail: -int_M^inf ln(t) t^-s dt = -M^(1-s) (ln M/(s-1) + 1/(s-1)^2),
    plus the standard midpoint corrections g(M)/2 and g'(M)/12 for
    g(t) = ln(t) t^-s.
    """
    if s <= 1.0:
        raise ValueError("needs s > 1")
    head = -math.fsum(math.log(n) * n ** (-s) for n in range(2, M + 1))
    g_m = math.log(M) * M ** (-s)
    dg_m = M ** (-s - 1) * (1.0 - s * math.log(M))
    tail = -(M ** (1.0 - s)) * (math.log(M) / (s - 1.0) + 1.0 / (s - 1.0) ** 2)
    return head + tail + 0.5 * g_m + dg_m / 12.0


def exp_primitive(c_re: Fraction, c_im: Fraction, j: int,
                  t: Fraction) -> tuple[Fraction, Fraction]:
    """The j-fold primitive of e^{ct} that vanishes at 0, c = c_re + i c_im,
    as exact (real, imaginary) parts of t^j sum_{e>=0} (ct)^e / (e+j)!.

    With ct = Z/D (Z a Gaussian integer), the partial sum through e is
    N_e / (D^e (e+j)!), and the term Z^e / (D^e (e+j)!) shares that
    denominator, so the sum runs in integers.  It stops once the terms halve
    (e >= 2|ct|) and the last is below 2^-201 of the sum, so the rest is
    below 2^-200 of it."""
    z_re, z_im = c_re * t, c_im * t
    d = math.lcm(z_re.denominator, z_im.denominator)
    zr, zi = int(z_re * d), int(z_im * d)
    pr, pi = 1, 0  # Z^e
    nr, ni = 1, 0  # N_e
    m = math.factorial(j)  # D^e (e+j)!
    e = 0
    while True:
        e += 1
        pr, pi = pr * zr - pi * zi, pr * zi + pi * zr
        scale = d * (e + j)
        nr, ni, m = nr * scale + pr, ni * scale + pi, m * scale
        if (e * e * d * d >= 4 * (zr * zr + zi * zi)
                and (pr * pr + pi * pi) << 402 <= nr * nr + ni * ni):
            return t ** j * Fraction(nr, m), t ** j * Fraction(ni, m)


def periodic_primitive(coeffs, j: int, x) -> Fraction:
    """The j-fold primitive from 0 of x -> p({x}), p(u) = sum_l coeffs[l] u^l,
    exactly, by Cauchy's formula (j = 0 is p({x}) itself):

        (j-1)! F_j(x) = int_0^x (x - t)^(j-1) p({t}) dt.

    With x = n + u, period r of [0, x] gives int_0^1 (x - r - s)^(j-1) p(s) ds.
    Expanding the power in s, period r contributes sum_i C(j-1, i) (-1)^i
    mu_i (x - r)^e, mu_i = int_0^1 s^i p(s) ds and e = j-1-i.  Summed over the
    n whole periods, x - r = u + w for w = 1..n, so the (x - r)^e expand in
    the integer power sums S_l(n) = sum_w w^l; the partial period [n, x] is
    the w = 0 term, with its moment taken over [0, u]."""
    x = Fraction(x)
    n = math.floor(x)
    u = x - n
    cs = [Fraction(c) for c in coeffs]
    if j == 0:
        return sum(c * u ** l for l, c in enumerate(cs))

    def moment(i, a):  # int_0^a s^i p(s) ds
        return sum(c * a ** (i + l + 1) / (i + l + 1) for l, c in enumerate(cs))

    # (n + 1)^(l+1) - 1 telescopes to sum_{i<=l} C(l+1, i) S_i(n)
    power_sums = []
    for l in range(j):
        rest = sum(math.comb(l + 1, i) * s for i, s in enumerate(power_sums))
        power_sums.append(((n + 1) ** (l + 1) - 1 - rest) // (l + 1))
    total = Fraction(0)
    for i in range(j):
        e = j - 1 - i
        whole = sum(math.comb(e, l) * u ** (e - l) * power_sums[l] for l in range(e + 1))
        total += math.comb(j - 1, i) * (-1) ** i * (moment(i, 1) * whole + u ** e * moment(i, u))
    return total / math.factorial(j - 1)


def prefix_sums_naive(values, k: int):
    """k-times iterated prefix sums, plain float adds."""
    out = [float(v) for v in values]
    for _ in range(k):
        run = 0.0
        for i, v in enumerate(out):
            run += v
            out[i] = run
    return out


# zeta facts frozen from the literature, used to sanity-check the oracles
ZETA_HALF = -1.4603545088095868
ZETA_PRIME_0 = -0.9189385332046727  # -ln(2 pi)/2
ZETA_PRIME_2 = -0.93754825431584376
ZETA_PRIME_3 = -0.19812624288563685
ZETA_PRIME_NEG_2 = -0.030448457058393271  # zeta'(-2) = -zeta(3) / (4 pi^2)
ZETA_PRIME_NEG_3 = 0.0053785763577743011
