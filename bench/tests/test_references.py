"""Each benchmark reference agrees with an oracle that reaches it another way."""
import math
from fractions import Fraction

import pytest

import references as ref


@pytest.mark.parametrize("key", sorted(ref.FIXED_ZETA))
def test_fixed_constants_match_euler_maclaurin(key):
    alpha, prime = key
    want = float(ref.FIXED_ZETA[key])
    got = ref.zeta_em(alpha, prime)
    assert abs(got - want) <= 2e-16 * max(1.0, abs(want))


@pytest.mark.parametrize("alpha", [3.77, 0.31, -0.61, 2.05])
def test_euler_maclaurin_is_stable_in_its_cut(alpha):
    # the remainder is negligible: moving the cut does not move the value
    for prime in (False, True):
        base = ref.zeta_em(alpha, prime)
        old = ref._EM_CUT
        try:
            ref._EM_CUT = 25
            moved = ref.zeta_em(alpha, prime)
        finally:
            ref._EM_CUT = old
        assert abs(base - moved) <= 1e-15 * max(1.0, abs(base))


def test_euler_maclaurin_derivative_matches_difference_quotient():
    h = 1e-6
    for alpha in (0.3, 1.7, 2.6):
        fd = (ref.zeta_em(alpha - h) - ref.zeta_em(alpha + h)) / (2 * h)
        # d/ds zeta(s) at s = -alpha is -d/dalpha zeta(-alpha)
        assert math.isclose(ref.zeta_em(alpha, prime=True), fd, rel_tol=1e-7)


def test_hardcoded_even_bernoulli_match_akiyama_tanigawa():
    table = ref.bernoulli_table(40)
    assert table[1] == Fraction(-1, 2)
    assert [table[2 * j] for j in range(1, 21)] == list(ref.EVEN_BERNOULLI)
    assert all(table[n] == 0 for n in range(3, 41, 2))


def test_bernoulli_satisfy_faulhaber_against_brute_force():
    table = ref.bernoulli_table(12)
    for n in range(1, 12):
        for m in (1, 2, 7, 20):
            formula = sum(math.comb(n + 1, k) * table[k] * Fraction(m) ** (n - k + 1)
                          for k in range(n + 1)) / (n + 1)
            assert formula == ref.power_sum(n, m)


def test_zeta_neg_int_matches_constants():
    for n in (1, 3):
        assert float(ref.zeta_neg_int(n)) == float(ref.FIXED_ZETA[(float(n), False)])
    assert ref.zeta_neg_int(0) == Fraction(-1, 2)
    assert ref.zeta_neg_int(7) == Fraction(1, 240)


def test_layer_polynomials_rebuild_the_staircase():
    n = 4
    layers = [ref.pm_coefficients(n, m) for m in range(n + 1)]
    for x in (Fraction(7, 3), Fraction(11, 2), Fraction(29, 5)):
        u = x - math.floor(x)
        lhs = ref.power_sum(n, math.floor(x) + 1) - x ** (n + 1) / (n + 1)
        rhs = sum(sum(c * u ** i for i, c in enumerate(p)) * x ** m
                  for m, p in enumerate(layers))
        assert lhs == rhs


def test_layer_means_give_zeta():
    for n in (2, 3, 5):
        assert ref.periodic_mean(ref.pm_coefficients(n, 0)) == ref.zeta_neg_int(n)
        for m in range(1, n + 1):
            assert ref.periodic_mean(ref.pm_coefficients(n, m)) == 0
