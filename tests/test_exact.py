import math
import sys
import threading
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cesaro import exact
from oracles import bernoulli_table_akiyama_tanigawa, power_sum_brute

ORACLE = bernoulli_table_akiyama_tanigawa(200)


def test_bernoulli_first_values():
    want = [Fraction(1), Fraction(-1, 2), Fraction(1, 6), Fraction(0),
            Fraction(-1, 30), Fraction(0)]
    assert [exact.bernoulli(n) for n in range(6)] == want


def test_bernoulli_sign_convention():
    # generating function z/(e^z - 1): B_1 = -1/2, not +1/2
    assert exact.bernoulli(1) == Fraction(-1, 2)


def test_bernoulli_against_triangle_oracle():
    for n in range(len(ORACLE)):
        assert exact.bernoulli(n) == ORACLE[n], n


def test_bernoulli_table_shared_across_threads():
    # more threads than cores and a short switch interval, so extensions
    # interleave; a half-built or shrunk table would show as a wrong value
    # or an IndexError in some thread
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for trial in range(20):
            table = exact.BernoulliTable()
            start = threading.Barrier(4, timeout=30)
            results, errors = [], []

            def work(first):
                start.wait()
                try:
                    results.append((first, table.value(first), table.value(120)))
                except Exception as exc:  # reported by the assertions below
                    errors.append(exc)

            # different first targets race extensions of different lengths
            threads = [threading.Thread(target=work, args=(30 * i,))
                       for i in range(1, 5)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
            assert not any(t.is_alive() for t in threads), trial
            assert errors == [], trial
            assert len(results) == 4, trial
            for first, b_first, b_120 in results:
                assert (b_first, b_120) == (ORACLE[first], ORACLE[120]), trial
            assert table.values[:121] == ORACLE[:121], trial
    finally:
        sys.setswitchinterval(old_interval)


def test_bernoulli_odd_vanish():
    for n in range(3, 40, 2):
        assert exact.bernoulli(n) == 0


def test_bernoulli_defining_identity():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for every n >= 1
    for n in range(1, 51):
        acc = sum(math.comb(n + 1, k) * exact.bernoulli(k) for k in range(n + 1))
        assert acc == 0, n


def test_bernoulli_rejects_bad_input():
    with pytest.raises(ValueError):
        exact.bernoulli(-1)
    with pytest.raises(TypeError):
        exact.bernoulli(2.0)
    with pytest.raises(TypeError):
        exact.bernoulli(True)


def test_bernoulli_table_grows_and_snapshots():
    t = exact.BernoulliTable()
    t.extend_to(10)
    assert len(t.values) >= 11
    snap = t.values
    t.extend_to(20)
    assert len(snap) < len(t.values)
    assert t.value(12) == Fraction(-691, 2730)


@pytest.mark.parametrize("call", [
    exact.bernoulli, exact.zeta_neg_int, lambda n: exact.faulhaber_sum(n, 10),
    lambda n: exact.pm_polynomial(n, 0), lambda n: exact.BernoulliTable().extend_to(n),
], ids=["bernoulli", "zeta_neg_int", "faulhaber_sum", "pm_polynomial", "extend_to"])
def test_an_index_past_the_bernoulli_bound_is_refused_at_once(call):
    # the build grows as n^2.5: an index past the bound would run for hours
    # at n = 1e5, so it is refused before any work starts; zeta(-n) reads
    # B_{n+1}, so its message names n + 1
    n = exact.MAX_BERNOULLI + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"^Bernoulli index ({n}|{n + 1}) is above "
                                         rf"MAX_BERNOULLI = {exact.MAX_BERNOULLI},"):
        call(n)
    assert time.perf_counter() - start < 0.1


def test_the_table_never_doubles_past_the_bound(monkeypatch):
    monkeypatch.setattr(exact, "MAX_BERNOULLI", 40)
    t = exact.BernoulliTable()
    t.extend_to(30)
    t.extend_to(31)  # would double to 62 entries
    assert len(t.values) <= 41
    assert t.value(40) == ORACLE[40]
    with pytest.raises(ValueError, match="^Bernoulli index 41 is above MAX_BERNOULLI = 40"):
        t.extend_to(41)


@given(st.integers(min_value=1, max_value=8), st.integers(min_value=1, max_value=120))
def test_faulhaber_matches_brute_force(n, m):
    assert exact.faulhaber_sum(n, m) == power_sum_brute(n, m)


def test_faulhaber_is_exclusive_at_the_top():
    # upper limit m-1: the m=1 sum is empty
    assert exact.faulhaber_sum(4, 1) == 0
    assert exact.faulhaber_sum(1, 3) == 3  # 1 + 2


def test_faulhaber_rejects_bad_input():
    with pytest.raises(ValueError):
        exact.faulhaber_sum(0, 5)
    with pytest.raises(ValueError):
        exact.faulhaber_sum(3, 0)


def test_faulhaber_result_is_integral():
    for n in range(1, 8):
        v = exact.faulhaber_sum(n, 37)
        assert isinstance(v, Fraction) and v.denominator == 1


def test_faulhaber_known_examples():
    assert exact.faulhaber_sum(1, 5) == 10  # 1 + 2 + 3 + 4
    assert exact.faulhaber_sum(2, 4) == 14  # 1 + 4 + 9


def test_zeta_neg_int_frozen_values():
    want = [Fraction(-1, 2), Fraction(-1, 12), Fraction(0), Fraction(1, 120),
            Fraction(0), Fraction(-1, 252)]
    assert [exact.zeta_neg_int(n) for n in range(6)] == want


def test_zeta_trivial_zeros():
    for n in (2, 4, 6, 8, 10, 12):
        assert exact.zeta_neg_int(n) == 0


def test_zeta_neg_int_zero_is_special():
    # -B_1/1 would give +1/2; the correct value is -1/2
    assert exact.zeta_neg_int(0) == Fraction(-1, 2)


def test_zeta_neg_int_recurrence_form():
    for n in range(1, 20):
        assert exact.zeta_neg_int(n) == -exact.bernoulli(n + 1) / (n + 1)


class TestPeriodicPolynomial:
    def test_eval_is_periodic(self):
        p = exact.PeriodicPolynomial((Fraction(1, 2), Fraction(-1)))
        assert p(0.25) == p(1.25) == p(-0.75)

    def test_fraction_in_fraction_out(self):
        p = exact.PeriodicPolynomial((Fraction(1, 2), Fraction(-1)))
        v = p(Fraction(1, 3))
        assert isinstance(v, Fraction) and v == Fraction(1, 2) - Fraction(1, 3)

    def test_float_in_float_out(self):
        p = exact.PeriodicPolynomial((Fraction(1, 2), Fraction(-1)))
        assert p(0.5) == pytest.approx(0.0)

    @pytest.mark.parametrize("n,m", [(1, 1), (6, 2), (20, 0)])
    def test_float_calls_run_horner_on_the_rounded_coefficients(self, n, m):
        p = exact.pm_polynomial(n, m)
        for x in (0.0, 0.3, 12.3, -7.77, 1e6 + 0.1) * 2:  # twice: the second reuses
            u, want = x - math.floor(x), 0.0
            for c in reversed(p.coeffs):
                want = want * u + float(c)
            assert p(x) == want, x

    @pytest.mark.parametrize("n,m", [(1, 1), (6, 2)])
    def test_every_input_type_keeps_its_path(self, n, m):
        # a float skips the Rational check; an int or a Fraction stays exact,
        # and a numpy float64 (a float subclass) takes the float path
        import numpy as np

        p = exact.pm_polynomial(n, m)

        def horner(u, num):
            acc = num(0)
            for c in reversed(p.coeffs):
                acc = acc * u + num(c)
            return acc

        for x in (0, 3, -2, True, Fraction(7, 3), Fraction(-1, 5)):
            got = p(x)
            assert type(got) is Fraction and got == horner(Fraction(x) - math.floor(x), Fraction), x
        for x in (0.3, 2.75, -7.77, np.float64(0.3)):
            got = p(x)
            assert type(got) is float and got == horner(float(x) - math.floor(x), float), x

    def test_coefficients_past_the_float_range_stay_exact(self):
        p = exact.pm_polynomial(300, 0)
        assert p(Fraction(1, 3)) == sum(c * Fraction(1, 3) ** j for j, c in enumerate(p.coeffs))
        with pytest.raises(OverflowError):
            p(0.5)

    def test_trailing_zeros_trimmed(self):
        p = exact.PeriodicPolynomial((Fraction(1), Fraction(0), Fraction(0)))
        assert p.degree == 0

    def test_equality_and_hash(self):
        a = exact.PeriodicPolynomial((Fraction(1, 2), Fraction(-1)))
        b = exact.PeriodicPolynomial((Fraction(1, 2), Fraction(-1)))
        assert a == b and hash(a) == hash(b)


def test_pm_polynomial_simplest_layer():
    # the n = 1 staircase layer is 1/2 - {x}
    p = exact.pm_polynomial(1, 1)
    assert p.coeffs == (Fraction(1, 2), Fraction(-1))


def test_pm_polynomial_constant_layer():
    # the x^0 layer for n = 1 is ({x}^2 - {x})/2
    p = exact.pm_polynomial(1, 0)
    assert p.coeffs == (Fraction(0), Fraction(-1, 2), Fraction(1, 2))


def test_staircase_layers_reconstruct_power_sum():
    # sum_m P_{n,m}({x}) x^m must equal sum_{k<=x} k^n - x^(n+1)/(n+1) exactly
    xs = [Fraction(7 * i + 3, 36) for i in range(100)]  # spread over (0, 20)
    for n in range(1, 5):
        layers = [exact.pm_polynomial(n, m) for m in range(n + 1)]
        for x in xs:
            whole = math.floor(x)
            frac = x - whole
            combined = sum(
                (layers[m](frac) * x**m for m in range(n + 1)), Fraction(0)
            )
            expect = exact.faulhaber_sum(n, whole + 1) - x ** (n + 1) / (n + 1)
            assert combined == expect, (n, x)


def test_pm_polynomial_rejects_bad_degrees():
    with pytest.raises(ValueError):
        exact.pm_polynomial(0, 0)
    with pytest.raises(ValueError):
        exact.pm_polynomial(3, 4)
    with pytest.raises(ValueError):
        exact.pm_polynomial(3, -1)


def test_pm_means_vanish_for_positive_m():
    for n in range(1, 13):
        for m in range(1, n + 1):
            assert exact.periodic_mean(exact.pm_polynomial(n, m)) == 0, (n, m)


def test_pm_mean_at_m_zero_recovers_zeta():
    for n in range(1, 13):
        mean = exact.periodic_mean(exact.pm_polynomial(n, 0))
        assert mean == -exact.bernoulli(n + 1) / (n + 1), n


def test_periodic_mean_matches_numeric_integral():
    p = exact.pm_polynomial(4, 2)
    xs = [(i + 0.5) / 20000 for i in range(20000)]
    riemann = math.fsum(p(x) for x in xs) / 20000
    assert abs(riemann - float(exact.periodic_mean(p))) < 1e-9
