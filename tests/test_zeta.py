import math
import re
import time
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from scipy.integrate import quad

from cesaro import evaluation, exact, integral, series, zeta
from oracles import (_EVEN_BERNOULLI, ZETA_HALF, ZETA_PRIME_0, ZETA_PRIME_2, ZETA_PRIME_3,
                     ZETA_PRIME_NEG_2, ZETA_PRIME_NEG_3, bernoulli_table_akiyama_tanigawa,
                     euler_maclaurin_zeta, euler_maclaurin_zeta_decimal,
                     zeta_prime_by_summation)


def test_staircase_value_spot_checks():
    # alpha = 0: floor(x) - x
    assert zeta.staircase_value(zeta.StaircaseSpec(0.0), 2.5) == pytest.approx(-0.5)
    assert zeta.staircase_value(zeta.StaircaseSpec(0.0), 3.5) == pytest.approx(-0.5)
    # alpha = 1: 1 + 2 - 2.5^2/2
    assert zeta.staircase_value(zeta.StaircaseSpec(1.0), 2.5) == pytest.approx(-0.125)
    # log weight, alpha = 0: ln 2 - (2.5 ln 2.5 - 2.5)
    want = math.log(2.0) - (2.5 * math.log(2.5) - 2.5)
    got = zeta.staircase_value(zeta.StaircaseSpec(0.0, log_weight=True), 2.5)
    assert got == pytest.approx(want)
    # same at x = 2 exactly: ln 2 - (2 ln 2 - 2) = 2 - ln 2
    got2 = zeta.staircase_value(zeta.StaircaseSpec(0.0, log_weight=True), 2.0)
    assert got2 == pytest.approx(2.0 - math.log(2.0))


def test_staircase_splits_into_periodic_layers():
    # floor-sum minus power part must equal the exact layer decomposition
    import numpy as np

    for n in range(1, 5):
        layers = [exact.pm_polynomial(n, m) for m in range(n + 1)]
        spec = zeta.StaircaseSpec(float(n))
        for x in np.linspace(0.07, 20.0, 97):
            x = float(x)
            frac = x - math.floor(x)
            combined = math.fsum(
                float(layers[m](frac)) * x ** m for m in range(n + 1))
            assert zeta.staircase_value(spec, x) == pytest.approx(
                combined, abs=1e-9), (n, x)


def test_staircase_value_needs_positive_x():
    with pytest.raises(ValueError):
        zeta.staircase_value(zeta.StaircaseSpec(0.0), 0.0)


def test_a_summand_past_the_float_range_reads_inf():
    # every weight is >= 0; the log weight's product overflows on its own
    assert zeta.StaircaseSpec(400.0).summand(10) == math.inf
    assert zeta.StaircaseSpec(400.0, log_weight=True).summand(10) == math.inf
    assert zeta.StaircaseSpec(308.0, log_weight=True).summand(10) == math.inf
    assert zeta.StaircaseSpec(400.0).summand(1) == 1.0


@pytest.mark.parametrize("alpha,log_weight,x,want", [
    (308.0, True, 10.0, math.inf),  # the finite part is 7.4e306
    (1024.0, False, 2.0, math.inf),  # the finite part 2^1025 / 1025 fits a float
    (1023.0, False, 2.0, 8.97091007729144e307),  # 1 + 2^1023 - 2^1014
])
def test_a_staircase_past_the_float_range_reads_the_difference(alpha, log_weight, x, want):
    assert zeta.staircase_value(zeta.StaircaseSpec(alpha, log_weight), x) == want


@pytest.mark.parametrize("alpha,log_weight,x", [
    (400.0, False, 10.0), (400.0, True, 10.0),
    (100.0, False, 1200.0),  # each weight fits a float, their sum does not
])
def test_a_staircase_whose_sum_and_finite_part_both_overflow_is_refused(alpha, log_weight, x):
    with pytest.raises(ValueError, match=f"^staircase_value at x={x!r}, alpha={alpha!r}: "
                                         "the sum and the finite part both leave"):
        zeta.staircase_value(zeta.StaircaseSpec(alpha, log_weight), x)


class _CountedStaircase(zeta.StaircaseSpec):
    def summand(self, n):
        self.calls.append(n)
        return super().summand(n)


@pytest.mark.parametrize("x", [1e300, zeta.MAX_STAIRCASE_X + 1.0])
def test_staircase_value_refuses_unbounded_work_before_any_summand(x):
    # it sums every m <= x: 1e300 would never return
    spec = _CountedStaircase(2.0)
    object.__setattr__(spec, "calls", [])
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"^{re.escape(f'x={x!r}')} is above MAX_STAIRCASE_X"):
        zeta.staircase_value(spec, x)
    assert time.perf_counter() - start < 1.0
    assert spec.calls == []
    assert zeta.staircase_value(spec, 3.5) == 1 + 4 + 9 - 3.5 ** 3 / 3
    assert spec.calls == [1, 2, 3]


def test_pole_guard():
    with pytest.raises(ValueError):
        zeta.StaircaseSpec(-1.0)
    with pytest.raises(ValueError):
        zeta.StaircaseSpec(-1.0 + 1e-9)
    zeta.StaircaseSpec(-1.01)  # fine


def test_advance_matches_closed_form_for_constant_weight():
    # alpha = 0: f(x) = floor(x) - x on boundaries gives F_1(n) = -n/2
    spec = zeta.StaircaseSpec(0.0)
    st = zeta.new_primitive_state(spec, 2)
    for _ in range(12):
        st = zeta.advance_primitives(st, spec, 2)
    n = st.boundary
    assert n == 12
    assert st.values[0] == pytest.approx(0.0, abs=1e-12)
    assert st.values[1] == pytest.approx(-n / 2.0, abs=1e-9)


def test_advance_matches_quadrature_of_staircase():
    # no closed form for alpha = 1/2; integrate the staircase directly
    spec = zeta.StaircaseSpec(0.5)
    st = zeta.new_primitive_state(spec, 1)
    for _ in range(6):
        st = zeta.advance_primitives(st, spec, 1)
    direct = 0.0
    for m in range(6):
        piece, err = quad(lambda t: zeta.staircase_value(spec, t) if t > 0 else 0.0,
                          m, m + 1, limit=200)
        direct += piece
        assert err < 1e-6
    assert st.values[1] == pytest.approx(direct, abs=1e-7)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.5])
def test_advance_never_drifts_from_quadrature(alpha):
    # per-interval closed-form integration vs adaptive quadrature on [0, 50]
    spec = zeta.StaircaseSpec(alpha)
    st = zeta.new_primitive_state(spec, 1)
    running = 0.0
    for m in range(50):
        piece, err = quad(lambda t: zeta.staircase_value(spec, t) if t > 0 else 0.0,
                          m, m + 1, epsabs=1e-13, epsrel=1e-12, limit=200)
        assert err < 1e-11
        running += piece
        st = zeta.advance_primitives(st, spec, 1)
        assert st.values[1] == pytest.approx(running, abs=1e-10), (alpha, m + 1)


def test_advance_reproduces_linear_weight_hand_values():
    # alpha = 1: F_1(2) = -1/3 and F_2(n)/n^2 settles at -1/24
    spec = zeta.StaircaseSpec(1.0)
    st = zeta.new_primitive_state(spec, 1)
    for _ in range(2):
        st = zeta.advance_primitives(st, spec, 1)
    assert st.values[1] == pytest.approx(-1.0 / 3.0, abs=1e-12)

    st2 = zeta.new_primitive_state(spec, 2)
    for _ in range(50):
        st2 = zeta.advance_primitives(st2, spec, 2)
    assert st2.values[2] / 50.0 ** 2 == pytest.approx(-1.0 / 24.0, abs=1e-10)


def test_advance_state_shape_is_checked():
    spec = zeta.StaircaseSpec(0.0)
    st = zeta.new_primitive_state(spec, 1)
    with pytest.raises(ValueError):
        zeta.advance_primitives(st, spec, 3)


def test_default_order_rule():
    assert zeta.default_order(0.0) == 1
    assert zeta.default_order(1.0) == 2
    assert zeta.default_order(3.5) == 5
    assert zeta.default_order(-0.5) == 1
    assert zeta.default_order(-2.0) == 0


def test_zeta_estimates_match_exact_values():
    for n in range(6):
        ev = zeta.zeta_via_cesaro(float(n))
        want = float(exact.zeta_neg_int(n))
        assert ev.converged, n
        assert abs(ev.value - want) <= max(ev.error_estimate, 1e-9), n


def test_zeta_estimate_first_two_orders_are_exact_on_boundaries():
    # the integer-arithmetic path reads the limit off its exact polynomial,
    # with no error
    ev0 = zeta.zeta_via_cesaro(0.0)
    assert ev0.value == -0.5 and ev0.error_estimate == 0.0
    ev1 = zeta.zeta_via_cesaro(1.0)
    assert ev1.value == pytest.approx(-1.0 / 12.0, abs=1e-15)
    assert ev1.error_estimate == 0.0
    # an order far above alpha sums the weights d^k at order alpha
    for n in (0, 1):
        assert zeta.zeta_via_cesaro(float(n), 511).value == float(exact.zeta_neg_int(n)), n


def test_zeta_estimate_against_euler_maclaurin_oracle():
    # absolutely convergent side: alpha = -2 gives zeta(2)
    ev = zeta.zeta_via_cesaro(-2.0, k=0)
    assert abs(ev.value - euler_maclaurin_zeta(2.0)) < 1e-6


@pytest.mark.parametrize("alpha", [-1.5, -2.0, -3.0])
def test_zeta_ordinary_regime_tracks_the_oracle(alpha):
    ev = zeta.zeta_via_cesaro(alpha, k=0, X_max=1e4)
    assert ev.converged
    assert abs(ev.value - euler_maclaurin_zeta(-alpha)) < 1e-5, alpha


def test_zeta_error_shrinks_with_domain_size():
    # a longer run is never worse.  The exact path has no domain: every
    # X_max reads the same exact limit.  A fitted limit climbs past 256 only
    # while its gap shrinks, and at order 40 that climb pays
    for n in range(6):
        at_small = zeta.zeta_via_cesaro(float(n), X_max=256)
        assert at_small == zeta.zeta_via_cesaro(float(n), X_max=1e4), n
        assert at_small.value == float(exact.zeta_neg_int(n)), n
    want = euler_maclaurin_zeta_decimal(-0.5)
    at_small = abs(zeta.zeta_via_cesaro(0.5, k=40, X_max=256, tol=1e-9).value - want)
    at_large = abs(zeta.zeta_via_cesaro(0.5, k=40, X_max=1e4, tol=1e-9).value - want)
    assert at_large < at_small


def test_zeta_estimate_at_minus_half():
    ev = zeta.zeta_via_cesaro(-0.5, k=0, X_max=4e7, tol=5e-4)
    assert abs(ev.value - ZETA_HALF) < 1e-4
    assert abs(ev.value - euler_maclaurin_zeta(0.5)) < 1e-4
    assert ev.converged


def test_zeta_noninteger_alpha_uses_series_path():
    # zeta(-1/2) = -0.207886...; float path, looser tolerance
    ev = zeta.zeta_via_cesaro(0.5, k=1)
    assert abs(ev.value - euler_maclaurin_zeta(-0.5)) < 5e-3


def test_zeta_order_invariance_above_the_default():
    v2 = zeta.zeta_via_cesaro(1.0, k=2).value
    v3 = zeta.zeta_via_cesaro(1.0, k=3).value
    assert v2 == pytest.approx(v3, abs=1e-3)


def test_zeta_k_zero_warning_case_is_an_artifact():
    # boundary samples of the alpha = 0 staircase are exactly 0: the
    # documented reason k = 0 is not the default there
    ev = zeta.zeta_via_cesaro(0.0, k=0)
    assert ev.value == pytest.approx(0.0, abs=1e-12)


def test_zeta_prime_at_zero():
    ev = zeta.zeta_prime_via_cesaro(0.0)
    assert ev.order == 1
    assert abs(ev.value - ZETA_PRIME_0) < 1e-2
    assert abs(ev.value - (-0.5 * math.log(2.0 * math.pi))) < 1e-2


def test_zeta_prime_convergent_side_against_oracle():
    ev = zeta.zeta_prime_via_cesaro(-2.0, k=0)
    assert abs(ev.value - zeta_prime_by_summation(2.0)) < 1e-4
    assert abs(ev.value - ZETA_PRIME_2) < 1e-4
    ev3 = zeta.zeta_prime_via_cesaro(-3.0, k=0)
    assert abs(ev3.value - ZETA_PRIME_3) < 1e-5


@pytest.mark.parametrize("alpha,k", [(-2.0, 1), (-3.0, 1), (-3.0, 2),
                                     (-4.0, 1), (-4.0, 2), (-4.0, 3)])
def test_pole_orders_keep_the_finite_part_convention(alpha, k):
    # alpha + i = -1 for one i <= k: that finite part is ln n, (ln n)^2 / 2
    X = 1e4
    bound = 10 * math.log(X) / X
    ev = zeta.zeta_via_cesaro(alpha, k=k, X_max=X)
    assert abs(ev.value - euler_maclaurin_zeta(-alpha)) < bound
    prime = zeta.zeta_prime_via_cesaro(alpha, k=k, X_max=X).value
    assert abs(prime - zeta_prime_by_summation(-alpha)) < bound
    frozen = {-2.0: ZETA_PRIME_2, -3.0: ZETA_PRIME_3}.get(alpha)
    assert frozen is None or abs(prime - frozen) < bound


def test_the_frozen_zeta_prime_values_obey_the_functional_equation():
    assert abs(ZETA_PRIME_NEG_2 + euler_maclaurin_zeta(3.0) / (4 * math.pi ** 2)) < 1e-15


def test_zeta_prime_at_minus_two_converges_at_1e5():
    # exact weights (n-m)^k; weights ((n-m)/n)^k rounded in float miss by 1.4e-3
    ev = zeta.zeta_prime_via_cesaro(2.0, X_max=1e5)
    assert ev.converged
    assert abs(ev.value - ZETA_PRIME_NEG_2) < 1e-4


def test_zeta_prime_at_minus_three_at_1e4():
    ev = zeta.zeta_prime_via_cesaro(3.0, X_max=1e4)
    assert abs(ev.value - ZETA_PRIME_NEG_3) < 1e-3


@pytest.mark.parametrize("alpha,k", [(0.5, 40), (0.5, 60), (0.5, 100), (-0.5, 120),
                                     (-0.5, 150)])
def test_high_order_samples_keep_their_digits(alpha, k):
    # at n = 1e5 the order-k sample is zeta(-alpha) - k zeta(-alpha-1) / n
    # up to C(k, 2) |zeta(-alpha-2)| / n^2 < 3e-8: every level of the prefix
    # sums stays in the float range, and I_k keeps digits past its 2^k cancellation
    n = 100_000
    (sample,) = zeta._riesz_samples(zeta.StaircaseSpec(alpha), k, [n])
    ev = zeta.zeta_via_cesaro(alpha, k=k, X_max=n)
    want = euler_maclaurin_zeta(-alpha)
    assert math.isfinite(ev.value) and ev.converged
    assert abs(sample - (want - k * euler_maclaurin_zeta(-alpha - 1) / n)) < 1e-7
    assert abs(ev.value - want) < (1e-4 if alpha > 0 else 4e-4)


@pytest.mark.parametrize("call", [zeta.zeta_via_cesaro, zeta.zeta_prime_via_cesaro])
def test_weights_past_the_float_range_read_as_not_converged(call):
    # m^200.5 overflows from m = 35: no RuntimeWarning, no exception
    ev = call(200.5, X_max=1e4)
    assert not ev.converged and not math.isfinite(ev.value)


def test_a_sample_that_reads_a_weight_past_the_float_range_is_nan():
    # 48^200.5 is past the float range, yet the samples' values (weights
    # m^alpha taken exactly) are finite and of either sign: about -1.2e240 at
    # k = 100, +2.5e265 at k = 60; at alpha = 130.25, k = 132 > alpha, the
    # top rung's is +6.2e115
    spec = zeta.StaircaseSpec(200.5)
    for k in (100, 60):
        assert all(map(math.isnan, zeta._riesz_samples(spec, k, [48]))), k
    ev = zeta.zeta_via_cesaro(130.25)
    assert math.isnan(ev.value) and math.isnan(ev.trace[-1])
    assert ev.error_estimate == math.inf and not ev.converged


@pytest.mark.parametrize("alpha", [3e5 + 0.5, 5e5 + 0.5, 1e6 + 0.5])
@pytest.mark.parametrize("call", [zeta.zeta_via_cesaro, zeta.zeta_prime_via_cesaro])
def test_a_subtrahend_past_the_decimal_range_reads_as_nan(call, alpha):
    # n^(alpha+1) on the rungs leaves the float range from 3e5 and Decimal's
    # from 5e5; either way every sample reads nan, as a record, not a raise
    ev = call(alpha, k=2)
    assert math.isnan(ev.value) and all(map(math.isnan, ev.trace))
    assert ev.error_estimate == math.inf and not ev.converged
    assert (ev.order, ev.n_terms) == (2, 256)


def test_rung_bases_past_the_decimal_range_leave_boundary_one_finite():
    # at alpha = 3e6 + 0.5, 3^(alpha+1) is past Decimal's range, so every
    # boundary takes exp((alpha+1) ln n): I_2(1) is A = B(alpha+1, 3), while
    # from n = 2 on n^(alpha+1) is past the float range or Decimal's
    a = 3e6 + 0.5
    spec = zeta.StaircaseSpec(a)
    total, *rest = zeta._subtrahends(spec, 2, [1, 2, 16, 256])
    assert float(total) == pytest.approx(2 / ((a + 1) * (a + 2) * (a + 3)), rel=1e-15)
    for n, t in zip((2, 16, 256), rest):
        assert t is None or not math.isfinite(float(t)), n


@pytest.mark.parametrize("alpha", [-2.2e6, -3e6, -1e300])
def test_rung_bases_that_underflow_take_the_decimal_ln_route(alpha):
    # 3^(alpha+1) underflows to a Decimal 0 from alpha ~ -2.1e6, where
    # 3^0 would read 0^0: every boundary takes exp((alpha+1) ln n) instead.
    # The limit is 1 + 2^alpha + ... = 1 (-1e6 reads 1 + eps from the fit),
    # and -zeta'(-alpha) = 2^alpha ln 2 + ... = 0
    ev = zeta.zeta_via_cesaro(alpha)
    assert abs(ev.value - 1) <= 1e-15 and ev.converged
    ev = zeta.zeta_prime_via_cesaro(alpha)
    assert ev.value == 0 and ev.converged


@pytest.mark.parametrize("k", [0, 1, 3, 5])
@pytest.mark.parametrize("alpha", [-1.5, 0.5, -135.0, 130.5])
def test_riesz_samples_are_the_exact_sums_rounded_once(alpha, k):
    # each sample is (sum_{m<=n} w(m) (n-m)^k - n^k I_k(n)) / n^k, summed
    # directly in exact arithmetic from the float weights and I_k's
    # Decimal, then rounded once: no iterated prefix sum, no identity.
    # At alpha = -135 the weights run normal, then subnormal, then 0 (plain
    # ones become integers by their largest denominator, log ones by one
    # power of two); at 130.5 (n <= 200, every weight finite) the plain ones
    # span past 2^970 and take the largest denominator; the log weight's
    # w(1) = 0 is in every case
    ns = list(range(1, 201 if alpha > 100 else 301))
    for log_weight in (False, True):
        spec = zeta.StaircaseSpec(alpha, log_weight)
        w = [Fraction(float(m) ** alpha * (math.log(m) if log_weight else 1.0)) for m in ns]
        den = max(f.denominator for f in w)
        num = [f.numerator * (den // f.denominator) for f in w]
        for n, got, total in zip(ns, zeta._riesz_samples(spec, k, ns),
                                 zeta._subtrahends(spec, k, ns)):
            riesz = Fraction(sum(num[m - 1] * (n - m) ** k for m in range(1, n + 1)), den)
            want = (riesz - n ** k * Fraction(total)) / n ** k
            assert repr(got) == repr(float(want)), (log_weight, n)


def test_a_sample_is_rounded_once_from_the_rounded_subtrahend():
    # at alpha = 0.5, I_0(36) = 36^1.5 / 1.5 is exactly 144, and the Riesz
    # sum less 144 is a tie between two doubles, read half-even; I_k(n) kept
    # at its guard digits would read 2.799058152498256
    assert zeta._riesz_samples(zeta.StaircaseSpec(0.5), 0, [36]) == [2.7990581524982563]
    # the correctly rounded samples, against I_k taken at 120 and 300 digits;
    # I_k(n) kept to 106 bits reads ...627 and ...3e0
    for alpha, k, want in ((4.95, 6, '0x1.733a03d03b625p-17'), (5.9, 7, '0x1.a130deed573dfp-8')):
        (got,) = zeta._riesz_samples(zeta.StaircaseSpec(alpha, log_weight=True), k, [384])
        assert got.hex() == want, alpha


@pytest.mark.parametrize("alpha", [-1100.5, -3e5])
def test_a_subtrahend_far_below_the_float_range_stays_a_small_ratio(alpha):
    # I_2(256) is about 10^-2645 and 10^-722470: rounded at Emin -400 it
    # keeps fewer digits, so taking it off builds no 10^722470 denominator
    # (40 ms a boundary), and the samples are those of the weights 1, 0, 0, ...
    spec = zeta.StaircaseSpec(alpha)
    rungs = zeta._ladder(256)
    for total in zeta._subtrahends(spec, 2, rungs):
        assert total.as_integer_ratio()[1] <= 10 ** 440
    want = [float(Fraction(n - 1, n) ** 2) for n in rungs]
    assert zeta._riesz_samples(spec, 2, rungs) == want


@pytest.mark.parametrize("alpha,log_weight,n_max,fallback", [
    (0.5, False, 256, False), (-2.0, True, 256, False), (-120.5, False, 256, False),
    (-135.0, True, 300, False), (-150.5, True, 4096, False), (130.5, True, 200, False),
    (-135.0, False, 300, True), (-150.5, False, 256, True), (130.5, False, 200, True)])
def test_integer_weights_are_the_weights_times_one_power_of_two(alpha, log_weight,
                                                                n_max, fallback):
    # one power of two, 2^(53 - e) with e the exponent of the least non-zero
    # weight (at least 2^0: the log weight's at 130.5 are integers), makes
    # every weight an integer, subnormal and 0 weights too; where that
    # overflows, for plain weights from 1 down to a subnormal or up to
    # 2^997, the scale is the largest denominator instead
    weights = zeta._weights(zeta.StaircaseSpec(alpha, log_weight), n_max)
    integers, den = zeta._integer_weights(weights)
    assert [Fraction(i, den) for i in integers] == list(map(Fraction, weights))
    if fallback:
        assert den == max(Fraction(w).denominator for w in weights)
    else:
        assert den == 2 ** max(0, 53 - math.frexp(min(w for w in weights if w))[1])


def test_zeta_prime_trace_negation_is_consistent():
    # the trace holds the raw samples, negated like the value
    ev = zeta.zeta_prime_via_cesaro(0.0)
    spec = zeta.StaircaseSpec(0.0, log_weight=True)
    assert ev.trace[-1] == -zeta._riesz_samples(spec, 1, [ev.n_terms])[0]


def test_lemma_witness_mean_zero_layers_vanish():
    for n, m in ((1, 1), (3, 2), (5, 4), (2, 1)):
        p = exact.pm_polynomial(n, m)
        ev = zeta.lemma_witness(p, k=1, X_max=1e4)
        assert abs(ev.value) < 1e-12, (n, m)
        assert ev.converged


def test_lemma_witness_higher_order_also_vanishes():
    p = exact.pm_polynomial(3, 2)
    ev = zeta.lemma_witness(p, k=2, X_max=1e4)
    assert abs(ev.value) < 1e-12


def test_lemma_witness_nonzero_mean_is_the_control():
    one = exact.PeriodicPolynomial((Fraction(1),))
    ev = zeta.lemma_witness(one, k=1, X_max=1e4)
    assert ev.value == pytest.approx(1.0, abs=1e-12)
    # {x}: mean 1/2
    saw = exact.PeriodicPolynomial((Fraction(0), Fraction(1)))
    ev = zeta.lemma_witness(saw, k=1, X_max=1e4)
    assert ev.value == pytest.approx(0.5, abs=1e-6)


def test_lemma_witness_rejects_order_zero():
    # an order-0 limit of p({x}) exists only for a constant p: P_0 for n = 3
    # has mean 1/120, and sampling p(0) would call its limit 0
    with pytest.raises(ValueError, match="order k >= 1, got k=0"):
        zeta.lemma_witness(exact.pm_polynomial(3, 0), k=0)


def test_estimator_rejects_tiny_domains():
    with pytest.raises(ValueError):
        zeta.zeta_via_cesaro(0.0, X_max=32)
    with pytest.raises(ValueError, match="^X_max must be at least 256, got 255$"):
        zeta.zeta_via_cesaro(0.5, X_max=255)
    with pytest.raises(ValueError):
        zeta.zeta_via_cesaro(0.0, k=-1)


@pytest.mark.parametrize("call", [
    lambda: zeta.zeta_via_cesaro(1e6),  # default order 1000001
    lambda: zeta.zeta_via_cesaro(1e6, k=1),  # exact degree 1000001
    lambda: zeta.zeta_via_cesaro(400.0),  # exact degree 801
    lambda: zeta.zeta_via_cesaro(500.0, k=13),  # exact degree 513
    lambda: zeta.zeta_via_cesaro(0.5, k=3000),
    lambda: zeta.zeta_via_cesaro(0.5, k=513),
    lambda: zeta.zeta_prime_via_cesaro(0.5, k=513),
    lambda: zeta.lemma_witness(exact.pm_polynomial(3, 1), k=1000),
    lambda: zeta.lemma_witness(exact.pm_polynomial(3, 1), k=513),
    lambda: zeta.new_primitive_state(_HALF, 100000),
    lambda: zeta.advance_primitives(zeta.new_primitive_state(_HALF, 2), _HALF, 100000),
    lambda: zeta.zeta_via_cesaro(0.5, k=513, X_max=10.0),
    lambda: zeta.zeta_via_cesaro(0.5, k=513, X_max=math.nan, tol=-1.0),
    lambda: zeta.lemma_witness(exact.pm_polynomial(3, 1), k=513, X_max=math.inf),
], ids=["default-order", "exact-degree-1e6", "exact-degree-801", "exact-degree-513",
        "order-3000", "order-513", "prime-order-513", "lemma-1000", "lemma-513",
        "new-state-100000", "advance-100000", "order-513-small-xmax",
        "order-513-nan-xmax-bad-tol", "lemma-513-inf-xmax"])
def test_orders_and_degrees_past_the_bound_fail_fast(call):
    # each of these would sum for seconds to hours, or need terabytes; the
    # order is refused before X_max and tol are read
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^(order k=|degree alpha \+ k = )\d+ is above 512, "
                                         r".*`cesaro zeta -n` or zeta_neg_int\(n\)$"):
        call()
    assert time.perf_counter() - start < 0.1


def test_exact_and_float_advances_agree():
    # same alpha through the integer path and the generic series path: the
    # exact limit zeta(-2) = 0 against the float fit at X = 2e3
    exact_ev = zeta.zeta_via_cesaro(2.0, k=3)
    float_ev = zeta.zeta_via_cesaro(2.0 + 1e-13, k=3, X_max=2e3)
    assert exact_ev.value == 0.0 and exact_ev.converged
    assert float_ev.value == pytest.approx(exact_ev.value, abs=1e-9)


def _exact_values_by_loop(alpha: int, k: int, n_max: int) -> list[Fraction]:
    """k! F_k(m) for m = 1..n_max, the exact-integer staircase stepped one
    unit interval at a time: the O(X) reference for the closed form."""
    beta = alpha + 1
    taylor_mul = [[math.comb(beta + j, i) for i in range(j)] for j in range(k + 1)]
    s_mul = [math.factorial(beta + j) // math.factorial(j) for j in range(k + 1)]
    rint = [[math.comb(beta, i) * math.factorial(i) * math.factorial(beta + j)
             // (math.factorial(i + j) * beta) for i in range(beta + 1)]
            for j in range(k + 1)]
    kfact = math.factorial(k)
    w = [0] * (k + 1)
    s_n = 0
    values = []
    for n in range(n_max):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            acc = 0
            for c in rint[j]:
                acc = acc * n + c
            total = s_n * s_mul[j] - acc
            for i in range(j):
                total += w[j - i] * taylor_mul[j][i]
            new[j] = total
        w = new
        s_n += (n + 1) ** alpha
        values.append(Fraction(w[k] * kfact, math.factorial(beta + k)))
    return values


def _limit_by_interpolation(alpha: int, k: int) -> float:
    """lim k! F_k(n) / n^k from the polynomial of degree alpha + k through
    the loop's values at m = 1..alpha+k+1, its coefficients solved from the
    Vandermonde system by Gaussian elimination in Fractions."""
    size = alpha + k + 1
    rows = [[Fraction(m) ** j for j in range(size)] + [v]
            for m, v in zip(range(1, size + 1), _exact_values_by_loop(alpha, k, size))]
    for col in range(size):
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(size):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    coeffs = [row[-1] for row in rows]
    above = [c for c in coeffs[k + 1:] if c]
    if above:
        return math.inf if above[-1] > 0 else -math.inf
    return float(coeffs[k])


@pytest.mark.parametrize("alpha", range(10))
def test_exact_path_matches_the_unit_step_loop(alpha):
    for k in range(1, alpha + 4):
        ev = zeta.zeta_via_cesaro(float(alpha), k=k)
        assert ev.value == _limit_by_interpolation(alpha, k), k
        assert ev.converged == (k > alpha), k


_LEMMA_CASES = [(f"P_{m} n={n}", exact.pm_polynomial(n, m))
                for n in range(1, 6) for m in range(n + 1)] + [
    ("1", exact.PeriodicPolynomial((Fraction(1),))),
    ("{x}", exact.PeriodicPolynomial((Fraction(0), Fraction(1)))),
]


@pytest.mark.parametrize("label,p", _LEMMA_CASES, ids=[c[0] for c in _LEMMA_CASES])
def test_lemma_witness_matches_the_unit_step_loop(label, p):
    # the limit at every order is the mean of p, int_0^1 p = sum c_i / (i+1)
    mean = float(sum(Fraction(c) / (i + 1) for i, c in enumerate(p.coeffs)))
    assert mean == float(exact.periodic_mean(p))
    for k in (1, 2, 3, 7, 512):
        ev = zeta.lemma_witness(p, k=k)
        assert ev.value == mean and ev.trace == (mean,), k
        assert ev.converged and ev.error_estimate == 0.0 and ev.n_terms == k + 1, k


def test_exact_path_improves_at_huge_domains_in_bounded_time():
    # cost no longer grows with X: the O(X) loop would take hours at 1e12
    start = time.perf_counter()
    for alpha in range(1, 7):
        want = float(exact.zeta_neg_int(alpha))
        at_small = abs(zeta.zeta_via_cesaro(float(alpha), X_max=1e4).value - want)
        at_huge = abs(zeta.zeta_via_cesaro(float(alpha), X_max=1e12).value - want)
        assert at_huge <= at_small, alpha
        assert at_huge <= 1e-12, alpha
    assert time.perf_counter() - start < 1.0


_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("call,name", [
    (lambda: zeta.zeta_via_cesaro(_NAN), "alpha"),
    (lambda: zeta.zeta_via_cesaro(-_INF, k=0), "alpha"),
    (lambda: zeta.zeta_via_cesaro(2.0, X_max=_INF), "X_max"),
    (lambda: zeta.zeta_via_cesaro(2.0, X_max=_NAN), "X_max"),
    (lambda: zeta.zeta_via_cesaro(2.0, k=_NAN), "k"),
    (lambda: zeta.zeta_prime_via_cesaro(0.5, X_max=_NAN), "X_max"),
    (lambda: zeta.lemma_witness(exact.pm_polynomial(2, 1), X_max=_INF), "X_max"),
    (lambda: zeta.lemma_witness(exact.pm_polynomial(2, 1), X_max=_NAN), "X_max"),
    (lambda: zeta.StaircaseSpec(_NAN), "alpha"),
    (lambda: zeta.staircase_value(zeta.StaircaseSpec(0.0), _INF), "x"),
])
def test_non_finite_inputs_fail_fast(call, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        call()


def test_exact_paths_answer_beyond_the_int64_range():
    # the exact polynomial paths read their limit off the polynomial, so any
    # float X_max works; n_terms counts the polynomial values summed
    start = time.perf_counter()
    ev = zeta.zeta_via_cesaro(2.0, X_max=1e300)
    witness = zeta.lemma_witness(exact.pm_polynomial(3, 1), X_max=1e300)
    assert time.perf_counter() - start < 1.0
    assert ev.converged and ev.value == 0.0  # zeta(-2) = 0
    assert witness.converged and witness.value == 0.0
    assert ev.n_terms == 2 + 3 + 1 and witness.n_terms == 1 + 1


def test_the_theorem_through_the_cesaro_route_at_high_n():
    # zeta(-n) = -B_{n+1}/(n+1) at default order, the exact limit rounded
    # once, and at orders n + 2 and n + 5 for n <= 40; n = 199 reads its
    # polynomial of degree 399
    bern = bernoulli_table_akiyama_tanigawa(200)
    start = time.perf_counter()
    for n in [*range(61), 199]:
        want = -0.5 if n == 0 else float(-bern[n + 1] / (n + 1))
        for k in (None, n + 2, n + 5) if n <= 40 else (None,):
            ev = zeta.zeta_via_cesaro(float(n), k, X_max=1e300)
            assert ev.value == want, (n, k, ev.value, want)
            assert ev.converged and ev.error_estimate == 0.0, (n, k)
    assert time.perf_counter() - start < 1.0


def test_divergence_beyond_the_float_range_is_a_result():
    # below order alpha + 1 the mean grows like X^(alpha + 1 - k)
    ev = zeta.zeta_via_cesaro(3.0, k=1, X_max=1e300)
    assert ev.value == -math.inf
    assert ev.converged is False


def test_divergence_at_degree_512_reads_its_sign_fast():
    # far below order alpha + 1 the highest non-zero forward difference of P
    # (degree alpha + 1, up to 512) gives the sign; converting P to every
    # monomial coefficient took about 3.8 s for these two
    start = time.perf_counter()
    for alpha, k in [(511, 1), (450, 62)]:
        ev = zeta.zeta_via_cesaro(float(alpha), k=k)
        assert ev.value == -math.inf, (alpha, k)
        assert ev.converged is False and ev.error_estimate == math.inf, (alpha, k)
    assert time.perf_counter() - start < 1.0


_ALT_SIGN = series.SeriesSpec(lambda n: (-1.0) ** n)
_HALF = zeta.StaircaseSpec(0.5)


@pytest.mark.parametrize("call", [
    lambda k: zeta.zeta_via_cesaro(2.0, k=k),
    lambda k: zeta.lemma_witness(exact.pm_polynomial(2, 1), k=k),
    lambda k: zeta.new_primitive_state(_HALF, k),
    lambda k: zeta.advance_primitives(zeta.new_primitive_state(_HALF, 2), _HALF, k),
    lambda k: series.cesaro_sum(_ALT_SIGN, k, 64),
    lambda k: series.iterated_partial_sums(_ALT_SIGN, k, 16),
    lambda k: series.detect_order(_ALT_SIGN, k, 64),
    lambda k: integral.primitive_limit(integral.sin_wave(1.0), k),
], ids=["zeta", "lemma", "new_primitive_state", "advance_primitives", "cesaro_sum",
        "iterated_partial_sums", "detect_order", "primitive_limit"])
def test_both_drivers_check_the_order_alike(call):
    # every integer-order driver goes through evaluation.require_order
    assert call(2.0) == call(2)
    with pytest.raises(ValueError, match="order k must be"):
        call(1.5)
    with pytest.raises(ValueError, match="order k must be"):
        call(-1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="^k must be finite"):
            call(bad)


# each count argument, by its name: a call that reads it, and that call's
# outcome at 3 (num's 8-point floor is checked after the count)
_COUNTS = {
    "k": (evaluation.require_order, "3"),
    "n_terms": (lambda n: _ALT_SIGN.terms(n).tolist(), "[1.0, -1.0, 1.0]"),
    "p": (lambda p: integral.power_log(0.5, p).label, "'t^0.5*ln^3(t)'"),
    "num": (lambda num: integral.default_grid(num=num), "grid needs at least 8 points"),
}


def _outcome(call, value) -> str:
    try:
        return repr(call(value))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("name", list(_COUNTS))
def test_every_count_argument_follows_one_rule(name):
    # a non-negative integer, with 3.0 counting as 3, refused by name
    # otherwise: evaluation.require_count
    call, three = _COUNTS[name]
    for bad in (-1, 2.5, math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"(^|order ){name} must be "
                                             rf"(finite|a non-negative integer), got {bad!r}$"):
            call(bad)
    assert _outcome(call, 3.0) == _outcome(call, 3) == three


def _never_sampled(*_):
    raise AssertionError("sampled before tol was checked")


@pytest.mark.parametrize("call", [
    lambda tol: zeta.zeta_via_cesaro(2.0, tol=tol),
    lambda tol: zeta.zeta_via_cesaro(2.5, tol=tol),
    lambda tol: zeta.zeta_prime_via_cesaro(0.5, tol=tol),
    lambda tol: zeta.lemma_witness(exact.pm_polynomial(2, 1), tol=tol),
    lambda tol: series.cesaro_sum(series.SeriesSpec(_never_sampled), 1, 64, tol=tol),
    lambda tol: series.detect_order(series.SeriesSpec(_never_sampled), 2, 64, tol=tol),
    lambda tol: integral.cesaro_integral(integral.sampled(_never_sampled), 1, tol=tol),
    lambda tol: integral.primitive_limit(integral.sampled(_never_sampled), 2, tol=tol),
], ids=["zeta_exact", "zeta_float", "zeta_prime", "lemma", "cesaro_sum", "detect_order",
        "cesaro_integral", "primitive_limit"])
def test_every_evaluator_checks_tol_before_sampling(call):
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="^tol must be finite"):
            call(bad)
    with pytest.raises(ValueError, match="^tol must be >= 0"):
        call(-1e-3)


@pytest.mark.parametrize("call", [
    lambda: zeta.zeta_via_cesaro(2.0, tol=0.0),
    lambda: zeta.lemma_witness(exact.PeriodicPolynomial((1,)), tol=0),
    lambda: series.cesaro_sum(_ALT_SIGN, 1, 64, tol=0.0),
    lambda: integral.cesaro_integral(  # a chain of zeros: an exact tail
        integral.IntegrandSpec(lambda t: 0.0, (lambda t: 0.0,) * integral.MAX_CHAIN), 1,
        tol=0.0),
], ids=["zeta", "lemma", "cesaro_sum", "cesaro_integral"])
def test_a_zero_tol_asks_for_an_exact_tail(call):
    ev = call()
    assert ev.converged == (ev.error_estimate == 0.0)


@pytest.mark.parametrize("call,X", [
    (lambda X: zeta.zeta_via_cesaro(2.5, X_max=X), 1e300),
    (lambda X: zeta.zeta_via_cesaro(-2.0, k=0, X_max=X), 1e300),
    (lambda X: zeta.zeta_prime_via_cesaro(2.0, X_max=X), 1e10),
], ids=["float", "ordinary", "float_log"])
def test_stepped_paths_read_unreachable_domains_as_a_cap(call, X):
    # the ladder never climbs past 4096, so a huge X_max costs nothing
    start = time.perf_counter()
    ev = call(X)
    assert time.perf_counter() - start < 0.5
    assert ev == call(1e4)


@pytest.mark.parametrize("call,name", [
    (lambda: zeta.zeta_via_cesaro(2.0, X_max=10**400), "X_max"),
    (lambda: zeta.zeta_via_cesaro(2.5, X_max=10**400), "X_max"),
    (lambda: zeta.lemma_witness(exact.pm_polynomial(3, 1), X_max=10**400), "X_max"),
    (lambda: zeta.zeta_via_cesaro(10**400), "alpha"),
    (lambda: zeta.zeta_prime_via_cesaro(10**400), "alpha"),
    (lambda: zeta.staircase_value(zeta.StaircaseSpec(0.0), 10**400), "x"),
], ids=["exact", "float", "lemma", "alpha", "alpha-prime", "staircase-x"])
def test_ints_beyond_float_range_are_rejected_by_name(call, name):
    with pytest.raises(ValueError, match=f"^{name} is too large for a float"):
        call()


@pytest.mark.parametrize("call", [
    lambda: zeta.zeta_via_cesaro(-0.5, k=0, X_max=4e6),
    lambda: zeta.zeta_via_cesaro(0.5, X_max=1e6),
], ids=["ordinary", "float"])
def test_summed_paths_run_in_bounded_memory(call):
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


def test_summed_paths_meet_their_time_budget():
    start = time.perf_counter()
    zeta.zeta_via_cesaro(3.5, X_max=1e5)
    zeta.zeta_prime_via_cesaro(0.5, X_max=1e5)
    zeta.zeta_via_cesaro(0.5, X_max=1e6)
    assert time.perf_counter() - start < 1.5


# -- the extrapolated limit ---------------------------------------------------

def test_the_decimal_oracle_agrees_with_the_other_routes():
    bern = bernoulli_table_akiyama_tanigawa(40)
    assert _EVEN_BERNOULLI == [bern[2 * j] for j in range(1, 21)]
    for n in range(9):  # zeta(-n) = -B_{n+1} / (n+1), zeta(0) = -1/2
        want = -0.5 if n == 0 else float(-bern[n + 1] / (n + 1))
        assert abs(euler_maclaurin_zeta_decimal(-n) - want) <= 1e-16 * max(1, abs(want)), n
    frozen = [(0.5, False, ZETA_HALF), (0.0, True, ZETA_PRIME_0), (2.0, True, ZETA_PRIME_2),
              (3.0, True, ZETA_PRIME_3), (-2.0, True, ZETA_PRIME_NEG_2),
              (-3.0, True, ZETA_PRIME_NEG_3)]
    for s, prime, want in frozen:
        assert euler_maclaurin_zeta_decimal(s, prime) == pytest.approx(want, rel=1e-15, abs=0)
    for s in (-0.5, 0.5, 2.5, 4.0):
        assert euler_maclaurin_zeta_decimal(s) == pytest.approx(euler_maclaurin_zeta(s), rel=1e-13)


@pytest.mark.parametrize("log_weight", [False, True])
@pytest.mark.parametrize("alpha,k", [(-2.5, 0), (-2.0, 1), (0.0, 1), (0.5, 2), (3.4265, 5),
                                     (6.5, 8), (0.5, 40)])
def test_ladder_logs_match_the_decimal_ln_route(monkeypatch, alpha, k, log_weight):
    # ln n = a ln 2 + b ln 3 and n^(alpha+1) = (2^(alpha+1))^a (3^(alpha+1))^b
    # from cached constants, on every rung 2^a 3^b, against Decimal's ln and
    # exp at each n
    spec = zeta.StaircaseSpec(alpha, log_weight)
    rungs = zeta._ladder(10**6)
    got = zeta._subtrahends(spec, k, rungs)
    monkeypatch.setattr(zeta, "_two_three", lambda n: None)
    for n, total, want in zip(rungs, got, zeta._subtrahends(spec, k, rungs)):
        assert abs(total - want) <= Decimal("1e-38") * abs(want), n


@pytest.mark.parametrize("alpha,k", [(-2.5, 0), (0.588, 2), (3.4265, 5), (6.5, 8),
                                     (0.5, 40), (-0.5, 150), (200.5, 3)])
def test_rung_powers_keep_every_digit_of_the_subtrahend(alpha, k):
    # I_k(n) = A n^(alpha+1), with n^(alpha+1) from the two cached powers of
    # 2 and 3 and every product at 5 guard digits, is the one rounding to
    # 40 + k log10(2) digits of A (at those guard digits) times n^(alpha+1)
    # taken at 30 more, on every rung to 4096
    spec = zeta.StaircaseSpec(alpha)
    prec = 40 + math.ceil(k * math.log10(2))
    with localcontext() as ctx:
        ctx.prec = prec + 5
        a, _, _ = zeta._subtrahend_coefficients(spec, k)
    rungs = zeta._ladder(4096)
    for n, got in zip(rungs, zeta._subtrahends(spec, k, rungs)):
        with localcontext() as ctx:
            ctx.prec = prec + 30
            power = ((Decimal(alpha) + 1) * Decimal(n).ln()).exp()
            ctx.prec = prec
            assert got == a * power, n


_SWEEP_ALPHAS = [a / 2 for a in range(-5, 14) if a != -2]


@pytest.mark.parametrize("alpha", _SWEEP_ALPHAS)
def test_no_estimate_claims_convergence_beyond_its_tol(alpha):
    # the order, X_max and tol sweep of every path: a converged record is
    # within tol of the decimal oracle
    for prime, call in ((False, zeta.zeta_via_cesaro), (True, zeta.zeta_prime_via_cesaro)):
        want = euler_maclaurin_zeta_decimal(-alpha, prime)
        for k in (zeta.default_order(alpha), zeta.default_order(alpha) + 1):
            for X in (1e3, 1e4, 1e5):
                for tol in (1e-3, 1e-6, 1e-9):
                    ev = call(alpha, k=k, X_max=X, tol=tol)
                    assert not ev.converged or abs(ev.value - want) <= tol, (
                        prime, k, X, tol, ev.value, want, ev.error_estimate)


# the float-fit column of the roadmap's table: a fit of the float samples at
# six boundaries 64..362, the bar that a fitted staircase limit is held to
_FIT_TABLE = [(0.5, False, 5.1e-14), (1.5, False, 2.3e-11), (2.5, False, 1.0e-9),
              (3.5, False, 4.1e-8), (4.5, False, 5.9e-6), (0.0, True, 1.6e-14),
              (0.5, True, 2.0e-9), (2.0, True, 1.1e-10), (3.0, True, 1.6e-8)]


@pytest.mark.parametrize("alpha,prime,fit_error", _FIT_TABLE)
def test_the_fit_meets_the_roadmap_table(alpha, prime, fit_error):
    call = zeta.zeta_prime_via_cesaro if prime else zeta.zeta_via_cesaro
    want = euler_maclaurin_zeta_decimal(-alpha, prime)
    errors = []
    for X in (1e4, 1e5):
        call(alpha, X_max=X)  # warm
        start = time.perf_counter()
        ev = call(alpha, X_max=X)
        assert time.perf_counter() - start < 0.02, X
        assert ev.converged and ev.n_terms <= X
        errors.append(abs(ev.value - want))
        assert errors[-1] <= 10 * fit_error, (X, errors[-1])
    assert errors[1] <= errors[0]


@pytest.mark.parametrize("alpha,k,prime", [(2.5, 1, False), (0.5, 0, False), (1.5, 1, True),
                                           (1.001, 1, False), (0.0005, 0, False),
                                           (3.001, 3, False), (2.5, 2, False),
                                           (1.001, 1, True), (0.0, 0, False),
                                           (1.0, 1, False), (2.0, 2, False),
                                           (3.0, 2, False), (5.0, 5, False)])
def test_orders_at_or_below_alpha_never_converge(alpha, k, prime):
    # the order-k mean exists only for k > alpha.  Only decaying terms are
    # fitted, and the boundary samples can still settle: at 1.001 (k = 1) on
    # twice zeta(-1), at 2.5 (k = 2) on zeta(-2.5) itself, at 0 (k = 0) on 0.
    # The exact polynomial has a finite n^k coefficient there too: -1/6 at
    # alpha = 1 (k = 1), -1/60 at alpha = 3 (k = 2), where zeta(-3) = 1/120
    call = zeta.zeta_prime_via_cesaro if prime else zeta.zeta_via_cesaro
    for X in (1e3, 1e4, 1e5):
        for tol in (1e-3, 1e-1):
            assert not call(alpha, k=k, X_max=X, tol=tol).converged, (X, tol)


def test_exact_records_without_a_limit_carry_no_error_bound():
    # at k <= alpha the polynomial's n^k coefficient is no limit: -inf at
    # alpha = 3 (k = 1), and -1/6, twice zeta(-1), at alpha = 1 (k = 1)
    for alpha, value in ((3.0, -math.inf), (1.0, -1 / 6)):
        ev = zeta.zeta_via_cesaro(alpha, k=1)
        assert ev.value == value and not ev.converged, alpha
        assert ev.error_estimate == math.inf, alpha


@pytest.mark.parametrize("alpha,k", [(0.999, 1), (-0.0005, 0), (2.9, 3)])
def test_orders_just_above_alpha_converge(alpha, k):
    ev = zeta.zeta_via_cesaro(alpha, k=k, X_max=1e5, tol=1e-6)
    assert ev.converged and abs(ev.value - euler_maclaurin_zeta_decimal(-alpha)) <= 1e-6


@pytest.mark.parametrize("alpha", [-12.5, -13.5, -30.0, -300.0])
def test_steep_weights_converge_on_the_constant(alpha):
    # terms below n^-13 are under eps on every rung and stay out of the fit,
    # whose columns would otherwise be near-parallel and ill-conditioned
    for prime, call in ((False, zeta.zeta_via_cesaro), (True, zeta.zeta_prime_via_cesaro)):
        want = euler_maclaurin_zeta_decimal(-alpha, prime)
        ev = call(alpha, X_max=1e4, tol=1e-12)
        assert ev.converged and abs(ev.value - want) <= 1e-15 * max(1.0, abs(want)), prime


def test_a_fit_that_cannot_be_made_reads_the_last_raw_sample():
    # m^200.5 overflows from m = 35: no fit, the record keeps the raw sample
    ev = zeta.zeta_via_cesaro(200.5, X_max=1e4)
    assert not ev.converged and ev.error_estimate == math.inf
    assert repr(ev.value) == repr(ev.trace[-1]) and not math.isfinite(ev.value)


def test_the_ladder_climbs_only_as_far_as_tol_asks():
    # X_max is a cap: a loose tol stops at the first ladder, a tight one
    # climbs, and neither sums past X_max
    loose = zeta.zeta_via_cesaro(0.5, k=40, X_max=1e5, tol=1e-3)
    tight = zeta.zeta_via_cesaro(0.5, k=40, X_max=1e5, tol=1e-9)
    capped = zeta.zeta_via_cesaro(0.5, k=40, X_max=1e3, tol=1e-9)
    assert loose.n_terms == 256 < tight.n_terms <= 1e5
    assert capped.n_terms <= 1e3
    want = euler_maclaurin_zeta_decimal(-0.5)
    assert abs(tight.value - want) < abs(loose.value - want)
    assert tight.converged and abs(tight.value - want) <= 1e-9


# records of the fitted staircase limit, every float as hex: the value, the
# error_estimate, n_terms, converged and the trace.  Non-integer alpha, both
# weights, k = 0, the poles alpha + i + 1 = 0 at (-2, 1), (-3, 2) and the log
# weight's (-2, 2), the two climbs past rung 256 and a high order
_PINNED_RECORDS = [
    ('zeta_via_cesaro', 0.3903, {'X_max': 100000.0},
     '-0x1.015fd75153d8ap-2', '0x1.1000000000000p-50', 256, True,
     ('-0x1.fccfb4d9ebaaap-3', '-0x1.fe4ce1ab37bb6p-3', '-0x1.ffc948ab01935p-3',
      '-0x1.0043982edf50fp-2', '-0x1.00a2724594bc3p-2', '-0x1.00d1d585f3565p-2',
      '-0x1.0101322a4d08cp-2', '-0x1.0118ddfc6650ep-2')),
    ('zeta_via_cesaro', 3.4265, {'X_max': 100000.0},
     '0x1.4ebd06b1b4947p-8', '0x1.e7d6e32600000p-29', 256, True,
     ('0x1.6f4533155f842p-8', '0x1.68008828aff23p-8', '0x1.602c4907f50ccp-8',
      '0x1.5c0b4d5c834a6p-8', '0x1.57c4b142bd352p-8', '0x1.5592d29835759p-8',
      '0x1.5356d25706878p-8', '0x1.5234daa1b491ap-8')),
    ('zeta_prime_via_cesaro', 0.0, {'X_max': 10000.0},
     '-0x1.d67f1c864be92p-1', '0x1.4800000000000p-47', 256, True,
     ('-0x1.cd5148c915b54p-1', '-0x1.cf3a8efe5afe8p-1', '-0x1.d14a7bb21f2b8p-1',
      '-0x1.d2668b4bd40e4p-1', '-0x1.d395ef3592163p-1', '-0x1.d437ae1444f65p-1',
      '-0x1.d4e3173d1c4f5p-1', '-0x1.d53dd24fb02c8p-1')),
    ('zeta_prime_via_cesaro', 3.0, {'X_max': 10000.0},
     '0x1.607d9b283d59ap-8', '0x1.a9d39f1600000p-29', 256, True,
     ('0x1.04412098ed6e7p-8', '0x1.1c055e8944e7cp-8', '0x1.33617f26b6f5ap-8',
      '0x1.3ee24ee228bbdp-8', '0x1.4a40801e71e15p-8', '0x1.4fe12dd023c8dp-8',
      '0x1.557731e084884p-8', '0x1.583ddca615efbp-8')),
    ('zeta_via_cesaro', -0.5152, {'k': 0, 'X_max': 1000000.0},
     '-0x1.859a519d2b7f1p+0', '0x1.4000000000000p-48', 256, True,
     ('-0x1.6ccbcec5807f4p+0', '-0x1.7031b27e24664p+0', '-0x1.7436ea8f689ecp+0',
      '-0x1.769a6456cffadp+0', '-0x1.796ce65c4a177p+0', '-0x1.7b19bb9d2b93ap+0',
      '-0x1.7d1418dafbbf2p+0', '-0x1.7e407ea94431bp+0')),
    ('zeta_via_cesaro', -2.0, {'k': 0, 'X_max': 1000000.0},
     '0x1.a51a6625307d0p+0', '0x1.c000000000000p-50', 256, True,
     ('0x1.a5527f7fd695ep+0', '0x1.a53a10d41ea96p+0', '0x1.a52885c09d844p+0',
      '0x1.a5225b7aa7f32p+0', '0x1.a51df135026a7p+0', '0x1.a51c64cfdc38fp+0',
      '0x1.a51b494e46c0cp+0', '0x1.a51ae5fa85db1p+0')),
    ('zeta_via_cesaro', -2.0, {'k': 1},
     '0x1.a51a6625307cfp+0', '0x1.8000000000000p-50', 256, True,
     ('0x1.9ef1d21113fe0p+0', '0x1.a07c183e9c75ep+0', '0x1.a2064201dbe26p+0',
      '0x1.a2cb4f3066c97p+0', '0x1.a39058d0f4d28p+0', '0x1.a3f2dcaabfa3fp+0',
      '0x1.a4556012c5394p+0', '0x1.a486a1a7f7b09p+0')),
    ('zeta_via_cesaro', -3.0, {'k': 2},
     '0x1.33ba004f00623p+0', '0x1.0000000000000p-51', 256, True,
     ('0x1.10e4246c69c7fp+0', '0x1.198d4b06bfc92p+0', '0x1.223ea73572c64p+0',
      '0x1.269a6964557c6p+0', '0x1.2af838f839486p+0', '0x1.2d27e5c80b2fbp+0',
      '0x1.2f5815f11d039p+0', '0x1.30705f471de4ap+0')),
    ('zeta_prime_via_cesaro', -2.0, {'k': 2},
     '-0x1.e00653256ab82p-1', '0x1.2000000000000p-50', 256, True,
     ('-0x1.e3f2c73eae1b9p-1', '-0x1.e2d074de90b54p-1', '-0x1.e1c84618ba76dp-1',
      '-0x1.e14dfc0a5fb53p-1', '-0x1.e0da3add67a60p-1', '-0x1.e0a2cd9b39534p-1',
      '-0x1.e06d02912e025p-1', '-0x1.e052b9e133588p-1')),
    ('zeta_via_cesaro', 2.5, {'tol': 1e-12},
     '0x1.17152d5e341aep-7', '0x1.659019c000000p-33', 384, False,
     ('0x1.045d997d90bfcp-7', '0x1.0ab72ca89cf94p-7', '0x1.0dd9b34ebe807p-7',
      '0x1.10f511c926969p-7', '0x1.127ffc90e5617p-7', '0x1.140902236d9e5p-7',
      '0x1.14cccb844d44ep-7', '0x1.15901727de09ap-7')),
    ('zeta_prime_via_cesaro', 2.2623, {'tol': 0.0},
     '-0x1.02c492a7986e1p-6', '0x1.5ff1fd0000000p-31', 512, False,
     ('-0x1.0d9f18c7b6ab5p-6', '-0x1.0af422fd043a5p-6', '-0x1.08417adf1729ep-6',
      '-0x1.06e53b9f7b795p-6', '-0x1.0587045765ff8p-6', '-0x1.04d729e05e31ap-6',
      '-0x1.0426cefb6982dp-6', '-0x1.03ce710ae67dbp-6')),
    ('zeta_via_cesaro', 0.5, {'k': 40},
     '-0x1.a9c041e913b92p-3', '0x1.5390757c00000p-24', 256, True,
     ('-0x1.42da39ae29da8p-3', '-0x1.5e64b4ccd5c9dp-3', '-0x1.7941cece1bc65p-3',
      '-0x1.862e95c79cfe7p-3', '-0x1.92a2a087faab6p-3', '-0x1.98a7ab111920bp-3',
      '-0x1.9e8576c03102ap-3', '-0x1.a164c3b9079b6p-3')),
    # the top window's fit is ill-conditioned, the lower one's is not: the
    # value is the last sample, with gap inf
    ('zeta_prime_via_cesaro', 12.05, {},
     '0x1.0de2eb1d87ff3p+20', 'inf', 256, False,
     ('0x1.8da4efed42f0cp-11', '0x1.5e73898589569p-6', '0x1.573c46075834bp-5',
      '0x1.7388a330b890ap-4', '0x1.fb3e135d4441bp+3', '0x1.ca4d37db0e566p+8',
      '-0x1.5dd1976004658p+15', '0x1.0de2eb1d87ff3p+20')),
    # samples past the float range read nan, so no window is fitted
    ('zeta_via_cesaro', 200.0, {'k': 0},
     'nan', 'inf', 256, False,
     ('0x1.c0a15e7957294p+916', '0x1.af622684253f1p+999', 'nan', 'nan', 'nan', 'nan',
      'nan', 'nan')),
]


@pytest.mark.parametrize("name,alpha,kwargs,value,error,n_terms,converged,trace",
                         _PINNED_RECORDS)
def test_fitted_records_are_pinned_bit_for_bit(name, alpha, kwargs, value, error, n_terms,
                                                converged, trace):
    ev = getattr(zeta, name)(alpha, **kwargs)
    assert (ev.value.hex(), ev.error_estimate.hex(), ev.n_terms, ev.converged) == (
        value, error, n_terms, converged)
    assert tuple(t.hex() for t in ev.trace) == trace


def _subtrahend_terms(alpha: float, k: int, log_weight: bool) -> list[tuple[int, Fraction]]:
    """(j, term) for the terms of A (j = 0), B (1) and C (2) in I_k(n) =
    n^(alpha+1) (A + B ln n + C ln^2 n), exact: a float alpha is a dyadic
    rational."""
    terms = []
    for i in range(k + 1):
        s = (-1) ** i * math.comb(k, i)
        b = Fraction(alpha) + i + 1
        if b == 0:  # n^-i = n^(alpha+1)
            terms.append((2, Fraction(s, 2)) if log_weight else (1, Fraction(s)))
        elif log_weight:
            terms += [(0, -s / b ** 2), (1, s / b)]
        else:
            terms.append((0, s / b))
    return terms


@pytest.mark.parametrize("log_weight", [False, True])
@pytest.mark.parametrize("k", [0, 1, 2, 5, 40, 150])
@pytest.mark.parametrize("alpha", [-3.0, -2.5, -2.0, 0.0, 0.5, 3.4265, 6.5])
def test_subtrahend_coefficients_are_the_exact_sums(alpha, k, log_weight):
    # the Decimal A, B and C, summed once per call at 40 + k log10(2) digits,
    # keep 38 digits of the larger of the constant and its terms' size past a
    # 2^k cancellation.  Relative to the constant alone they keep fewer where
    # it cancels further, as A = B(alpha+1, k+1) does at large alpha and k
    # (9e-32 at alpha = 6.5, k = 150), like the per-boundary sum they replace
    terms = _subtrahend_terms(alpha, k, log_weight)
    with localcontext() as ctx:
        ctx.prec = 40 + math.ceil(k * math.log10(2))
        got = zeta._subtrahend_coefficients(zeta.StaircaseSpec(alpha, log_weight), k)
    for j, constant in enumerate(got):
        want = sum(t for c, t in terms if c == j)
        size = max(abs(want), sum(abs(t) for c, t in terms if c == j) / 2 ** k)
        assert abs(Fraction(constant) - want) <= size / 10 ** 38, j


@pytest.mark.parametrize("k", [0, 1, 2, 5, 40, 150])
@pytest.mark.parametrize("alpha", [0, 1, 2, 3, 6])
def test_integer_alpha_subtrahends_are_the_beta_integral(alpha, k):
    # n^-k int_0^n t^alpha (n-t)^k dt = n^(alpha+1) alpha! k! / (alpha+k+1)!:
    # I_k(n) within 1e-39 of it on every rung, its one rounding to 40 + k
    # log10(2) digits, plus the constant's own error bound from the test
    # above (1.5e-36 relative at alpha = 6, k = 150)
    spec = zeta.StaircaseSpec(float(alpha))
    beta = Fraction(math.factorial(alpha) * math.factorial(k), math.factorial(alpha + k + 1))
    size = sum(abs(t) for _, t in _subtrahend_terms(alpha, k, False)) / 2 ** k
    rungs = zeta._ladder(4096)
    for n, total in zip(rungs, zeta._subtrahends(spec, k, rungs)):
        want = n ** (alpha + 1) * beta
        bound = want / 10 ** 39 + n ** (alpha + 1) * size / 10 ** 38
        assert abs(Fraction(total) - want) <= bound, n


@pytest.mark.parametrize("call,alpha,tol,top,fits", [
    (zeta.zeta_prime_via_cesaro, 2.2623, 0.0, 512, 4),
    (zeta.zeta_via_cesaro, 2.5, 1e-12, 384, 3)])
def test_a_climb_fits_only_the_new_window(monkeypatch, call, alpha, tol, top, fits):
    # after a climb the lower window is the former top one, whose fit is
    # kept: two fits for the first ladder, then one per rung climbed
    made = []
    fit = zeta._weighted_fit

    def counted(*args):
        made.append(args)
        return fit(*args)

    monkeypatch.setattr(zeta, "_weighted_fit", counted)
    ev = call(alpha, tol=tol)
    rungs = zeta._ladder(top)
    assert ev.n_terms == top and len(made) == fits == 2 + len(rungs) - rungs.index(256) - 1
