import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesaro import series
from cesaro.evaluation import tail_judgement
from oracles import prefix_sums_naive


def alt_sign():
    return series.SeriesSpec(lambda n: (-1.0) ** n)


def alt_sign_n():
    return series.SeriesSpec(lambda n: (-1.0) ** n * n)


def geometric(r):
    return series.SeriesSpec(lambda n: r ** n)


@given(st.lists(st.floats(min_value=-10, max_value=10), min_size=1, max_size=60),
       st.integers(min_value=0, max_value=3))
def test_iterated_partial_sums_matches_naive(values, k):
    # A^0 is the plain partial sums, so order k means k+1 cumulative passes
    spec = series.SeriesSpec(lambda n, v=values: v[n] if n < len(v) else 0.0)
    got = series.iterated_partial_sums(spec, k, len(values))
    want = prefix_sums_naive(values, k + 1)
    for g, w in zip(got, want):
        assert g == pytest.approx(w, rel=1e-9, abs=1e-9)


def test_partial_sums_identity_at_k_zero():
    spec = geometric(0.5)
    got = series.iterated_partial_sums(spec, 0, 10)
    want = [2.0 - 0.5 ** n for n in range(10)]
    assert got == pytest.approx(want)


def test_once_iterated_alt_sign_hand_values():
    assert series.iterated_partial_sums(alt_sign(), 1, 5) == [1, 1, 2, 2, 3]


def test_once_iterated_constant_is_triangular():
    ones = series.SeriesSpec(lambda n: 1.0)
    got = series.iterated_partial_sums(ones, 1, 30)
    for n, g in enumerate(got):
        assert g == (n + 1) * (n + 2) / 2, n


def test_twice_iterated_alt_sign_n_hand_oracle():
    # A^2 of 0, -1, 2, -3, ... closes to triangular numbers with a sign
    got = series.iterated_partial_sums(alt_sign_n(), 2, 21)
    for n in range(21):
        m, r = divmod(n, 2)
        want = -(m * (m + 1) // 2) if r == 0 else -((m + 1) * (m + 2) // 2)
        assert got[n] == want, n


def test_alt_sign_needs_one_averaging():
    ev0 = series.cesaro_sum(alt_sign(), 0, 10_000, tol=1e-3)
    assert not ev0.converged
    ev1 = series.cesaro_sum(alt_sign(), 1, 10_000, tol=1e-3)
    assert ev1.converged
    assert abs(ev1.value - 0.5) < 1e-4


def test_alt_sign_n_needs_two_averagings():
    ev1 = series.cesaro_sum(alt_sign_n(), 1, 100_000, tol=1e-4)
    assert not ev1.converged
    ev2 = series.cesaro_sum(alt_sign_n(), 2, 100_000, tol=1e-4)
    assert ev2.converged
    assert abs(ev2.value - (-0.25)) < 1e-3


def test_geometric_divergence_is_reported_not_raised():
    for k in range(7):
        ev = series.cesaro_sum(geometric(2.0), k, 2_000)
        assert not ev.converged, k
        assert not math.isfinite(ev.value) or abs(ev.value) > 1e6


def test_overflowing_terms_become_inf():
    spec = geometric(10.0)
    ev = series.cesaro_sum(spec, 1, 500)
    assert math.isinf(ev.value) or ev.value > 1e300
    assert not ev.converged


@settings(max_examples=30)
@given(st.floats(min_value=-0.6, max_value=0.6), st.integers(min_value=0, max_value=3))
def test_convergent_series_invariant_under_order(r, k):
    # averaging must not move a convergent sum
    ev = series.cesaro_sum(geometric(r), k, 5_000, tol=1e-2)
    assert ev.converged
    assert ev.value == pytest.approx(1.0 / (1.0 - r), abs=5e-3)


@pytest.mark.parametrize("spec,want", [
    (series.SeriesSpec(lambda n: 1.0 / (n * n), start=1),
     math.pi ** 2 / 6),
    (series.SeriesSpec(lambda n: 0.5 ** n), 2.0),
    (series.SeriesSpec(lambda n: (-1.0) ** n / n, start=1),
     -math.log(2)),
])
def test_convergent_sums_survive_every_order(spec, want):
    tol = 1e-4
    for k in range(4):
        ev = series.cesaro_sum(spec, k, 50_000, tol=tol)
        assert ev.converged, (spec.label, k)
        assert abs(ev.value - want) < 10 * tol, (spec.label, k)


def test_averaging_shrinks_alt_sign_oscillation():
    lo, hi = 100, 1001
    a0 = series.iterated_partial_sums(alt_sign(), 0, hi)
    a1 = series.iterated_partial_sums(alt_sign(), 1, hi)
    c0 = [a0[n] for n in range(lo, hi)]
    c1 = [a1[n] / (n + 1) for n in range(lo, hi)]
    amp0 = max(c0) - min(c0)
    amp1 = max(c1) - min(c1)
    assert amp1 < amp0


def test_detect_order_finds_the_minimal_k():
    k, ev = series.detect_order(alt_sign(), k_max=4, n_terms=10_000, tol=1e-3)
    assert k == 1 and abs(ev.value - 0.5) < 1e-3
    k2, ev2 = series.detect_order(alt_sign_n(), k_max=4, n_terms=50_000, tol=1e-3)
    assert k2 == 2
    assert series.detect_order(geometric(2.0), k_max=4, n_terms=1_000) is None


def test_detect_order_on_convergent_series_is_zero():
    spec = series.SeriesSpec(lambda n: 1.0 / (n * n), start=1)
    found = series.detect_order(spec, k_max=3, n_terms=5_000, tol=1e-3)
    assert found is not None
    k, ev = found
    assert k == 0
    assert abs(ev.value - math.pi ** 2 / 6) < 1e-2


def test_start_index_shifts_the_series():
    spec = series.SeriesSpec(lambda n: float(n), start=1)
    sums = series.iterated_partial_sums(spec, 0, 5)
    assert sums == [0.0, 1.0, 3.0, 6.0, 10.0]


def test_rejects_bad_parameters():
    with pytest.raises(ValueError):
        series.cesaro_sum(alt_sign(), -1, 100)
    with pytest.raises(ValueError):
        series.cesaro_sum(alt_sign(), 1, 4)
    with pytest.raises(ValueError):
        series.iterated_partial_sums(alt_sign(), -2, 10)


def test_evaluation_trace_is_bounded():
    ev = series.cesaro_sum(alt_sign(), 1, 10_000)
    assert 0 < len(ev.trace) <= 8
    assert ev.n_terms == 10_000
    assert ev.order == 1


@pytest.mark.parametrize("term,n_terms", [
    (lambda n: 2.0 ** n, 2000),
    (lambda n: 10.0 ** (n % 400), 70_000),
])
def test_each_term_is_called_once_and_overflow_reads_inf(term, n_terms):
    calls = []

    def counted(n):
        calls.append(n)
        return term(n)

    got = series.SeriesSpec(counted).terms(n_terms)
    assert calls == list(range(n_terms))
    want = []
    for n in range(n_terms):
        try:
            want.append(term(n))
        except OverflowError:
            want.append(math.inf)
    assert got.tolist() == want  # 2.0 ** n reads inf from n = 1024 on


def test_an_overflowing_conversion_keeps_the_terms_sign():
    # float() of an int past the float range raises OverflowError: the term
    # reads as an infinity of its own sign, while a term whose call raises
    # (2.0 ** n) reads +inf; each term is still called once
    calls = []

    def term(n):
        calls.append(n)
        return (-1) ** n * 10**400 if n % 3 else 2.0 ** (1021 + n)

    got = series.SeriesSpec(term).terms(9)
    assert calls == list(range(9))
    assert got.tolist() == [2.0 ** 1021, -math.inf, math.inf, math.inf, math.inf,
                            -math.inf, math.inf, -math.inf, math.inf]
    assert series.SeriesSpec(lambda n: -(10**400)).terms(3).tolist() == [-math.inf] * 3
    for bad in (None, 1j):
        with pytest.raises(TypeError):
            series.SeriesSpec(lambda n, bad=bad: bad).terms(3)


_EDGE_KINDS = {
    "call overflows": lambda n: 2.0 ** (2000 + n),
    "-(10**400)": lambda n: -(10**400),
    "Fraction": lambda n: Fraction(n, 3),
    "str": lambda n: "1.5",
    "2**53 + 1": lambda n: 2**53 + 1,
}
_EDGE_START, _EDGE_TERMS = 5000, 70_000
# both sides of every multiple of 2^12 and 2^16, counted from 0 and from start
_EDGES = sorted({origin + m for step in (1 << 12, 1 << 16) for origin in (0, _EDGE_START)
                 for m in range(step, _EDGE_TERMS, step) if origin + m < _EDGE_TERMS})


def _reference(v):
    try:
        return float(v)
    except OverflowError:
        return math.inf if v > 0 else -math.inf


@pytest.mark.parametrize("kinds", [
    list(_EDGE_KINDS),
    ["call overflows", "-(10**400)", "Fraction", "2**53 + 1"],
    ["call overflows", "Fraction", "2**53 + 1"],  # each converts as a whole chunk
], ids=["all", "no str", "no str or huge int"])
def test_odd_terms_at_chunk_edges_read_as_their_float(kinds):
    special = {}
    for j, edge in enumerate(_EDGES):
        for i in range(len(kinds)):
            special[edge - 1 - i] = _EDGE_KINDS[kinds[(i + j) % len(kinds)]]
            special[edge + i] = _EDGE_KINDS[kinds[(i + j + 2) % len(kinds)]]
    calls = []

    def value(n):
        return special.get(n, lambda n: (-1.0) ** n / (n + 1))(n)

    def term(n):
        calls.append(n)
        return value(n)

    got = series.SeriesSpec(term, start=_EDGE_START).terms(_EDGE_TERMS).tolist()
    assert calls == list(range(_EDGE_START, _EDGE_TERMS))
    want = [0.0] * _EDGE_START
    for n in range(_EDGE_START, _EDGE_TERMS):
        try:
            want.append(_reference(value(n)))
        except OverflowError:
            want.append(math.inf)  # the call raised
    assert got == want


@pytest.mark.parametrize("at", [8191, _EDGE_START + 4095, 65_535, _EDGE_TERMS - 1])
def test_a_none_term_at_a_chunk_end_raises_type_error(at):
    spec = series.SeriesSpec(lambda n: None if n == at else 1.0, start=_EDGE_START)
    with pytest.raises(TypeError):
        spec.terms(_EDGE_TERMS)


@pytest.mark.parametrize("exact,twin", [
    (lambda n: Fraction((-1) ** n, n + 1), lambda n: (-1.0) ** n / (n + 1)),
    (lambda n: (-1) ** n * n * n, lambda n: (-1.0) ** n * n * n),
])
def test_exact_valued_terms_sum_as_their_float_twins(exact, twin):
    for k in (0, 2):
        assert (series.iterated_partial_sums(series.SeriesSpec(exact), k, 500)
                == series.iterated_partial_sums(series.SeriesSpec(twin), k, 500)), k


@pytest.mark.parametrize("k,n_terms", [
    (0, 1000), (1, 10_000), (3, 400_000), (6, 10_000), (12, 5000),
])
def test_normalized_tail_matches_the_scalar_loop(k, n_terms):
    # C(n + k, k) passes 2^53 at (3, 400_000), (6, 10_000) and (12, 5000),
    # and k C(n + k, k) passes 2^63 at the last two: every divisor must
    # still round as Python's float / int does
    spec = alt_sign_n()
    sums = series.iterated_partial_sums(spec, k, n_terms)
    tail_count = max(8, n_terms // 10)
    want = [sums[n] / math.comb(n + k, k)
            for n in range(n_terms - tail_count, n_terms)]
    ev = series.cesaro_sum(spec, k, n_terms)
    assert ev.trace == tuple(want[-8:])
    assert ev.error_estimate == max(want) - min(want)


def test_tail_judgement_of_an_array_with_a_nan():
    samples = np.linspace(0.0, 1e-9, 40)
    samples[-3] = math.nan
    ev = tail_judgement(samples, order=1, n_terms=40, tol=1e-3)
    assert not ev.converged
    assert ev.error_estimate == math.inf
    assert ev.value == samples[-1] and type(ev.value) is float


@pytest.mark.parametrize("bad", [None, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("tail_count", [None, 3, 12])
def test_tail_judgement_reads_a_list_as_the_array_it_holds(bad, tail_count):
    samples = [0.5 + 1e-4 / (i + 1) for i in range(40)]
    if bad is not None:
        samples[-2] = bad
    from_list = tail_judgement(samples, 2, 1000, 1e-3, tail_count)
    from_array = tail_judgement(np.array(samples), 2, 1000, 1e-3, tail_count)
    assert repr(from_list) == repr(from_array)  # nan != nan, so compare reprs
    assert all(type(v) is float for v in (from_list.value, *from_list.trace))
    tail = samples[-(tail_count or 10):]  # tail_window(40) is 10
    assert from_list.error_estimate == (max(tail) - min(tail) if bad is None else math.inf)
    assert from_list.converged is (bad is None)


@pytest.mark.parametrize("n_terms", [series.MAX_SERIES_TERMS + 1, 10**12])
def test_absurd_series_sizes_fail_before_any_work(n_terms):
    def term(n):
        raise AssertionError(f"term {n} was called")

    spec = series.SeriesSpec(term)
    calls = (lambda: spec.terms(n_terms),
             lambda: series.iterated_partial_sums(spec, 1, n_terms),
             lambda: series.cesaro_sum(spec, 1, n_terms),
             lambda: series.detect_order(spec, 3, n_terms))
    for call in calls:
        with pytest.raises(ValueError, match="MAX_SERIES_TERMS"):
            call()


_TERM_COUNT_CALLS = {
    "terms": lambda spec, n: spec.terms(n),
    "iterated": lambda spec, n: series.iterated_partial_sums(spec, 1, n),
    "cesaro-sum": lambda spec, n: series.cesaro_sum(spec, 1, n),
    "detect-order": lambda spec, n: series.detect_order(spec, 2, n),
}


@pytest.mark.parametrize("name", list(_TERM_COUNT_CALLS))
@pytest.mark.parametrize("n_terms", [1.5, math.nan, math.inf, -math.inf, -3])
def test_a_bad_term_count_is_refused_by_name(name, n_terms):
    def term(n):
        raise AssertionError(f"term {n} was called")

    with pytest.raises(ValueError, match="^n_terms "):
        _TERM_COUNT_CALLS[name](series.SeriesSpec(term), n_terms)


@pytest.mark.parametrize("name", list(_TERM_COUNT_CALLS))
def test_an_integral_float_term_count_counts_as_its_int(name):
    # 1e4 is 10000 terms, as 2.0 is order 2
    call = _TERM_COUNT_CALLS[name]
    got, want = call(alt_sign(), 1e4), call(alt_sign(), 10_000)
    if name in ("terms", "iterated"):
        assert len(got) == 10_000 and list(got) == list(want)
    else:
        assert got == want


@pytest.mark.parametrize("call,k,n_terms", [
    (series.cesaro_sum, 150, 10**4),  # C(n + k, k) beyond the float range
    (series.cesaro_sum, 80, 10**6),
])
def test_a_normalization_beyond_the_float_range_fails_before_any_term(call, k, n_terms):
    calls = []
    spec = series.SeriesSpec(lambda n: calls.append(n) or (-1.0) ** n)
    with pytest.raises(ValueError, match=f"order k={k} with n_terms={n_terms} "):
        call(spec, k, n_terms)
    assert calls == []


@pytest.mark.parametrize("call", [
    lambda spec: series.detect_order(spec, 10**6, 10),
    lambda spec: series.detect_order(spec, 513, 10),
    lambda spec: series.cesaro_sum(spec, 600, 10),
    lambda spec: series.iterated_partial_sums(spec, 513, 10),
], ids=["detect-1e6", "detect-513", "cesaro-sum-600", "iterated-513"])
def test_orders_past_the_bound_fail_before_any_term(call):
    # detect_order's cost grows as k_max^2: 10**6 would run for months
    def term(n):
        raise AssertionError(f"term {n} was called")

    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"^(order k|k_max)=\d+ is above 512, "):
        call(series.SeriesSpec(term))
    assert time.perf_counter() - start < 0.01


def test_the_order_bound_admits_512():
    assert series.cesaro_sum(geometric(0.5), 512, 10).order == 512
    assert len(series.iterated_partial_sums(geometric(0.5), 512, 10)) == 10


def test_orders_inside_the_float_range_are_unchanged():
    ev = series.cesaro_sum(alt_sign(), 130, 10**4)
    assert ev.value == 0.5032291728697251
    assert not ev.converged
    # detect_order settles before it reaches an order beyond the float range
    k, ev = series.detect_order(alt_sign(), 150, 10**4, tol=1e-4)
    assert k == 1 and ev.converged
    assert ev == series.cesaro_sum(alt_sign(), 1, 10**4, tol=1e-4)


def test_a_high_order_mean_holds_about_one_array_of_terms():
    # the k + 1 prefix passes run in place over the terms, through buffers of
    # one block each; numpy reports its buffers to tracemalloc, and a
    # constant term allocates no float objects
    n = 500_000
    tracemalloc.start()
    try:
        ev = series.cesaro_sum(series.SeriesSpec(lambda n: 1.0), 3, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ev.value == (n + 3) / 4  # A^3_(n-1) / C(n + 2, 3)
    assert peak < 2 * 8 * n
