"""The vectorized compensated scan against the scalar Neumaier loop."""
import math
import random
import struct
import warnings

import numpy as np
import pytest

from cesaro.accumulate import compensated_prefix_sums
from cesaro.series import SeriesSpec, cesaro_sum, iterated_partial_sums


def _neumaier_prefix_sums(values):
    """One value at a time, dropping the carry once the total is not finite:
    the reference the scan must reproduce bit for bit."""
    out = []
    total = carry = 0.0
    for x in values:
        x = float(x)
        t = total + x
        if math.isfinite(t):
            if abs(total) >= abs(x):
                carry += (total - t) + x
            else:
                carry += (x - t) + total
        else:
            carry = 0.0
        total = t
        out.append(total + carry)
    return out


_rng = random.Random(7)
_CASES = {
    # longer than one scan block, so the state crosses block edges
    "alternating harmonic": [(-1.0) ** i / (i + 1) for i in range(150_000)],
    "random 1e-20..1e20": [_rng.choice((-1.0, 1.0)) * 10.0 ** _rng.uniform(-20, 20)
                           for _ in range(20_000)],
    "2^n overflows to inf": [2.0 ** n for n in range(1024)] + [1.0] * 70_000,
    "-inf": [1.0, 1e308, -math.inf, 2.0, 1e308, -3.0],
    "nan": [0.5, -1e-17, math.nan, 2.0, math.inf],
    # a run of -0.0, and a leading -0.0 before tiny terms, across block edges
    "70000 x -0.0": [-0.0] * 70_000,
    "-0.0 then 70000 x 1e-300": [-0.0] + [1e-300] * 70_000,
}
# an inf, and a nan, at and just after each power of two 2^12 .. 2^17, so
# the state crosses a block edge there whatever the scan's block size
for _j in range(12, 18):
    _values = [_rng.uniform(-1.0, 1.0) for _ in range(2 ** _j + 40)]
    _CASES[f"inf at 2^{_j}"] = _values[:2 ** _j] + [math.inf] + _values[2 ** _j + 1:]
    _CASES[f"nan at 2^{_j} + 1"] = _values[:2 ** _j + 1] + [math.nan] + _values[2 ** _j + 2:]


def _bits(values):
    return [struct.pack("<d", v) for v in values]


@pytest.mark.parametrize("label", list(_CASES))
def test_prefix_sums_equal_the_neumaier_loop_bit_for_bit(label):
    got = want = _CASES[label]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a stray numpy RuntimeWarning fails
        for npass in range(3):
            got = compensated_prefix_sums(got)
            want = _neumaier_prefix_sums(want)
            assert _bits(got) == _bits(want), npass


def test_prefix_sums_leave_their_argument_alone():
    x = np.array(_CASES["alternating harmonic"])
    before = x.tobytes()
    out = compensated_prefix_sums(x)
    assert out is not x
    assert x.tobytes() == before


_SPEC = SeriesSpec(lambda n: (-1.0) ** n * (n + 1) ** 0.5)


@pytest.mark.parametrize("k", range(4))
def test_series_passes_equal_k_plus_1_public_passes(k):
    # the series layer sums in place over the terms it owns; this pins that
    # path to the public one
    n = 150_000
    want = _SPEC.terms(n)
    for _ in range(k + 1):
        want = compensated_prefix_sums(want)
    assert _bits(iterated_partial_sums(_SPEC, k, n)) == _bits(want)
    ev = cesaro_sum(_SPEC, k, n)
    lo = n - len(ev.trace)
    samples = [want[i] / float(math.comb(i + k, k)) for i in range(lo, n)]
    assert _bits(ev.trace) == _bits(samples)
    assert _bits([ev.value]) == _bits(samples[-1:])
