"""The vectorized compensated scan against the scalar Neumaier loop."""
import math
import random
import struct
import warnings

import pytest

from cesaro.accumulate import compensated_prefix_sums


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
    # longer than one scan chunk, so the state crosses chunk edges
    "alternating harmonic": [(-1.0) ** i / (i + 1) for i in range(150_000)],
    "random 1e-20..1e20": [_rng.choice((-1.0, 1.0)) * 10.0 ** _rng.uniform(-20, 20)
                           for _ in range(20_000)],
    "2^n overflows to inf": [2.0 ** n for n in range(1024)] + [1.0] * 70_000,
    "-inf": [1.0, 1e308, -math.inf, 2.0, 1e308, -3.0],
    "nan": [0.5, -1e-17, math.nan, 2.0, math.inf],
}


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

