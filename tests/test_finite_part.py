import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cesaro import finite_part as fp, zeta


GRID = tuple(np.geomspace(1e-2, 1e-6, 24))


def test_fp_power_reproduces_smooth_case():
    # for alpha > -1 the integral converges and the finite part is the value
    for alpha in np.linspace(-0.95, 3.0, 50):
        assert fp.fp_power_integral(float(alpha)) == pytest.approx(
            1.0 / (alpha + 1.0), abs=1e-12), alpha


def test_fp_power_at_the_pole():
    # F.p. int_0^1 dt/t = 0: the ln eps divergence is removed, ln 1 remains
    assert fp.fp_power_integral(-1.0) == 0.0
    assert fp.fp_power_integral(-1.0, b=math.e) == pytest.approx(1.0)


def test_fp_power_below_the_pole():
    assert fp.fp_power_integral(-1.5) == pytest.approx(-2.0)
    assert fp.fp_power_integral(-3.0) == pytest.approx(-0.5)


def test_fp_power_rejects_bad_upper_limit():
    with pytest.raises(ValueError):
        fp.fp_power_integral(0.5, b=0.0)
    with pytest.raises(ValueError):
        fp.fp_power_integral(0.5, b=-2.0)
    # each argument is checked by name before it becomes a float, in both
    # closed forms: no nan out, and no OverflowError from an int b
    for closed_form in (fp.fp_power_integral, fp.fp_log_power_integral):
        with pytest.raises(ValueError, match="^b is too large for a float"):
            closed_form(0.5, b=10**400)
        with pytest.raises(ValueError, match="^alpha must be finite, got nan"):
            closed_form(math.nan)
        with pytest.raises(ValueError, match="^alpha must be finite, got inf"):
            closed_form(math.inf, 2.0)


@pytest.mark.parametrize("alpha,b,power,log_power", [
    (2.0, 1e300, math.inf, math.inf),
    (-3.0, 1e-300, -math.inf, math.inf),  # 1/(alpha+1) < 0; ln b/(a+1) > 1/(a+1)^2
    (0.5, 1e300, math.inf, math.inf),
    (-1e300, 0.5, -math.inf, math.inf),  # 1/(a+1)^2 underflows to 0
])
def test_a_finite_part_past_the_float_range_reads_an_infinity_of_its_sign(
        alpha, b, power, log_power):
    assert fp.fp_power_integral(alpha, b) == power
    assert fp.fp_log_power_integral(alpha, b) == log_power


def test_a_finite_part_inside_the_float_range_reads_its_float():
    # b^(alpha+1) = 2^1024 overflows, the finite parts do not: each is read
    # as h (h/(alpha+1)) or h (c h), h = b^((alpha+1)/2) = 2^512 exactly
    assert fp.fp_power_integral(1023.0, 2.0) == float(Fraction(2 ** 1024, 1024))
    assert fp.fp_power_integral(1023.0, 2.0) == 1.7555597020139804e305
    assert fp.fp_log_power_integral(1023.0, 2.0) == 1.2151468439841502e305
    exact = 2 ** 1024 * (Fraction(math.log(2.0)) / 1024 - Fraction(1, 1024 ** 2))
    assert fp.fp_log_power_integral(1023.0, 2.0) == pytest.approx(float(exact), rel=1e-15)


def test_fp_power_exact_fractions():
    assert fp.fp_power_integral_exact(Fraction(-3, 2)) == Fraction(-2)
    assert fp.fp_power_integral_exact(Fraction(-1)) == 0
    assert fp.fp_power_integral_exact(-2, Fraction(3)) == Fraction(-1, 3)


def test_fp_power_exact_rejects_the_hard_cases():
    with pytest.raises(TypeError):
        fp.fp_power_integral_exact(0.5)
    with pytest.raises(ValueError):
        # non-integer alpha with b != 1 leaves an irrational b^(alpha+1)
        fp.fp_power_integral_exact(Fraction(-3, 2), Fraction(2))


def test_fp_log_power_closed_form():
    for alpha in (0.0, 0.5, -0.5, 2.0):
        want = -1.0 / (alpha + 1.0) ** 2
        assert fp.fp_log_power_integral(alpha) == pytest.approx(want, abs=1e-12)


def test_fp_log_power_at_the_pole():
    assert fp.fp_log_power_integral(-1.0) == 0.0
    b = 2.0
    assert fp.fp_log_power_integral(-1.0, b=b) == pytest.approx(
        0.5 * math.log(b) ** 2)


def test_fp_log_power_exact():
    assert fp.fp_log_power_integral_exact(Fraction(-2)) == Fraction(-1)
    assert fp.fp_log_power_integral_exact(Fraction(-1)) == 0


def test_extract_simple_pole_plus_constant():
    dec = fp.extract_finite_part(lambda e: 1.0 / e + 7.0, [(1, 0)], GRID)
    assert dec.finite_part == pytest.approx(7.0, abs=1e-6)


def test_extract_log_plus_constant():
    dec = fp.extract_finite_part(lambda e: math.log(1.0 / e) + math.pi,
                                 [(0, 1)], GRID)
    assert dec.finite_part == pytest.approx(math.pi, abs=1e-6)


def test_extract_ignores_decaying_perturbations():
    # adding eps * (bounded) must not move the finite part: the divergent
    # basis and the constant are independent of anything that dies at 0
    base = fp.extract_finite_part(lambda e: 1.0 / e + 7.0, [(1, 0)], GRID)
    bent = fp.extract_finite_part(
        lambda e: 1.0 / e + 7.0 + e * math.cos(1.0 / e), [(1, 0)], GRID)
    assert abs(base.finite_part - bent.finite_part) < 1e-2
    assert bent.finite_part == pytest.approx(7.0, abs=1e-2)


def _log_power_tail(alpha):
    # int_eps^1 t^alpha ln t dt from the closed antiderivative
    def H(t):
        return t ** (alpha + 1) * (math.log(t) / (alpha + 1) - 1.0 / (alpha + 1) ** 2)

    return lambda e: H(1.0) - H(e)


def test_extract_matches_log_closed_forms():
    for alpha in (-3.0, -2.5, -2.0):
        p = -(alpha + 1.0)
        dec = fp.extract_finite_part(_log_power_tail(alpha), [(p, 1), (p, 0)], GRID)
        want = fp.fp_log_power_integral(alpha)
        assert dec.finite_part == pytest.approx(want, abs=1e-6), alpha
    # convergent case: nothing to subtract, fit just the constant
    deep = tuple(np.geomspace(1e-5, 1e-9, 24))
    dec = fp.extract_finite_part(_log_power_tail(0.5), [], deep)
    assert dec.finite_part == pytest.approx(fp.fp_log_power_integral(0.5), abs=1e-6)
    assert len(dec.divergent_terms) == 0


def test_log_integral_is_the_alpha_derivative():
    # d/dalpha int t^alpha dt pulls down a ln t
    h = 1e-4
    for alpha in (-3.0, -2.0, 2.0):
        diff = (fp.fp_power_integral(alpha + h) - fp.fp_power_integral(alpha - h)) / (2 * h)
        assert diff == pytest.approx(fp.fp_log_power_integral(alpha), abs=1e-6), alpha


def test_extract_recovers_pure_log_divergence():
    dec = fp.extract_finite_part(lambda e: -math.log(e), [(0, 1)], GRID)
    assert abs(dec.finite_part) < 1e-9
    (a, b, c), = dec.divergent_terms
    assert (a, b) == (0.0, 1) and c == pytest.approx(1.0, abs=1e-9)
    assert dec.residual < 1e-10
    assert dec.condition < 1e3


def test_extract_recovers_log_over_square():
    # int_eps^1 ln(x)/x^2 dx = (ln eps + 1)/eps - 1
    dec = fp.extract_finite_part(lambda e: (math.log(e) + 1.0) / e - 1.0,
                                 [(1, 1), (1, 0)], GRID)
    assert dec.finite_part == pytest.approx(-1.0, abs=1e-6)


def test_extract_is_linear_in_the_constant():
    base = fp.extract_finite_part(lambda e: 1.0 / e, [(1, 0)], GRID)
    shifted = fp.extract_finite_part(lambda e: 1.0 / e + 0.3, [(1, 0)], GRID)
    assert shifted.finite_part - base.finite_part == pytest.approx(0.3, abs=1e-9)


@settings(max_examples=25)
@given(st.floats(min_value=-2, max_value=2), st.floats(min_value=-2, max_value=2),
       st.floats(min_value=-5, max_value=5))
def test_extract_recovers_synthetic_mixtures(c1, c2, A):
    def g(e):
        return c1 / e + c2 * math.log(1.0 / e) + A

    dec = fp.extract_finite_part(g, [(1, 0), (0, 1)], GRID)
    assert dec.finite_part == pytest.approx(A, abs=1e-8)


def test_extract_rejects_constant_in_basis():
    with pytest.raises(ValueError):
        fp.extract_finite_part(lambda e: 1.0 / e, [(0, 0)], GRID)


def test_extract_rejects_duplicate_basis():
    with pytest.raises(ValueError):
        fp.extract_finite_part(lambda e: 1.0 / e, [(1, 0), (1, 0)], GRID)


def test_extract_rejects_bad_grids():
    with pytest.raises(ValueError):
        fp.extract_finite_part(lambda e: 1.0 / e, [(1, 0)], (1e-2, 1e-3))
    with pytest.raises(ValueError):
        fp.extract_finite_part(lambda e: 1.0 / e, [(1, 0)],
                               tuple(np.geomspace(1e-6, 1e-2, 24)))
    with pytest.raises(ValueError):
        fp.extract_finite_part(lambda e: 1.0 / e, [(1, 0)],
                               tuple(np.geomspace(1e-2, 5e-3, 24)))


@pytest.mark.parametrize("basis,eps", [
    ([(1, 0)], (math.inf,) + GRID), ([], (math.inf,) + GRID),
    ([(1, 0)], GRID[:5] + (math.nan,) + GRID[5:])],
    ids=["inf first point", "inf point, empty basis", "nan point"])
def test_extract_refuses_nonfinite_eps_points_before_sampling(basis, eps):
    # refused by the grid check, not by a math domain error, silently, or
    # as a fault of g: g is never called
    calls = []

    def g(e):
        calls.append(e)
        return 1.0 / e

    with pytest.raises(ValueError, match="eps grid must hold finite points only"):
        fp.extract_finite_part(g, basis, eps)
    assert calls == []


@pytest.mark.parametrize("basis", [[(0, 1.5)], [(1, math.inf)], [(math.nan, 0)]],
                         ids=["fractional log power", "infinite log power", "nan power"])
def test_extract_refuses_a_basis_pair_it_cannot_fit_before_sampling(basis):
    # a log power b must be integral and a power a finite: refused before g
    # is called, not truncated, overflowed or blamed on the fit
    calls = []

    def g(e):
        calls.append(e)
        return 1.0 / e

    with pytest.raises(ValueError, match="finite a and an integral b"):
        fp.extract_finite_part(g, basis, GRID)
    assert calls == []


def test_extract_reads_an_integral_float_log_power_as_an_int():
    dec = fp.extract_finite_part(lambda e: math.log(1 / e) ** 2 + 0.5, [(0, 2.0)], GRID)
    (a, b, c), = dec.divergent_terms
    assert (a, b) == (0.0, 2) and type(b) is int
    assert c == pytest.approx(1.0) and dec.finite_part == pytest.approx(0.5)


def test_extract_flags_near_dependent_basis():
    # eps^-1e-12 ln(1/e) vs ln(1/e): columns nearly parallel on any grid, at
    # condition 3e12, past MAX_CONDITION; a ten times wider gap reads 3e11
    with pytest.raises(fp.IllConditionedFitError) as err:
        fp.extract_finite_part(lambda e: -math.log(e), [(0, 1), (1e-12, 1)], GRID)
    assert err.value.condition > fp.MAX_CONDITION == 1e12
    dec = fp.extract_finite_part(lambda e: -math.log(e), [(0, 1), (1e-11, 1)], GRID)
    assert 1e11 < dec.condition <= fp.MAX_CONDITION


@pytest.mark.parametrize("basis", [[(400, 0)], [(1, 400)], [(1e-20, 0)]],
                         ids=["eps^-400", "ln^400", "eps^-1e-20 is the constant"])
def test_extract_refuses_columns_past_the_float_range_or_dependent(basis):
    # a column past the float range, or one equal to the constant's, is
    # refused as ill-conditioned, not by a LinAlgError
    with pytest.raises(fp.IllConditionedFitError) as err:
        fp.extract_finite_part(lambda e: 1.0 / e, basis, GRID)
    assert err.value.condition > 1e12


def test_extract_rejects_nonfinite_samples():
    with pytest.raises(ValueError):
        fp.extract_finite_part(lambda e: float("nan"), [(1, 0)], GRID)


def test_closed_form_and_extraction_agree_on_the_pole():
    # g(eps) = int_eps^1 dt/t = -ln eps; both routes give 0
    closed = fp.fp_power_integral(-1.0)
    dec = fp.extract_finite_part(lambda e: -math.log(e), [(0, 1)], GRID)
    assert closed == 0.0
    assert abs(dec.finite_part - closed) < 1e-6


def test_closed_form_and_extraction_agree_below_the_pole():
    # g(eps) = int_eps^1 t^-3/2 dt = 2/sqrt(eps) - 2 -> F.p. = -2
    dec = fp.extract_finite_part(lambda e: 2.0 / math.sqrt(e) - 2.0,
                                 [(0.5, 0)], GRID)
    assert dec.finite_part == pytest.approx(fp.fp_power_integral(-1.5), abs=1e-6)


# -- the least-squares solver against numpy ----------------------------------

def _lstsq_fit(columns, values):
    """The fit of ``_weighted_fit`` by np.linalg.lstsq, as an oracle: the
    constant (the last column's coefficient), the 2-norm condition number
    of the normalized design, and the error a backward-stable solve admits
    on that constant, kappa eps |y w| / |w|."""
    y = np.asarray(values, dtype=float)
    w = 1.0 / np.maximum(1.0, np.abs(y))
    design = np.asarray(columns, dtype=float).T * w[:, None]
    norms = np.linalg.norm(design, axis=0)
    coefs, _, _, sv = np.linalg.lstsq(design / norms, y * w, rcond=None)
    kappa = sv[0] / sv[-1]
    slack = kappa * np.finfo(float).eps * np.linalg.norm(y * w) / np.linalg.norm(w)
    return coefs[-1] / norms[-1], kappa, slack


_BENCH_GRID = tuple(10.0 ** (-1 - 5 * i / 23) for i in range(24))
_EXTRACT_CASES = {
    "1/e + 7": (lambda e: 1.0 / e + 7.0, [(1, 0)], GRID),
    "ln(1/e) + pi": (lambda e: math.log(1.0 / e) + math.pi, [(0, 1)], GRID),
    "t^-3 ln t": (_log_power_tail(-3.0), [(2.0, 1), (2.0, 0)], GRID),
    "t^-2.5 ln t": (_log_power_tail(-2.5), [(1.5, 1), (1.5, 0)], GRID),
    "t^-2 ln t": (_log_power_tail(-2.0), [(1.0, 1), (1.0, 0)], GRID),
    "t^0.5 ln t": (_log_power_tail(0.5), [], tuple(np.geomspace(1e-5, 1e-9, 24))),
    "-ln e": (lambda e: -math.log(e), [(0, 1)], GRID),
    "ln(x)/x^2": (lambda e: (math.log(e) + 1.0) / e - 1.0, [(1, 1), (1, 0)], GRID),
    "t^-1.5": (lambda e: 2.0 / math.sqrt(e) - 2.0, [(0.5, 0)], GRID),
    "bench t^-1.55": (lambda e: (1.0 - e ** -0.55) / -0.55, [(0.55, 0)], _BENCH_GRID),
    "bench t^-1 ln t": (lambda e: -math.log(1.0 / e) ** 2 / 2.0, [(0, 2)], _BENCH_GRID),
    "bench t^-2 ln t": (lambda e: -1.0 - math.log(1.0 / e) / e + 1.0 / e, [(1, 1), (1, 0)],
                        _BENCH_GRID),
}


def _assert_matches_lstsq(constant, condition, columns, values):
    want, kappa, slack = _lstsq_fit(columns, values)
    # 1e-13 relative, unless lstsq's own error on the constant may be larger
    assert abs(constant - want) <= max(1e-13 * abs(want), 4 * slack), (constant, want)
    assert kappa * (1 - 1e-12) <= condition <= len(columns) * kappa * (1 + 1e-12)


@pytest.mark.parametrize("label", list(_EXTRACT_CASES))
def test_extraction_matches_numpy_lstsq(label):
    g, basis, eps = _EXTRACT_CASES[label]
    dec = fp.extract_finite_part(g, basis, eps)
    e = np.asarray(eps)
    columns = [e ** -a * np.log(1.0 / e) ** b for a, b in basis] + [np.ones_like(e)]
    _assert_matches_lstsq(dec.finite_part, dec.condition, columns, [g(x) for x in eps])


@pytest.mark.parametrize("label,pins", [
    ("bench t^-1.55", ("-0x1.d1745d1745d15p+0", "0x1.7645563513844p-52", "0x1.3dfbceb7fb943p+1")),
    ("bench t^-1 ln t", ("-0x1.757e38f14c7c4p-54", "0x1.7104f058baea4p-51",
                         "0x1.458ba02ae9bc6p+1")),
    ("bench t^-2 ln t", ("-0x1.ffffffffffffap-1", "0x1.d4ba6e3d86b05p-53",
                         "0x1.42ff5ccfc86c3p+3"))])
def test_bench_extractions_are_pinned_bit_for_bit(label, pins):
    # finite part, residual and condition number of the fit, to the last bit
    g, basis, eps = _EXTRACT_CASES[label]
    dec = fp.extract_finite_part(g, basis, eps)
    assert tuple(map(float.hex, (dec.finite_part, dec.residual, dec.condition))) == pins


@pytest.mark.parametrize("alpha,log_weight,k", [
    (0.5, False, None), (1.5, False, None), (2.5, False, None), (3.5, False, None),
    (4.5, False, None), (6.5, False, None), (0.0, True, None), (0.5, True, None),
    (2.0, True, None), (3.0, True, None), (4.0, True, None), (-0.5, False, 0),
    (-2.0, False, 0), (-2.5, True, 0)])
def test_staircase_fits_match_numpy_lstsq(monkeypatch, alpha, log_weight, k):
    # every window the fitted staircase limit solves, at the default tol
    fits = []

    def recorded(columns, values, *rest):
        fits.append((columns, values, fp._weighted_fit(columns, values, *rest)))
        return fits[-1][2]

    monkeypatch.setattr(zeta, "_weighted_fit", recorded)
    call = zeta.zeta_prime_via_cesaro if log_weight else zeta.zeta_via_cesaro
    call(alpha, k=k)
    assert len(fits) >= 2
    for columns, values, (coefs, _, condition) in fits:
        _assert_matches_lstsq(coefs[-1], condition, columns, values)
