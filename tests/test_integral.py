import functools
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cesaro
from cesaro import exact, integral
from oracles import exp_primitive, periodic_primitive


def test_riesz_mean_closed_form_matches_quadrature():
    closed = integral.sin_wave(1.0)
    quad = integral.sampled(math.sin, label="sin")
    for k, X in ((1, 50.0), (2, 120.0)):
        a = integral.riesz_mean(closed, k, X)
        b = integral.riesz_mean(quad, k, X)
        assert a == pytest.approx(b, abs=1e-10), (k, X)


def test_riesz_mean_exp_decay_value():
    # int_0^X (1 - t/X) e^-t dt = 1 - 1/X + e^-X (stuff); X large kills the rest
    spec = integral.exp_decay()
    v = integral.riesz_mean(spec, 1, 200.0)
    assert v == pytest.approx(1.0 - 1.0 / 200.0, abs=1e-12)


def test_riesz_mean_sin_closed_form():
    # int_0^X (1 - t/X) sin t dt = (X - sin X)/X
    spec = integral.sin_wave(1.0)
    for X in (3.0, 47.0, 1234.5):
        assert integral.riesz_mean(spec, 1, X) == pytest.approx(
            (X - math.sin(X)) / X, abs=1e-12)


def test_riesz_mean_of_zero_is_zero():
    spec = integral.constant(0.0)
    for k in (0, 1, 2, 0.5):
        assert integral.riesz_mean(spec, k, 75.0) == pytest.approx(0.0, abs=1e-12)


def test_riesz_mean_plain_exp_integral():
    v = integral.riesz_mean(integral.exp_decay(), 0, 40.0)
    assert v == pytest.approx(1.0, abs=1e-12)


def test_riesz_mean_at_k_zero_is_the_plain_integral():
    # k = 0 is the plain integral; every order is the weighted integral,
    # read off the chain for k <= 7 and by quadrature beyond it (k = 8)
    import scipy.integrate as sciint

    cases = [
        (integral.sin_wave(2.0), 30.0),
        (integral.cos_wave(1.0), 55.0),
        (integral.exp_decay(), 25.0),
        (integral.power_log(0.5, 1), 12.0),
        (integral.power_log(-0.5, 2), 9.0),
        (integral.power_log(1.5, 3), 12.0),
        (integral.constant(3.0), 18.0),
    ]
    for spec, X in cases:
        for k in range(integral.MAX_CHAIN + 1):
            want, err = sciint.quad(lambda t: (1.0 - t / X) ** k * spec.func(t),
                                    0.0, X, epsabs=1e-12, limit=200)
            got = integral.riesz_mean(spec, k, X)
            assert got == pytest.approx(want, abs=max(1e-9, 10 * err)), (spec.label, k)


def test_riesz_mean_fractional_order_goes_through_quadrature():
    spec = integral.sin_wave(1.0)
    v = integral.riesz_mean(spec, 0.5, 300.0)
    assert abs(v - 1.0) < 0.05


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")  # 1e-14 is roundoff
@pytest.mark.parametrize("X", [1.0, 7.3, 300.0, 1e4, 1e5])
@pytest.mark.parametrize("k", [-0.9, -0.5, 0.5, 2.5, 8.0, 50.5])
def test_riesz_quadrature_against_the_algebraic_weight_rule(k, X):
    # scipy's QAWS treats the endpoint weight (X - t)^k exactly; at large X,
    # where most windows are read off their moments, it takes the last 100
    # and QAWO integrates the smooth weight against sin up to there
    import scipy.integrate as sciint

    if X <= 300.0:
        want = sciint.quad(math.sin, 0.0, X, weight="alg", wvar=(0.0, k),
                           limit=200)[0] / X ** k
    else:
        tight = dict(epsabs=1e-14, epsrel=1e-14, limit=200)
        want = (sciint.quad(lambda t: ((X - t) / X) ** k, 0.0, X - 100.0,
                            weight="sin", wvar=1.0, **tight)[0]
                + sciint.quad(math.sin, X - 100.0, X, weight="alg", wvar=(0.0, k),
                              **tight)[0] / X ** k)
    got = integral.riesz_mean(integral.sampled(math.sin), k, X)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


@pytest.mark.parametrize("X", [7.0, 300.0, 1e4])
@pytest.mark.parametrize("k", [0.5, -0.5, 8])
@pytest.mark.parametrize("name,wave", [("sin_wave", math.sin), ("cos_wave", math.cos)])
@pytest.mark.parametrize("a", [1.0, 2.5])
def test_trig_array_form_quadrature_equals_the_scalar_one(a, name, wave, k, X):
    # np.sin and np.cos round as math.sin and math.cos do at these nodes, so
    # one array call must give the per-node quadrature bit for bit
    got = integral.riesz_mean(getattr(integral, name)(a), k, X)
    assert got == integral.riesz_mean(integral.sampled(lambda t: wave(a * t)), k, X)


@pytest.mark.parametrize("X", [7.0, 300.0, 1e4])
@pytest.mark.parametrize("k", [0.5, -0.5, 8])
def test_exp_array_form_quadrature_matches_the_scalar_one(k, X):
    # np.exp is an ulp off math.exp at some nodes
    got = integral.riesz_mean(integral.exp_decay(), k, X)
    want = integral.riesz_mean(integral.sampled(lambda t: math.exp(-t)), k, X)
    assert abs(got - want) <= 1e-10 * max(1.0, abs(want))


_SAMPLED_AND_CLOSED = [
    (integral.sampled(math.sin), integral.sin_wave(1.0)),
    (integral.sampled(math.cos), integral.cos_wave(1.0)),
    (integral.sampled(lambda t: math.exp(-t)), integral.exp_decay())]


def test_integer_order_quadrature_matches_the_closed_form():
    # the rule corrects each node for its rounding to a double, which at
    # X = 1e5 is worth two orders of magnitude here
    for X in integral.default_grid():
        got = integral.riesz_mean(integral.sampled(math.sin), 1, X)
        assert abs(got - (X - math.sin(X)) / X) <= 1e-12, X
    # the grid reader: every X from one pass of window moments
    for sampled, closed in _SAMPLED_AND_CLOSED:
        for k in (1, 2, 3, 5):
            got = integral.cesaro_integral(sampled, k, _EIGHT).trace
            want = integral.cesaro_integral(closed, k, _EIGHT).trace
            for X, a, b in zip(_EIGHT, got, want):
                assert abs(a - b) <= 1e-12, (closed.label, k, X)


def _counted_sin():
    calls = [0]

    def f(t):
        calls[0] += 1
        return math.sin(t)
    return integral.sampled(f), calls


def test_every_off_chain_order_samples_the_integrand_about_once_per_grid():
    # every order off the chain reads the moments of one pass over the grid's
    # windows: an integer order k <= 16 calls f no more often than order 0
    # does, and any other order adds only the windows near each X
    spec, calls = _counted_sin()
    integral.cesaro_integral(spec, 0)
    base = calls[0]
    for k, bound in ((1, 1.1), (2, 1.1), (5, 1.1), (0.5, 1.25), (-0.5, 1.25), (2.5, 1.25),
                     (17, 1.25)):
        calls[0] = 0
        integral.cesaro_integral(spec, k)
        assert calls[0] <= bound * base, (k, calls[0], base)


@pytest.mark.parametrize("k,X,want", [
    (-0.5, 7.3, "0x1.0b015e7feed1ap+1"), (-0.5, 1e4, "0x1.4820a9135b512p+6"),
    (0.5, 7.3, "0x1.5ecd7dfe33097p-1"), (0.5, 1e4, "0x1.02048c6ebc0b2p+0"),
    (2.5, 7.3, "0x1.e7506aaafd1cfp-1"), (2.5, 1e4, "0x1.fffffebb565c4p-1")])
def test_fractional_riesz_mean_at_one_point_is_pinned(k, X, want):
    # a fractional order at one X reads the windows of [0, X] alone: the far
    # ones off their moments, the ones near X under the weight
    assert integral.riesz_mean(integral.sampled(math.sin), k, X).hex() == want


def _nan_beyond_ten(t):
    return math.nan if t > 10 else 1.0


def test_riesz_quadrature_rejects_a_non_finite_integrand():
    with pytest.raises(integral.QuadratureError, match="not finite"):
        integral.riesz_mean(integral.sampled(_nan_beyond_ten), 0.5, 100.0)


def test_cumulative_quadrature_rejects_a_non_finite_integrand():
    with pytest.raises(integral.QuadratureError, match="not finite"):
        integral.primitive_limit(integral.sampled(_nan_beyond_ten), 1)


_IMPORT_PROBE = """
import math, sys

def loaded():
    return sorted({"numpy", "cesaro._quadrature", "scipy"} & set(sys.modules))

import cesaro.cli
if loaded():
    sys.exit(f"import cesaro.cli loaded {loaded()}")
I = cesaro.integral
for spec in (I.sin_wave(1.0), I.cos_wave(1.0), I.exp_decay(), I.power_log(0.5, 1),
             I.constant(2.0)):
    for k in range(8):
        I.riesz_mean(spec, k, 300.0)
    for k in range(3):
        I.primitive_limit(spec, k)
if loaded():
    sys.exit(f"a closed-form order loaded {loaded()}")
value = I.riesz_mean(I.sampled(math.sin), 0.5, 300.0)
if loaded() != ["cesaro._quadrature", "numpy"]:
    sys.exit(f"quadrature ran with {loaded()} loaded")
print(value)
"""


def test_quadrature_needs_no_scipy_and_builds_its_rule_on_first_use():
    # start-up and closed forms load neither numpy nor the quadrature module,
    # the first quadrature loads both, and no path of the package loads scipy
    src = os.path.dirname(os.path.dirname(os.path.abspath(cesaro.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert abs(float(proc.stdout) - 1.0) < 0.05


def test_riesz_mean_rejects_bad_orders():
    spec = integral.sin_wave(1.0)
    with pytest.raises(ValueError):
        integral.riesz_mean(spec, -1.0, 10.0)
    with pytest.raises(ValueError):
        integral.riesz_mean(spec, 1, 0.0)


def test_cesaro_integral_sin_hits_one_over_a():
    for a in (1.0, 2.0):
        ev = integral.cesaro_integral(integral.sin_wave(a), 1)
        assert ev.converged
        assert abs(ev.value - 1.0 / a) < 1e-4, a


def test_cesaro_integral_cos_averages_to_zero():
    ev = integral.cesaro_integral(integral.cos_wave(3.0), 1)
    assert ev.converged
    assert abs(ev.value) < 1e-4


def test_cesaro_integral_absolutely_convergent_case():
    ev = integral.cesaro_integral(integral.exp_decay(), 1)
    assert ev.converged
    assert abs(ev.value - 1.0) < 1e-4


def test_cesaro_integral_divergent_integrand_flagged():
    # int t^-1/2 grows like 2 sqrt(X); no finite Riesz mean of any order
    ev = integral.cesaro_integral(integral.power_log(-0.5), 1,
                                  X_grid=integral.default_grid(1e2, 1e4))
    assert not ev.converged


def test_power_log_rejects_nonintegrable_exponent():
    with pytest.raises(ValueError):
        integral.power_log(-1.0)
    with pytest.raises(ValueError):
        integral.power_log(-2.5)


@pytest.mark.parametrize("factory,value,name", [
    (integral.power_log, math.inf, "alpha"),
    (integral.power_log, math.nan, "alpha"),
    (integral.constant, math.inf, "c"),
    (integral.constant, math.nan, "c"),
    (integral.sin_wave, math.inf, "a"),
    (integral.sin_wave, math.nan, "a"),
    (integral.cos_wave, -math.inf, "a"),
])
def test_factories_name_a_non_finite_parameter(factory, value, name):
    # with alpha = inf every chain coefficient is 0, so only an up-front
    # check stops a converged 0
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        factory(value)


@pytest.mark.parametrize("p", [1.5, -1, math.nan])
def test_power_log_names_a_bad_log_power(p):
    with pytest.raises(ValueError, match=r"\bp must be"):
        integral.power_log(0.5, p)


def test_power_log_takes_an_integral_float_log_power():
    # 2.0 counts as 2, as it does for orders
    spec, want = integral.power_log(0.5, 2.0), integral.power_log(0.5, 2)
    assert spec.label == want.label == "t^0.5*ln^2(t)"
    for X in (0.3, 7.3, 300.0):
        assert spec.func(X) == want.func(X)
        assert [F(X) for F in spec.primitives] == [F(X) for F in want.primitives]


@pytest.mark.parametrize("factory,value,name", [
    (integral.sin_wave, 1e39, "a"),
    (integral.cos_wave, 1e39, "a"),
    (integral.cos_wave, -1e39, "a"),
])
def test_factories_name_a_parameter_whose_chain_overflows(factory, value, name):
    # finite, but (ia)^j leaves the float range while the chain is built
    with pytest.raises(ValueError, match=f"^{name}=.* is too large"):
        factory(value)


def test_periodic_poly_names_the_degree_of_a_chain_past_the_float_range():
    # B_300 is past the float range, so are P_0's coefficients; n = 200 builds
    integral.periodic_poly(exact.pm_polynomial(200, 0))
    with pytest.raises(ValueError, match="^p of degree 301: its primitive chain leaves "
                                         "the float range"):
        integral.periodic_poly(exact.pm_polynomial(300, 0))


@pytest.mark.parametrize("alpha,p", [(100.0, 0), (100.0, 1), (400.0, 0), (400.0, 3),
                                     (1e300, 0)])
def test_power_log_past_the_float_range_reads_inf(alpha, p):
    # t^(alpha+j) overflows at the grid's end: the layer reads +inf, and the
    # record is not converged rather than an exception; at alpha = 1e300 every
    # coefficient past layer 1 underflows to 0, which must not read 0
    spec = integral.power_log(alpha, p)
    for k in (0, 3, integral.MAX_CHAIN - 1):
        assert integral.riesz_mean(spec, k, 1e5) == math.inf, k
        ev = integral.cesaro_integral(spec, k)
        assert ev.value == math.inf and not ev.converged, k


def test_zero_constant_has_zero_primitives_past_the_float_range():
    # t^j overflows there, but a zero integrand's layers have no terms
    spec = integral.constant(0.0)
    for X in (75.0, 1e40, 1e100, 1e300):
        assert [F(X) for F in spec.primitives] == [0.0] * integral.MAX_CHAIN
    assert integral.riesz_mean(spec, integral.MAX_CHAIN - 1, 1e40) == 0.0


def test_constant_past_the_float_range_reads_inf():
    ev = integral.cesaro_integral(integral.constant(1e308), 1)
    assert ev.value == math.inf and not ev.converged


@pytest.mark.parametrize("spec,X,want", [
    (integral.constant(0.0), 1e300, 0.0),
    # c X / 8, with F_8 = c X^8 / 8! finite where X^7 is not
    (integral.constant(1e-60), 1e45, 1e-60 * 1e45 / 8),
], ids=["zero", "tiny"])
def test_closed_form_mean_is_finite_where_x_to_the_k_overflows(spec, X, want):
    assert integral.riesz_mean(spec, 7, X) == pytest.approx(want, rel=1e-12, abs=0.0)


def test_closed_form_mean_of_a_non_finite_layer_is_not_converged():
    # sin's F_7 at X = 1e60 is past the float range and reads nan
    grid = integral.default_grid(lo=1e57, hi=1e60)
    assert math.isnan(integral.riesz_mean(integral.sin_wave(1.0), 7, 1e60))
    ev = integral.cesaro_integral(integral.sin_wave(1.0), 7, grid)
    assert math.isnan(ev.value) and not ev.converged


@pytest.mark.parametrize("alpha,p", [(0.5, 171), (0.5, 200), (-0.9, 120)])
def test_power_log_names_a_log_power_whose_coefficients_overflow(alpha, p):
    # q!/(q-i)! overflows past q = 170, and 1/g^(i+1) near alpha = -1; the
    # coefficients would be inf and the layers nan
    with pytest.raises(ValueError, match=rf"^alpha={alpha:g} with log power p={p} "
                                         "is out of range"):
        integral.power_log(alpha, p)


def test_power_log_builds_at_the_largest_finite_factorial():
    ev = integral.cesaro_integral(integral.power_log(0.5, 170), 1)
    assert math.isfinite(ev.value)


@pytest.mark.parametrize("alpha,p,want", [(-0.5, 0, math.inf), (0.0, 0, 1.0),
                                          (0.0, 1, 0.0), (0.5, 0, 0.0)])
def test_power_log_at_zero(alpha, p, want):
    assert integral.power_log(alpha, p).func(0.0) == want


def test_power_log_chain_is_zero_at_zero_and_undefined_below():
    F1 = integral.power_log(0.5).primitives[0]
    assert F1(0.0) == 0.0
    with pytest.raises(ValueError, match="t >= 0"):
        F1(-1.0)


def test_primitive_limit_of_constant():
    ev = integral.primitive_limit(integral.constant(1.0), 2)
    assert ev.converged
    assert ev.value == pytest.approx(1.0, abs=1e-9)


def test_primitive_limit_function_vs_integral_semantics():
    # the function sin has Cesaro limit 0, (1 - cos X)/X; its integral has
    # Cesaro value 1, the order-1 Riesz mean (X - sin X)/X
    spec = integral.sin_wave(1.0)
    fn = integral.primitive_limit(spec, 1)
    assert fn.converged
    assert abs(fn.value) < 1e-4
    ev = integral.cesaro_integral(spec, 1)
    assert ev.converged
    assert abs(ev.value - 1.0) < 1e-4


def test_primitive_limit_agrees_with_riesz_mean():
    # the order-1 Cesaro value of int sin(2t) is 1/2: cesaro_integral's
    # samples are riesz_mean at each grid point, and F_2(X)/X off the chain
    spec = integral.sin_wave(2.0)
    grid = integral.default_grid()
    ev = integral.cesaro_integral(spec, 1, grid)
    for X, got in zip(grid[-len(ev.trace):], ev.trace):
        assert got == integral.riesz_mean(spec, 1, X), X
        assert got == pytest.approx(spec.primitives[1](X) / X, rel=1e-15), X
    assert ev.converged
    assert ev.value == pytest.approx(0.5, abs=1e-4)


def test_riesz_and_primitive_forms_agree_pointwise():
    # both routes reduce to (aX - sin aX)/(a^2 X); they must match everywhere
    for a in (1.0, 2.0):
        base = integral.sin_wave(a)
        first = base.primitives[1]  # (ax - sin ax)/a^2
        for X in integral.default_grid():
            via_riesz = integral.riesz_mean(base, 1, X)
            via_chain = first(X) / X
            closed = (a * X - math.sin(a * X)) / (a * a * X)
            assert via_riesz == pytest.approx(closed, abs=1e-9), (a, X)
            assert via_chain == pytest.approx(closed, abs=1e-9), (a, X)
            assert via_riesz == pytest.approx(via_chain, abs=1e-9), (a, X)


@pytest.mark.parametrize("spec", [integral.sin_wave(1.0), integral.cos_wave(1.0),
                                  integral.exp_decay()])
def test_raising_the_order_keeps_the_value(spec):
    # convergence at k implies convergence to the same value at k + 1
    tol = 1e-3
    for k in (0, 1, 2):
        ev = integral.cesaro_integral(spec, k, tol=tol)
        if not ev.converged:
            continue
        up = integral.cesaro_integral(spec, k + 1, tol=tol)
        assert up.converged, (spec.label, k + 1)
        assert abs(up.value - ev.value) < 2 * tol, (spec.label, k)


def test_primitive_limit_mean_zero_periodic_vanishes():
    p = exact.PeriodicPolynomial((Fraction(-1, 2), Fraction(1)))  # {x} - 1/2
    ev = integral.primitive_limit(integral.periodic_poly(p), 1)
    assert abs(ev.value) < 1e-6


def _square_wave(t):
    return 1.0 if (t % 1.0) < 0.5 else -1.0


def _triangle_wave(t):
    r = t % 1.0
    return r if r <= 0.5 else 1.0 - r


def test_primitive_limit_square_wave_vanishes():
    # mean-zero square wave: F_1 is the bounded triangle wave, so the limit is 0
    spec = integral.from_primitives(_square_wave, [_triangle_wave],
                                    label="square-wave")
    ev = integral.primitive_limit(spec, 1)
    assert ev.converged
    assert abs(ev.value) < 1e-3


def test_cumulative_quadrature_reports_jumpy_integrand():
    # the bare-callable fallback cannot certify a discontinuous integrand;
    # it must say so through the error contract rather than guess
    samp = integral.sampled(_square_wave, label="square-wave")
    grid = integral.default_grid(lo=20.0, hi=2_000.0, num=8)
    with pytest.raises(integral.QuadratureError) as exc:
        integral.primitive_limit(samp, 1, X_grid=grid)
    assert exc.value.error_estimate > 0


# eight points, so the trace of an evaluation holds every grid point
_EIGHT = integral.default_grid(num=8)


@pytest.mark.parametrize("k", [2, 3, 4, 6])
def test_primitive_limit_of_a_sampled_integrand_answers_beyond_order_one(k):
    for sampled, closed_spec in _SAMPLED_AND_CLOSED:
        ev = integral.primitive_limit(sampled, k, _EIGHT)
        want = integral.primitive_limit(closed_spec, k, _EIGHT)
        assert len(ev.trace) == len(_EIGHT)
        for got, closed in zip(ev.trace, want.trace):
            assert abs(got - closed) <= 1e-12, (closed_spec.label, k, got, closed)


@pytest.mark.parametrize("spec", [
    integral.sin_wave(1.0), integral.exp_decay(), integral.power_log(0.5, 1),
    integral.constant(2.0), integral.sampled(math.sin, label="sampled-sin"),
    integral.sampled(math.cos, label="sampled-cos")],
    ids=lambda spec: spec.label)
def test_primitive_limit_is_k_over_x_times_the_riesz_mean_one_order_down(spec):
    # Cauchy's formula: k! F_k(X) / X^k = (k/X) int_0^X (1 - t/X)^(k-1) f(t) dt;
    # k = 1 on a sampled spec reads the order-0 grid reader, checked in the next test
    for k in (1, 2, 3) if spec.primitives else (2, 3):
        ev = integral.primitive_limit(spec, k, _EIGHT)
        for X, got in zip(_EIGHT, ev.trace):
            want = k * integral.riesz_mean(spec, k - 1, X) / X
            assert got == pytest.approx(want, rel=1e-12), (k, X)


@pytest.mark.parametrize("k", [0, 1, 2, 5, 8, -0.5, 0.5, 2.5])
def test_grid_reader_matches_the_one_point_reader(k):
    # cesaro_integral reads every X off one pass over the grid's stitched
    # windows; riesz_mean at one X reads the windows of [0, X] alone
    spec = integral.sampled(math.sin)
    grid = integral.default_grid()
    ev = integral.cesaro_integral(spec, k, grid)
    for X, got in zip(grid[-len(ev.trace):], ev.trace):
        want = integral.riesz_mean(spec, k, X)
        bound = 1e-12 if k == int(k) else 1e-10 * max(1.0, abs(want))
        assert abs(got - want) <= bound, X
        if k == 0:
            assert abs(got - (1.0 - math.cos(X))) <= 1e-9, X


def test_primitive_limit_k_zero_is_plain_sampling():
    ev = integral.primitive_limit(integral.exp_decay(), 0)
    assert ev.converged
    assert abs(ev.value) < 1e-12  # e^-X at the grid tail


def test_chain_verification_catches_wrong_primitives():
    with pytest.raises(ValueError):
        integral.from_primitives(math.sin, [lambda x: math.cos(x)],
                                 label="broken")


def test_chain_verification_accepts_correct_primitives():
    spec = integral.from_primitives(
        math.sin, [lambda x: 1.0 - math.cos(x)], label="sin")
    # the accepted chain drives the closed-form paths
    assert integral.riesz_mean(spec, 0, 2.0) == 1.0 - math.cos(2.0)
    ev = integral.primitive_limit(spec, 1)
    assert ev.converged and abs(ev.value) < 1e-3


def test_sampled_integrand_through_quadrature_grid():
    grid = integral.default_grid(lo=20.0, hi=2_000.0, num=8)
    ev = integral.cesaro_integral(integral.sampled(math.sin, label="sin"),
                                  1, X_grid=grid, tol=1e-2)
    assert abs(ev.value - 1.0) < 1e-2


@pytest.mark.parametrize("lo,hi,num", [
    (1e2, 1e5, 16), (1e2, 1e4, 8), (1e1, 1e3, 8), (20.0, 2_000.0, 8),  # tests, bench
    (1.0, 100.0, 16), (3.0, 3e3, 16), (1e4, 1e7, 16), (1e57, 1e60, 16),  # the CLI's
])
def test_default_grid_is_geometric_with_exact_ends(lo, hi, num):
    # pure Python, so not numpy's geomspace bit for bit: numpy's power rounds
    # differently from libm's in the last bits
    import numpy as np

    grid = integral.default_grid(lo, hi, num)
    assert len(grid) == num and (grid[0], grid[-1]) == (lo, hi)
    assert all(type(x) is float for x in grid)
    assert all(b > a for a, b in zip(grid, grid[1:]))
    for x, want in zip(grid, np.geomspace(lo, hi, num).tolist()):
        assert abs(x - want) <= 1e-13 * want


def test_grid_validation():
    with pytest.raises(ValueError):
        integral.cesaro_integral(integral.sin_wave(1.0), 1, X_grid=(1.0, 2.0))
    with pytest.raises(ValueError):
        integral.cesaro_integral(integral.sin_wave(1.0), 1,
                                 X_grid=tuple(float(x) for x in range(10, 0, -1)))
    with pytest.raises(ValueError):
        # spans less than two decades
        integral.cesaro_integral(integral.sin_wave(1.0), 1,
                                 X_grid=tuple(10.0 + i for i in range(10)))
    unbounded = integral.default_grid(1e2, 1e5, 15) + (math.inf,)
    for spec in (integral.sin_wave(1.0), integral.sampled(math.sin)):
        with pytest.raises(ValueError, match="^X grid must hold finite"):
            integral.primitive_limit(spec, 1, X_grid=unbounded)
    with pytest.raises(ValueError, match="^hi must be finite"):
        integral.default_grid(1e2, math.inf)


def test_trig_chain_layers_vanish_at_zero():
    spec = integral.cos_wave(2.0)
    for F in spec.primitives:
        assert abs(F(0.0)) < 1e-15


@pytest.mark.parametrize("k,X,name", [
    (float("nan"), 10.0, "k"),
    (float("inf"), 10.0, "k"),
    (1, float("nan"), "X"),
    (1, float("inf"), "X"),
])
def test_riesz_mean_rejects_non_finite_inputs(k, X, name):
    with pytest.raises(ValueError, match=f"^{name} must be finite"):
        integral.riesz_mean(integral.sin_wave(1.0), k, X)


@pytest.mark.parametrize("name,a", [("sin", 0.01), ("sin", 1.0), ("sin", 2.5),
                                    ("cos", 0.01), ("cos", 1.0), ("cos", 2.5),
                                    ("exp", -1.0)])
def test_exp_chains_match_the_exact_taylor_tail(name, a):
    # riesz_mean at integer k is k! F_{k+1}(X) / X^k; the chain of e^{ct}
    # must keep its digits down to |cX| = 1e-5, where subtracting the Taylor
    # head from e^{cX} would cancel them all
    if name == "exp":
        spec, c, part = integral.exp_decay(), (Fraction(a), Fraction(0)), 0
    else:
        spec = (integral.sin_wave if name == "sin" else integral.cos_wave)(a)
        c, part = (Fraction(0), Fraction(a)), 1 if name == "sin" else 0
    for X in (1e-3, 0.01, 0.1, 1.0, 7.3, 30.0):
        for k in range(integral.MAX_CHAIN):
            F = exp_primitive(*c, k + 1, Fraction(X))[part]
            want = float(math.factorial(k) * F / Fraction(X) ** k)
            got = integral.riesz_mean(spec, k, X)
            assert abs(got - want) <= 1e-14 * abs(want), (X, k, got, want)


# -- every layer of every built-in chain, by a route of its own ----------------

def _exp_layers(c, part):
    """Layer j of e^{ct} at t, from the exact Taylor-tail oracle, at |ct| from
    1e-3 (the tail is summed) to 40 (the Taylor head is subtracted)."""
    def want(j, t):
        return float(exp_primitive(*c, j, Fraction(t))[part])
    scale = abs(complex(float(c[0]), float(c[1])))
    return want, [z / scale for z in (1e-3, 0.5, 3.0, 9.7, 40.0)], 1e-13, 0.0


def _power_layers(alpha, coeff):
    """Layer j of coeff t^alpha: coeff t^(alpha+j) Gamma(alpha+1)/Gamma(alpha+j+1),
    summed in logarithms, so that a layer past the float range reads inf."""
    def want(j, t):
        if t == 0.0:
            return coeff * (math.inf if alpha + j < 0 else float(alpha + j == 0))
        x = (math.log(abs(coeff)) + (alpha + j) * math.log(t)
             + math.lgamma(alpha + 1) - math.lgamma(alpha + j + 1))
        return math.copysign(math.exp(x) if x < math.log(sys.float_info.max) else math.inf,
                             coeff)
    return want, [0.0, 1e-6, 0.01, 0.5, 1.0, 2.5, 7.3, 100.0, 1e3, 1e5, 1e6], 1e-12, 0.0


def _quad_layers(spec):
    """Layer j >= 1 at t as scipy's quadrature of the chain's own layer j - 1
    over [0, t]; layer 0 is the integrand itself."""
    import scipy.integrate as sciint

    layers = (spec.func,) + spec.primitives

    def want(j, t):
        if j == 0:
            return spec.func(t)
        return sciint.quad(layers[j - 1], 0.0, t, epsabs=0.0, epsrel=1e-10, limit=200)[0]
    return want, [0.5, 1.0, 2.5, 7.3, 30.0], 1e-8, 0.0


def _periodic_layers(p):
    """Layer j of p({x}) by Cauchy's formula in Fractions, whole periods
    summed by integer power sums (``oracles.periodic_primitive``)."""
    def want(j, x):
        return float(periodic_primitive(p.coeffs, j, x))
    # float rounding of x and of the coefficients is relative to the
    # coefficients, not to a layer near one of its zeros, which is far below
    # them: under 7e-5 the bound is 7e-18 absolute
    return want, [0.0, 0.3, 1.0, 2.5, 7.3, 100.25, 1e3 + 1 / 3, 1e6 - 0.1], 1e-13, 7e-5


_CHAIN_CASES = (
    [(f"{name}({a:g})", functools.partial(getattr(integral, f"{name}_wave"), a),
      functools.partial(_exp_layers, (Fraction(0), Fraction(a)), 1 if name == "sin" else 0))
     for name in ("sin", "cos") for a in (0.3, 1.0, 2.5, 5e3, 1e4)]
    + [("exp_decay", integral.exp_decay,
        functools.partial(_exp_layers, (Fraction(-1), Fraction(0)), 0))]
    + [(f"power_log({alpha:g})", functools.partial(integral.power_log, alpha),
        functools.partial(_power_layers, alpha, 1.0))
       for alpha in (-0.9, -0.5, 0.0, 0.3, 1.5, 3.7, 7.0, 100.0)]
    + [(f"power_log({alpha:g}, {p})", functools.partial(integral.power_log, alpha, p),
        None) for alpha in (-0.9, 0.0, 0.5, 3.7, 100.0) for p in (1, 2, 3)]
    + [(f"constant({c:g})", functools.partial(integral.constant, c),
        functools.partial(_power_layers, 0.0, c)) for c in (1.0, -0.3, 1e308)]
    + [(f"periodic_poly({name})", functools.partial(integral.periodic_poly, p),
        functools.partial(_periodic_layers, p))
       for name, p in (("3, 1", exact.pm_polynomial(3, 1)), ("3, 0", exact.pm_polynomial(3, 0)),
                       ("5, 2", exact.pm_polynomial(5, 2)),
                       ("u^2 - u/3", exact.PeriodicPolynomial((0, Fraction(-1, 3), 1))))])


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("build,route", [case[1:] for case in _CHAIN_CASES],
                         ids=[case[0] for case in _CHAIN_CASES])
def test_builtin_chain_layers_match_an_independent_route(build, route):
    # the built-in chains come from closed-form recurrences and are not probed
    # when built; this checks every layer, the integrand included, so every
    # consecutive pair.  a = 5e3 and 1e4 and c = 1e308 are correct chains
    # that a fixed-step difference probe once rejected at build
    spec = build()
    want, points, rel, floor = route() if route else _quad_layers(spec)
    for j, layer in enumerate((spec.func,) + spec.primitives):
        for t in points:
            expected, got = want(j, t), layer(t)
            if math.isinf(expected):
                assert got == expected, (j, t, got)
            else:
                assert abs(got - expected) <= rel * max(abs(expected), floor), (
                    j, t, got, expected)


def test_the_periodic_oracle_integrates_by_hand_cases():
    # a constant: F_j(x) = x^j / j!; {x} - 1/2: F_1(x) = ({x}^2 - {x}) / 2
    for x in (Fraction(0), Fraction(3, 10), Fraction(7), Fraction(100025, 1000)):
        u = x - math.floor(x)
        for j in range(integral.MAX_CHAIN + 1):
            assert periodic_primitive((1,), j, x) == x ** j / math.factorial(j), (j, x)
        assert periodic_primitive((Fraction(-1, 2), 1), 1, x) == (u * u - u) / 2, x


_PM31 = exact.pm_polynomial(3, 1)


@pytest.mark.parametrize("X", [2.5, 40.3, 1000.7, 12345.6, 1e5])
def test_periodic_riesz_means_match_cauchys_formula(X):
    # every integer order of the chain is the closed form k! F_{k+1}(X)/X^k;
    # quadrature cannot integrate these past about 50 periods
    spec = integral.periodic_poly(_PM31)
    for k in range(1, integral.MAX_CHAIN):
        F = periodic_primitive(_PM31.coeffs, k + 1, X)
        want = float(math.factorial(k) * F / Fraction(X) ** k)
        got = integral.riesz_mean(spec, k, X)
        assert abs(got - want) <= 1e-12 * abs(want), (k, got, want)


@pytest.mark.parametrize("k", range(integral.MAX_CHAIN))
def test_periodic_riesz_means_keep_their_digits_in_the_first_period(k):
    # there a deep layer is far below the P_j(t) and Q_j(t) it is summed
    # from, so the layer reads the one polynomial P_j + Q_j (near t = 1 a
    # layer nears its zero, and digits go by cancellation, not by the split)
    for X in (0.01, 0.3):
        F = periodic_primitive(_PM31.coeffs, k + 1, X)
        want = float(math.factorial(k) * F / Fraction(X) ** k)
        got = integral.riesz_mean(integral.periodic_poly(_PM31), k, X)
        assert abs(got - want) <= 5e-16 * abs(want), (X, got, want)


@pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 7) for m in range(n + 1)])
def test_primitive_limit_of_a_periodic_layer_is_its_mean(n, m):
    # the paper's lemma: p({x}) minus its mean is Cesaro-negligible.  With
    # Q_1 the periodic part of the first primitive, the order-1 sample leaves
    # the mean by Q_1({X})/X, 0 at the grid's integer end, and an order
    # k >= 2 sample by k mean(Q_1)/X + O(1/X^2)
    p = exact.pm_polynomial(n, m)
    spec = integral.periodic_poly(p)
    mean = float(exact.periodic_mean(p))
    for k, bound in ((1, 1e-9), (2, 1e-5), (3, 1e-5), (5, 1e-5)):
        ev = integral.primitive_limit(spec, k)
        assert ev.converged, k
        assert abs(ev.value - mean) <= bound, (k, ev.value, mean)


@functools.cache
def _cos_quadrature(k, X):
    return integral.riesz_mean(integral.sampled(math.cos), k, X)


@pytest.mark.parametrize("scale", [2.0 ** -30, 2.0 ** 14])
def test_quadrature_scales_exactly_with_the_integrand(scale):
    # no target or acceptance rule has an absolute floor, so scale * cos
    # takes the same bisections as cos and answers scale times its value
    scaled = integral.sampled(lambda t: scale * math.cos(t))
    for k in (-0.5, 0.5, 1, 2.5):
        for X in (1e3, 1e4, 3e4):
            assert integral.riesz_mean(scaled, k, X) == scale * _cos_quadrature(k, X), (k, X)
    assert (integral.primitive_limit(scaled, 1).value
            == scale * integral.primitive_limit(integral.sampled(math.cos), 1).value)
