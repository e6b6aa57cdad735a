import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import jsonschema
import pytest

from cesaro import cli, exact, zeta


def run_json(capsys, argv):
    code = cli.run(argv + ["--format", "structured"])
    out = capsys.readouterr().out.strip()
    records = [json.loads(line) for line in out.splitlines()]
    for rec in records:
        jsonschema.validate(rec, cli.OUTPUT_SCHEMA)
    return code, records


def run_text(capsys, argv):
    code = cli.run(argv + ["--format", "text"])
    out = capsys.readouterr().out
    pairs = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(": ")
        pairs[key] = val
    return code, pairs


def test_bernoulli_exact_output(capsys):
    code, (rec,) = run_json(capsys, ["bernoulli", "12"])
    assert code == 0
    assert rec["result"]["exact"] == "-691/2730"
    assert rec["result"]["float"] == pytest.approx(-691 / 2730)


def test_zeta_exact_values(capsys):
    want = ["-1/2", "-1/12", "0", "1/120", "0", "-1/252"]
    for n, w in enumerate(want):
        code, (rec,) = run_json(capsys, ["zeta", str(-n)])
        assert code == 0
        assert rec["result"]["exact"] == w, n


def test_zeta_positive_argument_is_a_domain_error(capsys):
    code = cli.run(["zeta", "1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "error" in captured.err


def test_faulhaber_output(capsys):
    code, pairs = run_text(capsys, ["faulhaber", "2", "5"])
    assert code == 0
    assert pairs["result.exact"] == "30"


def test_pm_poly_output(capsys):
    code, (rec,) = run_json(capsys, ["pm-poly", "1", "1"])
    assert code == 0
    assert rec["result"]["coeffs"] == ["1/2", "-1"]
    assert rec["result"]["mean"] == "0"


def test_usage_errors_exit_one(capsys):
    assert cli.run(["no-such-command"]) == 1
    capsys.readouterr()
    assert cli.run(["bernoulli"]) == 1
    capsys.readouterr()
    assert cli.run(["bernoulli", "-3"]) == 1  # domain error from the core
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert cli.run(["--help"]) == 0
    capsys.readouterr()
    assert cli.run(["zeta-estimate", "--help"]) == 0
    capsys.readouterr()


def test_strict_flags_nonconvergence(capsys):
    code, (rec,) = run_json(capsys, ["cesaro-sum", "geometric", "--ratio", "2",
                                     "--order", "2", "--terms", "1000",
                                     "--strict"])
    assert code == 2
    assert rec["diagnostics"]["converged"] is False


def test_without_strict_nonconvergence_still_exits_zero(capsys):
    code, (rec,) = run_json(capsys, ["cesaro-sum", "geometric", "--ratio", "2",
                                     "--order", "2", "--terms", "1000"])
    assert code == 0
    assert rec["diagnostics"]["converged"] is False


@pytest.mark.parametrize("strict,want", [([], 0), (["--strict"], 2)])
def test_divergent_estimate_is_a_record_not_an_error(capsys, strict, want):
    code, pairs = run_text(capsys, ["zeta-estimate", "--alpha", "3", "--order", "1",
                                    "--xmax", "1e300"] + strict)
    assert code == want
    assert pairs["result.float"] == "-inf"
    assert pairs["diagnostics.converged"] == "false"


def test_zeta_estimate_past_the_float_range_warns_nothing(capsys):
    # m^200.5 overflows from m = 35; under the suite's warnings-as-errors a
    # numpy RuntimeWarning would have turned this record into an error
    code = cli.run(["zeta-estimate", "--alpha", "200.5", "--format", "text"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    assert "diagnostics.converged: false" in captured.out.splitlines()


@pytest.mark.parametrize("command", ["zeta-estimate", "zeta-prime-estimate"])
def test_an_estimate_past_the_decimal_range_is_a_record(capsys, command):
    # n^(alpha+1) leaves Decimal's range as well as the float range
    code = cli.run([command, "--alpha", "1000000.5", "--order", "2"])
    captured = capsys.readouterr()
    assert code == 0 and captured.err == ""
    lines = captured.out.splitlines()
    assert lines[0] == f"command: {command}"
    for line in ("result.float: nan", "diagnostics.error_estimate: inf",
                 "diagnostics.converged: false"):
        assert line in lines


def test_cesaro_sum_alt_sign(capsys):
    code, (rec,) = run_json(capsys, ["cesaro-sum", "alt-sign", "--order", "1",
                                     "--terms", "10000", "--tol", "1e-3"])
    assert code == 0
    assert rec["result"]["float"] == pytest.approx(0.5, abs=1e-4)
    assert rec["diagnostics"]["converged"] is True


def test_cesaro_sum_beyond_the_float_range_exits_one(capsys):
    assert cli.run(["cesaro-sum", "alt-sign", "--order", "150"]) == 1
    err = capsys.readouterr().err
    assert "order k=150 with n_terms=10000 needs a normalization beyond" in err


def test_cesaro_sum_past_the_order_bound_exits_one(capsys):
    assert cli.run(["cesaro-sum", "geometric", "--ratio", "0.5", "--terms", "10",
                    "--order", "600"]) == 1
    err = capsys.readouterr().err
    assert err == "error: order k=600 is above 512, the most a (C, k) mean takes\n"


def test_cesaro_int_sin(capsys):
    code, (rec,) = run_json(capsys, ["cesaro-int", "sin", "--freq", "2",
                                     "--order", "1"])
    assert code == 0
    assert rec["result"]["float"] == pytest.approx(0.5, abs=1e-4)


def test_fp_int_exact_and_float(capsys):
    code, pairs = run_text(capsys, ["fp-int", "--alpha=-3/2"])
    assert code == 0
    assert pairs["result.exact"] == "-2"
    assert pairs["result.float"] == "-2"


def test_fp_log_int(capsys):
    code, (rec,) = run_json(capsys, ["fp-log-int", "--alpha=-2"])
    assert code == 0
    assert rec["result"]["exact"] == "-1"
    assert rec["result"]["float"] == pytest.approx(-1.0)


# records as printed before fp-int and fp-log-int shared one handler
_FP_GOLDEN = [
    (["fp-int", "--alpha=-3/2"],
     '{"command":"fp-int","inputs":{"alpha":-1.5,"upper":1.0},'
     '"result":{"float":-2.0,"exact":"-2"}}'),
    (["fp-int", "--alpha=-1", "--upper", "2"],
     '{"command":"fp-int","inputs":{"alpha":-1.0,"upper":2.0},'
     '"result":{"float":0.6931471805599453}}'),
    (["fp-int", "--alpha", "0.5", "--upper", "2"],
     '{"command":"fp-int","inputs":{"alpha":0.5,"upper":2.0},'
     '"result":{"float":1.885618083164127}}'),
    (["fp-int", "--alpha=-2", "--upper=3/2"],
     '{"command":"fp-int","inputs":{"alpha":-2.0,"upper":1.5},'
     '"result":{"float":-0.6666666666666666,"exact":"-2/3"}}'),
    (["fp-int", "--alpha=-1"],
     '{"command":"fp-int","inputs":{"alpha":-1.0,"upper":1.0},'
     '"result":{"float":0.0,"exact":"0"}}'),
    (["fp-int", "--alpha", "1e-3"],
     '{"command":"fp-int","inputs":{"alpha":0.001,"upper":1.0},'
     '"result":{"float":0.9990009990009991,"exact":"1000/1001"}}'),
    (["fp-log-int", "--alpha=-3/2"],
     '{"command":"fp-log-int","inputs":{"alpha":-1.5,"upper":1.0},'
     '"result":{"float":-4.0,"exact":"-4"}}'),
    (["fp-log-int", "--alpha", "0.5", "--upper", "2"],
     '{"command":"fp-log-int","inputs":{"alpha":0.5,"upper":2.0},'
     '"result":{"float":0.04993213584864508}}'),
    (["fp-log-int", "--alpha=-1"],
     '{"command":"fp-log-int","inputs":{"alpha":-1.0,"upper":1.0},'
     '"result":{"float":0.0,"exact":"0"}}'),
    # b rounds to 1.0 but is not 1, so ln b != 0 and no exact value exists
    (["fp-log-int", "--alpha=-3/2", "--upper", "0.99999999999999999999"],
     '{"command":"fp-log-int","inputs":{"alpha":-1.5,"upper":1.0},'
     '"result":{"float":-4.0}}'),
]


@pytest.mark.parametrize("argv,want", _FP_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in _FP_GOLDEN])
def test_finite_part_records_are_golden(capsys, argv, want):
    code = cli.run(argv + ["--format", "structured"])
    assert code == 0
    assert capsys.readouterr().out == want + "\n"


def test_a_finite_part_past_the_float_range_prints_null_and_its_exact_value(capsys):
    code, (rec,) = run_json(capsys, ["fp-int", "--alpha", "2", "--upper", "1e300"])
    assert code == 0
    assert rec["result"] == {"float": None, "exact": str(Fraction(10**900, 3))}
    code, pairs = run_text(capsys, ["fp-log-int", "--alpha", "2", "--upper", "1e300"])
    assert code == 0
    assert pairs["result.float"] == "inf"


def test_a_finite_part_that_fits_a_float_prints_that_float(capsys):
    # 2^1024 overflows, the finite part 2^1024 / 1024 = 2^1014 does not
    code, (rec,) = run_json(capsys, ["fp-int", "--alpha", "1023", "--upper", "2"])
    assert code == 0
    assert rec["result"]["exact"] == str(2 ** 1014)
    assert rec["result"]["float"] == float(Fraction(rec["result"]["exact"])) == 2.0 ** 1014


@pytest.mark.parametrize("command", ["fp-int", "fp-log-int"])
def test_finite_part_help_shows_the_negative_rational_form(capsys, command):
    assert cli.run([command, "--help"]) == 0
    assert "--alpha=-3/2" in capsys.readouterr().out
    # the form the help shows must parse
    assert cli.run([command, "--alpha=-3/2"]) == 0
    capsys.readouterr()


def test_exact_and_estimate_paths_agree(capsys):
    # the numeric staircase limit must land within its own error estimate
    # of the closed-form rational for every small integer exponent
    for n in range(6):
        _, (exact_rec,) = run_json(capsys, ["zeta", str(-n)])
        _, (est_rec,) = run_json(capsys, ["zeta-estimate", "--alpha", str(n)])
        want = Fraction(exact_rec["result"]["exact"])
        got = est_rec["result"]["float"]
        budget = max(est_rec["diagnostics"]["error_estimate"], 1e-9)
        assert abs(got - float(want)) <= budget, n


def test_alpha_range_sweep_emits_one_record_each(capsys):
    code, records = run_json(capsys, ["zeta-estimate", "--alpha-range",
                                      "0", "2", "1"])
    assert code == 0
    assert [r["inputs"]["alpha"] for r in records] == [0.0, 1.0, 2.0]


def test_alpha_range_does_not_drift(capsys):
    code, records = run_json(capsys, ["zeta-estimate", "--alpha-range",
                                      "0", "1", "0.1", "--xmax", "1000"])
    assert code == 0
    alphas = [r["inputs"]["alpha"] for r in records]
    assert alphas == [i * 0.1 for i in range(11)]
    assert alphas[-1] == 1.0


def test_sweep_skips_the_pole_with_a_log(capsys):
    code = cli.run(["zeta-estimate", "--alpha-range", "-1", "0", "1",
                    "--format", "structured", "--xmax", "1000"])
    captured = capsys.readouterr()
    assert code == 0
    records = [json.loads(line) for line in captured.out.strip().splitlines()]
    assert [r["inputs"]["alpha"] for r in records] == [0.0]


def test_estimator_pole_is_an_error_without_a_range(capsys):
    code = cli.run(["zeta-estimate", "--alpha", "-1"])
    captured = capsys.readouterr()
    assert code == 1
    assert "pole" in captured.err


@pytest.mark.parametrize("xmax", ["inf", "1e400", "nan"])
def test_cesaro_int_names_a_non_finite_xmax(capsys, xmax):
    code = cli.run(["cesaro-int", "sin", "--xmax", xmax])
    assert code == 1
    assert "error: xmax must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", ["inf", "nan"])
def test_cesaro_int_names_a_non_finite_alpha(capsys, alpha):
    # no record: an infinite alpha has no chain to read a mean from
    code = cli.run(["cesaro-int", "power-log", "--alpha", alpha])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: alpha must be finite" in captured.err


@pytest.mark.parametrize("argv,message", [
    (["zeta-estimate", "--alpha", "1", "--tol", "nan"], "tol must be finite"),
    (["zeta-estimate", "--alpha", "1", "--tol", "-1"], "tol must be >= 0"),
    (["cesaro-sum", "geometric", "--ratio", "nan"], "ratio must be finite"),
    (["cesaro-sum", "power", "--power", "nan"], "power must be finite"),
    (["cesaro-sum", "power", "--power=-inf"], "power must be finite"),
    (["fp-int", "--alpha=1e400"], "alpha is too large"),
    (["fp-int", "--alpha=-3/2", "--upper=1e400"], "upper is too large"),
    (["fp-log-int", "--alpha=1e400"], "alpha is too large"),
])
def test_an_option_out_of_range_is_named(capsys, argv, message):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: {message}" in captured.err


def test_cesaro_sum_power_is_zeta_of_the_negated_power(capsys):
    code, (rec,) = run_json(capsys, ["cesaro-sum", "power", "--power", "-2",
                                     "--order", "0", "--terms", "10000",
                                     "--tol", "1e-3"])
    assert code == 0
    assert rec["inputs"]["power"] == -2.0
    assert rec["result"]["float"] == pytest.approx(math.pi ** 2 / 6, abs=2e-4)
    assert rec["diagnostics"]["converged"] is True


@pytest.mark.parametrize("sequence,flag", [("power", "--power"), ("geometric", "--ratio")])
def test_cesaro_sum_names_the_missing_parameter(capsys, sequence, flag):
    code = cli.run(["cesaro-sum", sequence])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"needs {flag}" in captured.err


def test_floats_are_printed_with_17_significant_digits(capsys):
    _, pairs = run_text(capsys, ["zeta", "-1"])
    assert pairs["result.float"] == format(-1.0 / 12.0, ".17g")


def test_text_format_is_line_oriented_key_value(capsys):
    cli.run(["bernoulli", "6", "--format", "text"])
    out = capsys.readouterr().out
    for line in out.strip().splitlines():
        assert ": " in line


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cesaro.cli", "zeta", "-2", "--format",
         "structured"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["result"]["exact"] == "0"


def _no_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def test_structured_record_of_a_divergent_estimate_is_strict_json(capsys):
    # the text record says -inf; JSON has no such token, so it says null
    code = cli.run(["zeta-estimate", "--alpha", "3", "--order", "1",
                    "--xmax", "1e300", "--format", "structured"])
    assert code == 0
    rec = json.loads(capsys.readouterr().out, parse_constant=_no_constant)
    jsonschema.validate(rec, cli.OUTPUT_SCHEMA)
    assert rec["result"]["float"] is None
    assert rec["diagnostics"]["error_estimate"] is None
    assert rec["diagnostics"]["converged"] is False


def test_an_exact_value_that_is_no_limit_has_no_error_bound(capsys):
    # order 1 <= alpha = 1: the polynomial reads -1/6, twice zeta(-1), and
    # that is no estimate of a limit, so its error is unbounded (null)
    code, (rec,) = run_json(capsys, ["zeta-estimate", "--alpha", "1", "--order", "1"])
    assert code == 0
    assert rec["result"]["float"] == -1 / 6
    assert rec["diagnostics"]["error_estimate"] is None
    assert rec["diagnostics"]["converged"] is False


def test_pm_poly_text_record_joins_the_coefficients(capsys):
    code, pairs = run_text(capsys, ["pm-poly", "3", "1"])
    assert code == 0
    assert pairs["result.coeffs"] == "0 -1/2 3/2 -1"


def test_cesaro_int_power_log_echoes_alpha_then_logpow(capsys):
    code, (rec,) = run_json(capsys, ["cesaro-int", "power-log", "--alpha", "0.5",
                                     "--logpow", "1"])
    assert code == 0
    assert list(rec["inputs"]) == ["integrand", "order", "xmax", "tol", "alpha", "logpow"]
    assert rec["inputs"]["alpha"] == 0.5
    assert rec["inputs"]["logpow"] == 1


@pytest.mark.parametrize("argv,option", [
    (["cesaro-sum", "alt-sign", "--ratio", "2"], "ratio"),
    (["cesaro-sum", "geometric", "--ratio", "0.5", "--power", "3"], "power"),
    (["cesaro-int", "sin", "--alpha", "3"], "alpha"),
])
def test_records_echo_only_the_options_the_named_input_reads(capsys, argv, option):
    code, (rec,) = run_json(capsys, argv)
    assert code == 0
    assert option not in rec["inputs"]


@pytest.mark.parametrize("argv,message,logged", [
    (["zeta-estimate"], "one of --alpha or --alpha-range is required", ""),
    (["zeta-estimate", "--alpha-range", "0", "1", "0"],
     "--alpha-range step must be positive", ""),
    (["zeta-estimate", "--alpha-range", "-1", "-1", "1"],
     "no alpha in the requested range was usable", "skipping alpha=-1"),
])
def test_alpha_sweep_errors_exit_one(capsys, caplog, argv, message, logged):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: {message}" in captured.err
    assert logged in caplog.text


@pytest.mark.parametrize("command", ["bernoulli", "faulhaber", "zeta", "pm-poly",
                                     "zeta-estimate", "zeta-prime-estimate",
                                     "cesaro-sum", "cesaro-int", "fp-int", "fp-log-int"])
def test_every_subcommand_has_help(capsys, command):
    assert cli.run([command, "--help"]) == 0
    assert capsys.readouterr().out.startswith(f"usage: cesaro {command}")


@pytest.mark.parametrize("argv,name", [
    (["cesaro-int", "cos", "--freq=-1e39"], "a=-1e+39"),
    (["cesaro-int", "sin", "--freq", "1e39"], "a=1e+39"),
])
def test_cesaro_int_names_a_parameter_whose_chain_overflows(capsys, argv, name):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: {name} is too large" in captured.err


@pytest.mark.parametrize("alpha,logpow", [("100", "0"), ("100", "1"), ("400", "0"),
                                          ("400", "3")])
@pytest.mark.parametrize("strict", [[], ["--strict"]], ids=["lenient", "strict"])
def test_cesaro_int_power_log_past_the_float_range_is_not_converged(capsys, strict,
                                                                     alpha, logpow):
    # t^(alpha+j) leaves the float range on the default grid: a record that
    # reads inf, as cesaro-sum power --power 400 does, not an OverflowError
    code, pairs = run_text(capsys, ["cesaro-int", "power-log", "--alpha", alpha,
                                    "--logpow", logpow] + strict)
    assert code == (2 if strict else 0)
    assert pairs["result.float"] == "inf"
    assert pairs["diagnostics.converged"] == "false"


def test_cesaro_int_answers_a_fast_sine(capsys):
    # a = 1e4: (C,1) mean 1/a - sin(aX)/(a^2 X) at X = 1e5
    code, (rec,) = run_json(capsys, ["cesaro-int", "sin", "--freq", "1e4", "--order", "1"])
    a, X = 1e4, 1e5
    assert code == 0
    assert rec["diagnostics"]["converged"] is True
    assert abs(rec["result"]["float"] - (1 / a - math.sin(a * X) / (a * a * X))) <= 1e-9


@pytest.mark.parametrize("xmax", ["50", "0.5"])
def test_cesaro_int_names_an_xmax_below_its_grid(capsys, xmax):
    code = cli.run(["cesaro-int", "sin", "--xmax", xmax])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: xmax must be at least 100, got {xmax}" in captured.err


@pytest.mark.parametrize("bounds,name", [(["0", "inf", "1"], "HI"), (["nan", "1", "1"], "LO"),
                                         (["0", "1", "inf"], "STEP")])
def test_alpha_range_names_a_non_finite_bound(capsys, bounds, name):
    code = cli.run(["zeta-estimate", "--alpha-range"] + bounds)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert f"error: --alpha-range {name} must be finite" in captured.err


@pytest.mark.parametrize("bounds,steps", [(["0", "1e308", "1e-300"], "inf"),
                                          (["0", "1e9", "1"], "1e+09")])
def test_alpha_range_refuses_too_many_steps(capsys, monkeypatch, bounds, steps):
    # refused before any estimate runs: an estimate here would fail the test
    # at once, where a sweep of 1e9 alphas would run without bound
    def estimate(*args, **kwargs):
        raise AssertionError("an estimate ran")

    monkeypatch.setattr(zeta, "zeta_via_cesaro", estimate)
    code = cli.run(["zeta-estimate", "--alpha-range"] + bounds)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert (f"error: --alpha-range spans {steps} steps, more than "
            f"{cli.ALPHA_RANGE_MAX_STEPS}") in captured.err


@pytest.mark.parametrize("argv,what", [
    (["zeta-estimate", "--alpha", "1000000"], "order k=1000001"),
    (["zeta-estimate", "--alpha", "1000000", "--order", "1"], "degree alpha + k = 1000001"),
    (["zeta-prime-estimate", "--alpha", "0.5", "--order", "3000"], "order k=3000"),
])
def test_an_estimate_past_the_order_bound_exits_one_at_once(capsys, argv, what):
    start = time.perf_counter()
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert captured.out == ""
    assert f"error: {what} is above 512, " in captured.err
    assert "`cesaro zeta -n` or zeta_neg_int(n)" in captured.err


@pytest.mark.parametrize("argv,index", [
    (["bernoulli", str(exact.MAX_BERNOULLI + 1)], exact.MAX_BERNOULLI + 1),
    (["zeta", str(-exact.MAX_BERNOULLI - 1)], exact.MAX_BERNOULLI + 2),  # B_{n+1}
], ids=["bernoulli", "zeta"])
def test_an_exact_command_past_the_bernoulli_bound_exits_one_at_once(capsys, argv, index):
    start = time.perf_counter()
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert time.perf_counter() - start < 0.1
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: Bernoulli index {index} is above "
                                   f"MAX_BERNOULLI = {exact.MAX_BERNOULLI},")


def test_cesaro_int_names_a_log_power_whose_coefficients_overflow(capsys):
    code = cli.run(["cesaro-int", "power-log", "--alpha", "0.5", "--logpow", "200"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert "error: alpha=0.5 with log power p=200 is out of range" in captured.err


def test_cesaro_int_high_order_at_a_huge_xmax_is_not_converged(capsys):
    # X^7 leaves the float range; sin's F_7 there reads nan, so the record
    # does too, not an OverflowError
    code, pairs = run_text(capsys, ["cesaro-int", "sin", "--order", "7", "--xmax", "1e60"])
    assert code == 0
    assert pairs["result.float"] == "nan"
    assert pairs["diagnostics.converged"] == "false"


_NO_NUMPY_PROBE = """
import sys
from cesaro.cli import run
code = run(sys.argv[1:])
sys.exit("the command loaded numpy" if "numpy" in sys.modules else code)
"""


@pytest.mark.parametrize("argv", [
    ["zeta", "-7"], ["faulhaber", "10", "1000"], ["pm-poly", "4", "1"],
    ["fp-int", "--alpha=-3/2"], ["fp-log-int", "--alpha=-3/2"], ["bernoulli", "30"],
    # the staircase estimators sum in integers and fit in pure Python
    pytest.param(["zeta-estimate", "--alpha", "0.5"], id="zeta-estimate"),
    pytest.param(["zeta-estimate", "--alpha-range", "0", "2", "0.5"],
                 id="zeta-estimate-range"),
    pytest.param(["zeta-prime-estimate", "--alpha", "0"], id="zeta-prime-estimate"),
    # every order below the chain depth is read off the integrand's closed form
    *(pytest.param(["cesaro-int", name, "--order", order], id=f"cesaro-int-{name}-{order}")
      for name in ("sin", "cos", "exp-decay", "power-log") for order in ("0", "7")),
], ids=lambda argv: argv[0])
def test_exact_subcommands_load_no_numpy(argv):
    proc = _run_python("-c", _NO_NUMPY_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"command: {argv[0]}\n")


def _run_python(*args: str) -> subprocess.CompletedProcess:
    """Run ``python args...`` against this checkout's cesaro."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return subprocess.run([sys.executable, *args],
                          env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                          text=True, timeout=60)


# main() as the console script runs it; a module the interpreter had loaded
# before cesaro (a site hook's, say) does not count
_LEAN_PROBE = """
import sys
before = set(sys.modules)
from cesaro.cli import main
code = main()
loaded = sorted({"dataclasses", "logging"} & set(sys.modules) - before)
sys.exit(f"the command loaded {loaded}" if loaded else code)
"""


@pytest.mark.parametrize("argv", [["zeta", "-7"], ["bernoulli", "30"],
                                  ["faulhaber", "10", "1000"], ["pm-poly", "4", "1"]],
                         ids=lambda argv: argv[0])
def test_exact_subcommands_load_no_dataclasses_or_logging(argv):
    proc = _run_python("-c", _LEAN_PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(f"command: {argv[0]}\n")


def test_the_console_script_logs_a_skipped_alpha_on_stderr():
    # logging is imported at the first warning, and main's format applies
    proc = _run_python("-m", "cesaro.cli", "zeta-estimate", "--alpha-range", "-1", "-1", "1")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("WARNING skipping alpha=-1: ")
    assert "error: no alpha in the requested range was usable" in proc.stderr
