import json
import math
import subprocess
import sys
from fractions import Fraction

import jsonschema
import pytest

from cesaro import cli, exact


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


def test_env_var_sets_default_format(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV, "structured")
    code = cli.run(["bernoulli", "4"])
    out = capsys.readouterr().out.strip()
    assert code == 0
    json.loads(out)  # structured by default now
    # explicit flag wins over the env var
    code = cli.run(["bernoulli", "4", "--format", "text"])
    out = capsys.readouterr().out
    assert out.startswith("command: bernoulli")


def test_bad_env_var_falls_back_to_text(capsys, monkeypatch):
    monkeypatch.setenv(cli.FORMAT_ENV, "yaml")
    code = cli.run(["bernoulli", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("command: bernoulli")


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
