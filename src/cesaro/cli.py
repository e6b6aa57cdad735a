"""Command-line front end.

Every computation in the package is reachable from one subcommand, and every
invocation prints exactly one record per result, through ``_emit``: stable
``key: value`` lines in text mode, one JSON object per line in structured
mode.  stdout is reserved for records, stderr for logs; exit codes are 0
(success), 1 (usage or domain error), 2 (non-convergence under --strict).

Only the exact layer is imported up front.  Every other module is imported
by the handler that runs it, which reads the defaults of --xmax and --tol
from that module's constants then: the exact subcommands load neither numpy
nor dataclasses, the staircase estimates and closed-form ``cesaro-int``
orders no numpy.  ``logging`` is imported at the first warning, and the
numeric error types only once a handler has raised.
"""
from __future__ import annotations

import argparse
import math
import sys
from fractions import Fraction
from functools import partial

from . import exact

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NOT_CONVERGED = 2

# the most steps an --alpha-range sweep may take
ALPHA_RANGE_MAX_STEPS = 10_000

OUTPUT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "cesaro record",
    "type": "object",
    "required": ["command", "inputs", "result"],
    "properties": {
        "command": {"type": "string"},
        "inputs": {"type": "object"},
        "result": {
            "type": "object",
            "properties": {
                "exact": {"type": "string", "pattern": "^-?[0-9]+(/[0-9]+)?$"},
                "float": {"type": ["number", "null"]},
            },
            "additionalProperties": True,
        },
        "diagnostics": {
            "type": ["object", "null"],
            "properties": {
                "order": {"type": "integer", "minimum": 0},
                "n_terms": {"type": "integer", "minimum": 0},
                "error_estimate": {"type": ["number", "null"]},
                "converged": {"type": "boolean"},
            },
            "additionalProperties": True,
        },
    },
    "additionalProperties": False,
}


def _fmt(v) -> str:
    if isinstance(v, float):
        return format(v, ".17g")
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (list, tuple)):
        return " ".join(_fmt(x) for x in v)
    return str(v)


def _emit(fmt: str, command: str, inputs: dict, result: dict,
          diagnostics: dict | None = None) -> None:
    """Print one record: ``key: value`` lines, or one compact JSON object in
    which a non-finite float is null (RFC 8259 has no token for it)."""
    sections = {"inputs": inputs, "result": result}
    if diagnostics is not None:
        sections["diagnostics"] = diagnostics
    if fmt == "structured":
        import json

        record = {"command": command}
        for name, section in sections.items():
            record[name] = {key: None if isinstance(v, float) and not math.isfinite(v)
                            else v for key, v in section.items()}
        print(json.dumps(record, separators=(",", ":"), allow_nan=False))
    else:
        print("\n".join([f"command: {command}"] + [
            f"{name}.{key}: {_fmt(v)}"
            for name, section in sections.items() for key, v in section.items()]))


def _warn(message: str, *args) -> None:
    """Log a warning to the ``cesaro.cli`` logger.  logging is imported and
    set up here, at the first warning, since most commands never warn; a
    process that configured logging itself keeps its setup."""
    import logging

    logging.basicConfig(stream=sys.stderr, format="%(levelname)s %(message)s")
    logging.getLogger("cesaro.cli").warning(message, *args)


def _emit_estimate(inputs: dict, ev, args, fmt: str) -> int:
    """Print one CesaroEvaluation's record; returns the exit code it earns."""
    diag = {"order": ev.order, "n_terms": ev.n_terms,
            "error_estimate": ev.error_estimate, "converged": ev.converged}
    _emit(fmt, args.cmd, inputs, {"float": ev.value}, diag)
    return EXIT_NOT_CONVERGED if args.strict and not ev.converged else EXIT_OK


# -- the named inputs ------------------------------------------------------------

# name -> (the options its builder reads, in order, and the builder, which
# takes the module that evaluates it and then those options); the parser
# offers these names, and a record echoes exactly these options
_SEQUENCES = {
    "alt-sign": ((), lambda series: series.SeriesSpec(lambda n: (-1.0) ** n)),
    "alt-sign-n": ((), lambda series: series.SeriesSpec(lambda n: (-1.0) ** n * n)),
    "geometric": (("ratio",), lambda series, r: series.SeriesSpec(lambda n: r ** n)),
    "power": (("power",), lambda series, p: series.SeriesSpec(
        lambda n: float(n) ** p, start=1)),
}

_INTEGRANDS = {
    "sin": (("freq",), lambda integral, a: integral.sin_wave(a)),
    "cos": (("freq",), lambda integral, a: integral.cos_wave(a)),
    "exp-decay": ((), lambda integral: integral.exp_decay()),
    "power-log": (("alpha", "logpow"), lambda integral, a, p: integral.power_log(a, p)),
}


def _cesaro_integral_to(spec, k: int, x_max: float, tol: float):
    """cesaro_integral on a grid of two to three decades ending at x_max."""
    from . import integral
    from .evaluation import require_finite
    require_finite(xmax=x_max)
    if x_max < 100:
        raise ValueError(f"xmax must be at least 100, got {x_max:g}")
    grid = integral.default_grid(lo=max(1.0, x_max / 1000.0), hi=x_max)
    return integral.cesaro_integral(spec, k, grid, tol)


# -- subcommand handlers -------------------------------------------------------

def _zeta_at(s: int) -> Fraction:
    if s > 0:
        raise ValueError("the exact path covers zeta(s) for integer s <= 0 only")
    return exact.zeta_neg_int(-s)


def _cmd_exact(args, fmt: str, fn, params) -> int:
    """bernoulli / faulhaber / zeta: one exact value of the integer params."""
    inputs = {name: getattr(args, name) for name in params}
    value = fn(*inputs.values())
    _emit(fmt, args.cmd, inputs, {"exact": str(value), "float": float(value)})
    return EXIT_OK


def _cmd_pm_poly(args, fmt: str) -> int:
    p = exact.pm_polynomial(args.n, args.m)
    result = {"coeffs": [str(c) for c in p.coeffs],
              "mean": str(exact.periodic_mean(p))}
    _emit(fmt, "pm-poly", {"n": args.n, "m": args.m}, result)
    return EXIT_OK


def _alphas(args) -> list:
    """The alphas to estimate at: --alpha, or every step of --alpha-range."""
    if args.alpha_range is not None:
        from .evaluation import require_finite
        lo, hi, step = args.alpha_range
        require_finite(**{"--alpha-range LO": lo, "--alpha-range HI": hi,
                          "--alpha-range STEP": step})
        if step <= 0:
            raise ValueError("--alpha-range step must be positive")
        steps = (hi - lo) / step
        if not steps <= ALPHA_RANGE_MAX_STEPS:  # inf too
            raise ValueError(f"--alpha-range spans {steps:g} steps, more than "
                             f"{ALPHA_RANGE_MAX_STEPS}")
        # indexed, not a running sum: ten `+= 0.1` steps end at 0.9999999999999999
        return [lo + i * step for i in range(math.floor(steps + 1e-9) + 1)]
    if args.alpha is not None:
        return [args.alpha]
    raise ValueError("one of --alpha or --alpha-range is required")


def _run_estimates(args, fmt: str, estimator: str) -> int:
    """zeta-estimate / zeta-prime-estimate: one record per alpha."""
    alphas = _alphas(args)
    from . import zeta
    estimate = getattr(zeta, estimator)
    if args.xmax is None:
        args.xmax = zeta.DEFAULT_XMAX
    if args.tol is None:
        args.tol = zeta.DEFAULT_TOL
    worst = EXIT_OK
    emitted = False
    for a in alphas:
        try:
            ev = estimate(a, k=args.order, X_max=args.xmax, tol=args.tol)
        except ValueError as exc:
            if args.alpha_range is None:
                raise
            _warn("skipping alpha=%g: %s", a, exc)
            continue
        inputs = {"alpha": a, "order": ev.order, "xmax": args.xmax,
                  "tol": args.tol}
        worst = max(worst, _emit_estimate(inputs, ev, args, fmt))
        emitted = True
    if not emitted:
        raise ValueError("no alpha in the requested range was usable")
    return worst


def _cmd_cesaro_sum(args, fmt: str) -> int:
    from . import series
    return _cesaro_mean(args, fmt, series, series.cesaro_sum, "sequence", _SEQUENCES,
                        "terms")


def _cmd_cesaro_int(args, fmt: str) -> int:
    from . import integral
    return _cesaro_mean(args, fmt, integral, _cesaro_integral_to, "integrand",
                        _INTEGRANDS, "xmax")


def _cesaro_mean(args, fmt: str, module, evaluate, kind: str, table: dict,
                 span: str) -> int:
    """cesaro-sum / cesaro-int: the (C,k) mean of the named sequence or
    integrand, built from exactly the options its table entry names."""
    from .evaluation import require_finite
    name = getattr(args, kind)
    options, build = table[name]
    if args.tol is None:
        args.tol = module.DEFAULT_TOL
    inputs = {kind: name, "order": args.order, span: getattr(args, span), "tol": args.tol}
    for option in options:
        inputs[option] = getattr(args, option)
        if inputs[option] is None:
            raise ValueError(f"{kind} '{name}' needs --{option}")
        require_finite(**{option: inputs[option]})
    ev = evaluate(build(module, *(inputs[option] for option in options)),
                  args.order, inputs[span], args.tol)
    return _emit_estimate(inputs, ev, args, fmt)


def _cmd_finite_part(args, fmt: str, float_fn: str, exact_fn: str) -> int:
    """fp-int / fp-log-int: the float value, plus the exact one where the
    rational inputs give a rational value (exact_fn raises ValueError where
    they do not); both are ``finite_part`` functions, named."""
    from . import finite_part
    from .evaluation import require_finite
    alpha = Fraction(args.alpha)
    upper = Fraction(args.upper)
    require_finite(alpha=alpha, upper=upper)
    inputs = {"alpha": float(alpha), "upper": float(upper)}
    result = {"float": getattr(finite_part, float_fn)(inputs["alpha"], inputs["upper"])}
    try:
        result["exact"] = str(getattr(finite_part, exact_fn)(alpha, upper))
    except ValueError:
        pass
    _emit(fmt, args.cmd, inputs, result)
    return EXIT_OK


# -- parser --------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "structured"), default="text",
                        help="output format: key: value lines (text, the default) "
                             "or one JSON object per line (structured)")
    common.add_argument("--strict", action="store_true",
                        help="exit 2 when the evaluation did not converge")

    parser = argparse.ArgumentParser(
        prog="cesaro",
        description="Generalized summation: Cesaro limits, finite parts, "
                    "Bernoulli algebra, zeta special values.")
    sub = parser.add_subparsers(dest="cmd", required=True)

    for name, fn, params, help_text in (
            ("bernoulli", exact.bernoulli, ("n",), "exact Bernoulli number B_n"),
            ("faulhaber", exact.faulhaber_sum, ("n", "m"),
             "exact power sum 1^n + ... + (m-1)^n"),
            ("zeta", _zeta_at, ("s",), "exact zeta(s) at integer s <= 0")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        for param in params:
            p.add_argument(param, type=int)
        p.set_defaults(handler=partial(_cmd_exact, fn=fn, params=params))

    p = sub.add_parser("pm-poly", parents=[common],
                       help="periodic layer polynomial P_m for the staircase "
                            "of exponent n")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.set_defaults(handler=_cmd_pm_poly)

    for name, estimator in (("zeta-estimate", "zeta_via_cesaro"),
                            ("zeta-prime-estimate", "zeta_prime_via_cesaro")):
        p = sub.add_parser(name, parents=[common],
                           help=f"{'zeta' if name == 'zeta-estimate' else 'zeta-prime'}"
                                "(-alpha) from the staircase Cesaro limit")
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--alpha-range", type=float, nargs=3, default=None,
                       metavar=("LO", "HI", "STEP"),
                       help="sweep alpha over an inclusive range")
        p.add_argument("--order", type=int, default=None,
                       help="Cesaro order k (default: max(0, ceil(alpha)+1))")
        p.add_argument("--xmax", type=float, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.set_defaults(handler=partial(_run_estimates, estimator=estimator))

    p = sub.add_parser("cesaro-sum", parents=[common],
                       help="Cesaro (C,k) sum of a built-in sequence")
    p.add_argument("sequence", choices=tuple(_SEQUENCES))
    p.add_argument("--ratio", type=float, default=None,
                   help="ratio for the geometric sequence")
    p.add_argument("--power", type=float, default=None,
                   help="exponent for the power sequence (terms start at n=1)")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--terms", type=int, default=10_000)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=_cmd_cesaro_sum)

    p = sub.add_parser("cesaro-int", parents=[common],
                       help="Cesaro (C,k) mean of a built-in integrand")
    p.add_argument("integrand", choices=tuple(_INTEGRANDS))
    p.add_argument("--freq", type=float, default=1.0,
                   help="angular frequency for sin/cos")
    p.add_argument("--alpha", type=float, default=0.0,
                   help="exponent for power-log (must be > -1)")
    p.add_argument("--logpow", type=int, default=0,
                   help="log power for power-log")
    p.add_argument("--order", type=int, default=1)
    p.add_argument("--xmax", type=float, default=1e5)
    p.add_argument("--tol", type=float, default=None)
    p.set_defaults(handler=_cmd_cesaro_int)

    for name, integrand, float_fn, exact_fn in (
            ("fp-int", "t^alpha", "fp_power_integral", "fp_power_integral_exact"),
            ("fp-log-int", "t^alpha ln t", "fp_log_power_integral",
             "fp_log_power_integral_exact")):
        p = sub.add_parser(name, parents=[common],
                           help=f"finite part of int_0^b {integrand} dt")
        p.add_argument("--alpha", required=True,
                       help="exponent; a rational such as --alpha=-3/2 "
                            "keeps the exact path")
        p.add_argument("--upper", default="1", help="upper limit b (default 1)")
        p.set_defaults(handler=partial(_cmd_finite_part, float_fn=float_fn,
                                       exact_fn=exact_fn))

    return parser


def run(argv) -> int:
    """Parse argv, dispatch, print records; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; fold the
        # latter into this tool's usage-error code.
        return EXIT_OK if exc.code == 0 else EXIT_USAGE

    try:
        return args.handler(args, args.format)
    except (ValueError, OverflowError, ZeroDivisionError, RuntimeError) as exc:
        if not isinstance(exc, _domain_errors()):  # a RuntimeError of no layer
            raise
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _domain_errors() -> tuple:
    """The errors that a handler reports as `error: ...` and exit 1.  Read
    only after one has raised, so no command imports the numeric layers for
    their error types."""
    from .evaluation import QuadratureError
    from .finite_part import IllConditionedFitError
    return (ValueError, OverflowError, ZeroDivisionError, QuadratureError,
            IllConditionedFitError)


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
