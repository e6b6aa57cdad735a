"""The three benchmark workloads as fixed case lists.

A case is one call into the package (or one ``cesaro`` CLI process) plus a
check that turns its output into records compared with ``references``.  One
pass makes every call of a workload once.  The seed shuffles call order per
pass and draws each non-integer alpha inside a fixed bin of half-width 0.15
around the bin centre, so the code path and the Cesaro order k of every case
are the same for all seeds.

Building a workload constructs the package objects the calls need (the
integral factories verify their primitive chains, ``pm_polynomial`` builds
Bernoulli numbers); that is the set-up the benchmark times.  References are
computed lazily, on the first check, outside every timed region.
"""
from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Optional

import references as ref

WORKLOADS = ("staircase", "summation", "cli_cold")

CLI_TIMEOUT_S = 150


class CallFailed(Exception):
    """The call raised, exited non-zero, or printed an unusable record."""


@dataclass
class Record:
    """One checked output value.

    kind       "estimate" (has a convergence verdict), "exact" or "fit"
    reference  float or Fraction; None marks an expected divergence
    """

    kind: str
    value: Any
    reference: Any
    tol: Optional[float] = None
    converged: Optional[bool] = None


@dataclass
class Case:
    name: str
    layer: str
    call: Callable[[], Any]
    check: Callable[[Any], list]
    known_defect: Optional[str] = None  # text the expected failure carries


def _draw(rng: random.Random, centre: float) -> float:
    return round(centre + rng.uniform(-0.15, 0.15), 4)


def _estimate(ev, reference, tol) -> list:
    return [Record("estimate", ev.value, reference, tol, ev.converged)]


# -- staircase -----------------------------------------------------------------

def staircase(api, seed: int, quick: bool = False) -> list:
    """zeta / zeta' staircase estimators on every path."""
    rng = random.Random(seed)
    big, huge, small = (2e3, 2e4, 1e3) if quick else (1e5, 1e6, 1e4)
    tol = 1e-3
    cases = []

    def zeta_case(label, alpha, X, prime=False, k=None):
        fn = "zeta_prime_via_cesaro" if prime else "zeta_via_cesaro"
        cases.append(Case(
            name=f"{label} alpha={alpha:g} X={X:g}",
            layer="zeta",
            call=lambda: getattr(api, fn)(alpha, k=k, X_max=X, tol=tol),
            check=lambda ev: _estimate(ev, ref.zeta_reference(alpha, prime), tol)))

    for centre in (0.5, 1.5, 2.5, 3.5):
        zeta_case("zeta float", _draw(rng, centre), big)
    for alpha, X in ((0.0, big), (_draw(rng, 0.5), big), (2.0, big), (3.0, small)):
        zeta_case("zeta' float_log", alpha, X, prime=True)
    for alpha in (1.0, 3.0, 4.0):
        zeta_case("zeta exact_int", alpha, big)
    for alpha in (_draw(rng, -0.5), -2.0):
        zeta_case("zeta ordinary k=0", alpha, huge, k=0)
    for n, m in ((3, 1), (3, 0)):
        p = api.pm_polynomial(n, m)
        cases.append(Case(
            name=f"lemma_witness P_{m} n={n} X={big:g}",
            layer="zeta",
            call=lambda p=p: api.lemma_witness(p, X_max=big),
            check=lambda ev, n=n, m=m: _estimate(
                ev, float(ref.periodic_mean(ref.pm_coefficients(n, m))), 1e-6)))
    return cases


# -- summation -----------------------------------------------------------------

def _pow2(n):
    return 2.0 ** n


def summation(api, seed: int, quick: bool = False) -> list:
    """(C, k) means of series and integrals, closed form and quadrature."""
    rng = random.Random(seed)
    scale = 50 if quick else 1
    grid = api.default_grid(1e1, 1e3, 8) if quick else None
    cases = []

    def series_case(label, spec, k, n_terms, expect, tol=1e-6):
        n_terms //= scale
        cases.append(Case(
            name=f"cesaro_sum {label} k={k} n={n_terms}", layer="series",
            call=lambda: api.cesaro_sum(spec, k, n_terms, tol=tol),
            check=lambda ev: _estimate(ev, expect, tol)))

    series_case("alt-sign", api.SeriesSpec(lambda n: (-1.0) ** n), 1, 10**6, 0.5)
    for r in (0.5, -0.5):
        spec = api.SeriesSpec(lambda n, r=r: r ** n)
        for k in range(4):
            series_case(f"geometric({r:g})", spec, k, 10**4, 1.0 / (1.0 - r))
    pow2 = api.SeriesSpec(_pow2)
    for k in range(7):
        series_case("2^n", pow2, k, 10**4, None)

    alt_n = api.SeriesSpec(lambda n: (-1.0) ** n * n)
    n_detect = 10**5 // scale

    def detect_check(found):
        if found is None:
            return [Record("estimate", math.nan, -0.25, 1e-6, False)]
        return _estimate(found[1], -0.25, 1e-6)

    cases.append(Case(
        name=f"detect_order alt-sign-n k_max=3 n={n_detect}", layer="series",
        call=lambda: api.detect_order(alt_n, 3, n_detect, tol=1e-6),
        check=detect_check))

    tol = 1e-3

    def integral_case(label, fn, spec, k, expect):
        cases.append(Case(
            name=f"{fn} {label} k={k:g}", layer="integral",
            call=lambda: getattr(api, fn)(spec, k, grid, tol=tol),
            check=lambda ev: _estimate(ev, expect, tol)))

    p_alpha = _draw(rng, -0.5)
    closed = ((api.sin_wave(1.0), 1.0), (api.cos_wave(1.0), 0.0),
              (api.exp_decay(), 1.0), (api.power_log(p_alpha), None))
    for spec, expect in closed:
        for k in (1, 2):
            integral_case(f"closed {spec.label}", "cesaro_integral", spec, k, expect)
    integral_case("quadrature sampled(sin)", "cesaro_integral",
                  api.sampled(math.sin), 1, 1.0)
    integral_case("quadrature sin", "cesaro_integral", api.sin_wave(1.0), 0.5, 1.0)
    integral_case("cumulative sampled(sin)", "primitive_limit",
                  api.sampled(math.sin), 1, 0.0)

    eps = [10.0 ** (-1 - 5 * i / 23) for i in range(24)]
    fa = _draw(rng, -1.5)
    b = fa + 1.0
    fits = (
        (f"t^{fa:g}", lambda e: (1.0 - e ** b) / b, [(-b, 0)], 1.0 / b),
        ("t^-1 ln t", lambda e: -math.log(1.0 / e) ** 2 / 2.0, [(0, 2)], 0.0),
        ("t^-2 ln t", lambda e: -1.0 - math.log(1.0 / e) / e + 1.0 / e,
         [(1, 1), (1, 0)], -1.0),
    )
    for label, g, basis, expect in fits:
        cases.append(Case(
            name=f"extract_finite_part {label}", layer="finite_part",
            call=lambda g=g, basis=basis: api.extract_finite_part(g, basis, eps),
            check=lambda d, expect=expect: [Record("fit", d.finite_part, expect)]))
    return cases


# -- cli_cold ------------------------------------------------------------------

def child_env(root: str) -> dict:
    """The environment for a child interpreter that imports ``root/src``."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _run_cli(root: str, argv: list) -> tuple:
    proc = subprocess.run(
        [sys.executable, "-m", "cesaro.cli", *argv, "--format", "structured"],
        cwd=root, env=child_env(root), capture_output=True, text=True,
        timeout=CLI_TIMEOUT_S)
    return proc.returncode, proc.stdout, proc.stderr


def _parse_records(out) -> list:
    code, stdout, stderr = out
    if code != 0:
        raise CallFailed(f"exit {code}: {stderr.strip()[-200:]}")
    try:
        recs = [json.loads(line) for line in stdout.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise CallFailed(f"unparsable record: {exc}") from None
    if not recs:
        raise CallFailed("no record printed")
    return recs


def _exact_check(reference: Callable[[], Fraction]):
    def check(out):
        (rec,) = _parse_records(out)
        res = rec["result"]
        expected = reference()
        value = Fraction(res["exact"])
        try:
            want_float = float(expected)
        except OverflowError:
            want_float = math.copysign(math.inf, expected)
        if res.get("float") != want_float:
            value = math.nan  # the float field disagrees with the exact one
        return [Record("exact", value, expected)]
    return check


def _estimate_check(expected: Callable[[dict], Optional[float]]):
    def check(out):
        records = []
        for rec in _parse_records(out):
            d = rec["diagnostics"]
            records.append(Record("estimate", rec["result"]["float"], expected(rec),
                                  rec["inputs"]["tol"], d["converged"]))
        return records
    return check


def _pm_check(n: int, m: int):
    def check(out):
        (rec,) = _parse_records(out)
        coeffs = ref.pm_coefficients(n, m)
        got = tuple(Fraction(c) for c in rec["result"]["coeffs"])
        mean = Fraction(rec["result"]["mean"])
        return [Record("exact", got, coeffs),
                Record("exact", mean, ref.periodic_mean(coeffs))]
    return check


def cli_cold(seed: int, root: str) -> list:
    """One fresh ``python -m cesaro.cli`` process per call."""
    rng = random.Random(seed)
    alpha = _draw(rng, 0.5)
    too_large = "integer division result too large for a float"
    specs = [
        (["zeta", "-7"], _exact_check(lambda: ref.zeta_neg_int(7)), None),
        (["faulhaber", "10", "1000"],
         _exact_check(lambda: Fraction(ref.power_sum(10, 1000))), None),
        (["pm-poly", "4", "1"], _pm_check(4, 1), None),
        # F.p. int_0^1 t^a dt = 1/(a+1) and F.p. int_0^1 t^a ln t dt = -1/(a+1)^2
        (["fp-int", "--alpha=-3/2"], _exact_check(lambda: Fraction(-2)), None),
        (["fp-log-int", "--alpha=-3/2"], _exact_check(lambda: Fraction(-4)), None),
        (["zeta-estimate", "--alpha", repr(alpha)],
         _estimate_check(lambda rec: ref.zeta_reference(rec["inputs"]["alpha"], False)), None),
        (["zeta-estimate", "--alpha-range", "0", "2", "0.5"],
         _estimate_check(lambda rec: ref.zeta_reference(rec["inputs"]["alpha"], False)), None),
        (["cesaro-int", "sin"], _estimate_check(lambda rec: 1.0), None),
        (["cesaro-sum", "alt-sign"], _estimate_check(lambda rec: 0.5), None),
    ]
    for n in (30, 120, 250, 400):
        specs.append((["bernoulli", str(n)],
                      _exact_check(lambda n=n: ref.bernoulli_table(400)[n]),
                      too_large if n >= 260 else None))
    return [Case(name="cesaro " + " ".join(argv), layer="cli",
                 call=lambda argv=argv: _run_cli(root, argv),
                 check=check, known_defect=defect)
            for argv, check, defect in specs]


def build(name: str, api, seed: int, quick: bool = False, root: str = ".") -> list:
    if name == "staircase":
        return staircase(api, seed, quick)
    if name == "summation":
        return summation(api, seed, quick)
    if name == "cli_cold":
        return cli_cold(seed, root)
    raise ValueError(f"unknown workload {name!r}")
