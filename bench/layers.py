"""Per-layer measurements for the traced run.

Each figure times calls into one module's public functions at a fixed size,
normalized for machine speed as in ``speed``, or counts work done there.
README.md records which end-to-end metric each figure should move.
"""
from __future__ import annotations

import contextlib
import io
import math
import re
import statistics
import subprocess
import sys
import time

import speed
from workloads import child_env

def _seconds(fn, repeat: int = 3, number: int = 1, calibrate=speed.compute) -> float:
    """Median over ``repeat`` rounds of the normalized time of one call."""
    times = []
    before = calibrate()
    for _ in range(repeat):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        elapsed = (time.perf_counter() - t0) / number
        after = calibrate()
        times.append(elapsed * 2.0 / (before + after))
        before = after
    return statistics.median(times)


_IMPORT_LINE = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|( *)(\S+)")


def parse_importtime(text: str) -> dict:
    """Totals in ms from ``python -X importtime -c 'import cesaro'`` output.

    A package's cost is the cumulative time of its outermost entries, the
    ones not nested inside another entry of the same package.
    """
    entries = []  # (depth, name, self_us, cumulative_us), children first
    for line in text.splitlines():
        m = _IMPORT_LINE.match(line)
        if m:
            entries.append((len(m.group(3)), m.group(4), int(m.group(1)), int(m.group(2))))
    # a parent is the first later entry at a smaller depth
    top = {"scipy": 0, "numpy": 0}
    total = cesaro_self = 0
    for i, (depth, name, self_us, cum_us) in enumerate(entries):
        root = name.split(".", 1)[0]
        if name == "cesaro":
            total = cum_us
        if root == "cesaro":
            cesaro_self += self_us
        if root in top:
            parent_root = None
            for d2, n2, _s, _c in entries[i + 1:]:
                if d2 < depth:
                    parent_root = n2.split(".", 1)[0]
                    break
            if parent_root != root:
                top[root] += cum_us
    return {"import.total_ms": total / 1e3, "import.scipy_ms": top["scipy"] / 1e3,
            "import.numpy_ms": top["numpy"] / 1e3,
            "import.cesaro_self_ms": cesaro_self / 1e3}


def _import_metrics(root: str, repeat: int = 3) -> dict:
    runs = []
    before = speed.startup()
    for _ in range(repeat):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import cesaro"],
                              cwd=root, env=child_env(root), capture_output=True,
                              text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"import cesaro failed: {proc.stderr[-300:]}")
        after = speed.startup()
        scale = 2.0 / (before + after)
        runs.append({k: v * scale for k, v in parse_importtime(proc.stderr).items()})
        before = after
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def _cli_metrics(root: str) -> dict:
    argv = ["zeta", "-2", "--format", "structured"]
    env = child_env(root)

    def process():
        subprocess.run([sys.executable, "-m", "cesaro.cli", *argv], cwd=root, env=env,
                       capture_output=True, timeout=120, check=True)

    from cesaro import cli

    def in_process():
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.run(argv) != 0:
                raise RuntimeError("cli.run failed")

    return {"cli.process_ms": _seconds(process, 3, calibrate=speed.startup) * 1e3,
            "cli.run_ms": _seconds(in_process, 5, 20) * 1e3}


def _exact_metrics(api) -> dict:
    out = {}
    for n, repeat in ((120, 3), (250, 3), (400, 1)):
        out[f"exact.bernoulli_build_ms.n{n}"] = _seconds(
            lambda: api.BernoulliTable().extend_to(n), repeat) * 1e3
    api.bernoulli(200)
    out["exact.bernoulli_warm_us"] = _seconds(lambda: api.bernoulli(200), 5, 2000) * 1e6
    out["exact.faulhaber_us"] = _seconds(lambda: api.faulhaber_sum(10, 1000), 5, 100) * 1e6
    out["exact.pm_polynomial_ms"] = _seconds(lambda: api.pm_polynomial(12, 2), 5, 5) * 1e3
    return out


def _zeta_metrics(api) -> dict:
    X = 20_000
    per = {
        "zeta.float.ns_per_boundary.k2": lambda: api.zeta_via_cesaro(0.5, X_max=X),
        "zeta.float.ns_per_boundary.k5": lambda: api.zeta_via_cesaro(3.5, X_max=X),
        "zeta.float_log.ns_per_boundary.k2": lambda: api.zeta_prime_via_cesaro(0.5, X_max=X),
        "zeta.exact_int.ns_per_boundary.k2": lambda: api.zeta_via_cesaro(1.0, X_max=X),
        "zeta.exact_int.ns_per_boundary.k6": lambda: api.zeta_via_cesaro(5.0, X_max=X),
    }
    out = {name: _seconds(fn) / X * 1e9 for name, fn in per.items()}
    out["zeta.ordinary.ns_per_term"] = _seconds(
        lambda: api.zeta_via_cesaro(-2.0, k=0, X_max=1e6)) / 1e6 * 1e9
    p = api.pm_polynomial(3, 1)
    out["zeta.lemma.ns_per_boundary"] = _seconds(
        lambda: api.lemma_witness(p, X_max=1e5)) / 1e5 * 1e9
    spec = api.StaircaseSpec(0.5)
    state = api.new_primitive_state(spec, 2)
    for _ in range(100):
        state = api.advance_primitives(state, spec, 2)

    def steps():
        s = state
        for _ in range(1000):
            s = api.advance_primitives(s, spec, 2)

    out["zeta.advance_us"] = _seconds(steps, 5) / 1000 * 1e6
    return out


def _series_metrics(api) -> dict:
    n = 1_000_000
    floats = [(-1.0) ** i / (i + 1) for i in range(n)]
    out = {"accumulate.prefix_ns_per_term":
           _seconds(lambda: api.compensated_prefix_sums(floats)) / n * 1e9}
    alt = api.SeriesSpec(lambda i: (-1.0) ** i)
    m = 200_000
    out["series.terms_ns_per_term"] = _seconds(lambda: alt.terms(m)) / m * 1e9
    k = 3
    out["series.iterated_ns_per_term_order"] = _seconds(
        lambda: api.iterated_partial_sums(alt, k, m)) / (m * (k + 1)) * 1e9
    calls = 0

    def term(i):
        nonlocal calls
        calls += 1
        return (-1.0) ** i * i

    api.detect_order(api.SeriesSpec(term), 3, 10_000)
    out["series.term_calls"] = float(calls)
    return out


def _integral_metrics(api) -> dict:
    def factories():
        api.sin_wave(1.0), api.cos_wave(1.0), api.exp_decay(), api.power_log(-0.5)

    out = {"integral.factory_ms": _seconds(factories, 5) / 4 * 1e3}
    sin = api.sin_wave(1.0)
    grid = api.default_grid()
    out["integral.closed_us_per_point"] = _seconds(
        lambda: api.cesaro_integral(sin, 1, grid), 5, 20) / len(grid) * 1e6
    evals = 0

    def counted(t):
        nonlocal evals
        evals += 1
        return math.sin(t)

    quad_grid = api.default_grid(1e2, 1e4, 8)
    sampled = api.sampled(counted)
    out["integral.quad_ms_per_point"] = _seconds(
        lambda: api.cesaro_integral(sampled, 1, quad_grid)) / len(quad_grid) * 1e3
    evals = 0
    api.cesaro_integral(sampled, 1, quad_grid)
    out["integral.quad_evals_per_point"] = evals / len(quad_grid)
    bare = api.sampled(math.sin)
    out["integral.cumprim_ms_per_point"] = _seconds(
        lambda: api.primitive_limit(bare, 1, grid)) / len(grid) * 1e3
    return out


def _finite_part_metrics(api) -> dict:
    eps = [10.0 ** (-1 - 5 * i / 23) for i in range(24)]
    g = lambda e: (1.0 - e ** -0.5) / -0.5  # noqa: E731
    return {
        "finite_part.extract_us": _seconds(
            lambda: api.extract_finite_part(g, [(0.5, 0)], eps), 5, 20) * 1e6,
        "finite_part.closed_ns": _seconds(
            lambda: api.fp_power_integral(-1.5, 2.0), 5, 10_000) * 1e9,
    }


def _evaluation_metrics(api) -> dict:
    from cesaro.evaluation import tail_judgement
    samples = [0.5 + 1.0 / (i + 10) for i in range(48)]
    return {"evaluation.tail_judgement_us": _seconds(
        lambda: tail_judgement(samples, 2, 1000, 1e-3, 12), 5, 1000) * 1e6}


def unit_of(name: str) -> str:
    """The unit a per-layer metric is reported in, read off its name."""
    if name.endswith(("_calls", "_evals_per_point", ".calls", ".passes")):
        return "count"
    if name.endswith("_frac"):
        return "fraction"
    if name.endswith("slowdown"):
        return "ratio"
    for tag, unit in (("_ms", "ms"), ("_us", "us"), ("ns_", "ns"), ("_ns", "ns")):
        if tag in name:
            return unit
    if name.endswith("_s"):
        return "s"
    raise ValueError(f"no unit known for {name}")


def measure(api, root: str) -> dict:
    """Every per-layer figure that does not come from spans."""
    out = {}
    out.update(_import_metrics(root))
    out.update(_cli_metrics(root))
    out.update(_exact_metrics(api))
    out.update(_zeta_metrics(api))
    out.update(_series_metrics(api))
    out.update(_integral_metrics(api))
    out.update(_finite_part_metrics(api))
    out.update(_evaluation_metrics(api))
    return out
