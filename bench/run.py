"""Benchmark for the cesaro package.

    python3 bench/run.py --workload staircase --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nowhere else.  One process and one client run the
workload's case list in a closed loop, pass after pass, until ``--seconds``
have elapsed (at least one pass).  Every output is checked against the
independent references in ``references.py``.

With ``--trace 0`` the last stdout line is the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and the last
line is the per-layer metrics: span totals, tracing overhead and the
figures from ``layers.py``.  Per-case values, references, errors and times,
and the spans, are written under ``.bench_out/``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 5
MAX_DIGITS = 15.0


def _import_package():
    """Import ``cesaro`` from this checkout's ``src/``; None if it is absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "cesaro", "__init__.py")):
        return None
    sys.path.insert(0, src)
    import cesaro
    if not os.path.abspath(cesaro.__file__).startswith(src + os.sep):
        raise RuntimeError(f"cesaro was imported from {cesaro.__file__}, not {src}")
    return cesaro


# -- judging outputs -------------------------------------------------------------

def _digits(err: float, reference: float) -> float:
    if err == 0.0:
        return MAX_DIGITS
    if not math.isfinite(err):
        return 0.0
    scale = abs(reference) if reference != 0 else 1.0
    return min(MAX_DIGITS, max(0.0, -math.log10(err / scale)))


def judge(rec) -> dict:
    """Compare one Record with its reference; JSON-ready."""
    out = {"kind": rec.kind, "value": _jsonable(rec.value),
           "reference": _jsonable(rec.reference)}
    if rec.kind == "exact":
        ok = rec.value == rec.reference
        out.update(ok=ok, digits=MAX_DIGITS if ok else 0.0, abs_err=0.0 if ok else None)
        return out
    value = float(rec.value)
    if rec.reference is None:  # expected divergence: only the verdict counts
        out.update(ok=True, converged=rec.converged, tol=rec.tol,
                   verdict_ok=not rec.converged, overclaim=bool(rec.converged))
        return out
    err = abs(value - rec.reference) if math.isfinite(value) else math.inf
    out.update(ok=True, abs_err=err, digits=_digits(err, rec.reference))
    if rec.kind == "estimate":
        within = err <= rec.tol
        out.update(converged=rec.converged, tol=rec.tol,
                   verdict_ok=rec.converged == within,
                   overclaim=bool(rec.converged) and not within)
    return out


def _jsonable(v):
    if isinstance(v, float):
        return v if math.isfinite(v) else repr(v)
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    if v is None or isinstance(v, (bool, int, str)):
        return v
    return str(v)


def run_case(case, tracer=None) -> dict:
    """One timed call plus its untimed check."""
    error = None
    t0 = time.perf_counter()
    try:
        if tracer is None:
            out = case.call()
        else:
            with tracer.span("cli.process" if case.layer == "cli" else f"case {case.name}"):
                out = case.call()
    except Exception as exc:  # a failing call is a result, not a crash
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    judged = []
    if error is None:
        try:
            judged = [judge(r) for r in case.check(out)]
        except workloads.CallFailed as exc:
            error = str(exc)
        except (KeyError, TypeError, ValueError) as exc:
            error = f"unusable record: {type(exc).__name__}: {exc}"
    if error is None and not all(j["ok"] for j in judged):
        error = "exact value differs from the reference"
    expected = bool(error and case.known_defect and case.known_defect in error)
    return {"case": case.name, "seconds": elapsed, "error": error,
            "expected_failure": expected, "records": judged}


# -- measuring -------------------------------------------------------------------

def measure(cases, seed: int, seconds: float, calibrate, tracer=None) -> list:
    """Passes until ``seconds`` elapse; with a tracer, odd passes are traced.

    A calibration between consecutive calls gives each call the machine's
    slowdown around it (see ``speed``).
    """
    rng = random.Random(seed)
    passes = []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        order = list(cases)
        rng.shuffle(order)
        results = []
        before = calibrate()
        if traced:
            tracer.install()
        try:
            for case in order:
                r = run_case(case, tracer if traced else None)
                after = calibrate()
                r["slowdown"] = (before + after) / 2.0
                r["norm_seconds"] = r["seconds"] / r["slowdown"]
                results.append(r)
                before = after
        finally:
            if traced:
                tracer.uninstall()
        passes.append({"traced": traced, "results": results,
                       "seconds": sum(r["seconds"] for r in results),
                       "norm_seconds": sum(r["norm_seconds"] for r in results)})
        enough = tracer is None or len(passes) >= 2
        if enough and time.perf_counter() - start >= seconds:
            return passes


def setup_seconds(workload: str, seed: int, quick: bool) -> float:
    """Median normalized time of a fresh interpreter importing cesaro and
    building the workload's package objects."""
    argv = [sys.executable, os.path.join(HERE, "run.py"), "--probe-setup",
            "--workload", workload, "--seed", str(seed)] + (["--quick"] if quick else [])
    times = []
    before = speed.startup()
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, capture_output=True, timeout=120, check=True)
        elapsed = time.perf_counter() - t0
        after = speed.startup()
        times.append(elapsed * 2.0 / (before + after))
        before = after
    return statistics.median(times)


def summarize(passes) -> dict:
    """End-to-end figures over the untraced passes, plus the run's checks."""
    plain = [p for p in passes if not p["traced"]]
    results = [r for p in plain for r in p["results"]]
    records = [j for r in results for j in r["records"]]
    digits = [j["digits"] for j in records if "digits" in j]
    verdicts = [j["verdict_ok"] for j in records if "verdict_ok" in j]
    failed = sum(1 for r in results if r["error"])
    # each case is one fixed call made once per pass, so the calls of a run
    # are the case list repeated; each case counts at its mean time, which
    # keeps timing noise out of the percentiles and keeps them from shifting
    # with the number of passes that fit in the run
    by_case = {}
    for r in results:
        by_case.setdefault(r["case"], []).append(r["norm_seconds"])
    per_case = sorted(statistics.fmean(ts) for ts in by_case.values())
    p90 = (statistics.quantiles(per_case, n=10, method="inclusive")[-1]
           if len(per_case) > 1 else per_case[0])
    return {
        "attempted": len(results),
        "failed": failed,
        "unexpected_failures": sorted({r["case"] + ": " + r["error"] for r in results
                                       if r["error"] and not r["expected_failure"]}),
        "overclaims": sorted({r["case"] for r in results
                              if any(j.get("overclaim") for j in r["records"])}),
        "passes": len(plain),
        "wall_pass_s": statistics.median(p["seconds"] for p in plain),
        "slowdown": statistics.median(r["slowdown"] for r in results),
        "p90": {"cases": len(per_case), "cases_above": sum(t > p90 for t in per_case),
                "calls_per_case": min(len(ts) for ts in by_case.values())},
        "metrics": {
            "pass_s": statistics.median(p["norm_seconds"] for p in plain),
            "call_s.p50": statistics.median(per_case),
            "call_s.p90": p90,
            "digits.mean": statistics.fmean(digits) if digits else 0.0,
            "digits_lost.max": MAX_DIGITS - min(digits) if digits else MAX_DIGITS,
            "verdict_agree_frac": sum(verdicts) / len(verdicts) if verdicts else 1.0,
            "success_frac": 1.0 - failed / len(results),
        },
    }


UNITS = {"setup_s": "s", "pass_s": "s", "call_s.p50": "s", "call_s.p90": "s",
         "peak_rss_mb": "MB", "digits.mean": "digits", "digits_lost.max": "digits",
         "verdict_agree_frac": "fraction", "success_frac": "fraction"}


def case_table(passes) -> list:
    """Per case: median time and the checked outputs of its last call."""
    by_case = {}
    for p in passes:
        if p["traced"]:
            continue
        for r in p["results"]:
            entry = by_case.setdefault(r["case"], {"case": r["case"], "wall_s": [],
                                                   "norm_s": [], "slowdown": []})
            entry["wall_s"].append(r["seconds"])
            entry["norm_s"].append(r["norm_seconds"])
            entry["slowdown"].append(r["slowdown"])
            entry.update(error=r["error"], records=r["records"])
    for entry in by_case.values():
        entry["median_norm_s"] = statistics.median(entry["norm_s"])
    return sorted(by_case.values(), key=lambda e: e["case"])


def traced_metrics(passes, tracer) -> dict:
    plain = [p["norm_seconds"] for p in passes if not p["traced"]]
    traced = [p["norm_seconds"] for p in passes if p["traced"]]
    totals = tracer.layer_totals()
    out = {"trace.overhead_frac": statistics.median(traced) / statistics.median(plain) - 1.0,
           "trace.passes": float(len(traced)),
           "wall.pass_s": statistics.median(p["seconds"] for p in passes if not p["traced"]),
           "wall.slowdown": statistics.median(
               r["slowdown"] for p in passes for r in p["results"])}
    for layer in tracing.LAYERS:
        out[f"span.{layer}.self_ms"] = totals["self_s"].get(layer, 0.0) / len(traced) * 1e3
        out[f"span.{layer}.calls"] = totals["calls"].get(layer, 0) / len(traced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="reduced problem sizes, for smoke tests")
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    api = _import_package()
    if api is None:
        print(f"error: no cesaro sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    cases = workloads.build(args.workload, api, args.seed, args.quick, ROOT)
    if args.probe_setup:
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
    calibrate = speed.startup if args.workload == "cli_cold" else speed.compute
    passes = measure(cases, args.seed, args.seconds, calibrate, tracer)
    summary = summarize(passes)
    metrics = dict(summary["metrics"])
    if args.trace:
        import layers
        layer_metrics = traced_metrics(passes, tracer)
        layer_metrics.update(layers.measure(api, ROOT))
        out_metrics = {k: {"value": v, "unit": layers.unit_of(k)}
                       for k, v in layer_metrics.items()}
    else:
        usage = resource.RUSAGE_CHILDREN if args.workload == "cli_cold" else resource.RUSAGE_SELF
        metrics["peak_rss_mb"] = resource.getrusage(usage).ru_maxrss / 1024.0
        metrics["setup_s"] = setup_seconds(args.workload, args.seed, args.quick)
        out_metrics = {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}

    correct = not summary["unexpected_failures"] and not summary["overclaims"]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "quick": args.quick, "correct": correct,
              **{k: summary[k] for k in ("attempted", "failed", "unexpected_failures",
                                         "overclaims", "passes", "p90", "wall_pass_s",
                                         "slowdown")},
              "metrics": out_metrics, "cases": case_table(passes),
              "order": [[r["case"] for r in p["results"]] for p in passes if not p["traced"]]}
    with open(os.path.join(out_dir, stem + ".json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    if tracer is not None:
        tracer.dump(os.path.join(out_dir, stem + "-spans.json"))

    for name, m in out_metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    p90 = summary["p90"]
    print(f"call_s.p90: {p90['cases_above']} of {p90['cases']} cases above it, each at its "
          f"mean over {p90['calls_per_case']}+ calls; {summary['passes']} untraced passes")
    for line in summary["unexpected_failures"]:
        print(f"UNEXPECTED FAILURE {line}")
    for name in summary["overclaims"]:
        print(f"CONVERGED BUT OFF BY MORE THAN tol: {name}")
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
