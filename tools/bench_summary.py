"""Run the benchmark's workloads at fixed seeds and write one summary file.

    python3 tools/bench_summary.py --out BENCH_<n>.json
    python3 tools/bench_summary.py --quick --out /tmp/bench_summary.json

Run from anywhere in a source checkout; it runs ``bench/run.py`` from the
checkout's root, once per workload with ``--trace 0`` (the end-to-end
metrics) and once more on ``summation`` with ``--trace 1`` (the per-layer
probes), each for 20 seconds.  ``--quick`` runs each for 1 second at the
benchmark's reduced problem sizes, as a smoke check.

The summary holds, per run, the last JSON line the run printed, and per case
the median normalized seconds and each checked record's ``abs_err`` (null
where the record has none), read from the run's detail file
``.bench_out/<workload>-seed<S>-trace<T>.json``.  The raw spans and per-call
wall times stay out.  A performance claim compares two of these files, one
per commit.  Standard library only.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("staircase", "summation", "cli_cold")
SEED = 1
TRACED = "summation"  # the workload of the one traced run
RUN_TIMEOUT_S = 900


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def run_one(workload: str, trace: int, seconds: float, quick: bool) -> dict:
    """One ``bench/run.py`` run: its last stdout line and its per-case digest."""
    argv = [sys.executable, os.path.join("bench", "run.py"), "--workload", workload,
            "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)]
    argv += ["--quick"] if quick else []
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    path = os.path.join(ROOT, ".bench_out", f"{workload}-seed{SEED}-trace{trace}.json")
    with open(path) as fh:
        detail = json.load(fh)
    cases = [{"case": c["case"], "median_norm_s": c["median_norm_s"],
              "abs_err": [r.get("abs_err") for r in c["records"]]}
             for c in detail["cases"]]
    return {"workload": workload, "seed": SEED, "trace": trace, "last_line": last,
            "cases": cases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="where to write the summary JSON")
    parser.add_argument("--quick", action="store_true",
                        help="1 s runs at the benchmark's reduced sizes, for a smoke check")
    args = parser.parse_args(argv)
    seconds = 1.0 if args.quick else 20.0

    plan = [(w, 0) for w in WORKLOADS] + [(TRACED, 1)]
    runs = []
    for workload, trace in plan:
        print(f"{workload} trace {trace} ...", file=sys.stderr, flush=True)
        runs.append(run_one(workload, trace, seconds, args.quick))
    summary = {"seconds": seconds, "quick": args.quick,
               "machine": {"cpu": _cpu_model(), "cpus": os.cpu_count(),
                           "python": platform.python_version()},
               "runs": runs}
    with open(args.out, "w") as fh:
        json.dump(summary, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
