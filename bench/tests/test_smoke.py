"""Each workload end to end at reduced size, through the benchmark's command."""
import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
END_TO_END = {"setup_s", "pass_s", "call_s.p50", "call_s.p90", "peak_rss_mb",
              "digits.mean", "digits_lost.max", "verdict_agree_frac", "success_frac"}


def _run(workload, trace=0, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    return subprocess.run(
        [sys.executable, script, "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True, proc.stdout[-2000:]
    assert out["attempted"] >= 1
    return out


@pytest.mark.parametrize("workload", ["staircase", "summation", "cli_cold"])
def test_workload_smoke(workload):
    out = _result(_run(workload))
    assert set(out["metrics"]) == END_TO_END
    for m in out["metrics"].values():
        assert m["value"] > 0
    if workload == "cli_cold":
        # `cesaro bernoulli 400` exits 1 on every pass (float overflow)
        assert out["failed"] == out["attempted"] // 13
    else:
        assert out["failed"] == 0


def test_trace_run_reports_layers():
    out = _result(_run("summation", trace=1))
    metrics = out["metrics"]
    assert metrics["span.series.calls"]["value"] > 0
    assert metrics["series.term_calls"]["value"] == 40000
    assert metrics["import.total_ms"]["value"] > 0
    assert not set(metrics) & END_TO_END


def test_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run("staircase", cwd=tmp_path, script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
