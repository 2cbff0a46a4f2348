"""The benchmark command runs to a correct result on every judged workload.

For each workload BENCHMARK.json judges, its command runs from the
repository root for two epochs, as perfbench/smoke.py runs it: untraced,
reporting the end-to-end metrics, and traced, reporting the per-layer
metrics of the replay under the tracer. A run that exits non-zero, reports
an incorrect or failed result, or leaves out a metric fails here before any
timing is taken.
"""

import json
import subprocess

import pytest

from conftest import ROOT

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload, trace", [
    pytest.param(w["name"], trace, id=w["name"] + ("-traced" if trace else ""))
    for trace in (0, 1) for w in SPEC["workloads"]])
def test_benchmark_command_reports_a_correct_result(workload, trace):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", str(trace), "--epochs", "2"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    expected = SPEC["per_layer" if trace else "end_to_end"]
    missing = {m["name"] for m in expected} - set(result["metrics"])
    assert not missing, sorted(missing)
