"""Smoke test of the benchmark itself: every workload, both modes, two epochs.

Run from the repository root:

    python3 perfbench/smoke.py

For every workload workloads.py defines, including those BENCHMARK.json
leaves out, it runs the benchmark command with ``--epochs 2`` once untraced
and once traced, and checks that:

* the run exits 0 and its last line is a correct result;
* every metric BENCHMARK.json names for that mode is emitted with its unit;
* the traced run's spans nest inside valid parents, with non-negative self
  times, one ``train.epoch`` span per epoch, and top-level spans covering
  at least 90% of each epoch.

Last it copies only BENCHMARK.json and the benchmark's own directories into
a scratch directory and checks that the benchmark exits non-zero there
without printing a result. Exits non-zero if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path.cwd()
OUT = ROOT / ".perfbench_out"
EPOCHS = 2
SEED = 3
SLACK = 1e-9          # perf_counter ticks can make a nested interval touch its parent's


def bench(spec: dict, cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(SEED), "--seconds", "1",
                             "--trace", str(trace), "--epochs", str(EPOCHS)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


def check_result(spec: dict, workload: str, trace: int, failures: list[str]) -> dict | None:
    proc = bench(spec, ROOT, workload, trace)
    tag = f"{workload} trace={trace}"
    if proc.returncode != 0:
        failures.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
        return None
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        failures.append(f"{tag}: result keys {sorted(result)}")
    if result["correct"] is not True or result["attempted"] < 1:
        failures.append(f"{tag}: correct={result['correct']} attempted={result['attempted']}")
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != expected:
        failures.append(f"{tag}: metrics differ from BENCHMARK.json: "
                        f"missing {sorted(set(expected) - set(emitted))}, "
                        f"extra {sorted(set(emitted) - set(expected))}, "
                        f"units {[(k, v, expected.get(k)) for k, v in emitted.items() if expected.get(k) != v]}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            failures.append(f"{tag}: {name} is not a number")
    return result


def check_spans(workload: str, result: dict, failures: list[str]) -> None:
    path = OUT / f"{workload}-seed{SEED}.spans.jsonl"
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        p = s["parent"]
        if p == -1:
            continue
        if not 0 <= p < len(spans):
            failures.append(f"{workload}: span {s['id']} has invalid parent {p}")
            continue
        parent = spans[p]
        if s["start"] < parent["start"] - SLACK or s["end"] > parent["end"] + SLACK:
            failures.append(f"{workload}: span {s['id']} {s['name']} lies outside "
                            f"its parent {p} {parent['name']}")
        own[p] -= s["end"] - s["start"]
    negative = [(spans[i]["name"], t) for i, t in enumerate(own) if t < -SLACK]
    if negative:
        failures.append(f"{workload}: negative self times {negative[:3]}")
    epochs = [s for s in spans if s["name"] == "train.epoch"]
    if len(epochs) != EPOCHS:
        failures.append(f"{workload}: {len(epochs)} epoch spans, expected {EPOCHS}")
    coverage = result["metrics"]["trace.coverage"]["value"]
    if coverage < 0.9:
        failures.append(f"{workload}: top-level spans cover {coverage:.3f} of an epoch")


def check_bare_directory(spec: dict, failures: list[str]) -> None:
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for rel in spec["paths"]:
            shutil.copytree(ROOT / rel, bare / rel,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(spec, bare, spec["workloads"][0]["name"], 0)
        if proc.returncode == 0 or '"metrics"' in proc.stdout:
            failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(ROOT / "src"), str(Path(__file__).resolve().parent)]
    from workloads import WORKLOADS
    failures: list[str] = []
    for name in WORKLOADS:
        for trace in (0, 1):
            result = check_result(spec, name, trace, failures)
            if trace and result is not None:
                check_spans(name, result, failures)
        print(f"{name}: done", flush=True)
    check_bare_directory(spec, failures)
    for f in failures:
        print("FAIL", f)
    print("smoke: ok" if not failures else f"smoke: {len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
