"""Smoke test of the benchmark itself.  Run from the root of a checkout:

    python3 usdbench/smoke.py

For each workload it makes one short untraced run and two short traced runs
with one seed, and asserts that every check passed, that every metric named
in BENCHMARK.json prints with its unit, and that the exact counts repeat
exactly.  It prints the counts next to the baseline in ``baseline.json``
(a later commit may move them on purpose).  Last, it runs the benchmark in a
directory holding only BENCHMARK.json and the benchmark, where it must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXACT_COUNTS = (
    "linalg.lapack_calls_per_op",
    "duality.povm_bytes",
    "io.bytes_read_per_op",
    "io.bytes_written_per_op",
    "scenarios.calls_per_point",
)
RECORD_KEYS = ("provenance", "host_speed_ms", "failed_ops_frac", "latency_tail_ms")


def run(root: Path, workload: str, trace: int, seconds: str = "1"):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cmd = spec["command"] + ["--workload", workload, "--seed", "1", "--seconds", seconds,
                             "--trace", str(trace)]
    return subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=180)


def result_of(proc, workload: str, trace: int):
    lines = proc.stdout.strip().splitlines()
    assert proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}: {proc.stderr[-2000:]}"
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result, json.loads(lines[-2])["run_record"]


def check_units(metrics: dict, expected: list, what: str) -> None:
    names = {m["name"]: m["unit"] for m in expected}
    assert set(metrics) == set(names), f"{what}: {sorted(set(metrics) ^ set(names))}"
    for name, unit in names.items():
        assert metrics[name]["unit"] == unit, f"{what}: {name} has unit {metrics[name]['unit']}"
        assert isinstance(metrics[name]["value"], (int, float)), f"{what}: {name} is not a number"


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    baseline = json.loads((HERE / "baseline.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        result, record = result_of(run(ROOT, workload, 0), workload, 0)
        check_units(result["metrics"], spec["end_to_end"], f"{workload} end-to-end")
        missing = [key for key in RECORD_KEYS if key not in record]
        assert not missing, f"{workload}: run record lacks {missing}"
        assert record["failed_ops_frac"]["value"] == 0.0

        counts = []
        for _ in range(2):
            result, _ = result_of(run(ROOT, workload, 1), workload, 1)
            check_units(result["metrics"], spec["per_layer"], f"{workload} per-layer")
            counts.append({name: result["metrics"][name]["value"] for name in EXACT_COUNTS})
        assert counts[0] == counts[1], f"{workload}: counts differ between runs: {counts}"
        for name, value in counts[0].items():
            base = baseline[workload][name]
            note = "" if value == base else f"  (baseline {base})"
            print(f"{workload:14s} {name:30s} {value}{note}")

    bare = HERE / "_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(bare, spec["workloads"][0]["name"], 0)
        assert proc.returncode != 0, "benchmark succeeded without the program's sources"
        assert not proc.stdout.strip(), f"benchmark printed output without sources: {proc.stdout[:200]}"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
