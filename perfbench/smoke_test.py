#!/usr/bin/env python3
"""Smoke test of the benchmark at a tiny scale.

    python3 perfbench/smoke_test.py

Run from the repository root. For every workload it makes an untraced
and a traced run on inputs shrunk 64 times, each twice with the same
seed, and asserts that every named metric is present, carries the unit
BENCHMARK.json declares and is non-zero, and that every self-check
passed (correct, no failed operations). The second run of each pair also
checks the deterministic counts against the first (the harness's count
ledger). Takes about a minute once the harness is built.
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
WORKLOADS = ["window2024", "decade-rollup"]


def run(workload, trace):
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--shrink", "64"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=600)
    assert proc.returncode == 0, f"{workload} trace={trace}: exit {proc.returncode}"
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(workload, trace, result, units):
    where = f"{workload} trace={trace}"
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, where
    assert result["correct"] is True and result["failed"] == 0, f"{where}: self-checks failed"
    assert result["attempted"] >= 1, where
    wanted = list(units)
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(wanted), f"{where}: metrics {sorted(metrics)}"
    for name in wanted:
        metric = metrics[name]
        assert metric["unit"] == units[name], f"{where}: {name} unit {metric['unit']}"
        assert metric["value"] > 0, f"{where}: {name} is {metric['value']}"


def main():
    e2e_units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    for workload in WORKLOADS:
        for trace, units in ((0, e2e_units), (1, layer_units)):
            for _ in range(2):
                check(workload, trace, run(workload, trace), units)
            print(f"ok {workload} trace={trace}", flush=True)
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
