#!/usr/bin/env python3
"""Runs one workload of the synscan repository benchmark.

    python3 perfbench/run.py --workload window2024 --seed 1 --seconds 45 --trace 0

Run from the root of a checkout. Builds the harness from source into
.bench_build/perfbench (cmake), generates the workload's inputs from the
seed in a separate process, measures them in a fresh process, and relays
the harness output: a diagnostics line, then the result line, a JSON
object with the keys correct, attempted, failed and metrics. --trace 1
makes the traced per-layer run instead. Exits non-zero, printing no
result, when the build, the generation or the run fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("window2024", "decade-rollup")
JOBS = str(min(os.cpu_count() or 1, 4))
# Whole-run limits for the child processes, under the per-run limit.
GEN_TIMEOUT_S = 120
RUN_TIMEOUT_S = 170


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build(bench_dir, build_dir):
    configure = ["cmake", "-S", str(bench_dir), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja") and not (build_dir / "CMakeCache.txt").exists():
        configure += ["-G", "Ninja"]
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", JOBS], stdout=sys.stderr, check=True)
    return build_dir / "perfbench_harness"


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--shrink", type=float, default=1.0,
                        help="divide input volume by this factor (the smoke test uses 64)")
    args = parser.parse_args()

    root = Path.cwd()
    bench_dir = Path(__file__).resolve().parent
    state = root / ".bench_build"
    try:
        harness = build(bench_dir, state / "perfbench")
    except (subprocess.CalledProcessError, OSError) as err:
        log("build failed:", err)
        return 1

    tag = f"{args.workload}-t{args.trace}-s{args.seed}-x{args.shrink:g}"
    work = state / "work" / f"{args.workload}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--shrink", repr(args.shrink), "--dir", "."]
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        subprocess.run([str(harness), "gen", *common], cwd=work, stdout=sys.stderr,
                       check=True, timeout=GEN_TIMEOUT_S)
        run = subprocess.run(
            [str(harness), "run", *common, "--seconds", repr(args.seconds),
             "--trace", str(args.trace),
             "--ledger", str(state / "perfbench-ledger" / f"{tag}.json"),
             "--trace-out", str(state / "perfbench-traces" / f"{tag}.json")],
            cwd=work, stdout=subprocess.PIPE, text=True, check=True, timeout=RUN_TIMEOUT_S)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as err:
        log("workload failed:", err)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    lines = run.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log("harness printed no result line")
        return 1
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
