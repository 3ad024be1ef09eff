#!/usr/bin/env python3
"""Build and run the sbon benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload wave_jitter --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py            # every workload, default seed, checked

With --workload, the benchmark builds `perfbench` from source (cargo, release
profile, into $CARGO_TARGET_DIR or .bench_build), runs that one workload in a
process of its own and prints the workload's JSON result as the last line of
stdout. A human-readable table of every metric, with units and sample counts,
goes to stderr. --trace 0 reports the end-to-end metrics, --trace 1 the
per-layer ones. Without --workload it runs every workload in turn with the
default seed from perfbench/interactions.json and fails if any of them fails.

Any build failure, failed correctness check or determinism mismatch exits
non-zero and prints no result.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ["wave_jitter", "tenant_storm", "routed_plane"]
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# One workload run must finish well inside the three minutes it is allowed.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def target_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def build():
    """Builds the benchmark binary; returns its path, or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir()))
    cmd = [
        "cargo", "build", "--release", "--offline", "-q",
        "--manifest-path", str(BENCH_DIR / "Cargo.toml"),
    ]
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if done.returncode != 0:
        log(f"perfbench: build failed (exit {done.returncode})")
        return None
    exe = target_dir() / "release" / "perfbench"
    return exe if exe.is_file() else None


def run_workload(exe, workload, seed, seconds, trace):
    """Runs one workload in its own process; returns its result or None."""
    cmd = [
        str(exe), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--state-dir", str(target_dir() / "perfbench-state"),
    ]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        log(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s and was stopped")
        return None
    if proc.returncode != 0:
        log(f"perfbench: {workload} failed (exit {proc.returncode})")
        return None
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError) as e:
        log(f"perfbench: {workload} printed no JSON result ({e})")
        return None
    if set(result) != RESULT_KEYS or result["correct"] is not True:
        log(f"perfbench: {workload} printed a malformed result: {lines[-1]}")
        return None
    return result


def main():
    meta = json.loads((BENCH_DIR / "interactions.json").read_text())
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=meta["seeds"]["default"])
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    exe = build()
    if exe is None:
        return 1
    if args.workload:
        result = run_workload(exe, args.workload, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        print(json.dumps(result), flush=True)
        return 0

    failed = []
    for workload in WORKLOADS:
        result = run_workload(exe, workload, args.seed, args.seconds, args.trace)
        if result is None:
            failed.append(workload)
            continue
        print(f"{workload}: {json.dumps(result)}", flush=True)
    if failed:
        log(f"perfbench: FAILED workloads: {', '.join(failed)}")
        return 1
    log(f"perfbench: all {len(WORKLOADS)} workloads passed their checks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
