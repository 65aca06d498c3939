#!/usr/bin/env python3
"""Builds the benchmark from this checkout and runs one workload.

    python3 perfbench/run.py --workload scan|table|graph|service \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout. The build goes to a directory of its own
per checkout under $CARGO_TARGET_DIR (or .bench_build) and is reused by
later runs; run details and traces go to .bench_out. The last line of
stdout is the result object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Build output and the run context go to stderr.
"""
import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("scan", "table", "graph", "service")
RUN_TIMEOUT_S = 170


def build_dir():
    """The build tree of this checkout. Checkouts that share one
    $CARGO_TARGET_DIR each get their own, so none builds another's sources."""
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build").resolve()
    return base / hashlib.sha1(str(ROOT).encode()).hexdigest()[:12]


def build(targets=("sa_perfbench",)):
    """Configures (once) and builds the benchmark; returns the build dir."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit(f"perfbench: library sources not found under {ROOT / 'src'}")
    out = build_dir()
    try:
        if not (out / "CMakeCache.txt").is_file():
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(out),
                            "-DCMAKE_BUILD_TYPE=Release"], check=True, stdout=sys.stderr)
        subprocess.run(["cmake", "--build", str(out), "--target", *targets, "-j", "4"],
                       check=True, stdout=sys.stderr)
    except (OSError, subprocess.CalledProcessError) as err:
        sys.exit(f"perfbench: build failed: {err}")
    return out


def git_sha():
    try:
        result = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def run(workload, seed, seconds, trace, out_dir=".bench_out"):
    """Runs one workload; returns the parsed result object."""
    binary = build() / "sa_perfbench"
    cmd = [str(binary), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out-dir", out_dir, "--git-sha", git_sha()]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"perfbench: {workload} run exceeded {RUN_TIMEOUT_S} s and was killed")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"perfbench: {workload} run failed with exit code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"} or result["attempted"] < 1:
        sys.exit(f"perfbench: malformed result line: {lines[-1]}")
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
