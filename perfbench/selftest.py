#!/usr/bin/env python3
"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py [--seconds 1] [--workloads scan,graph]

1. Builds and runs perfbench_tests: self time (duration minus the union of
   overlapping children), the trace-event export and the tracer.
2. Steadiness: runs every workload briefly (traced) twice on seed 1 and
   once on seed 2. The deterministic outputs - answer checksums,
   bytes_per_value, set-up representations, kernel selections,
   graph.edges_streamed_per_op and rts.loops_per_op - must be identical
   across the two seed-1 runs, and the answers must change with the seed.
   Every run must answer correctly.
3. Each traced run's span file must load as trace-event JSON whose events
   are complete ("X") spans.
Exits non-zero on the first failed check.
"""
import argparse
import json
import subprocess
import sys
from pathlib import Path

import run as bench


def fail(message):
    sys.exit(f"selftest: FAIL: {message}")


def traced_run(workload, seed, seconds, tag):
    out_dir = Path(".bench_out") / f"selftest-{tag}"
    result = bench.run(workload, seed, seconds, 1, out_dir=str(out_dir))
    if not result["correct"] or result["failed"]:
        fail(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    stem = f"{workload}-seed{seed}-traced"
    details = json.loads((out_dir / f"run-{stem}.json").read_text())
    trace = json.loads((out_dir / f"trace-{stem}.json").read_text())
    events = trace.get("traceEvents")
    if not events or any(e.get("ph") != "X" or not {"name", "ts", "dur", "pid", "tid"} <= set(e)
                         for e in events):
        fail(f"{workload}: span trace is empty or not complete trace events")
    return details["determinism"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--workloads", default=",".join(bench.WORKLOADS))
    args = parser.parse_args()

    out = bench.build(("sa_perfbench", "perfbench_tests"))
    if subprocess.run([str(out / "perfbench_tests")], stdout=sys.stderr).returncode != 0:
        fail("perfbench_tests")
    print("selftest: unit tests pass")

    for workload in args.workloads.split(","):
        first = traced_run(workload, 1, args.seconds, "a")
        second = traced_run(workload, 1, args.seconds, "b")
        other = traced_run(workload, 2, args.seconds, "c")
        for key in sorted(set(first) | set(second)):
            if first.get(key) != second.get(key):
                fail(f"{workload}: {key} differs across runs of one seed: "
                     f"{first.get(key)} vs {second.get(key)}")
        if first["answers"] == other["answers"]:
            fail(f"{workload}: a second seed did not change the inputs")
        print(f"selftest: {workload} steady on one seed ({', '.join(sorted(first))}); "
              f"seed 2 changes the inputs")
    print("selftest: OK")


if __name__ == "__main__":
    main()
