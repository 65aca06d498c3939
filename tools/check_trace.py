#!/usr/bin/env python3
"""Validate a Chrome trace-event JSON export produced by
`sa_cli explain --trace-out FILE` (or saObsTraceExportJson).

Checks:
  * the document parses as JSON with a `traceEvents` array (the object form
    Perfetto and chrome://tracing load),
  * every event carries the required keys (name, ph, ts, pid, tid, args)
    with the right basic types, ph == "X", and a non-negative finite ts,
  * event names are known adaptation-lifecycle span names,
  * causality: at least one trace id links a decision span to a restructure
    span and a publish span (the one-id-per-adaptation contract) — relax
    with --no-causality for traces captured without an accepted decision.

Usage:
  python3 tools/check_trace.py trace.json
  python3 tools/check_trace.py --no-causality trace.json
"""
import json
import math
import sys

KNOWN_NAMES = {
    "sample_drain",
    "decision",
    "restructure_begin",
    "restructure_end",
    "publish",
    "epoch_advance",
    "epoch_reclaim",
    "flap_hold",
    "version_reclaim",
}

REQUIRED_KEYS = {"name", "ph", "ts", "pid", "tid", "args"}


def fail(msg):
    print(f"check_trace: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    argv = sys.argv[1:]
    need_causality = True
    if argv and argv[0] == "--no-causality":
        need_causality = False
        argv = argv[1:]
    if not argv:
        fail("usage: check_trace.py [--no-causality] trace.json")
    try:
        with open(argv[0]) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot load {argv[0]}: {e}")

    if not isinstance(doc, dict) or "traceEvents" not in doc:
        fail("top level must be an object with a traceEvents array")
    events = doc["traceEvents"]
    if not isinstance(events, list):
        fail("traceEvents is not an array")
    if not events:
        fail("traceEvents is empty — no adaptation ran, or telemetry is off")

    # trace id -> set of span names carrying it
    spans_by_id = {}
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"event {i} is not an object")
        missing = REQUIRED_KEYS - set(ev)
        if missing:
            fail(f"event {i} missing keys: {sorted(missing)}")
        if ev["ph"] != "X":
            fail(f"event {i}: ph {ev['ph']!r}, expected complete-event 'X'")
        if not isinstance(ev["ts"], (int, float)) or not math.isfinite(ev["ts"]) or ev["ts"] < 0:
            fail(f"event {i}: bad ts {ev['ts']!r}")
        if not isinstance(ev["args"], dict):
            fail(f"event {i}: args is not an object")
        if ev["name"] not in KNOWN_NAMES:
            fail(f"event {i}: unknown span name {ev['name']!r}")
        trace_id = ev["args"].get("trace_id", 0)
        if not isinstance(trace_id, int) or trace_id < 0:
            fail(f"event {i}: bad args.trace_id {trace_id!r}")
        if trace_id:
            spans_by_id.setdefault(trace_id, set()).add(ev["name"])

    if need_causality:
        linked = [
            tid
            for tid, names in spans_by_id.items()
            if "decision" in names and "restructure_end" in names and "publish" in names
        ]
        if not linked:
            fail(
                "no trace id links decision -> restructure -> publish spans "
                "(no accepted adaptation in the capture?)"
            )
        print(
            f"check_trace: OK — {len(events)} events, {len(spans_by_id)} trace ids, "
            f"{len(linked)} full decision->restructure->publish chains"
        )
    else:
        print(
            f"check_trace: OK — {len(events)} events, {len(spans_by_id)} trace ids "
            f"(causality check skipped)"
        )


if __name__ == "__main__":
    main()
