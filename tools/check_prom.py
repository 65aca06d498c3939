#!/usr/bin/env python3
"""Validate a Prometheus text-format dump produced by `sa_cli obs --prom`
(or saObsPrometheusText).

Checks, in order:
  * every sample line after the first `# TYPE` parses as `name value` with a
    finite non-negative number (gauges may be negative),
  * no family is declared by more than one `# TYPE` line,
  * every family named in `# TYPE` has at least one sample, and every sample
    belongs to a declared family — in particular `_bucket`/`_sum`/`_count`
    samples must belong to a family `# TYPE`-declared as a histogram,
  * the expected counter/gauge/histogram families are all present,
  * each histogram is internally consistent: `le` buckets are cumulative and
    non-decreasing, the `+Inf` bucket equals `_count`, and `_sum`/`_count`
    exist.

Lines before the first `# TYPE` are ignored (the CLI demo chats on stdout
before the dump). Usage:

  sa_cli obs --prom --seconds 1 | python3 tools/check_prom.py
  python3 tools/check_prom.py dump.txt
"""
import math
import re
import sys

EXPECTED_COUNTERS = [
    "sa_snapshot_acquires_total",
    "sa_snapshot_reads_total",
    "sa_snapshot_scanned_elems_total",
    "sa_slot_writes_total",
    "sa_publishes_total",
    "sa_publish_lost_writes_total",
    "sa_epoch_advances_total",
    "sa_epoch_reclaimed_total",
    "sa_daemon_passes_total",
    "sa_daemon_sample_drops_total",
    "sa_daemon_restructures_total",
    "sa_daemon_reject_same_config_total",
    "sa_daemon_reject_margin_total",
    "sa_daemon_flap_holds_total",
    "sa_daemon_decisions_scored_total",
    "sa_restructures_total",
    "sa_restructure_overflow_aborts_total",
    "sa_unpack_range_calls_total",
    "sa_unpack_range_bytes_total",
    "sa_pack_range_calls_total",
    "sa_pack_range_bytes_total",
    "sa_kernel_select_block_total",
    "sa_kernel_select_v2_total",
    "sa_kernel_select_avx512_total",
    "sa_parallel_for_loops_total",
    "sa_parallel_for_batches_total",
    "sa_parallel_for_steals_total",
    "sa_ffi_transitions_total",
    "sa_trace_events_total",
    "sa_trace_dropped_total",
]
EXPECTED_GAUGES = [
    "sa_live_snapshots",
    "sa_retired_versions",
    "sa_registry_slots",
    "sa_daemon_running",
]
EXPECTED_HISTOGRAMS = [
    "sa_epoch_reclaim_ns",
    "sa_restructure_unpack_ns",
    "sa_restructure_pack_ns",
    "sa_restructure_wall_ns",
    "sa_daemon_pass_ns",
    "sa_daemon_calibration_error_ppm",
    "sa_daemon_realized_speedup_ppm",
]

SAMPLE_RE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")
LE_RE = re.compile(r'le="([^"]*)"')


def fail(msg):
    print(f"check_prom: FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def parse(text):
    types = {}        # family -> counter|gauge|histogram
    samples = []      # (name, labels-or-None, value)
    started = False
    for lineno, line in enumerate(text.splitlines(), 1):
        if line.startswith("# TYPE "):
            started = True
            parts = line.split()
            if len(parts) != 4:
                fail(f"line {lineno}: malformed TYPE line: {line!r}")
            if parts[2] in types:
                fail(f"line {lineno}: duplicate TYPE line for family {parts[2]}")
            types[parts[2]] = parts[3]
            continue
        if not started or not line.strip() or line.startswith("#"):
            continue
        m = SAMPLE_RE.match(line)
        if m is None:
            fail(f"line {lineno}: unparseable sample line: {line!r}")
        try:
            value = float(m.group(3))
        except ValueError:
            fail(f"line {lineno}: non-numeric value: {line!r}")
        if math.isnan(value):
            fail(f"line {lineno}: NaN value: {line!r}")
        samples.append((m.group(1), m.group(2), value))
    return types, samples


def family_of(name):
    for suffix in ("_bucket", "_sum", "_count"):
        if name.endswith(suffix):
            return name[: -len(suffix)]
    return name


def main():
    text = open(sys.argv[1]).read() if len(sys.argv) > 1 else sys.stdin.read()
    types, samples = parse(text)
    if not types:
        fail("no '# TYPE' lines found — not a Prometheus dump")

    by_name = {}
    for name, labels, value in samples:
        by_name.setdefault(name, []).append((labels, value))

    for family, kind in types.items():
        names = (
            [family + "_bucket", family + "_sum", family + "_count"]
            if kind == "histogram"
            else [family]
        )
        if not any(n in by_name for n in names):
            fail(f"family {family} declared by TYPE but has no samples")

    # Every sample must trace back to a declared family; a name that only
    # matches one via a _bucket/_sum/_count suffix must belong to a family
    # declared as a histogram (a counter named *_count would be caught here).
    for name in by_name:
        if name in types:
            continue
        family = family_of(name)
        if family == name or family not in types:
            fail(f"sample {name} does not belong to any TYPE-declared family")
        if types[family] != "histogram":
            fail(
                f"sample {name} uses a histogram suffix but family {family} "
                f"is a {types[family]}"
            )

    for name in EXPECTED_COUNTERS:
        if types.get(name) != "counter":
            fail(f"expected counter family missing or mistyped: {name}")
        if any(v < 0 for _, v in by_name.get(name, [])):
            fail(f"counter {name} has a negative sample")
    for name in EXPECTED_GAUGES:
        if types.get(name) != "gauge":
            fail(f"expected gauge family missing or mistyped: {name}")
    for name in EXPECTED_HISTOGRAMS:
        if types.get(name) != "histogram":
            fail(f"expected histogram family missing or mistyped: {name}")
        buckets = by_name.get(name + "_bucket", [])
        if not buckets:
            fail(f"histogram {name} has no buckets")
        bounds = []
        for labels, value in buckets:
            m = LE_RE.search(labels or "")
            if m is None:
                fail(f"histogram {name} bucket without le label")
            bound = math.inf if m.group(1) == "+Inf" else float(m.group(1))
            bounds.append((bound, value))
        if bounds != sorted(bounds, key=lambda b: b[0]):
            fail(f"histogram {name} buckets not sorted by le")
        prev = -1.0
        for bound, value in bounds:
            if value < prev:
                fail(f"histogram {name} buckets not cumulative at le={bound}")
            prev = value
        if bounds[-1][0] != math.inf:
            fail(f"histogram {name} missing +Inf bucket")
        count = by_name.get(name + "_count")
        if count is None:
            fail(f"histogram {name} missing _count")
        if by_name.get(name + "_sum") is None:
            fail(f"histogram {name} missing _sum")
        if bounds[-1][1] != count[0][1]:
            fail(f"histogram {name}: +Inf bucket {bounds[-1][1]} != _count {count[0][1]}")

    nonzero = sum(1 for name, _, v in samples if v != 0)
    print(
        f"check_prom: OK — {len(types)} families, {len(samples)} samples, "
        f"{nonzero} nonzero"
    )


if __name__ == "__main__":
    main()
