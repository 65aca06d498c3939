#!/usr/bin/env python3
"""Check a BENCH_*.json file against its gates, or diff two of them.

  tools/bench_diff.py FILE                          check FILE's gates
  tools/bench_diff.py BASE CAND [--threshold 0.10]  diff CAND against BASE

micro_codec, micro_runtime, sa_loadgen and bench_graph write one schema
(src/report/bench_record.h): a JSON array of flat records. The host record
("series": "host") gives cores, sockets, isa, the kernels bound per width,
sa_obs and fast. Every other record is one number: bench, series, op, and
where the harness varies them metric, width, encoding, placement, threads,
distribution and selectivity, then value and unit.

A diff compares the records both files hold whose unit has a direction and
fails on a move of more than --threshold the wrong way. A check needs the
bench's REQUIRED records present and positive, then holds each number GATES
derives from them to its bound; gates with an exemption skip fast
(SA_BENCH_FAST) runs, and the graph speedup hosts with fewer than 4 cores.
"""
import argparse
import json
import sys

DIRECTION = {"B/s": 1, "1/s": 1, "s": -1, "ns": -1}  # +1: higher is better
KEYS = ("bench", "series", "op", "metric", "width", "encoding", "placement", "threads",
        "distribution", "selectivity", "unit")
SCAN_GRID = [dict(distribution=d, selectivity=s) for d in ("uniform", "power-law", "sorted")
             for s in (0.001, 0.01, 0.1, 1.0)]
SERVICE = ("sharded", "single-shard")
PERCENTILES = ("p50", "p99", "p999", "max")
GRAPH_RUNS = [dict(op=a, distribution=g) for a in ("bfs", "cc", "triangles", "degree", "pagerank")
              for g in ("uniform", "power-law")]
GRAPH_MIN_EDGES = 1_000_000  # the scale floor; the speedup gate reads graphs this large
RUNTIME_OPS = {
    "snapshot_scan_overhead": ("raw_scan", "snapshot_scan"),
    "snapshot_acquire": ("acquire_release",),
    "time_to_readable_during_restructure": ("acquire_read",),
    "restructure_wall": ("bulk", "per_value_reference"),
    "restructure_same_width": ("word_copy",),
    "obs_scan_overhead": ("enabled_scan", "disabled_scan"),
    "audit_decision_overhead": ("audit_on", "audit_off"),
}

# Records that must be present with positive values (key sets; a metric of
# None matches records without one).
REQUIRED = {
    "codec": [dict(series=s, width=w) for w in range(1, 65)
              for s in ("block", "selected", "unpack-range", "pack-range")]
    + [dict(series=s, **point) for s in ("scan-pushdown", "scan-unpack-filter")
       for point in SCAN_GRID],
    "runtime": [dict(series=f, op=op) for f, ops in RUNTIME_OPS.items() for op in ops],
    "service": [dict(series=s, op=op, metric=m) for s in SERVICE for op, m in
                [("all", "count"), ("all", "throughput"), ("acquire", "count"),
                 ("acquire", "throughput"), ("registry", "slots"), ("daemon", "passes")]
                + [(op, p) for op in ("acquire", "read") for p in PERCENTILES + ("samples",)]],
    "graph": [dict(series=s, metric=None, **run) for s in ("serial", "parallel", "live-daemon")
              for run in GRAPH_RUNS]
    + [dict(series="live-daemon", metric="iterations", **run) for run in GRAPH_RUNS]
    + [dict(series="input", op="edges", distribution=g) for g in ("uniform", "power-law")]
    + [dict(series="live-daemon", op="daemon", metric="passes")],
}


def load(path):
    """-> (host record, measurement records)"""
    with open(path) as f:
        records = json.load(f)
    if not all("bench" in r and "series" in r for r in records):
        sys.exit(f"bench_diff: {path}: records without bench/series keys (an old schema?)")
    keys = [key(r) for r in records if r["series"] != "host"]
    if len(set(keys)) != len(keys):
        sys.exit(f"bench_diff: {path}: duplicate records")
    host = next((r for r in records if r["series"] == "host"), {})
    return host, [r for r in records if r["series"] != "host"]


def key(record):
    return tuple(record.get(k) for k in KEYS)


def label(k):
    return " ".join(f"{n}={v}" for n, v in zip(KEYS[1:-1], k[1:-1]) if v is not None)


def pick(records, **keys):
    return [r for r in records if all(r.get(k) == v for k, v in keys.items())]


def value(records, **keys):
    return pick(records, **keys)[0]["value"]


def pushdown_at_1pct(r):
    return max(value(r, series="scan-pushdown", distribution=d, selectivity=0.01)
               / value(r, series="scan-unpack-filter", distribution=d, selectivity=0.01)
               for d in ("uniform", "power-law", "sorted"))


def acquire_speedup(r):
    return (value(r, series="sharded", op="acquire", metric="throughput")
            / value(r, series="single-shard", op="acquire", metric="throughput"))


def unsorted_percentiles(r):
    return sum(1 for s in SERVICE for op in ("acquire", "read")
               if (v := [value(r, series=s, op=op, metric=p) for p in PERCENTILES]) != sorted(v))


def unverified_runs(r):
    return sum(1 for run in GRAPH_RUNS
               if [c["value"] for c in pick(r, series="check", **run)] != [0])


def adaptations(r):
    return sum(a["value"] for a in pick(r, op="daemon", metric="adaptations"))


def slot_configs(r):
    return len({(s.get("placement"), s.get("width", 64) < 64) for s in pick(r, op="restructure")})


def graph_speedup(r):
    """Lowest serial/parallel ratio over the graphs of >= GRAPH_MIN_EDGES."""
    big = [e["distribution"] for e in pick(r, series="input", op="edges")
           if e["value"] >= GRAPH_MIN_EDGES]
    return min((value(r, series="serial", metric=None, **run)
                / value(r, series="parallel", metric=None, **run)
                for run in GRAPH_RUNS if run["distribution"] in big), default=float("inf"))


def exempt(host, min_cores=0):
    """Why a gate that needs a full-size run (on >= min_cores cores) is skipped."""
    cores = host.get("cores", 0)
    return "fast run" if host.get("fast") else f"{cores}-core host" if cores < min_cores else None


# Per bench: the gated number derived from the records, its lowest and
# highest allowed value, and the exemption that skips it.
GATES = {
    "codec": [("pushdown speedup at 1% selectivity", pushdown_at_1pct, 5.0, None, exempt),
              ("selected/block sum ratio", lambda r: min(
                  value(r, series="selected", width=w) / value(r, series="block", width=w)
                  for w in range(1, 65)), 0.95, None, exempt)],
    "service": [
        ("sharded threads", lambda r: pick(r, series="sharded")[0].get("threads", 0), 64, None,
         None),
        ("sharded slots", lambda r: value(r, series="sharded", op="registry", metric="slots"),
         10_000, None, None),
        ("non-monotone percentile sets", unsorted_percentiles, None, 0, None),
        ("sharded p99 acquire ns", lambda r: value(r, series="sharded", op="acquire",
                                                   metric="p99"), None, 100_000_000, None),
        ("sharded/single-shard acquire speedup", acquire_speedup, 4.0, None, exempt)],
    "graph": [
        ("runs not verified against the serial reference", unverified_runs, None, 0, None),
        ("adaptations observed or projected", adaptations, 1, None, None),
        ("adapted slots", lambda r: sum(s["value"] > 0 for s in pick(r, op="restructure")), 2,
         None, None),
        ("distinct slot configs", slot_configs, 2, None, None),
        ("largest graph's edges", lambda r: max(e["value"] for e in pick(r, op="edges")),
         GRAPH_MIN_EDGES, None, exempt),
        ("parallel speedup", graph_speedup, 2.0, None, lambda h: exempt(h, min_cores=4))],
}

HEADLINES = {
    "codec": lambda r: f"pushdown at 1% = {pushdown_at_1pct(r):.2f}x unpack-filter",
    "runtime": lambda r: f"{len(RUNTIME_OPS)} runtime metric families",
    "service": lambda r: (
        f"sharded {value(r, series='sharded', op='acquire', metric='throughput'):,.0f} acq/s "
        f"(p99 {value(r, series='sharded', op='acquire', metric='p99'):g} ns) = "
        f"{acquire_speedup(r):.2f}x single-shard"),
    "graph": lambda r: (
        f"{len(GRAPH_RUNS)} runs checked; daemon passes="
        f"{value(r, series='live-daemon', op='daemon', metric='passes'):g}, adaptations="
        f"{value(r, series='live-daemon', op='daemon', metric='adaptations'):g}+"
        f"{value(r, series='projected', op='daemon', metric='adaptations'):g} projected, "
        f"{slot_configs(r)} distinct slot configs"),
}


def check(path):
    host, records = load(path)
    benches = {r["bench"] for r in records}
    if len(benches) != 1 or not benches <= REQUIRED.keys():
        sys.exit(f"bench_diff: {path}: expected one bench of {sorted(REQUIRED)}, got {benches}")
    bench = benches.pop()
    problems = [f"{label(key(dict(keys, bench=bench)))}: missing or not positive"
                for keys in REQUIRED[bench]
                if not (found := pick(records, **keys)) or not all(r["value"] > 0 for r in found)]
    for name, derive, low, high, exemption in GATES.get(bench, []) if not problems else []:
        if exemption is not None and (why := exemption(host)):
            print(f"bench_diff: {path}: {name} gate skipped ({why})")
            continue
        v = derive(records)
        if (low is not None and v < low) or (high is not None and v > high):
            bounds = [f"{op} {b:g}" for op, b in ((">=", low), ("<=", high)) if b is not None]
            problems.append(f"{name} = {v:.4g}, must be " + " and ".join(bounds))
    if problems:
        print(f"bench_diff: {path} failed its gates:", *problems, sep="\n  ")
        return 1
    print(f"bench_diff: {path} OK — {HEADLINES[bench](records)}")
    return 0


def diff(base_path, cand_path, threshold):
    (base_host, base), (cand_host, cand) = load(base_path), load(cand_path)
    for field in sorted(base_host.keys() | cand_host.keys()):
        if base_host.get(field) != cand_host.get(field):
            print(f"host {field}: {base_host.get(field)} -> {cand_host.get(field)}")
    base = {key(r): r["value"] for r in base if r["unit"] in DIRECTION}
    cand = {key(r): r["value"] for r in cand if r["unit"] in DIRECTION}
    worse, better = [], []
    for k in sorted(base.keys() & cand.keys(), key=str):
        if base[k] > 0 and cand[k] > 0:
            gain = (cand[k] / base[k]) ** DIRECTION[k[-1]]
            line = f"  {label(k)}: {base[k]:g} -> {cand[k]:g} {k[-1]} ({gain:.2f}x)"
            if gain < 1 - threshold:
                worse.append(line)
            elif gain > 1 + threshold:
                better.append(line)
    for side, only in (("baseline", base.keys() - cand.keys()),
                       ("candidate", cand.keys() - base.keys())):
        if only:
            names = sorted(label(k) for k in only)
            print(f"{len(only)} records only in {side} (not fatal): " + ", ".join(names[:4])
                  + (" ..." if len(names) > 4 else ""))
    if better:
        print(f"{len(better)} records improved >{threshold:.0%}:", *better, sep="\n")
    if worse:
        print(f"\nFAIL: {len(worse)} records regressed >{threshold:.0%} vs {base_path}:",
              *worse, sep="\n")
        return 1
    shared = len(base.keys() & cand.keys())
    print(f"\nbench_diff: OK — {shared} shared records within {threshold:.0%} of baseline")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("file", help="the file to check, or the baseline of a diff")
    parser.add_argument("candidate", nargs="?", help="the candidate to diff against FILE")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="fractional regression tolerance of a diff (default 0.10)")
    args = parser.parse_args()
    if args.candidate is None:
        return check(args.file)
    return diff(args.file, args.candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
