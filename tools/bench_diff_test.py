#!/usr/bin/env python3
"""Every gate of tools/bench_diff.py against a minimal record set that passes
and one that violates it, plus the committed BENCH_*.json files and the diff.

  python3 tools/bench_diff_test.py    (registered as the bench_diff_test ctest)
"""
import contextlib
import importlib.util
import io
import json
import os
import tempfile
import unittest

TOOLS = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("bench_diff",
                                               os.path.join(TOOLS, "bench_diff.py"))
bench_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_diff)

ALGORITHMS = ("bfs", "cc", "triangles", "degree", "pagerank")
GENERATORS = ("uniform", "power-law")


def rec(bench, value, unit, **keys):
    return dict(bench=bench, **keys, value=value, unit=unit)


def host(bench, **fields):
    return dict(bench=bench, series="host", **fields)


def codec_file(speedup=60.0, fast=False):
    records = [rec("codec", 1e9, "B/s", series=s, op="sum", width=w) for w in range(1, 65)
               for s in ("block", "selected", "unpack-range", "pack-range")]
    for d in ("uniform", "power-law", "sorted"):
        for sel in (0.001, 0.01, 0.1, 1.0):
            point = dict(op="count_if", width=13, distribution=d, selectivity=sel)
            records.append(rec("codec", 1e8 * speedup, "B/s", series="scan-pushdown", **point))
            records.append(rec("codec", 1e8, "B/s", series="scan-unpack-filter", **point))
    return [host("codec", fast=fast)] + records


def runtime_file():
    return [host("runtime", sa_obs=True, fast=True)] + [
        rec("runtime", 1e-3, "s", series=f, op=op)
        for f, ops in bench_diff.RUNTIME_OPS.items() for op in ops]


def service_file(speedup=5.0, acquire_ns=(900, 2815, 16383, 70000), passes=20, threads=64,
                 slots=10_000, fast=False):
    records = []
    for series, throughput in (("sharded", 1e5 * speedup), ("single-shard", 1e5)):
        def add(op, metric, value, unit="count"):
            records.append(rec("service", value, unit, series=series, op=op, metric=metric,
                               threads=threads))
        add("registry", "slots", slots)
        add("all", "count", 1000)
        add("all", "throughput", 2 * throughput, "1/s")
        add("acquire", "count", 1000)
        add("acquire", "throughput", throughput, "1/s")
        for op, latencies in (("acquire", acquire_ns), ("read", (350, 735, 4351, 9000))):
            for p, v in zip(bench_diff.PERCENTILES, latencies):
                add(op, p, v, "ns")
            add(op, "samples", 500)
        add("daemon", "passes", passes)
    return [host("service", fast=fast)] + records


def graph_file(speedup=3.0, cores=4, fast=False, edges=2_000_000, mismatches=0,
               placements=("interleaved", "replicated")):
    records = []
    for g in GENERATORS:
        records.append(rec("graph", edges, "count", series="input", op="edges", distribution=g))
        for a in ALGORITHMS:
            run = dict(op=a, distribution=g)
            records += [rec("graph", speedup, "s", series="serial", threads=1, **run),
                        rec("graph", 1.0, "s", series="parallel", threads=cores, **run),
                        rec("graph", 1.2, "s", series="live-daemon", threads=cores, **run),
                        rec("graph", 3, "count", series="live-daemon", metric="iterations", **run),
                        rec("graph", mismatches if a == "cc" else 0, "count", series="check",
                            metric="mismatches", **run)]
    records += [rec("graph", 50, "count", series="live-daemon", op="daemon", metric="passes"),
                rec("graph", 4, "count", series="live-daemon", op="daemon", metric="adaptations"),
                rec("graph", 1, "count", series="projected", op="daemon", metric="adaptations")]
    records += [rec("graph", 1, "count", series=f"g.slot{i}", op="restructure", width=64,
                    placement=p) for i, p in enumerate(placements)]
    return [host("graph", cores=cores, fast=fast)] + records


def set_value(records, value, **keys):
    (record,) = bench_diff.pick(records, **keys)
    record["value"] = value
    return records


class GateTest(unittest.TestCase):
    def run_tool(self, *files, threshold=0.10):
        paths = []
        with tempfile.TemporaryDirectory() as tmp:
            for i, records in enumerate(files):
                paths.append(os.path.join(tmp, f"BENCH_{i}.json"))
                with open(paths[-1], "w") as f:
                    json.dump(records, f)
            with contextlib.redirect_stdout(io.StringIO()) as out:
                if len(paths) == 1:
                    rc = bench_diff.check(paths[0])
                else:
                    rc = bench_diff.diff(paths[0], paths[1], threshold)
        return rc, out.getvalue()

    def assertPasses(self, *files):
        rc, out = self.run_tool(*files)
        self.assertEqual(rc, 0, out)

    def assertFails(self, why, *files):
        """Fails, and names `why` in its report."""
        rc, out = self.run_tool(*files)
        self.assertEqual(rc, 1, out)
        self.assertIn(why, out)

    def test_codec(self):
        self.assertPasses(codec_file())
        missing = [r for r in codec_file() if not (r.get("width") == 17
                                                   and r["series"] == "selected")]
        self.assertFails("series=selected width=17: missing", missing)
        self.assertFails("series=pack-range width=3: missing or not positive",
                         set_value(codec_file(), 0.0, series="pack-range", width=3))
        no_scan_point = [r for r in codec_file() if r.get("selectivity") != 0.1]
        self.assertFails("selectivity=0.1: missing", no_scan_point)

    def test_codec_pushdown_gate_exempts_fast_runs(self):
        self.assertFails("pushdown speedup at 1% selectivity = 4.9", codec_file(speedup=4.9))
        self.assertPasses(codec_file(speedup=4.9, fast=True))
        self.assertPasses(codec_file(speedup=5.0))

    def test_codec_selected_kernel_gate_exempts_fast_runs(self):
        slow = set_value(codec_file(), 0.94e9, series="selected", width=33)
        self.assertFails("selected/block sum ratio = 0.94", slow)
        self.assertPasses(set_value(codec_file(fast=True), 0.94e9, series="selected", width=33))
        self.assertPasses(set_value(codec_file(), 0.95e9, series="selected", width=33))

    def test_runtime(self):
        self.assertPasses(runtime_file())
        self.assertFails("op=audit_off: missing",
                         [r for r in runtime_file() if r.get("op") != "audit_off"])
        self.assertFails("op=word_copy: missing or not positive",
                         set_value(runtime_file(), -1.0, op="word_copy"))

    def test_service(self):
        self.assertPasses(service_file())
        self.assertFails("non-monotone percentile sets = 2",
                         service_file(acquire_ns=(900, 20000, 16383, 70000)))
        self.assertFails("op=daemon metric=passes", service_file(passes=0))
        self.assertFails("sharded threads = 63", service_file(threads=63))
        self.assertFails("sharded slots = 9999", service_file(slots=9_999))
        self.assertFails("series=single-shard op=all",
                         [r for r in service_file() if r["series"] != "single-shard"])

    def test_service_acquire_speedup_exempts_fast_runs(self):
        self.assertFails("acquire speedup = 3.9", service_file(speedup=3.9))
        self.assertPasses(service_file(speedup=3.9, fast=True))

    def test_service_p99_bound_holds_in_fast_runs(self):
        slow = (1000, 100_000_001, 100_000_002, 100_000_003)
        self.assertFails("sharded p99 acquire ns", service_file(acquire_ns=slow, fast=True))
        self.assertPasses(service_file(acquire_ns=(1000, 100_000_000, 100_000_001, 100_000_002)))

    def test_graph(self):
        self.assertPasses(graph_file())
        self.assertFails("runs not verified against the serial reference = 2",
                         graph_file(mismatches=1))
        self.assertFails("distinct slot configs = 1",
                         graph_file(placements=("interleaved", "interleaved")))
        self.assertFails("adapted slots = 1", graph_file(placements=("interleaved",)))
        self.assertFails("op=daemon metric=passes", set_value(
            graph_file(), 0, series="live-daemon", op="daemon", metric="passes"))
        unchecked = [r for r in graph_file()
                     if not (r["series"] == "check" and r.get("op") == "bfs"
                             and r.get("distribution") == "uniform")]
        self.assertFails("runs not verified against the serial reference = 1", unchecked)
        self.assertFails("op=pagerank",
                         [r for r in graph_file() if r.get("op") != "pagerank"])

    def test_graph_speedup_exempts_small_hosts_and_fast_runs(self):
        self.assertFails("parallel speedup = 1.9", graph_file(speedup=1.9, cores=4))
        self.assertPasses(graph_file(speedup=1.9, cores=1))
        self.assertPasses(graph_file(speedup=1.9, cores=4, fast=True))

    def test_graph_scale_exempts_fast_runs(self):
        self.assertFails("largest graph's edges = 1e+06", graph_file(edges=999_999, cores=1))
        self.assertPasses(graph_file(edges=999_999, fast=True))

    def test_committed_files_pass(self):
        root = os.path.dirname(TOOLS)
        for name in ("BENCH_codec.json", "BENCH_service.json", "BENCH_graph.json"):
            with contextlib.redirect_stdout(io.StringIO()) as out:
                rc = bench_diff.check(os.path.join(root, name))
            self.assertEqual(rc, 0, out.getvalue())

    def test_diff_follows_each_unit_direction(self):
        self.assertPasses(graph_file(), graph_file())
        self.assertFails("series=block op=sum width=5", codec_file(),
                         set_value(codec_file(), 8.9e8, series="block", width=5))
        self.assertFails("series=parallel op=cc threads=4 distribution=uniform", graph_file(),
                         set_value(graph_file(), 1.2, series="parallel", op="cc",
                                   distribution="uniform"))
        faster = set_value(graph_file(), 0.5, series="parallel", op="cc", distribution="uniform")
        rc, out = self.run_tool(graph_file(), faster)
        self.assertEqual(rc, 0, out)
        self.assertIn("1 records improved", out)


if __name__ == "__main__":
    unittest.main()
