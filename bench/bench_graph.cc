// BENCH_graph.json: the concurrent analytics suite (BFS, connected
// components, triangle counting, degree centrality, PageRank) measured
// three ways per algorithm and topology, the records' `series` —
//
//   serial       the plain-CSR scalar reference (for triangles the
//                degree-ordered CountTrianglesOriented, the algorithm the
//                parallel kernel runs; the id-ordered count is the oracle),
//   parallel     the smart-array kernels over an epoch-pinned registry
//                snapshot, daemon idle,
//   live-daemon  the same kernels while the AdaptationDaemon (its own
//                worker, hair-trigger thresholds) restructures the ten
//                property slots between pins (mean seconds per run),
//
// on a uniform and a power-law graph (the records' `distribution`). Every
// timed run is differentially checked against the serial answer (the
// "check" series counts mismatches). The file also records daemon activity
// and each property slot's final representation, which is where
// per-algorithm adaptation divergence shows up as distinct configs; its
// host record carries the core count, since speedup gates are only honest
// on multi-core hosts (tools/bench_diff.py reads it).
//
// SA_BENCH_FAST=1 shrinks the graphs for CI smoke runs (the host record
// says so: bench_diff.py then skips the scale and speedup gates).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "adapt/selector.h"
#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/concurrent.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "obs/trace.h"
#include "platform/topology.h"
#include "report/bench_record.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/machine_spec.h"

namespace {

using namespace sa;
using graph::CsrGraph;
using graph::GraphSnapshot;
using graph::PageRankResult;
using graph::RegistryCsrGraph;
using graph::VertexId;

double NowSec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Serial references, computed once per graph and reused as the oracle for
// every parallel and live-daemon run.
struct Reference {
  std::vector<uint64_t> bfs;
  std::vector<uint64_t> cc;
  uint64_t triangles = 0;
  std::vector<uint64_t> degree;
  PageRankResult pagerank;
};

struct AlgoTiming {
  const char* algorithm;
  double serial_sec = 0.0;
  double parallel_sec = 0.0;
  double live_daemon_sec = 0.0;  // summed over live iterations
  int live_iters = 0;
  int mismatches = 0;  // runs whose answer diverged from the serial reference
};

constexpr int kNumAlgos = 5;
enum Algo { kBfs = 0, kCc, kTriangles, kDegree, kPageRank };
const char* const kAlgoNames[kNumAlgos] = {"bfs", "cc", "triangles", "degree", "pagerank"};

struct GraphBench {
  const char* name = "";
  CsrGraph csr;
  Reference ref;
  RegistryCsrGraph* registry_graph = nullptr;
  AlgoTiming timings[kNumAlgos];
};

Reference ComputeReference(const CsrGraph& csr, GraphBench* bench) {
  Reference ref;
  double t0 = NowSec();
  ref.bfs = graph::BfsLevels(csr, /*source=*/0);
  bench->timings[kBfs].serial_sec = NowSec() - t0;
  t0 = NowSec();
  ref.cc = graph::ConnectedComponents(csr);
  bench->timings[kCc].serial_sec = NowSec() - t0;
  ref.triangles = graph::CountTriangles(csr);
  t0 = NowSec();
  const uint64_t oriented = graph::CountTrianglesOriented(csr);
  bench->timings[kTriangles].serial_sec = NowSec() - t0;
  if (oriented != ref.triangles) {
    std::fprintf(stderr, "MISMATCH: serial oriented triangles on %s diverged from the oracle\n",
                 bench->name);
    ++bench->timings[kTriangles].mismatches;
  }
  t0 = NowSec();
  ref.degree = graph::DegreeCentrality(csr);
  bench->timings[kDegree].serial_sec = NowSec() - t0;
  t0 = NowSec();
  ref.pagerank = graph::PageRank(csr);
  bench->timings[kPageRank].serial_sec = NowSec() - t0;
  return ref;
}

// One pinned run of `algo`; returns wall seconds and counts a mismatch
// against the serial reference in the algorithm's timing.
double RunPinned(rts::WorkerPool& pool, const platform::Topology& topo, GraphBench& bench,
                 int algo) {
  GraphSnapshot snapshot = bench.registry_graph->Pin();
  const double t0 = NowSec();
  bool match = true;
  switch (algo) {
    case kBfs:
      match = graph::BfsLevels(pool, snapshot, /*source=*/0, topo) == bench.ref.bfs;
      break;
    case kCc:
      match = graph::ConnectedComponents(pool, snapshot, topo) == bench.ref.cc;
      break;
    case kTriangles:
      match = graph::CountTriangles(pool, snapshot) == bench.ref.triangles;
      break;
    case kDegree:
      match = graph::DegreeCentrality(pool, snapshot, topo) == bench.ref.degree;
      break;
    case kPageRank: {
      const PageRankResult got = graph::PageRank(pool, snapshot, topo);
      match = got.iterations == bench.ref.pagerank.iterations;
      for (size_t v = 0; match && v < got.ranks.size(); ++v) {
        match = std::abs(got.ranks[v] - bench.ref.pagerank.ranks[v]) < 1e-12;
      }
      break;
    }
  }
  const double sec = NowSec() - t0;
  snapshot.Release();
  if (!match) {
    std::fprintf(stderr, "MISMATCH: %s on %s diverged from the serial reference\n",
                 kAlgoNames[algo], bench.name);
    ++bench.timings[algo].mismatches;
  }
  return sec;
}

struct SlotReport {
  std::string name;
  uint64_t initial_sequence = 0;
};

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_graph.json";
  const bool fast = report::FastMode();

  const auto topo = platform::Topology::Host();
  rts::WorkerPool pool(topo);
  // The daemon rebuilds on a dedicated worker so its ParallelFor never
  // contends for the analytics pool (one pool cannot nest regions).
  rts::WorkerPool daemon_pool(topo, rts::WorkerPool::Options{.num_threads = 1, .pin_threads = false});
  runtime::ArrayRegistry registry(topo);

  std::vector<GraphBench> benches(2);
  benches[0].name = "uniform";
  benches[0].csr = fast ? graph::UniformRandomGraph(20'000, 5, 1234)
                        : graph::UniformRandomGraph(262'144, 8, 1234);
  benches[1].name = "power-law";
  benches[1].csr = fast ? graph::PowerLawGraph(15'000, 90'000, 0.7, 99)
                        : graph::PowerLawGraph(200'000, 1'500'000, 0.7, 99);

  for (auto& bench : benches) {
    for (int a = 0; a < kNumAlgos; ++a) {
      bench.timings[a].algorithm = kAlgoNames[a];
    }
    std::fprintf(stderr, "serial references: %s (%llu vertices, %llu edges)\n", bench.name,
                 static_cast<unsigned long long>(bench.csr.num_vertices()),
                 static_cast<unsigned long long>(bench.csr.num_edges()));
    bench.ref = ComputeReference(bench.csr, &bench);
  }

  // Upload into the registry (compressed-index tier: the daemon has both
  // directions to move in), then drop the upload writes from the interval
  // samples so the daemon's first drain sees analytics traffic, not setup.
  graph::SmartGraphOptions options;
  options.compress_indexes = true;
  RegistryCsrGraph uniform_graph(registry, "bench.u", benches[0].csr, options);
  RegistryCsrGraph powerlaw_graph(registry, "bench.p", benches[1].csr, options);
  benches[0].registry_graph = &uniform_graph;
  benches[1].registry_graph = &powerlaw_graph;
  std::vector<SlotReport> slot_reports;
  for (const auto& bench : benches) {
    for (runtime::ArraySlot* slot : bench.registry_graph->slots()) {
      slot->DrainSample();
      slot_reports.push_back({slot->name(), slot->sequence()});
    }
  }

  // Phase 1: parallel over pinned snapshots, daemon idle.
  for (auto& bench : benches) {
    for (int a = 0; a < kNumAlgos; ++a) {
      bench.timings[a].parallel_sec = RunPinned(pool, topo, bench, a);
    }
    std::fprintf(stderr, "parallel (daemon idle): %s done\n", bench.name);
  }

  // Phase 2: same runs with the daemon live. Hair-trigger thresholds so
  // restructures actually land between pins on any host; the slots were
  // fully uploaded above, so daemon scans only ever race read-only
  // traversals through pinned snapshots (the race-free production shape).
  runtime::DaemonOptions daemon_options;
  daemon_options.interval = std::chrono::milliseconds(2);
  daemon_options.min_predicted_win = -1.0;
  daemon_options.min_sampled_accesses = 1024;
  daemon_options.num_workers = 1;
  // The daemon's machine caps should describe the host it runs on. There is
  // no PCM in the container, so scale the reference spec's execution and
  // bandwidth ceilings by the host/spec core ratio — on a small CI box this
  // keeps the synthesized utilizations meaningful instead of pinning every
  // slot at "nowhere near a 36-core server's limits" (which would make the
  // selector's answer degenerate to one config for all ten slots).
  adapt::MachineCaps caps = adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core());
  const double core_ratio = std::min(1.0, static_cast<double>(topo.num_cpus()) / 36.0);
  caps.exec_max_per_socket *= core_ratio;
  caps.bw_max_memory *= core_ratio;
  caps.bw_max_interconnect *= core_ratio;
  runtime::AdaptationDaemon daemon(registry, daemon_pool, caps,
                                   adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()),
                                   daemon_options);
  daemon.Start();

  const int live_iters = fast ? 2 : 3;
  for (int iter = 0; iter < live_iters; ++iter) {
    for (auto& bench : benches) {
      for (int a = 0; a < kNumAlgos; ++a) {
        bench.timings[a].live_daemon_sec += RunPinned(pool, topo, bench, a);
        ++bench.timings[a].live_iters;
      }
    }
    std::fprintf(stderr, "live-daemon iteration %d/%d done (daemon adaptations so far: %llu)\n",
                 iter + 1, live_iters, static_cast<unsigned long long>(daemon.adaptations()));
  }
  daemon.Stop();

  // Phase 3: adaptation divergence. A 1-core container can never push a
  // graph into the paper's memory-bound regime, so on this host the live
  // daemon's honest answer is often "uncompressed interleaved for
  // everything". The per-slot access *mixes* are host-independent, though:
  // take each slot's measured lifetime sample (real random fraction, real
  // relative traffic across slots) and project only the rate onto the
  // paper's 36-core machine at 95% memory saturation — the §5.2 regime —
  // then run the daemon's deterministic decision path per slot. Slots fed
  // by streaming algorithms (BFS/CC/degree sweeps) and slots fed by random
  // gathers (PageRank's degree property, triangle intersection probes) come
  // out at different representations, which the suite then re-verifies.
  const adapt::MachineCaps paper_caps =
      adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core());
  runtime::AdaptationDaemon projector(registry, daemon_pool, paper_caps,
                                      adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()),
                                      daemon_options);
  uint64_t busiest = 1;
  for (const auto& bench : benches) {
    for (runtime::ArraySlot* slot : bench.registry_graph->slots()) {
      busiest = std::max(busiest, slot->LifetimeSample().reads() + slot->LifetimeSample().writes);
    }
  }
  // One shared wall-clock denominator keeps the slots' relative rates real;
  // its value puts the busiest slot at 95% of a socket's memory bandwidth.
  const double projected_seconds =
      static_cast<double>(busiest) * 8.0 /
      (0.95 * paper_caps.bw_max_memory * std::max(1, paper_caps.sockets));
  uint64_t projected_adaptations = 0;
  for (const auto& bench : benches) {
    for (runtime::ArraySlot* slot : bench.registry_graph->slots()) {
      runtime::SlotSample sample = slot->LifetimeSample();
      sample.seconds = projected_seconds;
      projected_adaptations += projector.AdaptSlot(
          *slot, runtime::AdaptationDaemon::SynthesizeCounters(
                     sample, slot->length(), paper_caps, daemon_options.cycles_per_access));
    }
  }
  // The suite must still be exact over the diverged representations.
  for (auto& bench : benches) {
    for (int a = 0; a < kNumAlgos; ++a) {
      RunPinned(pool, topo, bench, a);
    }
  }
  std::fprintf(stderr, "projected adaptation: %llu slots restructured, suite re-verified\n",
               static_cast<unsigned long long>(projected_adaptations));

  // Restructure events that reached the adaptation trace ring.
  uint64_t trace_restructures = 0;
  {
    uint64_t cursor = 0;
    obs::TraceEvent events[256];
    size_t n;
    while ((n = obs::TraceDrain(&cursor, events, 256)) > 0) {
      for (size_t i = 0; i < n; ++i) {
        trace_restructures += events[i].kind == obs::kTraceRestructureEnd && events[i].d == 1;
      }
    }
  }

  report::BenchWriter out("graph");
  int mismatches = 0;
  for (const auto& bench : benches) {
    out.Add({.series = "input", .op = "vertices", .distribution = bench.name},
            bench.csr.num_vertices(), "count");
    out.Add({.series = "input", .op = "edges", .distribution = bench.name},
            bench.csr.num_edges(), "count");
    for (const AlgoTiming& t : bench.timings) {
      const auto key = [&](const char* series, const char* metric, int threads) {
        return report::Key{.series = series,
                           .op = t.algorithm,
                           .metric = metric,
                           .threads = threads,
                           .distribution = bench.name};
      };
      out.Add(key("serial", "", 1), t.serial_sec, "s");
      out.Add(key("parallel", "", pool.num_workers()), t.parallel_sec, "s");
      out.Add(key("live-daemon", "", pool.num_workers()), t.live_daemon_sec / t.live_iters, "s");
      out.Add(key("live-daemon", "iterations", 0), t.live_iters, "count");
      out.Add(key("check", "mismatches", 0), t.mismatches, "count");
      mismatches += t.mismatches;
    }
  }
  // Daemon activity, then every slot's final representation and whether it
  // was restructured. bench_diff.py counts distinct representation classes
  // across the ten slots: placement kind x compressed-or-not (bit widths
  // differ per slot trivially, so they do not count toward divergence).
  const auto daemon_key = [&](const char* series, const char* metric) {
    return report::Key{
        .series = series, .op = "daemon", .metric = metric, .threads = daemon_options.num_workers};
  };
  out.Add(daemon_key("live-daemon", "passes"), daemon.passes(), "count");
  out.Add(daemon_key("live-daemon", "adaptations"), daemon.adaptations(), "count");
  out.Add(daemon_key("live-daemon", "trace_restructures"), trace_restructures, "count");
  out.Add(daemon_key("projected", "adaptations"), projected_adaptations, "count");
  size_t slot_index = 0;
  for (const auto& bench : benches) {
    for (runtime::ArraySlot* slot : bench.registry_graph->slots()) {
      const SlotReport& initial = slot_reports[slot_index++];
      const runtime::SlotSample lifetime = slot->LifetimeSample();
      const double random_fraction =
          lifetime.reads() == 0
              ? 0.0
              : static_cast<double>(lifetime.random_reads) / lifetime.reads();
      out.Add({.series = initial.name,
               .op = "restructure",
               .width = slot->bits(),
               .placement = ToString(slot->placement().kind)},
              slot->sequence() - initial.initial_sequence, "count");
      out.Add({.series = initial.name, .op = "read", .metric = "random_fraction"},
              random_fraction, "ratio");
    }
  }
  if (!out.Write(out_path)) {
    return 1;
  }
  std::fprintf(stderr, "daemon adaptations %llu, all answers %s\n",
               static_cast<unsigned long long>(daemon.adaptations()),
               mismatches == 0 ? "matched the serial references"
                               : "DIVERGED — see mismatches above");
  return mismatches == 0 ? 0 : 1;
}
