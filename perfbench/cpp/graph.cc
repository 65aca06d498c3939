// graph: analytics jobs over one power-law CSR graph (the Twitter stand-in)
// held in five registry slots. rts dispatch, paid in every BFS level, CC
// round and PageRank iteration, dominates together with the CSR gathers of
// the graph kernels; pushdown scans do none of the work. Set-up runs one
// deterministic adaptation pass, so no daemon thread runs during jobs.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "adapt/specs.h"
#include "graph/concurrent.h"
#include "graph/generators.h"
#include "platform/topology.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

namespace graph = sa::graph;
using sa::runtime::AdaptationDaemon;
using sa::runtime::ArrayRegistry;

// Sized so one job takes a few hundred ms and no algorithm exceeds half of
// it; mild skew keeps triangle counting from dominating.
constexpr graph::VertexId kVertices = 300'000;
constexpr graph::EdgeId kEdges = 1'200'000;
constexpr double kAlpha = 0.4;
constexpr double kTailQ = 0.75;
constexpr int kSetups = 3;
constexpr int kWorkers = kThreadBudget - 1;  // plus the client thread
// The adaptation pass projects the busiest slot's lifetime traffic onto
// this share of the host's memory bandwidth, as bench_graph's projected
// pass does.
constexpr double kBusiestBandwidthShare = 0.95;

struct References {
  std::vector<uint64_t> bfs;
  std::vector<uint64_t> cc;
  graph::PageRankResult pagerank;
  std::vector<uint64_t> degree;
  uint64_t triangles = 0;

  uint64_t Checksum() const {
    uint64_t h = sa::SplitMix64(triangles ^ static_cast<uint64_t>(pagerank.iterations));
    for (const auto* v : {&bfs, &cc, &degree}) {
      for (const uint64_t x : *v) {
        h = sa::SplitMix64(h ^ x);
      }
    }
    return h;
  }
};

struct State {
  std::unique_ptr<ArrayRegistry> registry;
  std::unique_ptr<graph::RegistryCsrGraph> graph;
  double interval_s = 0.0;
  uint64_t decisions = 0;
  uint64_t adaptations = 0;
  double adapt_ms = 0.0;
  double restructure_ms = 0.0;
};

bool Job(sa::rts::WorkerPool& pool, const sa::platform::Topology& topo,
         const graph::RegistryCsrGraph& g, const References& ref) {
  ScopedSpan op(Layer::kBench, "graph.job");
  graph::GraphSnapshot snapshot;
  {
    ScopedSpan pin(Layer::kRuntime, "pin");
    snapshot = g.Pin();
  }
  bool ok = true;
  {
    ScopedSpan span(Layer::kGraph, "BfsLevels");
    ok &= graph::BfsLevels(pool, snapshot, 0, topo) == ref.bfs;
  }
  {
    ScopedSpan span(Layer::kGraph, "ConnectedComponents");
    ok &= graph::ConnectedComponents(pool, snapshot, topo) == ref.cc;
  }
  {
    ScopedSpan span(Layer::kGraph, "PageRank");
    const graph::PageRankResult got = graph::PageRank(pool, snapshot, topo);
    bool same = got.iterations == ref.pagerank.iterations &&
                got.ranks.size() == ref.pagerank.ranks.size();
    for (size_t v = 0; same && v < got.ranks.size(); ++v) {
      same = std::abs(got.ranks[v] - ref.pagerank.ranks[v]) < 1e-12;
    }
    ok &= same;
  }
  {
    ScopedSpan span(Layer::kGraph, "DegreeCentrality");
    ok &= graph::DegreeCentrality(pool, snapshot, topo) == ref.degree;
  }
  {
    ScopedSpan span(Layer::kGraph, "CountTriangles");
    ok &= graph::CountTriangles(pool, snapshot) == ref.triangles;
  }
  ScopedSpan release(Layer::kRuntime, "release");
  snapshot.Release();
  return ok;
}

// The serial CSR algorithms over the seed's graph.
References ComputeReferences(uint64_t seed) {
  const graph::CsrGraph csr = graph::PowerLawGraph(kVertices, kEdges, kAlpha, seed);
  References ref;
  ref.bfs = graph::BfsLevels(csr, 0);
  ref.cc = graph::ConnectedComponents(csr);
  ref.pagerank = graph::PageRank(csr);
  ref.degree = graph::DegreeCentrality(csr);
  ref.triangles = graph::CountTriangles(csr);
  return ref;
}

// Generation, upload and sealing, then (untimed) one warm-up job, then one
// adaptation pass through the daemon's synchronous path. The pass reads
// every slot's lifetime counters over one shared interval, derived from the
// access counts alone, so the decision depends on the seed and never on how
// long set-up took. Returns the timed seconds: everything except the
// warm-up job.
double Setup(sa::rts::WorkerPool& pool, const sa::platform::Topology& topo, uint64_t seed,
             const References& ref, State& state) {
  const uint64_t t0 = NowNs();
  {
    const graph::CsrGraph csr = graph::PowerLawGraph(kVertices, kEdges, kAlpha, seed);
    state.registry = std::make_unique<ArrayRegistry>(topo);
    graph::SmartGraphOptions upload;
    upload.compress_indexes = true;
    state.graph = std::make_unique<graph::RegistryCsrGraph>(*state.registry, "g", csr, upload);
  }
  for (sa::runtime::ArraySlot* slot : state.graph->slots()) {
    slot->DrainSample();
  }
  const uint64_t t1 = NowNs();
  Job(pool, topo, *state.graph, ref);
  const uint64_t t2 = NowNs();

  const Counters before = Counters::Now();
  const uint64_t restructure_ns = sa::obs::HistogramValue(sa::obs::kRestructureWallNs).sum;
  sa::runtime::DaemonOptions daemon_options;
  daemon_options.min_sampled_accesses = 1024;
  const sa::adapt::MachineCaps caps = HostCaps(topo);
  AdaptationDaemon projector(*state.registry, pool, caps,
                             sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default()),
                             daemon_options);
  uint64_t busiest = 1;
  for (sa::runtime::ArraySlot* slot : state.graph->slots()) {
    const sa::runtime::SlotSample sample = slot->LifetimeSample();
    busiest = std::max(busiest, sample.reads() + sample.writes);
  }
  state.interval_s = static_cast<double>(busiest) * 8.0 /
                     (kBusiestBandwidthShare * caps.bw_max_memory * std::max(1, caps.sockets));
  state.adaptations = 0;
  for (sa::runtime::ArraySlot* slot : state.graph->slots()) {
    sa::runtime::SlotSample sample = slot->LifetimeSample();
    sample.seconds = state.interval_s;
    state.adaptations += projector.AdaptSlot(
        *slot, AdaptationDaemon::SynthesizeCounters(sample, slot->length(), caps,
                                                    daemon_options.cycles_per_access));
  }
  state.registry->Reclaim();
  const uint64_t t3 = NowNs();
  const Counters after = Counters::Now();
  state.decisions = after.Since(before, sa::obs::kDaemonRejectSame) +
                    after.Since(before, sa::obs::kDaemonRejectMargin) +
                    after.Since(before, sa::obs::kDaemonFlapHolds) +
                    after.Since(before, sa::obs::kDaemonRestructures);
  state.adapt_ms = static_cast<double>(t3 - t2) / 1e6;
  state.restructure_ms =
      static_cast<double>(sa::obs::HistogramValue(sa::obs::kRestructureWallNs).sum -
                          restructure_ns) /
      1e6;
  return static_cast<double>((t1 - t0) + (t3 - t2)) / 1e9;
}

}  // namespace

int RunGraph(const Options& options) {
  Report report(options);
  const sa::platform::Topology topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo, sa::rts::WorkerPool::Options{.num_threads = kWorkers});

  const References ref = ComputeReferences(options.seed);
  State state;
  std::vector<double> setup_s;
  std::vector<double> adapt_ms;
  std::vector<double> restructure_ms;
  for (int i = 0; i < kSetups; ++i) {
    state = State{};
    setup_s.push_back(Setup(pool, topo, options.seed, ref, state));
    adapt_ms.push_back(state.adapt_ms);
    restructure_ms.push_back(state.restructure_ms);
  }

  uint64_t footprint = 0;
  uint64_t values = 0;
  std::string representations;
  for (sa::runtime::ArraySlot* slot : state.graph->slots()) {
    sa::runtime::ArraySnapshot snap = slot->Acquire();
    footprint += snap.array().footprint_bytes();
    values += snap.length();
    representations += std::string(representations.empty() ? "" : " ") + slot->name() + "=" +
                       DescribeArray(snap.array());
  }
  const double bytes_per_value = static_cast<double>(footprint) / static_cast<double>(values);

  auto op = [&] { return Job(pool, topo, *state.graph, ref); };
  if (!op()) {
    report.Incorrect("graph warm-up job");
  }
  const Measured m = Measure(options, MinSamplesForTail(kTailQ), op);
  if (m.window.failed + m.plain.failed > 0) {
    report.Incorrect("graph job answers differ from the serial CSR algorithms");
  }
  ReportMeasured(report, setup_s, m, kTailQ, bytes_per_value);

  const double ops = static_cast<double>(m.window.ops);
  const double edges_streamed =
      static_cast<double>(m.after.Since(m.before, sa::obs::kGraphEdgesStreamed)) / ops;
  if (options.trace) {
    const auto& s = m.spans;
    auto median_ms = [&](const char* name) {
      return Quantile(SpanDurationsNs(s, name), 0.5) / 1e6;
    };
    report.Layer("graph.bfs_ms", median_ms("BfsLevels"));
    report.Layer("graph.cc_ms", median_ms("ConnectedComponents"));
    report.Layer("graph.pagerank_ms", median_ms("PageRank"));
    report.Layer("graph.degree_ms", median_ms("DegreeCentrality"));
    report.Layer("graph.triangles_ms", median_ms("CountTriangles"));
    report.Layer("graph.edges_streamed_per_op", edges_streamed);
    report.Layer("graph.random_gathers_per_op",
                 static_cast<double>(m.after.Since(m.before, sa::obs::kGraphRandomGathers)) / ops);
    report.Layer("runtime.pin_us_p50", Quantile(SpanDurationsNs(s, "pin"), 0.5) / 1e3);
    report.Layer("runtime.release_ns_p50", Quantile(SpanDurationsNs(s, "release"), 0.5) / 5);
    // The loops run inside the library, so the pool workers' CPU time
    // stands in for the summed grain time.
    const Window& w = m.window;
    report.Layer("rts.idle_ratio", 1.0 - (w.cpu_s - w.client_cpu_s) / (kWorkers * w.wall_s));
    report.Layer("adapt.decisions", static_cast<double>(state.decisions));
    report.Layer("adapt.adaptations", static_cast<double>(state.adaptations));
    report.Layer("adapt.setup_ms", Quantile(adapt_ms, 0.5));
    report.Layer("smart.restructure_ms", Quantile(restructure_ms, 0.5));
    report.Determinism("graph.edges_streamed_per_op", JsonNumber(edges_streamed));
  }

  report.Context("threads", "{\"clients\":1,\"pool_workers\":" + std::to_string(kWorkers) +
                                ",\"daemon\":0}");
  report.Context("graph", "{\"vertices\":" + std::to_string(kVertices) +
                              ",\"edges\":" + std::to_string(kEdges) +
                              ",\"alpha\":" + JsonNumber(kAlpha) +
                              ",\"triangles\":" + std::to_string(ref.triangles) + "}");
  report.Context("representations", JsonString(representations));
  report.Context("adaptations", std::to_string(state.adaptations));
  report.Context("adapt_interval_s", JsonNumber(state.interval_s));
  report.Determinism("representations", JsonString(representations));
  report.Determinism("bytes_per_value", JsonNumber(bytes_per_value));
  report.Determinism("answers", std::to_string(ref.Checksum()));
  return report.Finish(m.spans);
}

}  // namespace perfbench
