// Concurrent graph analytics over registry-held property arrays: the
// GraphSnapshot wrappers (BFS, connected components, triangle counting,
// degree centrality, PageRank) must agree with the serial plain-CSR
// references while the AdaptationDaemon restructures the five CSR slots —
// the snapshot-consistency contract DESIGN.md §4i spells out.
//
// Thread-safety note for the sanitizer CI lane: every test here uploads the
// graph slots FIRST and only then lets the daemon run, so the daemon's
// rebuild scans never overlap slot writes — traversals are read-only
// through epoch-pinned snapshots, which is the race-free production shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/concurrent.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/grain_slice.h"
#include "graph/smart_graph.h"
#include "platform/topology.h"
#include "rts/parallel_for.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/machine_spec.h"

namespace sa::graph {
namespace {

using runtime::AdaptationDaemon;
using runtime::ArrayRegistry;
using runtime::DaemonOptions;

// The §5.1 memory-bound streaming shape (same as the daemon tests): enough
// headroom that AdaptSlot deterministically publishes a restructure for a
// read-heavy slot.
adapt::WorkloadCounters MemBoundStreamingCounters(const adapt::MachineCaps& caps) {
  adapt::WorkloadCounters c;
  c.exec_current_per_socket = caps.exec_max_per_socket * 0.2;
  c.bw_current_memory = std::min(caps.bw_max_memory, 2 * caps.bw_max_interconnect) * 0.95;
  c.max_mem_utilization = 0.95;
  c.max_ic_utilization = 0.92;
  c.accesses_per_second = c.bw_current_memory * 2 / 8.0;
  c.elem_bytes = 8.0;
  c.dataset_bytes = 1e9;
  return c;
}

// Serial plain-CSR answers for every algorithm the snapshot wrappers run.
struct Reference {
  std::vector<uint64_t> bfs;
  std::vector<uint64_t> cc;
  uint64_t triangles = 0;
  std::vector<uint64_t> degree;
  PageRankResult pagerank;
};

Reference ComputeReference(const CsrGraph& csr, VertexId source) {
  Reference ref;
  if (csr.num_vertices() > 0) {
    ref.bfs = BfsLevels(csr, source);
    ref.pagerank = PageRank(csr);
  }
  ref.cc = ConnectedComponents(csr);
  ref.triangles = CountTriangles(csr);
  ref.degree = DegreeCentrality(csr);
  return ref;
}

class ConcurrentGraphTest : public ::testing::Test {
 protected:
  ConcurrentGraphTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}),
        daemon_pool_(topo_, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false}),
        registry_(topo_),
        machine_(adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core())),
        costs_(adapt::ArrayCosts::FromCostModel(sim::CostModel::Default())) {}

  // The daemon rebuilds on its own pool: analytics own pool_, and one
  // WorkerPool cannot run two parallel regions at once (the production
  // service splits them the same way).
  AdaptationDaemon MakeDaemon(DaemonOptions options = {}) {
    return AdaptationDaemon(registry_, daemon_pool_, machine_, costs_, options);
  }

  // Pins a fresh snapshot per algorithm (so daemon publishes between runs
  // take effect) and checks all five answers against the reference.
  void ExpectMatchesReference(const RegistryCsrGraph& g, const CsrGraph& csr, VertexId source,
                              const Reference& ref, const std::string& label) {
    if (csr.num_vertices() > 0) {
      GraphSnapshot snapshot = g.Pin();
      ASSERT_TRUE(snapshot.valid()) << label;
      EXPECT_EQ(BfsLevels(pool_, snapshot, source, topo_), ref.bfs) << label;
      const PageRankResult pr = PageRank(pool_, snapshot, topo_);
      EXPECT_EQ(pr.iterations, ref.pagerank.iterations) << label;
      ASSERT_EQ(pr.ranks.size(), ref.pagerank.ranks.size()) << label;
      for (VertexId v = 0; v < csr.num_vertices(); ++v) {
        ASSERT_NEAR(pr.ranks[v], ref.pagerank.ranks[v], 1e-12) << label << " vertex " << v;
      }
      snapshot.Release();
    }
    GraphSnapshot snapshot = g.Pin();
    EXPECT_EQ(ConnectedComponents(pool_, snapshot, topo_), ref.cc) << label;
    EXPECT_EQ(CountTriangles(pool_, snapshot), ref.triangles) << label;
    EXPECT_EQ(DegreeCentrality(pool_, snapshot, topo_), ref.degree) << label;
    snapshot.Release();
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  rts::WorkerPool daemon_pool_;
  ArrayRegistry registry_;
  adapt::MachineCaps machine_;
  adapt::ArrayCosts costs_;
};

// Every wrapper agrees with its serial reference across the Fig. 12
// representation tiers and NUMA placements, on uniform and power-law
// topologies — before any daemon gets involved.
TEST_F(ConcurrentGraphTest, MatchesSerialReferencesAcrossRepresentations) {
  using smart::PlacementSpec;
  struct GraphCase {
    const char* name;
    CsrGraph csr;
  };
  const GraphCase graphs[] = {
      {"uniform", UniformRandomGraph(/*num_vertices=*/401, /*out_degree=*/3, /*seed=*/11)},
      {"power-law", PowerLawGraph(/*num_vertices=*/301, /*num_edges=*/1500, /*alpha=*/0.7,
                                  /*seed=*/5)},
  };
  const struct {
    const char* tier;
    bool compress_indexes;
    bool compress_edges;
  } tiers[] = {{"U", false, false}, {"V", true, false}, {"V+E", true, true}};
  const PlacementSpec placements[] = {PlacementSpec::OsDefault(), PlacementSpec::Interleaved(),
                                      PlacementSpec::Replicated()};

  int upload = 0;
  for (const auto& graph_case : graphs) {
    const Reference ref = ComputeReference(graph_case.csr, /*source=*/0);
    for (const auto& tier : tiers) {
      for (const auto& placement : placements) {
        SmartGraphOptions options;
        options.placement = placement;
        options.compress_indexes = tier.compress_indexes;
        options.compress_edges = tier.compress_edges;
        RegistryCsrGraph g(registry_, "rep" + std::to_string(upload++), graph_case.csr, options);
        ExpectMatchesReference(g, graph_case.csr, /*source=*/0, ref,
                               std::string(graph_case.name) + " " + tier.tier + " " +
                                   ToString(placement));
      }
    }
  }
}

// Degenerate topologies the generators never emit: vertexless, edgeless,
// self-loops, zero-degree vertices, disconnected components. The compressed
// tier is the interesting one (1-bit-ish arrays, ragged chunk tails).
TEST_F(ConcurrentGraphTest, EdgeCaseGraphsMatchSerialReferences) {
  struct EdgeCase {
    const char* name;
    VertexId source;
    CsrGraph csr;
  };
  const EdgeCase cases[] = {
      {"vertexless", 0, CsrGraph::FromEdges(0, {})},
      {"edgeless", 3, CsrGraph::FromEdges(6, {})},
      {"self-loops", 0, CsrGraph::FromEdges(5, {{0, 0}, {1, 1}, {2, 0}, {0, 2}, {3, 4}})},
      {"disconnected", 1,
       CsrGraph::FromEdges(9, {{0, 1}, {1, 2}, {2, 0}, {5, 6}, {6, 5}, {6, 7}, {7, 5}})},
  };
  for (const auto& edge_case : cases) {
    const Reference ref = ComputeReference(edge_case.csr, edge_case.source);
    for (const bool compressed : {false, true}) {
      SmartGraphOptions options;
      options.compress_indexes = compressed;
      options.compress_edges = compressed;
      RegistryCsrGraph g(registry_,
                         std::string(edge_case.name) + (compressed ? ".ve" : ".u"),
                         edge_case.csr, options);
      ExpectMatchesReference(g, edge_case.csr, edge_case.source, ref,
                             std::string(edge_case.name) + (compressed ? " V+E" : " U"));
    }
  }
}

// Deterministic restructure: AdaptSlot with crafted mem-bound counters
// publishes new representations for the five slots; fresh pins observe the
// new versions (sequence_sum moves) and every answer is unchanged. This is
// the per-array divergence case — each slot narrows to ITS OWN data width,
// so begin/rbegin (offset-valued) and edge/redge (id-valued) come out at
// different widths and the kernels must not assume any two match.
TEST_F(ConcurrentGraphTest, DaemonRestructurePreservesAnswersAcrossPins) {
  const CsrGraph csr = PowerLawGraph(/*num_vertices=*/257, /*num_edges=*/1300, /*alpha=*/0.7,
                                     /*seed=*/3);
  const Reference ref = ComputeReference(csr, /*source=*/2);
  RegistryCsrGraph g(registry_, "adapt", csr, SmartGraphOptions{});  // U tier: room to narrow

  GraphSnapshot before = g.Pin();
  const uint64_t sum_before = before.sequence_sum();
  before.Release();
  ExpectMatchesReference(g, csr, /*source=*/2, ref, "pre-adaptation");

  AdaptationDaemon daemon = MakeDaemon();
  int published = 0;
  for (runtime::ArraySlot* slot : g.slots()) {
    published += daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)) ? 1 : 0;
  }
  ASSERT_GT(published, 0);

  GraphSnapshot after = g.Pin();
  EXPECT_GT(after.sequence_sum(), sum_before);
  // The five slots adapted independently: offsets and vertex ids hold
  // different value ranges, so their minimal widths genuinely differ.
  const CsrView view = after.view();
  EXPECT_NE(view.begin_bits(), view.edge_bits());
  after.Release();

  ExpectMatchesReference(g, csr, /*source=*/2, ref, "post-adaptation");
}

// Snapshot pinning is what makes mid-traversal publishes invisible: results
// computed over a snapshot pinned BEFORE the restructure still match the
// references (the pinned versions stay alive and immutable), while a fresh
// pin sees the new representation. Regression cover for degree centrality
// and PageRank, which once read slot state outside the pinned path.
TEST_F(ConcurrentGraphTest, PinnedSnapshotSurvivesConcurrentPublish) {
  const CsrGraph csr = UniformRandomGraph(/*num_vertices=*/240, /*out_degree=*/4, /*seed=*/9);
  const Reference ref = ComputeReference(csr, /*source=*/7);
  RegistryCsrGraph g(registry_, "pinned", csr, SmartGraphOptions{});
  // Read history first: the selector's §6.1 hints come from the slots'
  // lifetime counters, and a write-only slot never looks worth compressing.
  ExpectMatchesReference(g, csr, /*source=*/7, ref, "warmup");

  GraphSnapshot old_snapshot = g.Pin();
  const uint64_t old_sum = old_snapshot.sequence_sum();

  AdaptationDaemon daemon = MakeDaemon();
  int published = 0;
  for (runtime::ArraySlot* slot : g.slots()) {
    published += daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)) ? 1 : 0;
  }
  ASSERT_GT(published, 0);

  // The old pin still reads the pre-publish representation, consistently.
  EXPECT_EQ(old_snapshot.sequence_sum(), old_sum);
  EXPECT_EQ(BfsLevels(pool_, old_snapshot, 7, topo_), ref.bfs);
  EXPECT_EQ(ConnectedComponents(pool_, old_snapshot, topo_), ref.cc);
  EXPECT_EQ(CountTriangles(pool_, old_snapshot), ref.triangles);
  EXPECT_EQ(DegreeCentrality(pool_, old_snapshot, topo_), ref.degree);
  const PageRankResult pr = PageRank(pool_, old_snapshot, topo_);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_NEAR(pr.ranks[v], ref.pagerank.ranks[v], 1e-12) << "vertex " << v;
  }
  old_snapshot.Release();

  GraphSnapshot fresh = g.Pin();
  EXPECT_GT(fresh.sequence_sum(), old_sum);
  fresh.Release();
  ExpectMatchesReference(g, csr, /*source=*/7, ref, "fresh pin");
}

// Released snapshots flush their per-array access tallies into the slots'
// workload counters — the channel the daemon adapts through. Different
// algorithms leave recognizably different mixes: degree centrality streams
// the offset arrays once and never touches edges; PageRank streams the
// reverse pair once per iteration and gathers the degree property at every
// in-edge; triangle counting only streams. The tallies are exact: they are
// what the daemon adapts from.
TEST_F(ConcurrentGraphTest, AccessMixReachesSlotCounters) {
  const CsrGraph csr = UniformRandomGraph(/*num_vertices=*/200, /*out_degree=*/3, /*seed=*/4);
  RegistryCsrGraph g(registry_, "mix", csr, SmartGraphOptions{});
  const auto drain = [&g] {
    std::vector<runtime::SlotSample> samples;
    for (runtime::ArraySlot* slot : g.slots()) {
      samples.push_back(slot->DrainSample());
    }
    return samples;
  };
  drain();  // drop the upload's writes
  const uint64_t offsets = csr.num_vertices() + 1;
  const uint64_t edges = csr.num_edges();

  GraphSnapshot snapshot = g.Pin();
  DegreeCentrality(pool_, snapshot, topo_);
  snapshot.Release();
  // Slot order: begin, edge, rbegin, redge, deg.
  std::vector<runtime::SlotSample> s = drain();
  EXPECT_EQ(s[0].sequential_reads, offsets);
  EXPECT_EQ(s[0].random_reads, 0u);
  EXPECT_EQ(s[2].sequential_reads, offsets);
  EXPECT_EQ(s[2].random_reads, 0u);
  EXPECT_EQ(s[1].reads(), 0u);
  EXPECT_EQ(s[3].reads(), 0u);
  EXPECT_EQ(s[4].reads(), 0u);

  snapshot = g.Pin();
  const uint64_t iters = static_cast<uint64_t>(PageRank(pool_, snapshot, topo_).iterations);
  snapshot.Release();
  s = drain();
  EXPECT_EQ(s[4].random_reads, iters * edges);
  EXPECT_EQ(s[4].sequential_reads, 0u);
  EXPECT_EQ(s[3].sequential_reads, iters * edges);
  EXPECT_EQ(s[3].random_reads, 0u);
  EXPECT_EQ(s[2].sequential_reads, iters * offsets);
  EXPECT_EQ(s[2].random_reads, 0u);
  EXPECT_EQ(s[0].reads(), 0u);
  EXPECT_EQ(s[1].reads(), 0u);

  // Triangle counting streams each offset array twice (the rank keys, then
  // the orientation) and each edge list once; its gathers hit only the
  // call's own arrays.
  snapshot = g.Pin();
  CountTriangles(pool_, snapshot);
  snapshot.Release();
  s = drain();
  EXPECT_EQ(s[0].sequential_reads, 2 * offsets);
  EXPECT_EQ(s[2].sequential_reads, 2 * offsets);
  EXPECT_EQ(s[1].sequential_reads, edges);
  EXPECT_EQ(s[3].sequential_reads, edges);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(s[i].random_reads, 0u) << "slot " << i;
  }
  EXPECT_EQ(s[4].reads(), 0u);
}

// RegistryCsrGraph seals its five slots after upload, so the daemon's §6.1
// hints treat the topology as read-only — without the seal the upload
// writes dominate the lifetime counters and replication/compression stay
// unreachable until ~20 read passes amortize them.
TEST_F(ConcurrentGraphTest, UploadSealsSlotsReadOnlyForAdaptationHints) {
  const CsrGraph csr = UniformRandomGraph(/*num_vertices=*/64, /*out_degree=*/2, /*seed=*/1);
  RegistryCsrGraph g(registry_, "seal", csr, SmartGraphOptions{});
  for (runtime::ArraySlot* slot : g.slots()) {
    EXPECT_GT(slot->write_count(), 0u) << slot->name();
    EXPECT_EQ(slot->unsealed_write_count(), 0u) << slot->name();
    EXPECT_TRUE(AdaptationDaemon::HintsFor(*slot).read_only) << slot->name();
  }
  // A genuine post-upload write flips the hint back off.
  runtime::ArraySlot* begin_slot = g.slots()[0];
  begin_slot->Write(0, 0);
  EXPECT_EQ(begin_slot->unsealed_write_count(), 1u);
  EXPECT_FALSE(AdaptationDaemon::HintsFor(*begin_slot).read_only);
}

// The live-daemon soak (the TSan lane runs this): slots uploaded first,
// then the daemon's background workers restructure them with a hair-trigger
// configuration while the analytics loop pins/traverses/releases. Two
// graphs fed by different algorithm mixes, so the daemon sees genuinely
// divergent workloads. Every iteration must reproduce the serial answers.
TEST_F(ConcurrentGraphTest, LiveDaemonTraversalsStayConsistent) {
  const CsrGraph uniform =
      UniformRandomGraph(/*num_vertices=*/350, /*out_degree=*/4, /*seed=*/21);
  const CsrGraph skewed =
      PowerLawGraph(/*num_vertices=*/280, /*num_edges=*/1400, /*alpha=*/0.8, /*seed=*/13);
  const Reference uniform_ref = ComputeReference(uniform, /*source=*/0);
  const Reference skewed_ref = ComputeReference(skewed, /*source=*/1);

  SmartGraphOptions options;
  options.compress_indexes = true;  // start narrow so widening is also in play
  RegistryCsrGraph gu(registry_, "live.u", uniform, options);
  RegistryCsrGraph gs(registry_, "live.s", skewed, SmartGraphOptions{});

  DaemonOptions daemon_options;
  daemon_options.interval = std::chrono::milliseconds(1);
  daemon_options.min_predicted_win = -1.0;  // adapt on any predicted delta
  daemon_options.min_sampled_accesses = 32;
  daemon_options.num_workers = 2;
  AdaptationDaemon daemon = MakeDaemon(daemon_options);
  daemon.Start();

  for (int iter = 0; iter < 6; ++iter) {
    ExpectMatchesReference(gu, uniform, /*source=*/0, uniform_ref,
                           "uniform iter " + std::to_string(iter));
    ExpectMatchesReference(gs, skewed, /*source=*/1, skewed_ref,
                           "skewed iter " + std::to_string(iter));
  }

  daemon.Stop();
  EXPECT_GT(daemon.passes(), 0u);
  // One more sweep after the daemon quiesced, over whatever representations
  // it left behind.
  ExpectMatchesReference(gu, uniform, /*source=*/0, uniform_ref, "uniform post-stop");
  ExpectMatchesReference(gs, skewed, /*source=*/1, skewed_ref, "skewed post-stop");
}

// Every other graph in this file fits one 16,384-vertex grain, so the
// kernels' bulk-decoded slices never cross a grain or decode-block boundary
// there. This graph spans four grains (3·kDefaultGrain + 37 vertices, about
// 200k edges) and adds the shapes that stress the slice bookkeeping: a hub
// whose in-list spans several decode blocks, a run of zero-degree vertices
// longer than a block that straddles a grain boundary, and an isolated last
// vertex. The fixture is named apart from ConcurrentGraph* so the TSan lane's
// filter does not pick up its larger graph.
class MultiGrainGraphTest : public ConcurrentGraphTest {
 protected:
  static constexpr VertexId kVertices = 3 * rts::kDefaultGrain + 37;
  static constexpr VertexId kQuietBegin = rts::kDefaultGrain - 2000;
  static constexpr VertexId kQuietEnd = rts::kDefaultGrain + 3000;
  static constexpr VertexId kHub = rts::kDefaultGrain + 5000;
  static constexpr uint64_t kHubInDegree = 3 * GrainSlice::kEdgeBlock + 500;

  static CsrGraph MultiGrainGraph() {
    const CsrGraph base = PowerLawGraph(kVertices, /*num_edges=*/240'000, /*alpha=*/0.5,
                                        /*seed=*/17);
    const auto quiet = [](VertexId v) {
      return (v >= kQuietBegin && v < kQuietEnd) || v == kVertices - 1;
    };
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < kVertices; ++v) {
      for (EdgeId e = base.begin()[v]; e < base.begin()[v + 1]; ++e) {
        if (!quiet(v) && !quiet(base.edge()[e])) {
          edges.emplace_back(v, base.edge()[e]);
        }
      }
    }
    // The hub's in-edges come from the third grain, whose ids are all
    // above it, so triangle counting merges its long list only once.
    for (uint64_t k = 0; k < kHubInDegree; ++k) {
      edges.emplace_back(static_cast<VertexId>(2 * rts::kDefaultGrain + k), kHub);
    }
    return CsrGraph::FromEdges(kVertices, std::move(edges));
  }
};

TEST_F(MultiGrainGraphTest, KernelsMatchReferencesAcrossGrainsAndDecodeBlocks) {
  const CsrGraph csr = MultiGrainGraph();
  ASSERT_GE(csr.InDegree(kHub), kHubInDegree);
  ASSERT_GT(kQuietEnd - kQuietBegin, GrainSlice::kEdgeBlock);
  for (VertexId v = kQuietBegin; v < kQuietEnd; ++v) {
    ASSERT_EQ(csr.OutDegree(v) + csr.InDegree(v), 0u) << v;
  }
  ASSERT_EQ(csr.OutDegree(kVertices - 1) + csr.InDegree(kVertices - 1), 0u);
  ASSERT_GT(csr.num_edges(), 180'000u);
  const Reference ref = ComputeReference(csr, /*source=*/0);

  const struct {
    const char* tier;
    bool compress_indexes;
    bool compress_edges;
  } tiers[] = {{"V", true, false}, {"V+E", true, true}, {"U", false, false}};
  for (const auto& tier : tiers) {
    SmartGraphOptions options;
    options.compress_indexes = tier.compress_indexes;
    options.compress_edges = tier.compress_edges;
    RegistryCsrGraph g(registry_, std::string("grains.") + tier.tier, csr, options);
    ExpectMatchesReference(g, csr, /*source=*/0, ref, tier.tier);
    if (!tier.compress_indexes) {
      // As in DaemonRestructurePreservesAnswersAcrossPins: the U tier has
      // room to narrow, and each slot narrows to its own data width.
      AdaptationDaemon daemon = MakeDaemon();
      int published = 0;
      for (runtime::ArraySlot* slot : g.slots()) {
        published += daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)) ? 1 : 0;
      }
      ASSERT_GT(published, 0);
      GraphSnapshot after = g.Pin();
      const CsrView view = after.view();
      EXPECT_NE(view.begin_bits(), view.edge_bits());
      EXPECT_NE(view.begin_bits(), view.degree_bits());
      after.Release();
      ExpectMatchesReference(g, csr, /*source=*/0, ref, "post-adaptation");
    }
  }
}


// The degree-ordered triangle kernel against the id-ordered oracle, on
// graphs spanning more than three 16,384-vertex grains and built from the
// shapes the orientation has to get right: duplicate edges in both
// directions, self-loops, degree ties broken by id (one graph has every
// vertex at the same degree), a vertex whose oriented list runs over several
// chunks and holds ids from every grain, a hub whose in-list spans several
// decode blocks, zero-degree vertices across a grain boundary, and the empty
// and one-vertex graphs. Every case runs at the U, V and V+E widths and
// again after the daemon narrows each slot to its own data width. The TSan
// lane runs this fixture, so the graphs stay small.
class OrientedTrianglesTest : public ConcurrentGraphTest {
 protected:
  static constexpr VertexId kVertices = 3 * rts::kDefaultGrain + 37;
  static constexpr VertexId kQuietBegin = rts::kDefaultGrain - 300;
  static constexpr VertexId kQuietEnd = rts::kDefaultGrain + 200;
  // kLow and the kCore core vertices form a clique and have no other edges
  // but the hub's, so they tie on degree and every core vertex outranks
  // kLow by id.
  static constexpr VertexId kLow = 3;
  static constexpr VertexId kCore = 150;
  static constexpr VertexId kHub = rts::kDefaultGrain + 5000;
  static constexpr uint64_t kHubInDegree = 3 * GrainSlice::kEdgeBlock + 500;

  static bool Quiet(VertexId v) {
    return (v >= kQuietBegin && v < kQuietEnd) || v == kVertices - 1;
  }

  // Spread from the first grain to the last, stepping over the quiet run.
  static std::vector<VertexId> Core() {
    std::vector<VertexId> core;
    for (VertexId j = 0; j < kCore; ++j) {
      const VertexId v = 40 + j * (kVertices - 42) / (kCore - 1);
      core.push_back(Quiet(v) || v == kHub ? v + 500 : v);
    }
    std::sort(core.begin(), core.end());
    return core;
  }

  static CsrGraph ShapesGraph() {
    const std::vector<VertexId> core = Core();
    const auto in_core = [&core](VertexId v) {
      return v == kLow || std::binary_search(core.begin(), core.end(), v);
    };
    Xoshiro256 rng(29);
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < kVertices; ++v) {
      for (int d = 0; d < 2; ++d) {
        const auto u = static_cast<VertexId>(rng.Below(kVertices));
        if (!Quiet(v) && !Quiet(u) && !in_core(v) && !in_core(u)) {
          edges.emplace_back(v, u);
        }
      }
    }
    // Triangles whose edges repeat in both directions.
    for (VertexId v = 100; v < 160; v += 3) {
      for (int copy = 0; copy < 2; ++copy) {
        edges.insert(edges.end(), {{v, v + 1}, {v + 1, v}, {v + 1, v + 2}, {v + 2, v}});
      }
    }
    // Self-loops, one of them on a triangle vertex and one repeated.
    edges.insert(edges.end(), {{100, 100}, {7777, 7777}, {7777, 7777}});
    for (size_t i = 0; i < core.size(); ++i) {
      edges.emplace_back(core[i], kLow);
      for (size_t j = i + 1; j < core.size(); ++j) {
        edges.emplace_back(i % 2 == 0 ? core[i] : core[j], i % 2 == 0 ? core[j] : core[i]);
      }
    }
    for (uint64_t k = 0; k < kHubInDegree; ++k) {
      const auto source = static_cast<VertexId>(2 * rts::kDefaultGrain + k);
      if (!in_core(source)) {
        edges.emplace_back(source, kHub);
      }
    }
    return CsrGraph::FromEdges(kVertices, std::move(edges));
  }

  // Every vertex has degree 4: i -> i+1 and i -> i+2 around a ring.
  static CsrGraph RegularGraph() {
    std::vector<std::pair<VertexId, VertexId>> edges;
    for (VertexId v = 0; v < kVertices; ++v) {
      edges.emplace_back(v, (v + 1) % kVertices);
      edges.emplace_back(v, (v + 2) % kVertices);
    }
    return CsrGraph::FromEdges(kVertices, std::move(edges));
  }

  // The oracle, the serial oriented count, then the kernel at every tier,
  // before and after per-slot narrowing.
  void ExpectOracle(const CsrGraph& csr, const std::string& name) {
    const uint64_t want = CountTriangles(csr);
    EXPECT_EQ(CountTrianglesOriented(csr), want) << name;
    const struct {
      const char* tier;
      bool compress_indexes;
      bool compress_edges;
    } tiers[] = {{"U", false, false}, {"V", true, false}, {"V+E", true, true}};
    for (const auto& tier : tiers) {
      SmartGraphOptions options;
      options.compress_indexes = tier.compress_indexes;
      options.compress_edges = tier.compress_edges;
      const std::string label = name + " " + tier.tier;
      RegistryCsrGraph g(registry_, "tri." + label, csr, options);
      GraphSnapshot snapshot = g.Pin();
      EXPECT_EQ(CountTriangles(pool_, snapshot), want) << label;
      snapshot.Release();

      AdaptationDaemon daemon = MakeDaemon();
      int published = 0;
      for (runtime::ArraySlot* slot : g.slots()) {
        published += daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)) ? 1 : 0;
      }
      if (!tier.compress_indexes && csr.num_edges() > 0) {
        ASSERT_GT(published, 0) << label;  // the U tier has room to narrow
      }
      snapshot = g.Pin();
      EXPECT_EQ(CountTriangles(pool_, snapshot), want) << label << " narrowed";
      snapshot.Release();
    }
  }
};

TEST_F(OrientedTrianglesTest, ShapesAcrossGrainsMatchOracle) {
  const CsrGraph csr = ShapesGraph();
  const std::vector<VertexId> core = Core();
  ASSERT_EQ(std::set<VertexId>(core.begin(), core.end()).size(), core.size());
  // kLow's oriented list holds ids from every grain.
  ASSERT_EQ(core.back() / rts::kDefaultGrain, 3u);
  ASSERT_EQ(csr.OutDegree(kLow) + csr.InDegree(kLow), uint64_t{kCore});
  ASSERT_EQ(csr.OutDegree(core[0]) + csr.InDegree(core[0]), uint64_t{kCore});
  ASSERT_GE(csr.InDegree(kHub), kHubInDegree / 2);
  for (VertexId v = kQuietBegin; v < kQuietEnd; ++v) {
    ASSERT_EQ(csr.OutDegree(v) + csr.InDegree(v), 0u) << v;
  }
  ExpectOracle(csr, "shapes");
}

TEST_F(OrientedTrianglesTest, EqualDegreesBreakTiesById) {
  const CsrGraph csr = RegularGraph();
  for (VertexId v = 0; v < kVertices; v += 997) {
    ASSERT_EQ(csr.OutDegree(v) + csr.InDegree(v), 4u) << v;
  }
  ExpectOracle(csr, "regular");
}

TEST_F(OrientedTrianglesTest, EmptyAndOneVertexGraphs) {
  ExpectOracle(CsrGraph::FromEdges(0, {}), "empty");
  ExpectOracle(CsrGraph::FromEdges(1, {}), "one vertex");
  ExpectOracle(CsrGraph::FromEdges(1, {{0, 0}}), "one self-loop");
}

}  // namespace
}  // namespace sa::graph
