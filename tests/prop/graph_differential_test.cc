// Differential graph analytics: PageRank and degree centrality on generated
// uniform and power-law graphs, smart-array kernels vs the naive scalar CSR
// references, swept across NUMA placement × compression tier ("U" native
// widths, "V" compressed indexes, "V+E" compressed edges too). The paper's
// §5.2 claim under test: the analytics answer is representation-independent.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "graph/algorithms.h"
#include "graph/algorithms2.h"
#include "graph/csr.h"
#include "graph/generators.h"
#include "graph/smart_graph.h"
#include "platform/topology.h"
#include "rts/worker_pool.h"
#include "smart/smart_array.h"

namespace {

using sa::graph::BfsLevels;
using sa::graph::BfsLevelsSmart;
using sa::graph::ConnectedComponents;
using sa::graph::ConnectedComponentsSmart;
using sa::graph::CountTriangles;
using sa::graph::CountTrianglesSmart;
using sa::graph::CsrGraph;
using sa::graph::DegreeCentrality;
using sa::graph::DegreeCentralitySmart;
using sa::graph::PageRank;
using sa::graph::PageRankSmart;
using sa::graph::PowerLawGraph;
using sa::graph::SmartCsrGraph;
using sa::graph::SmartGraphOptions;
using sa::graph::UniformRandomGraph;
using sa::graph::VertexId;

struct GraphCase {
  const char* name;
  CsrGraph csr;
};

struct RepresentationCase {
  const char* name;
  SmartGraphOptions options;
};

std::vector<GraphCase> Graphs() {
  std::vector<GraphCase> graphs;
  // Ragged vertex counts on purpose: the CSR arrays end mid-chunk.
  graphs.push_back({"uniform", UniformRandomGraph(/*num_vertices=*/911, /*out_degree=*/3,
                                                  /*seed=*/42)});
  graphs.push_back({"power-law", PowerLawGraph(/*num_vertices=*/733, /*num_edges=*/4001,
                                               /*alpha=*/0.7, /*seed=*/7)});
  return graphs;
}

std::vector<RepresentationCase> Representations() {
  using sa::smart::PlacementSpec;
  std::vector<RepresentationCase> reps;
  const struct {
    const char* tier;
    bool compress_indexes;
    bool compress_edges;
  } tiers[] = {{"U", false, false}, {"V", true, false}, {"V+E", true, true}};
  const PlacementSpec placements[] = {PlacementSpec::OsDefault(), PlacementSpec::SingleSocket(1),
                                      PlacementSpec::Interleaved(), PlacementSpec::Replicated()};
  for (const auto& tier : tiers) {
    for (const auto& placement : placements) {
      SmartGraphOptions options;
      options.placement = placement;
      options.compress_indexes = tier.compress_indexes;
      options.compress_edges = tier.compress_edges;
      reps.push_back({tier.tier, options});
    }
  }
  return reps;
}

class GraphDifferentialTest : public ::testing::Test {
 protected:
  sa::platform::Topology topo_ = sa::platform::Topology::Synthetic(2, 4);
  sa::rts::WorkerPool pool_{topo_, {.num_threads = 4, .pin_threads = false}};
};

TEST_F(GraphDifferentialTest, DegreeCentralityMatchesScalarReferenceEverywhere) {
  for (const auto& graph_case : Graphs()) {
    const std::vector<uint64_t> want = DegreeCentrality(graph_case.csr);
    for (const auto& rep : Representations()) {
      SmartCsrGraph g(graph_case.csr, rep.options, topo_, pool_);
      auto out = sa::smart::SmartArray::Allocate(
          graph_case.csr.num_vertices(), sa::smart::PlacementSpec::Interleaved(), 64, topo_);
      DegreeCentralitySmart(pool_, g.view(), out.get());
      for (VertexId v = 0; v < graph_case.csr.num_vertices(); ++v) {
        ASSERT_EQ(out->Get(v, out->GetReplica(0)), want[v])
            << graph_case.name << " " << rep.name << " "
            << ToString(rep.options.placement) << " vertex " << v;
      }
    }
  }
}

TEST_F(GraphDifferentialTest, PageRankMatchesScalarReferenceEverywhere) {
  for (const auto& graph_case : Graphs()) {
    const auto want = PageRank(graph_case.csr);
    for (const auto& rep : Representations()) {
      SmartCsrGraph g(graph_case.csr, rep.options, topo_, pool_);
      const auto got = PageRankSmart(pool_, g.view(), topo_);
      ASSERT_EQ(got.iterations, want.iterations)
          << graph_case.name << " " << rep.name << " " << ToString(rep.options.placement);
      ASSERT_EQ(got.ranks.size(), want.ranks.size());
      for (VertexId v = 0; v < graph_case.csr.num_vertices(); ++v) {
        ASSERT_NEAR(got.ranks[v], want.ranks[v], 1e-12)
            << graph_case.name << " " << rep.name << " "
            << ToString(rep.options.placement) << " vertex " << v;
      }
      EXPECT_NEAR(got.final_delta, want.final_delta, 1e-9);
    }
  }
}

TEST_F(GraphDifferentialTest, BfsLevelsMatchScalarReferenceEverywhere) {
  for (const auto& graph_case : Graphs()) {
    // Two sources: vertex 0 and one deep in the id range (different frontier
    // shapes; on the power-law graph the second often starts in the tail).
    for (const VertexId source : {VertexId{0}, graph_case.csr.num_vertices() / 2}) {
      const std::vector<uint64_t> want = BfsLevels(graph_case.csr, source);
      for (const auto& rep : Representations()) {
        SmartCsrGraph g(graph_case.csr, rep.options, topo_, pool_);
        const std::vector<uint64_t> got = BfsLevelsSmart(pool_, g.view(), source, topo_);
        ASSERT_EQ(got, want) << graph_case.name << " " << rep.name << " "
                             << ToString(rep.options.placement) << " source " << source;
      }
    }
  }
}

TEST_F(GraphDifferentialTest, ConnectedComponentsMatchScalarReferenceEverywhere) {
  for (const auto& graph_case : Graphs()) {
    const std::vector<uint64_t> want = ConnectedComponents(graph_case.csr);
    for (const auto& rep : Representations()) {
      SmartCsrGraph g(graph_case.csr, rep.options, topo_, pool_);
      ASSERT_EQ(ConnectedComponentsSmart(pool_, g.view(), topo_), want)
          << graph_case.name << " " << rep.name << " " << ToString(rep.options.placement);
    }
  }
}

TEST_F(GraphDifferentialTest, TriangleCountsMatchScalarReferenceEverywhere) {
  for (const auto& graph_case : Graphs()) {
    const uint64_t want = CountTriangles(graph_case.csr);
    for (const auto& rep : Representations()) {
      SmartCsrGraph g(graph_case.csr, rep.options, topo_, pool_);
      ASSERT_EQ(CountTrianglesSmart(pool_, g.view()), want)
          << graph_case.name << " " << rep.name << " " << ToString(rep.options.placement);
    }
  }
}

// Degenerate topologies the generators never produce, swept through the
// same representation grid: no edges at all, self-loops (a triangle-count
// trap), zero-degree vertices inside the id range, and multiple components
// (BFS must report kUnreachable, CC distinct labels).
TEST_F(GraphDifferentialTest, EdgeCaseGraphsMatchScalarReferencesEverywhere) {
  struct EdgeCase {
    const char* name;
    VertexId source;
    CsrGraph csr;
  };
  const EdgeCase cases[] = {
      {"edgeless", 2, CsrGraph::FromEdges(7, {})},
      {"self-loops", 0,
       CsrGraph::FromEdges(5, {{0, 0}, {1, 1}, {2, 0}, {0, 2}, {3, 4}, {4, 3}})},
      {"disconnected", 0,
       CsrGraph::FromEdges(10, {{0, 1}, {1, 2}, {2, 0}, {6, 7}, {7, 8}, {8, 6}, {6, 8}})},
  };
  for (const auto& edge_case : cases) {
    const std::vector<uint64_t> want_bfs = BfsLevels(edge_case.csr, edge_case.source);
    const std::vector<uint64_t> want_cc = ConnectedComponents(edge_case.csr);
    const uint64_t want_tri = CountTriangles(edge_case.csr);
    const std::vector<uint64_t> want_deg = DegreeCentrality(edge_case.csr);
    for (const auto& rep : Representations()) {
      SmartCsrGraph g(edge_case.csr, rep.options, topo_, pool_);
      const std::string label = std::string(edge_case.name) + " " + rep.name + " " +
                                ToString(rep.options.placement);
      ASSERT_EQ(BfsLevelsSmart(pool_, g.view(), edge_case.source, topo_), want_bfs) << label;
      ASSERT_EQ(ConnectedComponentsSmart(pool_, g.view(), topo_), want_cc) << label;
      ASSERT_EQ(CountTrianglesSmart(pool_, g.view()), want_tri) << label;
      auto out = sa::smart::SmartArray::Allocate(
          edge_case.csr.num_vertices(), sa::smart::PlacementSpec::Interleaved(), 64, topo_);
      DegreeCentralitySmart(pool_, g.view(), out.get());
      for (VertexId v = 0; v < edge_case.csr.num_vertices(); ++v) {
        ASSERT_EQ(out->Get(v, out->GetReplica(0)), want_deg[v]) << label << " vertex " << v;
      }
    }
  }
}

// The compressed tiers must actually compress (otherwise the sweep above
// proves less than it claims): "V" narrows the index arrays, "V+E" also
// narrows the edge arrays.
TEST_F(GraphDifferentialTest, CompressionTiersNarrowTheStorage) {
  for (const auto& graph_case : Graphs()) {
    SmartGraphOptions uncompressed;
    SmartGraphOptions v_tier;
    v_tier.compress_indexes = true;
    SmartGraphOptions ve_tier = v_tier;
    ve_tier.compress_edges = true;

    SmartCsrGraph gu(graph_case.csr, uncompressed, topo_, pool_);
    SmartCsrGraph gv(graph_case.csr, v_tier, topo_, pool_);
    SmartCsrGraph gve(graph_case.csr, ve_tier, topo_, pool_);

    EXPECT_EQ(gu.index_bits(), 64u) << graph_case.name;
    EXPECT_LT(gv.index_bits(), gu.index_bits()) << graph_case.name;
    EXPECT_LT(gve.edge_bits(), gv.edge_bits()) << graph_case.name;
    EXPECT_LT(gve.footprint_bytes(), gu.footprint_bytes()) << graph_case.name;
  }
}

}  // namespace
