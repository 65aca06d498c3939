// BFS / connected components / triangle counting: smart-array parallel
// kernels vs serial references, plus hand-checkable examples.
#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "graph/algorithms2.h"
#include "graph/generators.h"

namespace sa::graph {
namespace {

class Algorithms2Test : public ::testing::Test {
 protected:
  Algorithms2Test()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {}

  SmartCsrGraph Smart(const CsrGraph& csr, bool compress = false) {
    SmartGraphOptions options;
    options.compress_indexes = compress;
    options.compress_edges = compress;
    return SmartCsrGraph(csr, options, topo_, pool_);
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
};

// ---- BFS ----

TEST_F(Algorithms2Test, BfsHandExample) {
  // 0 -> 1 -> 2 -> 3, plus shortcut 0 -> 2; vertex 4 unreachable.
  const CsrGraph g = CsrGraph::FromEdges(5, {{0, 1}, {1, 2}, {2, 3}, {0, 2}});
  const auto levels = BfsLevels(g, 0);
  EXPECT_EQ(levels, (std::vector<uint64_t>{0, 1, 1, 2, kUnreachable}));
}

TEST_F(Algorithms2Test, BfsSmartMatchesReference) {
  const CsrGraph csr = PowerLawGraph(3000, 15'000, 0.5, 31);
  const auto want = BfsLevels(csr, 0);
  for (const bool compress : {false, true}) {
    const SmartCsrGraph g = Smart(csr, compress);
    const auto got = BfsLevelsSmart(pool_, g.view(), 0, topo_);
    ASSERT_EQ(got, want) << "compress=" << compress;
  }
}

TEST_F(Algorithms2Test, BfsFromIsolatedSource) {
  const CsrGraph csr = CsrGraph::FromEdges(3, {{1, 2}});
  const auto want = BfsLevels(csr, 0);
  EXPECT_EQ(want[0], 0u);
  EXPECT_EQ(want[1], kUnreachable);
  const SmartCsrGraph g = Smart(csr);
  EXPECT_EQ(BfsLevelsSmart(pool_, g.view(), 0, topo_), want);
}

TEST_F(Algorithms2Test, BfsLevelsAreConsistentWithEdges) {
  // Property: along any edge, levels differ by at most 1 downward
  // (level[u] <= level[v] + 1 for reachable v).
  const CsrGraph csr = UniformRandomGraph(2000, 4, 17);
  const auto levels = BfsLevels(csr, 42);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    if (levels[v] == kUnreachable) {
      continue;
    }
    for (EdgeId e = csr.begin()[v]; e < csr.begin()[v + 1]; ++e) {
      EXPECT_LE(levels[csr.edge()[e]], levels[v] + 1);
    }
  }
}

// ---- Connected components ----

TEST_F(Algorithms2Test, ComponentsHandExample) {
  // Two components: {0,1,2} (0->1, 2->1 counts undirected) and {3,4}.
  const CsrGraph g = CsrGraph::FromEdges(5, {{0, 1}, {2, 1}, {4, 3}});
  const auto labels = ConnectedComponents(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[1], labels[2]);
  EXPECT_EQ(labels[3], labels[4]);
  EXPECT_NE(labels[0], labels[3]);
  EXPECT_EQ(labels[0], 0u);  // labels are component minima
  EXPECT_EQ(labels[3], 3u);
}

TEST_F(Algorithms2Test, ComponentsSmartMatchesReference) {
  const CsrGraph csr = UniformRandomGraph(2500, 1, 77);  // sparse: many components
  const auto want = ConnectedComponents(csr);
  for (const bool compress : {false, true}) {
    const SmartCsrGraph g = Smart(csr, compress);
    ASSERT_EQ(ConnectedComponentsSmart(pool_, g.view(), topo_), want) << "compress=" << compress;
  }
}

TEST_F(Algorithms2Test, ComponentCountMatchesBfsReachability) {
  // Property: two vertices share a label iff they are mutually reachable in
  // the undirected view. Spot-check via distinct label count vs a union of
  // BFS sweeps is heavy; instead assert labels are component minima and
  // edges never cross labels.
  const CsrGraph csr = UniformRandomGraph(1500, 2, 5);
  const auto labels = ConnectedComponents(csr);
  for (VertexId v = 0; v < csr.num_vertices(); ++v) {
    EXPECT_LE(labels[v], v);
    for (EdgeId e = csr.begin()[v]; e < csr.begin()[v + 1]; ++e) {
      EXPECT_EQ(labels[v], labels[csr.edge()[e]]);
    }
  }
}

// ---- Triangle counting ----

TEST_F(Algorithms2Test, TrianglesHandExamples) {
  const struct {
    const char* name;
    CsrGraph graph;
    uint64_t triangles;
  } examples[] = {
      {"directed triangle", CsrGraph::FromEdges(3, {{0, 1}, {1, 2}, {2, 0}}), 1},
      // Direction must not matter.
      {"mixed directions", CsrGraph::FromEdges(3, {{0, 1}, {2, 1}, {2, 0}}), 1},
      {"4-clique", CsrGraph::FromEdges(4, {{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}), 4},
      // Parallel edges and self-loops add nothing.
      {"duplicates", CsrGraph::FromEdges(3, {{0, 1}, {0, 1}, {1, 2}, {2, 0}, {1, 1}}), 1},
      {"both directions", CsrGraph::FromEdges(3, {{0, 1}, {1, 0}, {1, 2}, {2, 1}, {2, 0}}), 1},
      {"path", CsrGraph::FromEdges(3, {{0, 1}, {1, 2}}), 0},
      {"empty", CsrGraph::FromEdges(0, {}), 0},
      {"self-loop", CsrGraph::FromEdges(1, {{0, 0}}), 0},
  };
  for (const auto& example : examples) {
    EXPECT_EQ(CountTriangles(example.graph), example.triangles) << example.name;
    EXPECT_EQ(CountTrianglesOriented(example.graph), example.triangles) << example.name;
  }
}

// The serial degree-ordered count against the id-ordered oracle, on both
// generators at several seeds.
TEST_F(Algorithms2Test, TrianglesOrientedMatchesReference) {
  for (const uint64_t seed : {1, 2, 3, 4, 5}) {
    const CsrGraph uniform = UniformRandomGraph(3000, 6, seed);
    EXPECT_EQ(CountTrianglesOriented(uniform), CountTriangles(uniform)) << "uniform " << seed;
    const CsrGraph power_law = PowerLawGraph(3000, 24000, 0.6, seed);
    const uint64_t want = CountTriangles(power_law);
    EXPECT_GT(want, 0u);
    EXPECT_EQ(CountTrianglesOriented(power_law), want) << "power-law " << seed;
  }
}

TEST_F(Algorithms2Test, TrianglesSmartMatchesReference) {
  const CsrGraph csr = PowerLawGraph(800, 8000, 0.5, 3);
  const uint64_t want = CountTriangles(csr);
  EXPECT_GT(want, 0u);  // power-law graphs are triangle-rich
  for (const bool compress : {false, true}) {
    const SmartCsrGraph g = Smart(csr, compress);
    EXPECT_EQ(CountTrianglesSmart(pool_, g.view()), want) << "compress=" << compress;
  }
}

TEST_F(Algorithms2Test, TrianglesAcrossPlacements) {
  const CsrGraph csr = UniformRandomGraph(500, 6, 9);
  const uint64_t want = CountTriangles(csr);
  for (const auto& placement :
       {smart::PlacementSpec::SingleSocket(1), smart::PlacementSpec::Replicated()}) {
    SmartGraphOptions options;
    options.placement = placement;
    options.compress_indexes = true;
    options.compress_edges = true;
    SmartCsrGraph g(csr, options, topo_, pool_);
    EXPECT_EQ(CountTrianglesSmart(pool_, g.view()), want) << ToString(placement);
  }
}

}  // namespace
}  // namespace sa::graph
