// Algorithm correctness: smart-array parallel kernels vs serial references,
// across placements and compression variants.
#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "graph/algorithms.h"
#include "graph/generators.h"

namespace sa::graph {
namespace {

class AlgorithmsTest : public ::testing::Test {
 protected:
  AlgorithmsTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}),
        csr_(PowerLawGraph(2000, 20'000, 0.5, 21)) {}

  platform::Topology topo_;
  rts::WorkerPool pool_;
  CsrGraph csr_;
};

TEST_F(AlgorithmsTest, DegreeCentralityReferenceSanity) {
  const auto dc = DegreeCentrality(csr_);
  const uint64_t total = std::accumulate(dc.begin(), dc.end(), uint64_t{0});
  EXPECT_EQ(total, 2 * csr_.num_edges());  // every edge counted out + in
}

TEST_F(AlgorithmsTest, DegreeCentralitySmartMatchesReferenceAcrossVariants) {
  const auto want = DegreeCentrality(csr_);
  for (const bool compress : {false, true}) {
    for (const auto& placement :
         {smart::PlacementSpec::Interleaved(), smart::PlacementSpec::Replicated()}) {
      SmartGraphOptions options;
      options.placement = placement;
      options.compress_indexes = compress;
      SmartCsrGraph g(csr_, options, topo_, pool_);
      auto out = smart::SmartArray::Allocate(csr_.num_vertices(),
                                             smart::PlacementSpec::Interleaved(), 64, topo_);
      DegreeCentralitySmart(pool_, g.view(), out.get());
      for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
        ASSERT_EQ(out->Get(v, out->GetReplica(0)), want[v])
            << "vertex " << v << " compress=" << compress;
      }
    }
  }
}

// `out` may be exactly as wide as the largest degree needs. One bit
// narrower, the call dies on the always-on width check, as writes through
// Init do.
TEST_F(AlgorithmsTest, DegreeCentralitySmartHonorsOutputWidth) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // the pool's threads
  const auto want = DegreeCentrality(csr_);
  const uint32_t bits = BitsForValue(*std::max_element(want.begin(), want.end()));
  ASSERT_GT(bits, 1u);
  SmartGraphOptions options;
  options.compress_indexes = true;
  const SmartCsrGraph g(csr_, options, topo_, pool_);
  auto exact = smart::SmartArray::Allocate(csr_.num_vertices(),
                                           smart::PlacementSpec::Interleaved(), bits, topo_);
  DegreeCentralitySmart(pool_, g.view(), exact.get());
  for (VertexId v = 0; v < csr_.num_vertices(); ++v) {
    ASSERT_EQ(exact->Get(v, exact->GetReplica(0)), want[v]) << "vertex " << v;
  }
  auto narrow = smart::SmartArray::Allocate(
      csr_.num_vertices(), smart::PlacementSpec::Interleaved(), bits - 1, topo_);
  EXPECT_DEATH(DegreeCentralitySmart(pool_, g.view(), narrow.get()),
               "value exceeds the array's bit width");
}

TEST_F(AlgorithmsTest, PageRankReferenceProperties) {
  const auto result = PageRank(csr_);
  ASSERT_EQ(result.ranks.size(), csr_.num_vertices());
  // Ranks stay positive and bounded.
  double sum = 0.0;
  for (const double r : result.ranks) {
    EXPECT_GT(r, 0.0);
    EXPECT_LT(r, 1.0);
    sum += r;
  }
  // With damping 0.85, total mass stays near 1 (dangling vertices leak a
  // little, the generator rarely makes perfect sinks matter here).
  EXPECT_NEAR(sum, 1.0, 0.2);
  EXPECT_LE(result.iterations, 15);
}

TEST_F(AlgorithmsTest, PageRankPopularVerticesRankHigher) {
  const auto result = PageRank(csr_);
  // Power-law targets concentrate at low ids; their mean rank must beat the
  // tail's by a wide margin.
  double head = 0.0;
  double tail = 0.0;
  for (VertexId v = 0; v < 20; ++v) {
    head += result.ranks[v];
  }
  for (VertexId v = csr_.num_vertices() - 20; v < csr_.num_vertices(); ++v) {
    tail += result.ranks[v];
  }
  EXPECT_GT(head, 5 * tail);
}

TEST_F(AlgorithmsTest, PageRankSmartMatchesReferenceAcrossVariants) {
  const auto want = PageRank(csr_);
  struct Variant {
    bool compress_indexes;
    bool compress_edges;
    smart::PlacementSpec placement;
  };
  const Variant variants[] = {
      {false, false, smart::PlacementSpec::Interleaved()},
      {true, false, smart::PlacementSpec::Interleaved()},
      {true, true, smart::PlacementSpec::Interleaved()},
      {true, true, smart::PlacementSpec::Replicated()},
      {false, false, smart::PlacementSpec::SingleSocket(0)},
  };
  for (const auto& variant : variants) {
    SmartGraphOptions options;
    options.placement = variant.placement;
    options.compress_indexes = variant.compress_indexes;
    options.compress_edges = variant.compress_edges;
    SmartCsrGraph g(csr_, options, topo_, pool_);
    const auto got = PageRankSmart(pool_, g.view(), topo_);
    ASSERT_EQ(got.iterations, want.iterations);
    for (VertexId v = 0; v < csr_.num_vertices(); v += 13) {
      ASSERT_NEAR(got.ranks[v], want.ranks[v], 1e-12)
          << "vertex " << v << " placement " << ToString(variant.placement);
    }
    EXPECT_NEAR(got.final_delta, want.final_delta, 1e-9);
  }
}

TEST_F(AlgorithmsTest, PageRankConvergesOnSmallGraph) {
  // A tiny strongly-connected cycle converges well before 15 iterations...
  CsrGraph cycle = CsrGraph::FromEdges(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  PageRankOptions options;
  options.max_iterations = 50;
  const auto result = PageRank(cycle, options);
  EXPECT_LT(result.iterations, 50);
  EXPECT_LT(result.final_delta, options.tolerance);
  // ...to the uniform fixed point.
  for (const double r : result.ranks) {
    EXPECT_NEAR(r, 0.25, 1e-6);
  }
}

TEST_F(AlgorithmsTest, PageRankHonorsIterationCap) {
  PageRankOptions options;
  options.max_iterations = 3;
  options.tolerance = 0.0;  // never converge
  const auto result = PageRank(csr_, options);
  EXPECT_EQ(result.iterations, 3);
}

}  // namespace
}  // namespace sa::graph
