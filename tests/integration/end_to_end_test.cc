// Cross-module integration: the full pipeline a user of the library runs —
// generate data, store it in smart arrays under an adaptively chosen
// configuration, execute analytics through the runtime, and cross-check
// everything against serial references.
#include <gtest/gtest.h>

#include "adapt/cases.h"
#include "common/random.h"
#include "graph/algorithms.h"
#include "graph/generators.h"
#include "interop/access_paths.h"
#include "smart/entry_points.h"
#include "smart/parallel_ops.h"

namespace {

TEST(EndToEndTest, AggregationPipelineAcrossAllPlacements) {
  const auto topo = sa::platform::Topology::Synthetic(2, 2);
  sa::rts::WorkerPool pool(topo,
                           sa::rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  constexpr uint64_t kN = 200'000;
  constexpr uint32_t kBits = 33;
  const uint64_t mask = sa::LowMask(kBits);

  // The paper's dataset formula (§5.1).
  auto gen = [mask](uint64_t i) { return (i + sa::SplitMix64(i) % 3) & mask; };
  uint64_t want = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    want += 2 * gen(i);
  }

  for (const auto& placement :
       {sa::smart::PlacementSpec::OsDefault(), sa::smart::PlacementSpec::SingleSocket(1),
        sa::smart::PlacementSpec::Interleaved(), sa::smart::PlacementSpec::Replicated()}) {
    auto a1 = sa::smart::SmartArray::Allocate(kN, placement, kBits, topo);
    auto a2 = sa::smart::SmartArray::Allocate(kN, placement, kBits, topo);
    sa::smart::ParallelFill(pool, *a1, gen);
    sa::smart::ParallelFill(pool, *a2, gen);
    EXPECT_EQ(sa::smart::ParallelSum2(pool, *a1, *a2), want) << ToString(placement);
  }
}

TEST(EndToEndTest, GraphAnalyticsOnAdaptivelyChosenConfiguration) {
  const auto topo = sa::platform::Topology::Synthetic(2, 2);
  sa::rts::WorkerPool pool(topo,
                           sa::rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  const auto csr = sa::graph::PowerLawGraph(1500, 12'000, 0.5, 4);

  // Ask the adaptivity layer what to do for a degree-centrality-like
  // streaming scan on the 8-core machine model.
  sa::adapt::CaseGridOptions grid;
  grid.bit_widths = {sa::BitsForValue(csr.num_edges())};
  grid.scenarios = {sa::adapt::MemoryScenario::kPlenty};
  const auto cases =
      sa::adapt::BuildDegreeCentralityCases(sa::sim::MachineSpec::OracleX5_8Core(), grid);
  ASSERT_FALSE(cases.empty());
  const auto decision = sa::adapt::ChooseConfiguration(cases.front().inputs);

  // Apply the decision to real storage and run the real kernel.
  sa::graph::SmartGraphOptions options;
  options.placement = decision.chosen.placement;
  options.compress_indexes = decision.chosen.compressed;
  sa::graph::SmartCsrGraph smart_graph(csr, options, topo, pool);
  auto out = sa::smart::SmartArray::Allocate(csr.num_vertices(),
                                             sa::smart::PlacementSpec::Interleaved(), 64, topo);
  sa::graph::DegreeCentralitySmart(pool, smart_graph.view(), out.get());

  const auto want = sa::graph::DegreeCentrality(csr);
  for (sa::graph::VertexId v = 0; v < csr.num_vertices(); ++v) {
    ASSERT_EQ(out->Get(v, out->GetReplica(0)), want[v]);
  }
}

TEST(EndToEndTest, EntryPointsDriveTheSameStorageAsNativeApi) {
  saSetDefaultTopology(2, 2);
  void* sa = saArrayAllocate(10'000, /*replicated=*/1, 0, -1, 21);
  const uint64_t mask = sa::LowMask(21);
  for (uint64_t i = 0; i < 10'000; ++i) {
    saArrayInitWithBits(sa, i, (i * 5) & mask, 21);
  }
  // Native-side view of the same object.
  auto* native = static_cast<sa::smart::SmartArray*>(sa);
  EXPECT_EQ(native->length(), 10'000u);
  EXPECT_TRUE(native->replicated());
  uint64_t native_sum = 0;
  for (uint64_t i = 0; i < native->length(); ++i) {
    native_sum += native->Get(i, native->GetReplica(0));
  }
  // Foreign-side aggregation through the inlined smart path.
  EXPECT_EQ(sa::interop::AggregateViaSmartArray(*native), native_sum);
  saArrayFree(sa);
  saSetDefaultTopology(0, 0);
}

TEST(EndToEndTest, ManagedAndNativeWorldsAgreeOnGraphResults) {
  // Managed runtime aggregates a degree-centrality output array produced by
  // the native parallel kernel — the PGX-on-GraalVM shape.
  const auto topo = sa::platform::Topology::Synthetic(2, 2);
  sa::rts::WorkerPool pool(topo,
                           sa::rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  const auto csr = sa::graph::UniformRandomGraph(4000, 3, 8);
  sa::graph::SmartCsrGraph smart_graph(csr, {}, topo, pool);
  auto out = sa::smart::SmartArray::Allocate(csr.num_vertices(),
                                             sa::smart::PlacementSpec::Interleaved(), 64, topo);
  sa::graph::DegreeCentralitySmart(pool, smart_graph.view(), out.get());

  // 2 * |E| when summed — computed through the managed JNI path.
  sa::interop::ManagedRuntime vm;
  sa::interop::BoundaryEnv env(vm);
  const auto ref = env.RegisterNativeArray(out->GetReplica(0), out->length());
  const uint64_t sum = sa::interop::AggregateViaJniRegion(env, ref, out->length());
  EXPECT_EQ(sum, 2 * csr.num_edges());
}

}  // namespace
