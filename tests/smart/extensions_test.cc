// Tests for the §7-extension smart functionalities living in smart/:
// the bounded map() API, index randomization, on-the-fly restructuring,
// and the per-chunk-locked synchronized array.
#include <numeric>
#include <set>
#include <thread>

#include <gtest/gtest.h>

#include "common/random.h"
#include "smart/entry_points.h"
#include "smart/map_api.h"
#include "smart/randomization.h"
#include "smart/restructure.h"
#include "smart/synchronized_array.h"

namespace sa::smart {
namespace {

platform::Topology TwoSockets() { return platform::Topology::Synthetic(2, 2); }

// ---- bounded map() API ----

class MapApiTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(MapApiTest, VisitsEveryElementInOrder) {
  const auto topo = TwoSockets();
  const uint64_t n = 500;
  auto array = SmartArray::Allocate(n, PlacementSpec::Interleaved(), GetParam(), topo);
  const uint64_t mask = array->max_value();
  for (uint64_t i = 0; i < n; ++i) {
    array->Init(i, (i * 3) & mask);
  }
  uint64_t expected_index = 37;
  uint64_t count = 0;
  MapRange(*array, 37, n - 5, 0, [&](uint64_t value, uint64_t index) {
    ASSERT_EQ(index, expected_index++);
    ASSERT_EQ(value, (index * 3) & mask);
    ++count;
  });
  EXPECT_EQ(count, n - 5 - 37);
}

TEST_P(MapApiTest, MapReduceMatchesIteratorSum) {
  const auto topo = TwoSockets();
  const uint64_t n = 1000;
  auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), GetParam(), topo);
  Xoshiro256 rng(GetParam());
  uint64_t want = 0;
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = rng() & array->max_value();
    array->Init(i, v);
    want += v;
  }
  EXPECT_EQ(MapReduceRange(*array, 0, n, 0, [](uint64_t v, uint64_t) { return v; }), want);
}

TEST_P(MapApiTest, EmptyAndTinyRanges) {
  const auto topo = TwoSockets();
  auto array = SmartArray::Allocate(200, PlacementSpec::OsDefault(), GetParam(), topo);
  int calls = 0;
  MapRange(*array, 50, 50, 0, [&](uint64_t, uint64_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  MapRange(*array, 63, 65, 0, [&](uint64_t, uint64_t) { ++calls; });  // crosses a chunk
  EXPECT_EQ(calls, 2);
}

INSTANTIATE_TEST_SUITE_P(Widths, MapApiTest, ::testing::Values(1u, 13u, 32u, 33u, 64u),
                         [](const auto& p) { return "bits" + std::to_string(p.param); });

TEST(MapEntryPointTest, AbiMapAndSumAgree) {
  saSetDefaultTopology(2, 2);
  void* sa = saArrayAllocate(300, 0, 1, -1, 17);
  uint64_t want = 0;
  for (uint64_t i = 0; i < 300; ++i) {
    saArrayInit(sa, i, i & 0x1FFFF);
    want += i & 0x1FFFF;
  }
  EXPECT_EQ(saArraySumRange(sa, 0, 300), want);
  // Spans arrive in order and cover the range exactly once.
  struct Ctx {
    uint64_t next = 13;
    uint64_t visited = 0;
  } ctx;
  saArrayMapRange(
      sa, 13, 287,
      [](const uint64_t* values, uint64_t count, uint64_t first, void* raw) {
        auto* c = static_cast<Ctx*>(raw);
        EXPECT_EQ(first, c->next);
        for (uint64_t i = 0; i < count; ++i) {
          EXPECT_EQ(values[i], (first + i) & 0x1FFFF);
        }
        c->next = first + count;
        c->visited += count;
      },
      &ctx);
  EXPECT_EQ(ctx.visited, 287u - 13u);
  saArrayFree(sa);
  saSetDefaultTopology(0, 0);
}

// ---- index randomization ----

TEST(IndexPermutationTest, IsABijection) {
  for (const uint64_t n : {1ull, 2ull, 63ull, 64ull, 1000ull, 4096ull, 100'000ull}) {
    IndexPermutation perm(n, /*seed=*/99);
    std::set<uint64_t> seen;
    for (uint64_t i = 0; i < n; ++i) {
      const uint64_t p = perm.Map(i);
      ASSERT_LT(p, n);
      ASSERT_TRUE(seen.insert(p).second) << "collision at " << i << " (n=" << n << ")";
      ASSERT_EQ(perm.Invert(p), i);
    }
  }
}

TEST(IndexPermutationTest, SeedsProduceDifferentPermutations) {
  IndexPermutation a(10'000, 1);
  IndexPermutation b(10'000, 2);
  int same = 0;
  for (uint64_t i = 0; i < 10'000; ++i) {
    same += a.Map(i) == b.Map(i) ? 1 : 0;
  }
  EXPECT_LT(same, 100);  // ~uniform: expected 1 collision
}

TEST(IndexPermutationTest, ScattersNeighbours) {
  // The hot-spot argument: consecutive logical indices should land far
  // apart physically, spreading a hot region across pages/channels.
  IndexPermutation perm(1 << 16, 7);
  uint64_t near = 0;
  for (uint64_t i = 0; i + 1 < 1000; ++i) {
    const uint64_t d = perm.Map(i) > perm.Map(i + 1) ? perm.Map(i) - perm.Map(i + 1)
                                                     : perm.Map(i + 1) - perm.Map(i);
    near += d < 1024 ? 1 : 0;
  }
  EXPECT_LT(near, 60);  // <6% of neighbours stay within the same ~page span
}

TEST(RandomizedArrayTest, LogicalViewRoundTrips) {
  const auto topo = TwoSockets();
  RandomizedArray array(5000, PlacementSpec::Interleaved(), 21, topo);
  for (uint64_t i = 0; i < 5000; ++i) {
    array.Init(i, (i * 7) & LowMask(21));
  }
  for (uint64_t i = 0; i < 5000; i += 13) {
    ASSERT_EQ(array.Get(i), (i * 7) & LowMask(21));
  }
}

TEST(RandomizedArrayTest, HotRegionSpreadsAcrossSockets) {
  const auto topo = TwoSockets();
  const uint64_t n = 1 << 16;  // 64Ki elements at 64 bits = 128 pages
  RandomizedArray randomized(n, PlacementSpec::Interleaved(), 64, topo);
  // A "hot" logical window the size of one page span.
  int nodes[2] = {0, 0};
  for (uint64_t i = 0; i < 512; ++i) {
    ++nodes[randomized.NodeOfLogicalIndex(i)];
  }
  // Interleaving alone would map this window onto ~1 page (one socket);
  // randomization must hit both sockets substantially.
  EXPECT_GT(nodes[0], 100);
  EXPECT_GT(nodes[1], 100);
}

// ---- restructuring ----

TEST(RestructureTest, PreservesContentsAcrossPlacementChange) {
  const auto topo = TwoSockets();
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  auto source = SmartArray::Allocate(10'000, PlacementSpec::SingleSocket(0), 33, topo);
  Xoshiro256 rng(5);
  for (uint64_t i = 0; i < source->length(); ++i) {
    source->Init(i, rng() & source->max_value());
  }
  const auto target = Restructure(pool, *source, PlacementSpec::Replicated(), 0, topo);
  EXPECT_TRUE(target->replicated());
  EXPECT_EQ(target->bits(), 33u);
  for (uint64_t i = 0; i < source->length(); ++i) {
    ASSERT_EQ(target->Get(i, target->GetReplica(1)),
              source->Get(i, source->GetReplica(0)));
  }
}

TEST(RestructureTest, NarrowsWidthWhenValuesFit) {
  const auto topo = TwoSockets();
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});
  auto source = SmartArray::Allocate(5000, PlacementSpec::OsDefault(), 64, topo);
  for (uint64_t i = 0; i < source->length(); ++i) {
    source->Init(i, i % 1000);  // fits in 10 bits
  }
  EXPECT_EQ(MinimalBits(pool, *source), 10u);
  const auto narrow = Restructure(pool, *source, PlacementSpec::Interleaved(), 10, topo);
  EXPECT_EQ(narrow->bits(), 10u);
  EXPECT_LT(narrow->footprint_bytes(), source->footprint_bytes() / 5);
  for (uint64_t i = 0; i < source->length(); i += 31) {
    ASSERT_EQ(narrow->Get(i, narrow->GetReplica(0)), i % 1000);
  }
}

TEST(RestructureTest, RejectsLossyNarrowing) {
  const auto topo = TwoSockets();
  auto source = SmartArray::Allocate(100, PlacementSpec::OsDefault(), 64, topo);
  source->Init(50, 1 << 20);
  // The worker pool is created inside the death statement: a fork-style
  // death test's child only inherits the calling thread, so a pre-existing
  // pool's RunOnAll would deadlock there instead of dying.
  EXPECT_DEATH(
      {
        rts::WorkerPool pool(topo,
                             rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});
        Restructure(pool, *source, PlacementSpec::OsDefault(), 10, topo);
      },
      "width");
}

// ---- synchronized array ----

TEST(SynchronizedArrayTest, ConcurrentHistogramIsExact) {
  const auto topo = TwoSockets();
  SynchronizedArray histogram(64, PlacementSpec::OsDefault(), 32, topo);
  constexpr int kThreads = 4;
  constexpr uint64_t kIncrementsPerThread = 20'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(t);
      for (uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        histogram.FetchAdd(rng.Below(64), 1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  uint64_t total = 0;
  for (uint64_t bucket = 0; bucket < 64; ++bucket) {
    total += histogram.Get(bucket);
  }
  EXPECT_EQ(total, kThreads * kIncrementsPerThread);
}

TEST(SynchronizedArrayTest, ConcurrentSetsOnSharedWordsDoNotTear) {
  // 13-bit elements share words; racing Sets to adjacent indices must both
  // land (the non-synchronized plain Init would lose updates).
  const auto topo = TwoSockets();
  SynchronizedArray array(4096, PlacementSpec::OsDefault(), 13, topo);
  constexpr int kThreads = 4;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (uint64_t i = t; i < array.length(); i += kThreads) {
        array.Set(i, i & LowMask(13));
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  for (uint64_t i = 0; i < array.length(); ++i) {
    ASSERT_EQ(array.Get(i), i & LowMask(13)) << "index " << i;
  }
}

TEST(SynchronizedArrayTest, ContendedFetchAddAcrossChunkAndWordBoundaries) {
  // Backoff stress: many threads hammer FetchAdd on a handful of indices
  // chosen to straddle chunk boundaries (different ChunkLocks for adjacent
  // indices) and packed-word boundaries within a chunk (13-bit elements:
  // element 4 spans words 0 and 1 of its chunk). Every increment must land
  // and every returned "previous" value must be unique per index.
  const auto topo = TwoSockets();
  SynchronizedArray array(512, PlacementSpec::OsDefault(), 13, topo);
  // 63/64 straddle a chunk boundary; 4/5 and 132/133 straddle packed words
  // (13*4 = 52, 13*5 = 65 > 64); 127/128 straddle the next chunk boundary.
  const std::vector<uint64_t> hot = {4, 5, 63, 64, 127, 128, 132, 133};
  constexpr int kThreads = 8;
  constexpr uint64_t kIncrementsPerThread = 8'000;
  std::vector<std::thread> threads;
  std::vector<std::vector<uint64_t>> tallies(kThreads, std::vector<uint64_t>(hot.size(), 0));
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      Xoshiro256 rng(1000 + t);
      for (uint64_t i = 0; i < kIncrementsPerThread; ++i) {
        const uint64_t pick = rng.Below(hot.size());
        array.FetchAdd(hot[pick], 1);
        ++tallies[t][pick];
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  // Exact per-index totals (counts wrap at the 13-bit width; 64k increments
  // over 8 indices keeps every count below the wrap anyway): any lost
  // FetchAdd under contention shows up as a short count.
  for (size_t h = 0; h < hot.size(); ++h) {
    uint64_t expected = 0;
    for (int t = 0; t < kThreads; ++t) {
      expected += tallies[t][h];
    }
    EXPECT_EQ(array.Get(hot[h]), expected & LowMask(13)) << "index " << hot[h];
  }
  // Neighbours of the hot indices must be untouched: contended RMWs on a
  // shared packed word never leak into adjacent elements.
  for (const uint64_t idx : {3ull, 6ull, 62ull, 65ull, 126ull, 129ull, 131ull, 134ull}) {
    EXPECT_EQ(array.Get(idx), 0u) << "index " << idx;
  }
}

TEST(SynchronizedArrayTest, FetchAddReturnsPreviousAndWraps) {
  const auto topo = TwoSockets();
  SynchronizedArray array(10, PlacementSpec::OsDefault(), 4, topo);
  EXPECT_EQ(array.FetchAdd(3, 5), 0u);
  EXPECT_EQ(array.FetchAdd(3, 12), 5u);
  EXPECT_EQ(array.Get(3), (5 + 12) & 0xFu);  // wraps at the element width
}

}  // namespace
}  // namespace sa::smart
