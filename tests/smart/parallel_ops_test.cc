// Parallel fill/scan operations over smart arrays, cross-checked against
// serial references for every placement and representative widths.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "common/random.h"
#include "smart/parallel_ops.h"
#include "smart/restructure.h"

namespace sa::smart {
namespace {

struct Combo {
  uint32_t bits;
  Placement placement;
};

class ParallelOpsTest : public ::testing::TestWithParam<Combo> {
 protected:
  ParallelOpsTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {}

  PlacementSpec Spec() const {
    switch (GetParam().placement) {
      case Placement::kOsDefault:
        return PlacementSpec::OsDefault();
      case Placement::kSingleSocket:
        return PlacementSpec::SingleSocket(1);
      case Placement::kInterleaved:
        return PlacementSpec::Interleaved();
      case Placement::kReplicated:
        return PlacementSpec::Replicated();
    }
    return PlacementSpec::OsDefault();
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
};

TEST_P(ParallelOpsTest, ParallelFillMatchesGenerator) {
  const uint64_t n = 100'000;
  auto array = SmartArray::Allocate(n, Spec(), GetParam().bits, topo_);
  const uint64_t mask = array->max_value();
  const auto gen = [mask](uint64_t i) { return (i * 31 + 7) & mask; };
  std::vector<std::atomic<uint32_t>> calls(n);
  ParallelFill(pool_, *array, [&](uint64_t i) {
    calls[i].fetch_add(1, std::memory_order_relaxed);
    return gen(i);
  });
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(calls[i].load(), 1u) << "generator calls for index " << i;
  }
  // Spot-check densely at chunk boundaries and sparsely elsewhere.
  for (uint64_t i = 0; i < n; i = (i < 300 ? i + 1 : i + 997)) {
    ASSERT_EQ(array->Get(i, array->GetReplica(0)), gen(i)) << "index " << i;
  }
  if (array->replicated()) {
    for (uint64_t i = 0; i < n; i += 1009) {
      ASSERT_EQ(array->Get(i, array->GetReplica(1)), gen(i));
    }
  }
  // The fill owns every chunk, so each zone is exactly its chunk's bounds
  // (the last chunk is ragged: 100,000 is not a multiple of 64).
  for (uint64_t chunk = 0; chunk < array->num_chunks(); ++chunk) {
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    for (uint64_t i = chunk * kChunkElems; i < std::min(n, (chunk + 1) * kChunkElems); ++i) {
      lo = std::min(lo, gen(i));
      hi = std::max(hi, gen(i));
    }
    ASSERT_EQ(array->ZoneMin(chunk), lo) << "chunk " << chunk;
    ASSERT_EQ(array->ZoneMax(chunk), hi) << "chunk " << chunk;
  }
}

// The one bulk writer refuses a value one past the array's width wherever it
// sits: in a whole chunk, in a ragged head, and through ParallelFill.
// Unchecked, a release build stores it truncated under a zone that excludes
// it, so scans and Get disagree.
TEST_P(ParallelOpsTest, BulkWritesRefuseValuesWiderThanTheArray) {
  if (GetParam().bits == 64) {
    GTEST_SKIP() << "every 64-bit value fits";
  }
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // the pool's threads
  const uint64_t n = 1000;
  auto array = SmartArray::Allocate(n, Spec(), GetParam().bits, topo_);
  const uint64_t wide = array->max_value() + 1;
  std::vector<uint64_t> values(n, array->max_value());
  values[130] = wide;  // inside the whole chunk [128, 192)
  EXPECT_DEATH(PackRange(*array, 128, 192, values.data() + 128),
               "value exceeds the array's bit width");
  EXPECT_DEATH(PackRange(*array, 130, 140, values.data() + 130),  // ragged head
               "value exceeds the array's bit width");
  EXPECT_DEATH(ParallelFill(pool_, *array, [wide](uint64_t i) { return i == 700 ? wide : 0; }),
               "value exceeds the array's bit width");
  // Values that fit still pack, with exact zones on whole chunks.
  values[130] = 0;
  PackRange(*array, 0, n, values.data());
  EXPECT_EQ(array->Get(130, array->GetReplica(0)), 0u);
  EXPECT_EQ(array->Get(131, array->GetReplica(0)), array->max_value());
  EXPECT_EQ(array->ZoneMin(2), 0u);
  EXPECT_EQ(array->ZoneMax(2), array->max_value());
  EXPECT_EQ(array->ZoneMin(3), array->max_value());
}

TEST_P(ParallelOpsTest, ParallelSumMatchesSerialSum) {
  const uint64_t n = 50'000;
  auto array = SmartArray::Allocate(n, Spec(), GetParam().bits, topo_);
  const uint64_t mask = array->max_value();
  uint64_t want = 0;
  Xoshiro256 rng(GetParam().bits);
  std::vector<uint64_t> values(n);
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = rng() & mask;
    want += values[i];
  }
  ParallelFill(pool_, *array, [&values](uint64_t i) { return values[i]; });
  EXPECT_EQ(ParallelSum(pool_, *array), want);
}

// Runs of a few distinct values near the top of the width: every encoding
// stores them in its own layout (frames, codes, runs), which a sum of the
// raw words at bits() would misread.
TEST_P(ParallelOpsTest, ParallelSumMatchesEveryEncoding) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // the pool's threads
  const uint64_t n = 50'000;
  const uint64_t mask = LowMask(GetParam().bits);
  std::vector<uint64_t> values(n);
  uint64_t want = 0;
  for (uint64_t i = 0; i < n; ++i) {
    values[i] = mask - (i / 100 % 5) * (mask / 7);
    want += values[i];
  }
  for (const Encoding encoding : {Encoding::kBitPacked, Encoding::kForDelta,
                                  Encoding::kDictionary, Encoding::kRunLength}) {
    SCOPED_TRACE(ToString(encoding));
    auto array = Encode(values, encoding, Spec(), topo_);
    ASSERT_EQ(array->encoding(), encoding);
    EXPECT_EQ(ParallelSum(pool_, *array), want);
    EXPECT_EQ(ParallelSum(pool_, *array, 1000), want);  // ragged grains
    if (encoding != Encoding::kBitPacked) {
      EXPECT_DEATH(ParallelSum2(pool_, *array, *array), "bit-packed");
    }
  }
}

// PackRange writes bit-packed words at bits(); the read-optimised encodings
// store frames, codes or runs, so the one bulk writer and ParallelFill on it
// refuse them instead of overwriting their layouts.
TEST(BulkWriteTest, RefusesReadOptimisedEncodings) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";  // the pool's threads
  const auto topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  std::vector<uint64_t> values(10'000);
  for (uint64_t i = 0; i < values.size(); ++i) {
    values[i] = 1000 + i % 7;
  }
  for (const Encoding encoding :
       {Encoding::kForDelta, Encoding::kDictionary, Encoding::kRunLength}) {
    SCOPED_TRACE(ToString(encoding));
    auto array = Encode(values, encoding, PlacementSpec::OsDefault(), topo);
    ASSERT_EQ(array->encoding(), encoding);
    EXPECT_DEATH(PackRange(*array, 0, 640, values.data()),
                 "bulk pack requires the bit-packed encoding");
    EXPECT_DEATH(ParallelFill(pool, *array, [&values](uint64_t i) { return values[i]; }),
                 "bulk pack requires the bit-packed encoding");
  }
}

TEST_P(ParallelOpsTest, ParallelSum2MatchesPaperKernel) {
  // The §5.1 aggregation: sum += a1[i] + a2[i], with the paper's dataset
  // formula a[i] = (i + random(0,1,2)) & ((1 << bits) - 1).
  const uint64_t n = 40'000;
  const uint32_t bits = GetParam().bits;
  auto a1 = SmartArray::Allocate(n, Spec(), bits, topo_);
  auto a2 = SmartArray::Allocate(n, Spec(), bits, topo_);
  const uint64_t mask = a1->max_value();
  auto gen1 = [mask](uint64_t i) { return (i + SplitMix64(i) % 3) & mask; };
  auto gen2 = [mask](uint64_t i) { return (i + SplitMix64(i ^ 0xbeef) % 3) & mask; };
  ParallelFill(pool_, *a1, gen1);
  ParallelFill(pool_, *a2, gen2);
  uint64_t want = 0;
  for (uint64_t i = 0; i < n; ++i) {
    want += gen1(i) + gen2(i);
  }
  EXPECT_EQ(ParallelSum2(pool_, *a1, *a2), want);
}

TEST_P(ParallelOpsTest, ParallelScansMatchSerialOracle) {
  const uint64_t n = 40'000;
  auto array = SmartArray::Allocate(n, Spec(), GetParam().bits, topo_);
  const uint64_t mask = array->max_value();
  auto gen = [mask](uint64_t i) { return SplitMix64(i * 7) & mask; };
  ParallelFill(pool_, *array, gen);
  const Predicate p{CmpOp::kLt, mask / 2 + 1};
  uint64_t want_count = 0, want_sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (Matches(p, gen(i))) {
      ++want_count;
      want_sum += gen(i);
    }
  }
  EXPECT_EQ(ParallelCountIf(pool_, *array, p), want_count);
  EXPECT_EQ(ParallelFilteredSum(pool_, *array, p), want_sum);
  std::vector<uint64_t> bitmap((n + kWordBits - 1) / kWordBits);
  EXPECT_EQ(ParallelSelectIf(pool_, *array, p, bitmap.data()), want_count);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ((bitmap[i / kWordBits] >> (i % kWordBits)) & 1, Matches(p, gen(i)) ? 1u : 0u)
        << "index " << i;
  }
}

std::string ComboName(const ::testing::TestParamInfo<Combo>& info) {
  std::string placement = ToString(info.param.placement);
  for (char& c : placement) {
    if (c == '-') {
      c = '_';
    }
  }
  return "bits" + std::to_string(info.param.bits) + "_" + placement;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ParallelOpsTest,
    ::testing::Values(Combo{10, Placement::kOsDefault}, Combo{10, Placement::kReplicated},
                      Combo{32, Placement::kInterleaved}, Combo{33, Placement::kSingleSocket},
                      Combo{33, Placement::kReplicated}, Combo{50, Placement::kInterleaved},
                      Combo{64, Placement::kOsDefault}, Combo{64, Placement::kReplicated},
                      Combo{1, Placement::kInterleaved}, Combo{63, Placement::kReplicated}),
    ComboName);

}  // namespace
}  // namespace sa::smart
