// Parallel fill/scan operations over smart arrays, cross-checked against
// serial references for every placement and representative widths.
#include <gtest/gtest.h>

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
  ParallelFill(pool_, *array, [mask](uint64_t i) { return (i * 31 + 7) & mask; });
  // Spot-check densely at chunk boundaries and sparsely elsewhere.
  for (uint64_t i = 0; i < n; i = (i < 300 ? i + 1 : i + 997)) {
    ASSERT_EQ(array->Get(i, array->GetReplica(0)), (i * 31 + 7) & mask) << "index " << i;
  }
  if (array->replicated()) {
    for (uint64_t i = 0; i < n; i += 1009) {
      ASSERT_EQ(array->Get(i, array->GetReplica(1)), (i * 31 + 7) & mask);
    }
  }
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
