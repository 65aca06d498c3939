// Differential fuzzing: long random operation sequences executed against
// both the smart-array stack and plain std:: references, with seeds swept
// by TEST_P. Catches interaction bugs the targeted unit tests miss.
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "smart/map_api.h"
#include "smart/randomization.h"
#include "smart/restructure.h"
#include "smart/smart_array.h"

namespace {

using sa::Xoshiro256;

class DifferentialTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  uint64_t seed() const { return GetParam(); }
};

TEST_P(DifferentialTest, SmartArrayAgainstVectorUnderRandomOps) {
  Xoshiro256 rng(seed());
  const auto topo = sa::platform::Topology::Synthetic(2, 2);
  const uint64_t n = 200 + rng.Below(2000);
  const uint32_t bits = 1 + static_cast<uint32_t>(rng.Below(64));
  const uint64_t mask = sa::LowMask(bits);

  auto array = sa::smart::SmartArray::Allocate(
      n,
      rng.Below(2) ? sa::smart::PlacementSpec::Replicated()
                   : sa::smart::PlacementSpec::Interleaved(),
      bits, topo);
  std::vector<uint64_t> reference(n, 0);

  for (int op = 0; op < 3000; ++op) {
    const uint64_t i = rng.Below(n);
    switch (rng.Below(4)) {
      case 0: {  // write
        const uint64_t v = rng() & mask;
        array->Init(i, v);
        reference[i] = v;
        break;
      }
      case 1: {  // atomic write
        const uint64_t v = rng() & mask;
        array->InitAtomic(i, v);
        reference[i] = v;
        break;
      }
      case 2: {  // point read
        ASSERT_EQ(array->Get(i, array->GetReplica(static_cast<int>(rng.Below(2)))),
                  reference[i])
            << "seed " << seed() << " op " << op;
        break;
      }
      default: {  // ranged map() read
        const uint64_t j = i + rng.Below(n - i);
        uint64_t want = 0;
        for (uint64_t k = i; k <= j; ++k) {
          want += reference[k];
        }
        const uint64_t got = sa::smart::MapReduceRange(
            *array, i, j + 1, 0, [](uint64_t v, uint64_t) { return v; });
        ASSERT_EQ(got, want) << "seed " << seed() << " range [" << i << "," << j << "]";
        break;
      }
    }
  }
}

TEST_P(DifferentialTest, EncodingsAgreeWithEachOtherOnRandomData) {
  Xoshiro256 rng(seed() ^ 0xE2C0D1);
  const auto topo = sa::platform::Topology::Synthetic(2, 2);
  const uint64_t n = 100 + rng.Below(3000);
  // Data with mixed character: runs, jumps, clusters.
  std::vector<uint64_t> values(n);
  uint64_t current = rng() & sa::LowMask(40);
  for (auto& v : values) {
    if (rng.Below(5) == 0) {
      current = rng() & sa::LowMask(40);
    } else if (rng.Below(3) == 0) {
      current += rng.Below(16);
    }
    v = current;
  }
  std::vector<std::unique_ptr<sa::smart::SmartArray>> arrays;
  for (const auto e : {sa::smart::Encoding::kBitPacked, sa::smart::Encoding::kDictionary,
                       sa::smart::Encoding::kRunLength, sa::smart::Encoding::kForDelta}) {
    arrays.push_back(
        sa::smart::Encode(values, e, sa::smart::PlacementSpec::Interleaved(), topo));
  }
  for (int probe = 0; probe < 500; ++probe) {
    const uint64_t i = rng.Below(n);
    for (const auto& array : arrays) {
      ASSERT_EQ(array->Get(i, array->GetReplica(0)), values[i])
          << ToString(array->encoding()) << " seed " << seed() << " index " << i;
    }
  }
  // Full-scan agreement.
  std::vector<uint64_t> out(n);
  for (const auto& array : arrays) {
    array->RangeUnpack(array->GetReplica(0), 0, n, out.data());
    ASSERT_EQ(out, values) << ToString(array->encoding()) << " seed " << seed();
  }
}

TEST_P(DifferentialTest, RandomizedViewIsJustAPermutedVector) {
  Xoshiro256 rng(seed() ^ 0xFACADE);
  const auto topo = sa::platform::Topology::Synthetic(2, 2);
  const uint64_t n = 64 + rng.Below(5000);
  const uint32_t bits = 8 + static_cast<uint32_t>(rng.Below(57));
  sa::smart::RandomizedArray array(n, sa::smart::PlacementSpec::Interleaved(), bits, topo,
                                   seed());
  std::vector<uint64_t> reference(n, 0);
  for (int op = 0; op < 2000; ++op) {
    const uint64_t i = rng.Below(n);
    if (rng.Below(2) == 0) {
      const uint64_t v = rng() & sa::LowMask(bits);
      array.Init(i, v);
      reference[i] = v;
    } else {
      ASSERT_EQ(array.Get(i), reference[i]) << "seed " << seed() << " index " << i;
    }
  }
  // The underlying storage is a permutation of the logical view: sums match.
  uint64_t logical_sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    logical_sum += reference[i];
  }
  uint64_t physical_sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    physical_sum += array.storage().Get(i, array.storage().GetReplica(0));
  }
  EXPECT_EQ(physical_sum, logical_sum);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialTest, ::testing::Range<uint64_t>(1, 9),
                         [](const auto& p) { return "seed" + std::to_string(p.param); });

}  // namespace
