#include <set>

#include <gtest/gtest.h>

#include "collections/smart_set.h"
#include "common/random.h"

namespace sa::collections {
namespace {

class SmartSetTest : public ::testing::TestWithParam<SetLayout> {
 protected:
  SmartSetTest() : topo_(platform::Topology::Synthetic(2, 2)) {}
  platform::Topology topo_;
};

TEST_P(SmartSetTest, MembershipMatchesStdSet) {
  Xoshiro256 rng(11);
  std::vector<uint64_t> values(5000);
  std::set<uint64_t> reference;
  for (auto& v : values) {
    v = rng.Below(20'000);
    reference.insert(v);
  }
  SmartSet set(values, GetParam(), smart::PlacementSpec::Interleaved(), topo_);
  EXPECT_EQ(set.size(), reference.size());
  for (uint64_t probe = 0; probe < 20'000; probe += 3) {
    ASSERT_EQ(set.Contains(probe), reference.count(probe) > 0) << "probe " << probe;
  }
}

TEST_P(SmartSetTest, DuplicatesRemoved) {
  SmartSet set({5, 5, 5, 5}, GetParam(), smart::PlacementSpec::OsDefault(), topo_);
  EXPECT_EQ(set.size(), 1u);
  EXPECT_TRUE(set.Contains(5));
  EXPECT_FALSE(set.Contains(4));
}

TEST_P(SmartSetTest, SingleElementAndExtremes) {
  SmartSet set({0, ~uint64_t{0}, 1}, GetParam(), smart::PlacementSpec::OsDefault(), topo_);
  EXPECT_TRUE(set.Contains(0));
  EXPECT_TRUE(set.Contains(1));
  EXPECT_TRUE(set.Contains(~uint64_t{0}));
  EXPECT_FALSE(set.Contains(2));
  EXPECT_EQ(set.bits(), 64u);
}

TEST_P(SmartSetTest, ToSortedVectorIsSortedAndComplete) {
  Xoshiro256 rng(12);
  std::vector<uint64_t> values(300);
  std::set<uint64_t> reference;
  for (auto& v : values) {
    v = rng.Below(10'000);
    reference.insert(v);
  }
  SmartSet set(values, GetParam(), smart::PlacementSpec::OsDefault(), topo_);
  const auto sorted = set.ToSortedVector();
  EXPECT_EQ(sorted, std::vector<uint64_t>(reference.begin(), reference.end()));
}

TEST_P(SmartSetTest, ReplicatedReadsFromBothSockets) {
  std::vector<uint64_t> values = {10, 20, 30};
  SmartSet set(values, GetParam(), smart::PlacementSpec::Replicated(), topo_);
  for (const int socket : {0, 1}) {
    EXPECT_TRUE(set.Contains(20, socket));
    EXPECT_FALSE(set.Contains(25, socket));
  }
}

TEST_P(SmartSetTest, PayloadIsBitCompressed) {
  std::vector<uint64_t> values(1000);
  for (uint64_t i = 0; i < 1000; ++i) {
    values[i] = i;  // 10-bit values
  }
  SmartSet set(values, GetParam(), smart::PlacementSpec::OsDefault(), topo_);
  EXPECT_EQ(set.bits(), 10u);
  EXPECT_LT(set.footprint_bytes(), 1000 * 8 / 4u);  // far below 64-bit storage
}

INSTANTIATE_TEST_SUITE_P(Layouts, SmartSetTest,
                         ::testing::Values(SetLayout::kSorted, SetLayout::kEytzinger),
                         [](const auto& p) { return std::string(ToString(p.param)); });

TEST(SmartSetRangeTest, CountRangeMatchesReference) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  Xoshiro256 rng(13);
  std::vector<uint64_t> values(2000);
  std::set<uint64_t> reference;
  for (auto& v : values) {
    v = rng.Below(5000);
    reference.insert(v);
  }
  SmartSet set(values, SetLayout::kSorted, smart::PlacementSpec::OsDefault(), topo);
  for (const auto& [lo, hi] : {std::pair<uint64_t, uint64_t>{0, 4999},
                              {100, 200},
                              {4999, 4999},
                              {300, 299},
                              {0, 0}}) {
    uint64_t want = 0;
    for (uint64_t v : reference) {
      want += (v >= lo && v <= hi) ? 1 : 0;
    }
    EXPECT_EQ(set.CountRange(lo, hi), want) << "[" << lo << ", " << hi << "]";
  }
}

TEST(SmartSetRangeTest, CountRangeRejectsEytzinger) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  SmartSet set({1, 2, 3}, SetLayout::kEytzinger, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_DEATH(set.CountRange(1, 2), "sorted");
}

TEST(SmartSetLayoutTest, LayoutsAgreeOnLargeRandomSets) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  Xoshiro256 rng(14);
  std::vector<uint64_t> values(20'000);
  for (auto& v : values) {
    v = rng();
  }
  SmartSet sorted(values, SetLayout::kSorted, smart::PlacementSpec::OsDefault(), topo);
  SmartSet eytzinger(values, SetLayout::kEytzinger, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(sorted.size(), eytzinger.size());
  Xoshiro256 probe_rng(15);
  for (int i = 0; i < 2000; ++i) {
    const uint64_t probe = i % 2 == 0 ? values[probe_rng.Below(values.size())] : probe_rng();
    ASSERT_EQ(sorted.Contains(probe), eytzinger.Contains(probe));
  }
}

}  // namespace
}  // namespace sa::collections
