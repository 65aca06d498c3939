// Iterator semantics: the virtual hierarchy of Fig. 9 and the typed
// compile-time iterators must all agree with element-wise Get.
#include <memory>

#include <gtest/gtest.h>

#include "common/random.h"
#include "smart/dispatch.h"
#include "smart/iterator.h"

namespace sa::smart {
namespace {

class IteratorTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  void SetUp() override {
    topo_ = std::make_unique<platform::Topology>(platform::Topology::Synthetic(2, 2));
    array_ = SmartArray::Allocate(kN, PlacementSpec::Interleaved(), GetParam(), *topo_);
    Xoshiro256 rng(GetParam());
    expected_.resize(kN);
    for (uint64_t i = 0; i < kN; ++i) {
      expected_[i] = rng() & array_->max_value();
      array_->Init(i, expected_[i]);
    }
  }

  static constexpr uint64_t kN = 777;  // several chunks + partial tail
  std::unique_ptr<platform::Topology> topo_;
  std::unique_ptr<SmartArray> array_;
  std::vector<uint64_t> expected_;
};

TEST_P(IteratorTest, VirtualIteratorScansAllElements) {
  auto it = SmartArrayIterator::Allocate(*array_, 0, /*socket=*/0);
  for (uint64_t i = 0; i < kN; ++i) {
    EXPECT_EQ(it->Get(), expected_[i]) << "index " << i;
    it->Next();
  }
}

TEST_P(IteratorTest, ConcreteSubclassMatchesWidth) {
  auto it = SmartArrayIterator::Allocate(*array_, 0, 0);
  switch (GetParam()) {
    case 64:
      EXPECT_NE(dynamic_cast<Uncompressed64Iterator*>(it.get()), nullptr);
      break;
    case 32:
      EXPECT_NE(dynamic_cast<Uncompressed32Iterator*>(it.get()), nullptr);
      break;
    default:
      EXPECT_NE(dynamic_cast<CompressedIterator*>(it.get()), nullptr);
  }
}

TEST_P(IteratorTest, ResetRepositionsMidChunk) {
  auto it = SmartArrayIterator::Allocate(*array_, 0, 0);
  for (const uint64_t target : {uint64_t{100}, uint64_t{3}, uint64_t{700}, uint64_t{63},
                                uint64_t{64}, uint64_t{65}}) {
    it->Reset(target);
    EXPECT_EQ(it->index(), target);
    EXPECT_EQ(it->Get(), expected_[target]) << "reset to " << target;
  }
}

TEST_P(IteratorTest, StartAtArbitraryOffsetLikeLoopBatches) {
  // Callisto batches start iterators at their batch's first index (§4.3).
  for (const uint64_t start : {uint64_t{1}, uint64_t{63}, uint64_t{64}, uint64_t{129}}) {
    auto it = SmartArrayIterator::Allocate(*array_, start, 0);
    for (uint64_t i = start; i < std::min(start + 130, kN); ++i) {
      EXPECT_EQ(it->Get(), expected_[i]) << "start " << start << " index " << i;
      it->Next();
    }
  }
}

TEST_P(IteratorTest, TypedIteratorAgreesWithVirtual) {
  WithBits(GetParam(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    TypedIterator<kBits> typed(array_->GetReplica(0), 0);
    auto virt = SmartArrayIterator::Allocate(*array_, 0, 0);
    for (uint64_t i = 0; i < kN; ++i) {
      EXPECT_EQ(typed.Get(), virt->Get()) << "index " << i;
      typed.Next();
      virt->Next();
    }
    return 0;
  });
}

TEST_P(IteratorTest, IteratorSumMatchesReference) {
  uint64_t want = 0;
  for (const uint64_t v : expected_) {
    want += v;
  }
  auto it = SmartArrayIterator::Allocate(*array_, 0, 0);
  uint64_t got = 0;
  for (uint64_t i = 0; i < kN; ++i) {
    got += it->Get();
    it->Next();
  }
  EXPECT_EQ(got, want);
}

INSTANTIATE_TEST_SUITE_P(AllWidths, IteratorTest, ::testing::Range(1u, 65u),
                         [](const auto& p) { return "bits" + std::to_string(p.param); });

TEST(IteratorReplicaTest, IteratorReadsSocketLocalReplica) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  auto array = SmartArray::Allocate(64, PlacementSpec::Replicated(), 64, topo);
  array->Init(7, 1234);
  // Corrupt replica 1 directly; the socket-0 iterator must not see it.
  array->MutableReplica(1)[7] = 999;
  auto it0 = SmartArrayIterator::Allocate(*array, 7, 0);
  auto it1 = SmartArrayIterator::Allocate(*array, 7, 1);
  EXPECT_EQ(it0->Get(), 1234u);
  EXPECT_EQ(it1->Get(), 999u);
}

}  // namespace
}  // namespace sa::smart
