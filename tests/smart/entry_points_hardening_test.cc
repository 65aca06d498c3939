// Regression tests for the hardened C-ABI boundary: out-of-range indices,
// out-of-range chunk numbers, zero/over-wide bit widths and width mismatches
// must fail fast with a diagnostic instead of corrupting the packed words.
// Foreign runtimes pass these arguments as plain longs, so every check here
// is an always-on SA_CHECK, not a debug assert.
#include <gtest/gtest.h>

#include <vector>

#include "smart/entry_points.h"
#include "smart/restructure.h"

namespace {

class EntryPointsHardeningTest : public ::testing::Test {
 protected:
  void SetUp() override { saSetDefaultTopology(2, 4); }
  void TearDown() override { saSetDefaultTopology(0, 0); }
};

TEST_F(EntryPointsHardeningTest, AllocateRejectsBadShapes) {
  EXPECT_DEATH(saArrayAllocate(0, 0, 0, -1, 13), "empty");
  EXPECT_DEATH(saArrayAllocate(100, 0, 0, -1, 0), "1..64");
  EXPECT_DEATH(saArrayAllocate(100, 0, 0, -1, 65), "1..64");
}

TEST_F(EntryPointsHardeningTest, GetAndInitRejectOutOfRangeIndex) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  EXPECT_DEATH(saArrayGet(sa, 130), "out of range");
  EXPECT_DEATH(saArrayGet(sa, ~uint64_t{0}), "out of range");
  EXPECT_DEATH(saArrayInit(sa, 130, 1), "out of range");
  saArrayFree(sa);
}

TEST_F(EntryPointsHardeningTest, UnpackRejectsOutOfRangeChunk) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);  // 3 chunks (2 full + 1 partial)
  uint64_t out[64];
  saArrayUnpack(sa, 2, out);  // last (partial) chunk is legal
  EXPECT_DEATH(saArrayUnpack(sa, 3, out), "out of range");
  saArrayFree(sa);
}

TEST_F(EntryPointsHardeningTest, WithBitsPathsRejectWidthMismatch) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  EXPECT_DEATH(saArrayGetWithBits(sa, 0, 14), "width");
  EXPECT_DEATH(saArrayGetWithBits(sa, 0, 65), "width");
  EXPECT_DEATH(saArrayInitWithBits(sa, 0, 1, 12), "width");
  EXPECT_DEATH(saArrayGetWithBits(sa, 130, 13), "out of range");
  EXPECT_DEATH(saArrayInitWithBits(sa, 130, 1, 13), "out of range");
  saArrayFree(sa);
}

TEST_F(EntryPointsHardeningTest, IteratorRejectsOutOfRangePositions) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  // One-past-the-end is a legal resting position...
  void* it = saIterAllocate(sa, 130);
  saIterReset(it, 0);
  // ...but anything beyond is not.
  EXPECT_DEATH(saIterReset(it, 131), "out of range");
  EXPECT_DEATH(saIterAllocate(sa, 131), "out of range");
  saIterFree(it);
  saArrayFree(sa);
}

TEST_F(EntryPointsHardeningTest, ScanEntryPointsRejectBadRangesAndOps) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  uint64_t bitmap[3] = {0, 0, 0};
  EXPECT_DEATH(saArrayCountIf(sa, 0, 131, 2, 5), "out of bounds");
  EXPECT_DEATH(saArrayCountIf(sa, 100, 99, 2, 5), "out of bounds");
  EXPECT_DEATH(saArrayCountIf(sa, 0, 130, 6, 5), "comparison operator");
  EXPECT_DEATH(saArrayCountIf(sa, 0, 130, -1, 5), "comparison operator");
  EXPECT_DEATH(saArrayFilteredSum(sa, 0, 131, 2, 5), "out of bounds");
  EXPECT_DEATH(saArrayFilteredSum(sa, 0, 130, 7, 5), "comparison operator");
  EXPECT_DEATH(saArraySelectIf(sa, 0, 131, 2, 5, bitmap, 3), "out of bounds");
  EXPECT_DEATH(saArraySelectIf(sa, 0, 130, 6, 5, bitmap, 3), "comparison operator");
  saArrayFree(sa);
}

TEST_F(EntryPointsHardeningTest, SelectIfRejectsUndersizedOrNullBitmap) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  uint64_t bitmap[3] = {0, 0, 0};
  // 130 elements need 3 words; 2 is one short.
  EXPECT_DEATH(saArraySelectIf(sa, 0, 130, 2, 5, bitmap, 2), "too small");
  EXPECT_DEATH(saArraySelectIf(sa, 0, 130, 2, 5, nullptr, 3), "null");
  // 65 elements starting mid-array need 2 words, so 2 is legal...
  saArraySelectIf(sa, 60, 125, 2, 5, bitmap, 2);
  // ...and 1 is not.
  EXPECT_DEATH(saArraySelectIf(sa, 60, 125, 2, 5, bitmap, 1), "too small");
  // The empty range needs no buffer at all and returns zero matches.
  EXPECT_EQ(saArraySelectIf(sa, 7, 7, 2, 5, nullptr, 0), 0u);
  saArrayFree(sa);
}

// saArrayPackRange is smart::PackRange behind the boundary: a range past the
// end, a handle in a read-optimised encoding and a value wider than the
// array each die with the writer's diagnostic.
TEST_F(EntryPointsHardeningTest, PackRangeRejectsBadRangesEncodingsAndWidths) {
  std::vector<uint64_t> in(130, 8191);
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  EXPECT_DEATH(saArrayPackRange(sa, 64, 131, in.data()), "out of bounds");
  EXPECT_DEATH(saArrayPackRange(sa, 100, 99, in.data()), "out of bounds");
  in[70] = 8192;
  EXPECT_DEATH(saArrayPackRange(sa, 64, 128, in.data() + 64),
               "value exceeds the array's bit width");
  EXPECT_DEATH(saArrayPackRange(sa, 0, 130, in.data()), "value exceeds the array's bit width");
  in[70] = 8191;
  saArrayPackRange(sa, 0, 130, in.data());
  EXPECT_EQ(saArrayGet(sa, 129), 8191u);
  saArrayFree(sa);

  std::vector<uint64_t> values(1000);
  for (uint64_t i = 0; i < values.size(); ++i) {
    values[i] = 1000 + i % 7;
  }
  void* encoded = sa::smart::Encode(values, sa::smart::Encoding::kForDelta,
                                    sa::smart::PlacementSpec::OsDefault(),
                                    sa::platform::Topology::Synthetic(2, 4))
                      .release();
  EXPECT_DEATH(saArrayPackRange(encoded, 0, 64, values.data()),
               "bulk pack requires the bit-packed encoding");
  saArrayFree(encoded);
}

TEST_F(EntryPointsHardeningTest, InRangeAccessStillWorksAfterHardening) {
  void* sa = saArrayAllocate(130, 0, 0, -1, 13);
  for (uint64_t i = 0; i < 130; ++i) {
    saArrayInit(sa, i, i);
  }
  EXPECT_EQ(saArrayGet(sa, 129), 129u);
  EXPECT_EQ(saArrayGetWithBits(sa, 129, 13), 129u);
  void* it = saIterAllocate(sa, 128);
  EXPECT_EQ(saIterGet(it), 128u);
  saIterNext(it);
  EXPECT_EQ(saIterGet(it), 129u);
  saIterFree(it);
  saArrayFree(sa);
}

}  // namespace
