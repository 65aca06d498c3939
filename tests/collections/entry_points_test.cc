// C-ABI surface of the §7 collections and encodings.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "collections/entry_points.h"
#include "common/random.h"
#include "smart/entry_points.h"

namespace {

class CollectionsAbiTest : public ::testing::Test {
 protected:
  void SetUp() override { saSetDefaultTopology(2, 2); }
  void TearDown() override { saSetDefaultTopology(0, 0); }
};

// An encoded handle is a smart-array handle: the saArray* entry points read
// and free it.
TEST_F(CollectionsAbiTest, EncodedArrayRoundTrip) {
  std::vector<uint64_t> values(5000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (i / 500) % 4;  // long runs
  }
  void* ea = saEncodedCreate(values.data(), values.size(), /*encoding=*/-1, 0, 1, -1);
  ASSERT_NE(ea, nullptr);
  EXPECT_EQ(saEncodedKind(ea), 3);  // auto-selected run-length
  EXPECT_EQ(saArrayGetLength(ea), values.size());
  EXPECT_GT(saArrayFootprintBytes(ea), 0u);
  for (uint64_t i = 0; i < values.size(); i += 101) {
    EXPECT_EQ(saArrayGet(ea, i), values[i]);
  }
  std::vector<uint64_t> out(1000);
  saArrayUnpackRange(ea, 2000, 3000, out.data());
  for (uint64_t i = 0; i < 1000; ++i) {
    EXPECT_EQ(out[i], values[2000 + i]);
  }
  EXPECT_EQ(saArrayCountIf(ea, 0, values.size(), /*==*/0, 2),
            static_cast<uint64_t>(std::count(values.begin(), values.end(), 2)));
  saArrayFree(ea);
}

TEST_F(CollectionsAbiTest, ForcedEncodingIsHonored) {
  std::vector<uint64_t> values = {1, 2, 3, 4, 5};
  for (int encoding = 0; encoding <= 3; ++encoding) {
    void* ea = saEncodedCreate(values.data(), values.size(), encoding, 0, 0, -1);
    EXPECT_EQ(saEncodedKind(ea), encoding);
    EXPECT_EQ(saArrayGet(ea, 2), 3u);
    saArrayFree(ea);
  }
}

// Caller indexes are checked for every encoding: one past the end, far past
// it, and a range running off the end all abort instead of reading out of
// bounds.
TEST_F(CollectionsAbiTest, EncodedHandleChecksIndexes) {
  std::vector<uint64_t> values(1000);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (uint64_t{1} << 40) + i / 100;
  }
  std::vector<uint64_t> out(values.size() + 1);
  for (int encoding = 0; encoding <= 3; ++encoding) {
    void* ea = saEncodedCreate(values.data(), values.size(), encoding, 0, 0, -1);
    EXPECT_DEATH(saArrayGet(ea, values.size()), "index out of range") << encoding;
    EXPECT_DEATH(saArrayGet(ea, uint64_t{1} << 40), "index out of range") << encoding;
    EXPECT_DEATH(saArrayUnpackRange(ea, 10, values.size() + 1, out.data()),
                 "decode range out of bounds") << encoding;
    saArrayFree(ea);
  }
}

// The bulk saArray* calls decode through the array's own encoding; the
// calls that read the bit-packed word layout directly refuse other
// encodings instead of misreading them.
TEST_F(CollectionsAbiTest, EncodedHandleServesTheArrayEntryPoints) {
  std::vector<uint64_t> values(3000);
  uint64_t sum = 0;
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (uint64_t{1} << 36) + (i / 70) * 3;
    sum += values[i];
  }
  for (int encoding = 0; encoding <= 3; ++encoding) {
    void* ea = saEncodedCreate(values.data(), values.size(), encoding, 0, 0, -1);
    uint64_t mapped = 0;
    saArrayMapRange(
        ea, 5, values.size(),
        [](const uint64_t* span, uint64_t count, uint64_t, void* ctx) {
          for (uint64_t i = 0; i < count; ++i) {
            *static_cast<uint64_t*>(ctx) += span[i];
          }
        },
        &mapped);
    EXPECT_EQ(mapped, sum - values[0] - values[1] - values[2] - values[3] - values[4])
        << encoding;
    EXPECT_EQ(saArraySumRange(ea, 0, values.size()), sum) << encoding;
    EXPECT_EQ(saArraySum2Range(ea, ea, 0, values.size()), 2 * sum) << encoding;
    if (encoding != 0) {
      EXPECT_DEATH(saIterAllocate(ea, 0), "bit-packed") << encoding;
      EXPECT_DEATH(saArrayGetWithBits(ea, 0, saArrayGetBits(ea)), "bit-packed") << encoding;
    }
    saArrayFree(ea);
  }
}

TEST_F(CollectionsAbiTest, SetMembershipBothLayouts) {
  sa::Xoshiro256 rng(8);
  std::vector<uint64_t> values(2000);
  for (auto& v : values) {
    v = rng.Below(10'000);
  }
  for (const int layout : {0, 1}) {
    void* set = saSetCreate(values.data(), values.size(), layout, /*replicated=*/1, 0, -1);
    ASSERT_NE(set, nullptr);
    EXPECT_GT(saSetSize(set), 0u);
    EXPECT_LE(saSetSize(set), values.size());
    for (const uint64_t v : values) {
      ASSERT_EQ(saSetContains(set, v), 1);
    }
    EXPECT_EQ(saSetContains(set, 999'999), 0);
    EXPECT_GT(saSetFootprintBytes(set), 0u);
    saSetFree(set);
  }
}

TEST_F(CollectionsAbiTest, MapLookups) {
  std::vector<uint64_t> keys = {10, 20, 30, 20};  // duplicate key: last wins
  std::vector<uint64_t> values = {1, 2, 3, 9};
  void* map = saMapCreate(keys.data(), values.data(), keys.size(), 0, 1, -1);
  EXPECT_EQ(saMapSize(map), 3u);
  uint64_t out = 0;
  ASSERT_EQ(saMapGet(map, 20, &out), 1);
  EXPECT_EQ(out, 9u);
  ASSERT_EQ(saMapGet(map, 10, &out), 1);
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(saMapGet(map, 40, &out), 0);
  saMapFree(map);
}

TEST_F(CollectionsAbiTest, PlacementFlagsValidated) {
  std::vector<uint64_t> values = {1, 2, 3};
  EXPECT_DEATH(saSetCreate(values.data(), values.size(), 0, 1, 1, -1), "combined");
  EXPECT_DEATH(saEncodedCreate(values.data(), values.size(), 9, 0, 0, -1), "encoding");
}

}  // namespace
