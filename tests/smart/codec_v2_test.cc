// Differential coverage for the codec v2 streaming seam: PackRange /
// UnpackRange round-trips at every width 1..64 on ragged lengths and
// unaligned sub-ranges, word-level equivalence of the pack network against
// the per-element initializer, and the C-ABI bulk-transfer entry points.
#include <gtest/gtest.h>

#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "platform/topology.h"
#include "smart/dispatch.h"
#include "smart/entry_points.h"
#include "smart/parallel_ops.h"
#include "smart/smart_array.h"

namespace {

using sa::LowMask;
using sa::SplitMix64;
using sa::platform::Topology;
using sa::smart::CodecFor;
using sa::smart::PlacementSpec;
using sa::smart::SmartArray;

// Deterministic per-(width, index) pattern with high bits set often (the
// boundary_widths_test pattern), so masking and cross-word spills are
// exercised at every width.
uint64_t Pattern(uint32_t bits, uint64_t i) {
  return SplitMix64(i * 64 + bits) & LowMask(bits);
}

// Ragged lengths around chunk boundaries.
constexpr uint64_t kLengths[] = {1, 63, 65, 127, 129, 130, 1000};

class CodecV2Test : public ::testing::Test {
 protected:
  Topology topology_ = Topology::Synthetic(1, 2);
};

TEST_F(CodecV2Test, PackThenUnpackRoundTripsAtEveryWidth) {
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    for (const uint64_t length : kLengths) {
      auto array = SmartArray::Allocate(length, PlacementSpec::OsDefault(), bits, topology_);
      std::vector<uint64_t> values(length);
      for (uint64_t i = 0; i < length; ++i) {
        values[i] = Pattern(bits, i);
      }
      sa::smart::PackRange(*array, 0, length, values.data());
      std::vector<uint64_t> decoded(length, ~uint64_t{0});
      array->RangeUnpack(array->GetReplica(0), 0, length, decoded.data());
      for (uint64_t i = 0; i < length; ++i) {
        ASSERT_EQ(decoded[i], values[i]) << "bits=" << bits << " n=" << length << " i=" << i;
        ASSERT_EQ(array->Get(i, array->GetReplica(0)), values[i])
            << "bits=" << bits << " n=" << length << " i=" << i;
      }
    }
  }
}

TEST_F(CodecV2Test, PackNetworkMatchesPerElementInitWordForWord) {
  const uint64_t length = 1000;
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    auto packed = SmartArray::Allocate(length, PlacementSpec::OsDefault(), bits, topology_);
    auto inited = SmartArray::Allocate(length, PlacementSpec::OsDefault(), bits, topology_);
    std::vector<uint64_t> values(length);
    for (uint64_t i = 0; i < length; ++i) {
      values[i] = Pattern(bits, i);
      inited->Init(i, values[i]);
    }
    sa::smart::PackRange(*packed, 0, length, values.data());
    // Every word the initializer produced must come out of the pack network
    // identically (same layout, same canary masking) up to the last word
    // the array's length touches; trailing chunk padding may differ (the
    // pack network writes whole words, Init leaves untouched bits zero),
    // but decoded elements already matched above.
    const uint64_t* p = packed->GetReplica(0);
    const uint64_t* q = inited->GetReplica(0);
    const uint64_t full_chunks = length / sa::kChunkElems;
    const uint64_t words = full_chunks * sa::WordsPerChunk(bits);
    for (uint64_t w = 0; w < words; ++w) {
      ASSERT_EQ(p[w], q[w]) << "bits=" << bits << " word=" << w;
    }
    for (uint64_t i = full_chunks * sa::kChunkElems; i < length; ++i) {
      ASSERT_EQ(packed->Get(i, p), inited->Get(i, q)) << "bits=" << bits << " i=" << i;
    }
  }
}

TEST_F(CodecV2Test, SubRangeTransfersLeaveNeighborsIntact) {
  const uint64_t length = 1000;
  // Unaligned begins/ends in every head/body/tail combination.
  const std::pair<uint64_t, uint64_t> kRanges[] = {
      {0, 1}, {0, 64}, {1, 63}, {1, 65}, {63, 65}, {17, 41}, {17, 991}, {64, 1000}, {65, 999}};
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    const auto& codec = CodecFor(bits);
    auto array = SmartArray::Allocate(length, PlacementSpec::OsDefault(), bits, topology_);
    for (uint64_t i = 0; i < length; ++i) {
      array->Init(i, Pattern(bits, i));
    }
    for (const auto& [begin, end] : kRanges) {
      // Overwrite [begin, end) with a shifted pattern, then check both the
      // overwritten range and its untouched neighbors element-wise.
      std::vector<uint64_t> values(end - begin);
      for (uint64_t i = 0; i < values.size(); ++i) {
        values[i] = Pattern(bits, begin + i + 7);
      }
      codec.pack_range(array->MutableReplica(0), begin, end, values.data());
      std::vector<uint64_t> decoded(end - begin, ~uint64_t{0});
      codec.unpack_range(array->GetReplica(0), begin, end, decoded.data());
      for (uint64_t i = 0; i < values.size(); ++i) {
        ASSERT_EQ(decoded[i], values[i])
            << "bits=" << bits << " range=[" << begin << "," << end << ") i=" << i;
      }
      for (uint64_t i = 0; i < length; ++i) {
        if (i < begin || i >= end) {
          ASSERT_EQ(array->Get(i, array->GetReplica(0)), Pattern(bits, i))
              << "bits=" << bits << " range=[" << begin << "," << end << ") neighbor i=" << i;
        }
      }
      // Restore for the next sub-range.
      for (uint64_t i = begin; i < end; ++i) {
        array->Init(i, Pattern(bits, i));
      }
    }
  }
}

TEST_F(CodecV2Test, PackRangeWritesEveryReplica) {
  const uint64_t length = 257;
  for (const uint32_t bits : {5u, 13u, 32u, 64u}) {
    auto array = SmartArray::Allocate(length, PlacementSpec::Replicated(), bits,
                                      Topology::Synthetic(2, 2));
    std::vector<uint64_t> values(length);
    for (uint64_t i = 0; i < length; ++i) {
      values[i] = Pattern(bits, i);
    }
    sa::smart::PackRange(*array, 0, length, values.data());
    ASSERT_GT(array->num_replicas(), 1);
    for (int r = 0; r < array->num_replicas(); ++r) {
      for (uint64_t i = 0; i < length; ++i) {
        ASSERT_EQ(array->Get(i, array->GetReplica(r)), values[i])
            << "bits=" << bits << " replica=" << r << " i=" << i;
      }
    }
  }
}

TEST_F(CodecV2Test, EntryPointBulkTransferRoundTrips) {
  const uint64_t length = 321;
  for (const uint32_t bits : {1u, 7u, 13u, 33u, 64u}) {
    void* handle = saArrayAllocate(length, 0, 0, -1, bits);
    ASSERT_NE(handle, nullptr);
    std::vector<uint64_t> values(length);
    for (uint64_t i = 0; i < length; ++i) {
      values[i] = Pattern(bits, i);
    }
    saArrayPackRange(handle, 0, length, values.data());
    std::vector<uint64_t> decoded(length, ~uint64_t{0});
    saArrayUnpackRange(handle, 0, length, decoded.data());
    EXPECT_EQ(decoded, values) << "bits=" << bits;
    // Unaligned sub-range read through the same entry point.
    std::vector<uint64_t> middle(100);
    saArrayUnpackRange(handle, 17, 117, middle.data());
    for (uint64_t i = 0; i < middle.size(); ++i) {
      EXPECT_EQ(middle[i], values[17 + i]) << "bits=" << bits << " i=" << i;
    }
    saArrayFree(handle);
  }
}

}  // namespace
