// Differential tests for the chunk-granular aggregation kernels: every
// width 1..64, random values, ragged lengths and unaligned sub-ranges, all
// checked against the buffered TypedIterator scan (the path the kernels
// replace) and against plain per-element arithmetic mod 2^64.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "smart/dispatch.h"
#include "smart/iterator.h"
#include "smart/smart_array.h"

namespace sa::smart {
namespace {

class ChunkKernelTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  ChunkKernelTest() : topo_(platform::Topology::Synthetic(1, 2)) {}

  // A freshly filled array of `n` random width-masked values plus the same
  // values in a plain vector (the oracle).
  std::unique_ptr<SmartArray> Fill(uint64_t n, uint64_t seed, std::vector<uint64_t>* oracle) {
    const uint32_t bits = GetParam();
    auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), bits, topo_);
    const uint64_t mask = array->max_value();
    Xoshiro256 rng(seed * 64 + bits);
    oracle->resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      (*oracle)[i] = rng() & mask;
      array->Init(i, (*oracle)[i]);
    }
    return array;
  }

  // Reference sum over [begin, end) through the buffered-chunk iterator —
  // the decode path the block kernels must agree with bit-for-bit.
  static uint64_t IteratorSum(const SmartArray& array, uint64_t begin, uint64_t end) {
    return WithBits(array.bits(), [&](auto bits_const) -> uint64_t {
      constexpr uint32_t kBits = bits_const();
      TypedIterator<kBits> it(array.GetReplica(0), begin);
      uint64_t sum = 0;
      for (uint64_t i = begin; i < end; ++i, it.Next()) {
        sum += it.Get();
      }
      return sum;
    });
  }

  platform::Topology topo_;
};

// Ragged lengths around chunk boundaries plus larger odd sizes.
constexpr uint64_t kLengths[] = {1, 63, 64, 65, 127, 128, 129, 1000, 4113};

TEST_P(ChunkKernelTest, SumRangeMatchesIteratorAllLengths) {
  for (const uint64_t n : kLengths) {
    std::vector<uint64_t> oracle;
    auto array = Fill(n, n, &oracle);
    WithBits(GetParam(), [&](auto bits_const) {
      constexpr uint32_t kBits = bits_const();
      using Codec = BitCompressedArray<kBits>;
      const uint64_t* replica = array->GetReplica(0);
      EXPECT_EQ(Codec::SumRangeImpl(replica, 0, n), IteratorSum(*array, 0, n))
          << "bits=" << kBits << " n=" << n;
      EXPECT_EQ(CodecFor(kBits).sum_range(replica, 0, n), Codec::SumRangeImpl(replica, 0, n))
          << "dispatching kernel disagrees with scalar, bits=" << kBits << " n=" << n;
      return 0;
    });
  }
}

TEST_P(ChunkKernelTest, SumRangeMatchesIteratorOnSubRanges) {
  const uint64_t n = 1000;
  std::vector<uint64_t> oracle;
  auto array = Fill(n, 7, &oracle);
  // Unaligned begins and ends in every combination of head/body/tail
  // raggedness, including empty and single-chunk-interior ranges.
  const std::pair<uint64_t, uint64_t> kRanges[] = {
      {0, 0},    {5, 5},   {0, 1},    {0, 63},   {0, 64},  {0, 65},   {1, 63},
      {1, 64},   {1, 65},  {63, 65},  {64, 128}, {17, 41}, {17, 991}, {64, 1000},
      {65, 999}, {128, 960}, {999, 1000}, {0, 1000}};
  WithBits(GetParam(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    using Codec = BitCompressedArray<kBits>;
    const uint64_t* replica = array->GetReplica(0);
    for (const auto& [begin, end] : kRanges) {
      uint64_t want = 0;
      for (uint64_t i = begin; i < end; ++i) {
        want += oracle[i];
      }
      EXPECT_EQ(Codec::SumRangeImpl(replica, begin, end), want)
          << "bits=" << kBits << " range=[" << begin << "," << end << ")";
      EXPECT_EQ(CodecFor(kBits).sum_range(replica, begin, end), want)
          << "bits=" << kBits << " range=[" << begin << "," << end << ")";
    }
    return 0;
  });
}

TEST_P(ChunkKernelTest, SumChunkAndSlicesMatchOracle) {
  const uint64_t n = 4113;
  std::vector<uint64_t> oracle;
  auto array = Fill(n, 13, &oracle);
  WithBits(GetParam(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    using Codec = BitCompressedArray<kBits>;
    const uint64_t* replica = array->GetReplica(0);
    for (uint64_t chunk = 0; chunk < n / kChunkElems; ++chunk) {
      uint64_t want = 0;
      for (uint32_t j = 0; j < kChunkElems; ++j) {
        want += oracle[chunk * kChunkElems + j];
      }
      EXPECT_EQ(Codec::SumChunkImpl(replica, chunk), want) << "bits=" << kBits
                                                           << " chunk=" << chunk;
    }
    // Slices of chunk 2: all (lo, hi) pairs over a stride-5 grid plus the
    // degenerate and full slices.
    for (uint32_t lo = 0; lo <= kChunkElems; lo += 5) {
      for (uint32_t hi = lo; hi <= kChunkElems; hi += 5) {
        uint64_t want = 0;
        for (uint32_t j = lo; j < hi; ++j) {
          want += oracle[2 * kChunkElems + j];
        }
        EXPECT_EQ(Codec::SumChunkSliceImpl(replica, 2, lo, hi), want)
            << "bits=" << kBits << " slice=[" << lo << "," << hi << ")";
      }
    }
    EXPECT_EQ(Codec::SumChunkSliceImpl(replica, 2, 0, kChunkElems),
              Codec::SumChunkImpl(replica, 2));
    return 0;
  });
}

TEST_P(ChunkKernelTest, Sum2RangeMatchesPerElementSum) {
  const uint64_t n = 1000;
  std::vector<uint64_t> oracle1;
  std::vector<uint64_t> oracle2;
  auto a1 = Fill(n, 17, &oracle1);
  auto a2 = Fill(n, 23, &oracle2);
  const std::pair<uint64_t, uint64_t> kRanges[] = {{0, n}, {1, n}, {17, 991}, {64, 64}, {63, 65}};
  WithBits(GetParam(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    using Codec = BitCompressedArray<kBits>;
    const uint64_t* r1 = a1->GetReplica(0);
    const uint64_t* r2 = a2->GetReplica(0);
    for (const auto& [begin, end] : kRanges) {
      uint64_t want = 0;
      for (uint64_t i = begin; i < end; ++i) {
        want += oracle1[i] + oracle2[i];
      }
      EXPECT_EQ(Codec::Sum2RangeImpl(r1, r2, begin, end), want)
          << "bits=" << kBits << " range=[" << begin << "," << end << ")";
      EXPECT_EQ(CodecFor(kBits).sum2_range(r1, r2, begin, end), want)
          << "bits=" << kBits << " range=[" << begin << "," << end << ")";
    }
    return 0;
  });
}

TEST_P(ChunkKernelTest, V2KernelsMatchScalarWhenRunnable) {
  // Gates on *candidacy* (the width has a v2 network and the host can run
  // AVX2), not on the measured selection: the v2 kernels must be correct
  // even at widths where the table kept the block kernel.
  const CodecOps* v2_kernels = CandidateKernels(GetParam(), KernelKind::kAvx2V2);
  if (v2_kernels == nullptr) {
    GTEST_SKIP() << "no v2 kernel for bits=" << GetParam()
                 << " (native-width special case, no host support, or SA_FORCE_KERNEL)";
  }
  const CodecOps& v2 = *v2_kernels;
  WithBits(GetParam(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    using Codec = BitCompressedArray<kBits>;
    for (const uint64_t n : kLengths) {
      std::vector<uint64_t> oracle;
      auto array = Fill(n, n + 31, &oracle);
      const uint64_t* replica = array->GetReplica(0);
      EXPECT_EQ(v2.sum_range(replica, 0, n), Codec::SumRangeImpl(replica, 0, n))
          << "bits=" << kBits << " n=" << n;
      if (n > 2) {
        EXPECT_EQ(v2.sum_range(replica, 1, n - 1), Codec::SumRangeImpl(replica, 1, n - 1))
            << "bits=" << kBits << " n=" << n;
      }
      auto a2 = Fill(n, n + 37, &oracle);
      EXPECT_EQ(v2.sum2_range(replica, a2->GetReplica(0), 0, n),
                Codec::Sum2RangeImpl(replica, a2->GetReplica(0), 0, n))
          << "bits=" << kBits << " n=" << n;
      // The v2 chunk decoder against the unrolled scalar decoder, whole
      // chunks only (its unit of work).
      uint64_t got[kChunkElems];
      uint64_t want[kChunkElems];
      for (uint64_t chunk = 0; chunk < n / kChunkElems; ++chunk) {
        v2.unpack(replica, chunk, got);
        Codec::UnpackUnrolledImpl(replica, chunk, want);
        for (uint32_t j = 0; j < kChunkElems; ++j) {
          EXPECT_EQ(got[j], want[j]) << "bits=" << kBits << " chunk=" << chunk << " j=" << j;
        }
      }
    }
    return 0;
  });
}

TEST_P(ChunkKernelTest, ForEachRangeVisitsEveryElementInOrder) {
  const uint64_t n = 1000;
  std::vector<uint64_t> oracle;
  auto array = Fill(n, 41, &oracle);
  const std::pair<uint64_t, uint64_t> kRanges[] = {{0, n}, {0, 0}, {5, 64}, {63, 321}, {64, 999}};
  WithBits(GetParam(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    const uint64_t* replica = array->GetReplica(0);
    for (const auto& [begin, end] : kRanges) {
      uint64_t next = begin;
      BitCompressedArray<kBits>::ForEachRangeImpl(
          replica, begin, end, [&](uint64_t value, uint64_t index) {
            EXPECT_EQ(index, next) << "bits=" << kBits;
            EXPECT_EQ(value, oracle[index]) << "bits=" << kBits << " index=" << index;
            ++next;
          });
      EXPECT_EQ(next, end) << "bits=" << kBits;
    }
    return 0;
  });
}

TEST_P(ChunkKernelTest, CodecTableSumRangeAgreesWithStaticKernels) {
  const uint64_t n = 1000;
  std::vector<uint64_t> oracle;
  auto a1 = Fill(n, 53, &oracle);
  auto a2 = Fill(n, 59, &oracle);
  const CodecOps& ops = CodecFor(GetParam());
  const uint64_t* r1 = a1->GetReplica(0);
  const uint64_t* r2 = a2->GetReplica(0);
  EXPECT_EQ(ops.sum_range(r1, 0, n), IteratorSum(*a1, 0, n));
  EXPECT_EQ(ops.sum_range(r1, 65, 999), IteratorSum(*a1, 65, 999));
  EXPECT_EQ(ops.sum2_range(r1, r2, 0, n), ops.sum_range(r1, 0, n) + ops.sum_range(r2, 0, n));
}

INSTANTIATE_TEST_SUITE_P(AllWidths, ChunkKernelTest, ::testing::Range(1u, 65u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return "bits" + std::to_string(param_info.param);
                         });

}  // namespace
}  // namespace sa::smart
