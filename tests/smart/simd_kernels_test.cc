// Differential tests for the SIMD kernel kinds (AVX2 v2, AVX-512) against
// the scalar block kernels, at every width 1..64, plus the kernel table's
// selection invariants under each override.
//
// Each SIMD test skips unless its kind has kernels at the width, the host
// can run them (CPUID), and SA_FORCE_KERNEL does not force a kind before
// it, so hosts without the ISA never execute its instructions. The data is
// raw packed words — random words, and all-ones words, where every lane
// holds the width's maximum so a 32-bit lane that overflows or widens
// wrongly shows up.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "smart/kernel_table.h"

namespace sa::smart {
namespace {

constexpr uint64_t kChunks = 8;
constexpr uint64_t kElems = kChunks * kChunkElems;

// Ragged and aligned [begin, end) ranges over the kElems-element buffer.
constexpr std::pair<uint64_t, uint64_t> kRanges[] = {
    {0, kElems}, {1, kElems - 1}, {5, 64},  {63, 65},  {64, 128},
    {70, 300},   {3, 3},          {0, 17},  {129, 130}, {100, kElems}};

// Bit offsets for SelectIf emission, most not multiples of 64 (the per-chunk
// path of ForDeltaArray emits at arbitrary offsets).
constexpr uint64_t kBitOffsets[] = {0, 1, 37, 63, 64};

std::vector<std::vector<uint64_t>> TestBuffers(uint32_t bits) {
  std::vector<uint64_t> random(kChunks * WordsPerChunk(bits));
  for (size_t i = 0; i < random.size(); ++i) {
    random[i] = SplitMix64(i * 131 + bits);
  }
  return {random, std::vector<uint64_t>(random.size(), ~uint64_t{0})};
}

std::vector<ScanPredicate> TestPredicates(uint32_t bits) {
  const uint64_t max = LowMask(bits);
  std::vector<ScanPredicate> preds;
  for (const uint64_t bound : {uint64_t{0}, uint64_t{1}, max / 2, max}) {
    for (const auto kind : {ScanPredicate::Kind::kLt, ScanPredicate::Kind::kEq}) {
      for (const bool invert : {false, true}) {
        preds.push_back({kind, bound, invert});
      }
    }
  }
  return preds;
}

std::string Describe(ScanPredicate p) {
  return std::string(p.kind == ScanPredicate::Kind::kEq ? "eq" : "lt") +
         (p.invert ? " inverted" : "") + " bound=" + std::to_string(p.bound);
}

class SimdKernelTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  // Checks every entry of `kind`'s kernel set against the block set, or
  // skips when the kind cannot run at this width on this host.
  void ExpectMatchesBlock(KernelKind kind) {
    const uint32_t bits = GetParam();
    const CodecOps* candidate = CandidateKernels(bits, kind);
    if (candidate == nullptr) {
      GTEST_SKIP() << "no " << ToString(kind) << " kernel for bits=" << bits
                   << " (width outside the kind, no host support, or SA_FORCE_KERNEL)";
    }
    const CodecOps& got = *candidate;
    const CodecOps& want = *CandidateKernels(bits, KernelKind::kBlock);
    ASSERT_EQ(got.kind, kind);
    ASSERT_EQ(want.kind, KernelKind::kBlock);
    const std::vector<std::vector<uint64_t>> buffers = TestBuffers(bits);
    for (size_t b = 0; b < buffers.size(); ++b) {
      SCOPED_TRACE("bits=" + std::to_string(bits) + (b == 0 ? " random" : " all-ones"));
      const uint64_t* w = buffers[b].data();
      const uint64_t* w2 = buffers[1 - b].data();
      ExpectChunksMatch(got, want, w, w2);
      for (const ScanPredicate p : TestPredicates(bits)) {
        SCOPED_TRACE(Describe(p));
        ExpectPredicateChunksMatch(got, want, w, p);
        ExpectWalkersMatch(got, want, w, p);
      }
    }
  }

 private:
  // Sum, sum2 and unpack, one chunk at a time, then over ragged ranges.
  static void ExpectChunksMatch(const CodecOps& got, const CodecOps& want, const uint64_t* w,
                                const uint64_t* w2) {
    for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      const uint64_t lo = chunk * kChunkElems;
      const uint64_t hi = lo + kChunkElems;
      EXPECT_EQ(got.sum_range(w, lo, hi), want.sum_range(w, lo, hi)) << "chunk=" << chunk;
      EXPECT_EQ(got.sum2_range(w, w2, lo, hi), want.sum2_range(w, w2, lo, hi))
          << "chunk=" << chunk;
      uint64_t got_out[kChunkElems];
      uint64_t want_out[kChunkElems];
      got.unpack(w, chunk, got_out);
      want.unpack(w, chunk, want_out);
      for (uint32_t j = 0; j < kChunkElems; ++j) {
        ASSERT_EQ(got_out[j], want_out[j]) << "chunk=" << chunk << " j=" << j;
      }
    }
    for (const auto& [begin, end] : kRanges) {
      EXPECT_EQ(got.sum_range(w, begin, end), want.sum_range(w, begin, end))
          << "range=[" << begin << "," << end << ")";
      EXPECT_EQ(got.sum2_range(w, w2, begin, end), want.sum2_range(w, w2, begin, end))
          << "range=[" << begin << "," << end << ")";
    }
  }

  // The match mask (a one-chunk select) and filtered sum of every chunk.
  static void ExpectPredicateChunksMatch(const CodecOps& got, const CodecOps& want,
                                         const uint64_t* w, ScanPredicate p) {
    for (uint64_t chunk = 0; chunk < kChunks; ++chunk) {
      const uint64_t lo = chunk * kChunkElems;
      const uint64_t hi = lo + kChunkElems;
      uint64_t got_mask = 0;
      uint64_t want_mask = 0;
      EXPECT_EQ(got.select_if_range(w, lo, hi, p, &got_mask, 0),
                want.select_if_range(w, lo, hi, p, &want_mask, 0))
          << "chunk=" << chunk;
      EXPECT_EQ(got_mask, want_mask) << "chunk=" << chunk;
      EXPECT_EQ(got.filtered_sum_range(w, lo, hi, p), want.filtered_sum_range(w, lo, hi, p))
          << "chunk=" << chunk;
    }
  }

  // CountIf, SelectIf (at unaligned bitmap offsets) and FilteredSum over
  // ragged ranges.
  static void ExpectWalkersMatch(const CodecOps& got, const CodecOps& want, const uint64_t* w,
                                 ScanPredicate p) {
    for (const auto& [begin, end] : kRanges) {
      SCOPED_TRACE("range=[" + std::to_string(begin) + "," + std::to_string(end) + ")");
      EXPECT_EQ(got.count_if_range(w, begin, end, p), want.count_if_range(w, begin, end, p));
      EXPECT_EQ(got.filtered_sum_range(w, begin, end, p),
                want.filtered_sum_range(w, begin, end, p));
      for (const uint64_t offset : kBitOffsets) {
        std::vector<uint64_t> got_bits(kChunks + 3, 0);
        std::vector<uint64_t> want_bits(kChunks + 3, 0);
        EXPECT_EQ(got.select_if_range(w, begin, end, p, got_bits.data(), offset),
                  want.select_if_range(w, begin, end, p, want_bits.data(), offset))
            << "offset=" << offset;
        EXPECT_EQ(got_bits, want_bits) << "offset=" << offset;
      }
    }
  }
};

TEST_P(SimdKernelTest, Avx2V2MatchesBlock) { ExpectMatchesBlock(KernelKind::kAvx2V2); }

TEST_P(SimdKernelTest, Avx512MatchesBlock) { ExpectMatchesBlock(KernelKind::kAvx512); }

INSTANTIATE_TEST_SUITE_P(AllWidths, SimdKernelTest, ::testing::Range(1u, 65u),
                         [](const ::testing::TestParamInfo<uint32_t>& param_info) {
                           return "bits" + std::to_string(param_info.param);
                         });

// ---- kernel table selection invariants ----

bool KindRunnable(uint32_t bits, KernelKind kind) {
  return CandidateKernels(bits, kind) != nullptr;
}

TEST(KernelTableTest, BindsOnlyKindsTheHostCanRun) {
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    const CodecOps& ops = CodecFor(bits);
    EXPECT_TRUE(KindRunnable(bits, ops.kind)) << "bits=" << bits;
    EXPECT_TRUE(KindRunnable(bits, ops.predicate_kind)) << "bits=" << bits;
  }
}

// CodecFor is the one per-width table: its range walkers and chunk decoder
// are the candidate entries of the kinds it records as bound.
TEST(KernelTableTest, CodecTableBindsTheSelectedKernels) {
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    SCOPED_TRACE("bits=" + std::to_string(bits));
    const CodecOps& ops = CodecFor(bits);
    const CodecOps* sum = CandidateKernels(bits, ops.kind);
    const CodecOps* predicate = CandidateKernels(bits, ops.predicate_kind);
    ASSERT_NE(sum, nullptr);
    ASSERT_NE(predicate, nullptr);
    EXPECT_EQ(ops.sum_range, sum->sum_range);
    EXPECT_EQ(ops.sum2_range, sum->sum2_range);
    EXPECT_EQ(ops.unpack, sum->unpack);
    EXPECT_EQ(ops.count_if_range, predicate->count_if_range);
    EXPECT_EQ(ops.select_if_range, predicate->select_if_range);
    EXPECT_EQ(ops.filtered_sum_range, predicate->filtered_sum_range);
  }
}

// SA_FORCE_KERNEL=block|avx2|avx512 binds the forced kind at every width
// where it can run; a forced kind also makes the kinds after it unrunnable,
// so SA_FORCE_KERNEL=block binds block everywhere and runs no SIMD kernel.
TEST(KernelTableTest, ForcedKindBindsEveryRunnableWidth) {
  const char* env = std::getenv("SA_FORCE_KERNEL");
  KernelKind forced;
  if (env != nullptr && std::strcmp(env, "block") == 0) {
    forced = KernelKind::kBlock;
  } else if (env != nullptr && std::strcmp(env, "avx2") == 0) {
    forced = KernelKind::kAvx2V2;
  } else if (env != nullptr && std::strcmp(env, "avx512") == 0) {
    forced = KernelKind::kAvx512;
  } else {
    GTEST_SKIP() << "runs only under SA_FORCE_KERNEL=block|avx2|avx512";
  }
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    const CodecOps& ops = CodecFor(bits);
    for (const KernelKind selected : {ops.kind, ops.predicate_kind}) {
      EXPECT_LE(selected, forced) << "bits=" << bits;
      if (KindRunnable(bits, forced)) {
        EXPECT_EQ(selected, forced) << "bits=" << bits;
      }
    }
    for (const KernelKind kind : {KernelKind::kAvx2V2, KernelKind::kAvx512}) {
      if (forced < kind) {
        EXPECT_FALSE(KindRunnable(bits, kind)) << "bits=" << bits << " " << ToString(kind);
      }
    }
  }
}

}  // namespace
}  // namespace sa::smart
