// Codec-level tests for BitCompressedArray<BITS>: Functions 1-3 of the
// paper, exercised for every width 1..64 through the runtime dispatch table
// (which points at the same static codec the templates use).
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/bits.h"
#include "common/random.h"
#include "smart/bit_compressed_array.h"
#include "smart/dispatch.h"

namespace sa::smart {
namespace {

class CodecTest : public ::testing::TestWithParam<uint32_t> {
 protected:
  uint32_t bits() const { return GetParam(); }
  uint64_t mask() const { return LowMask(bits()); }

  // A word buffer big enough for `n` elements, rounded to whole chunks.
  std::vector<uint64_t> MakeStorage(uint64_t n) const {
    const uint64_t chunks = (n + kChunkElems - 1) / kChunkElems;
    return std::vector<uint64_t>(chunks * WordsPerChunk(bits()), 0);
  }
};

TEST_P(CodecTest, RoundTripSequentialValues) {
  const auto& codec = CodecFor(bits());
  const uint64_t n = 300;  // spans several chunks, ends mid-chunk
  auto words = MakeStorage(n);
  for (uint64_t i = 0; i < n; ++i) {
    codec.init(words.data(), i, i & mask());
  }
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(codec.get(words.data(), i), i & mask()) << "index " << i;
  }
}

TEST_P(CodecTest, RoundTripExtremeValues) {
  const auto& codec = CodecFor(bits());
  const uint64_t n = 130;
  auto words = MakeStorage(n);
  // Alternate min/max so every neighbour boundary carries a 0->1 transition.
  for (uint64_t i = 0; i < n; ++i) {
    codec.init(words.data(), i, i % 2 == 0 ? mask() : 0);
  }
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(codec.get(words.data(), i), i % 2 == 0 ? mask() : 0);
  }
}

TEST_P(CodecTest, RoundTripRandomValues) {
  const auto& codec = CodecFor(bits());
  const uint64_t n = 1024;
  auto words = MakeStorage(n);
  std::vector<uint64_t> expected(n);
  Xoshiro256 rng(42 + bits());
  for (uint64_t i = 0; i < n; ++i) {
    expected[i] = rng() & mask();
    codec.init(words.data(), i, expected[i]);
  }
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(codec.get(words.data(), i), expected[i]) << "index " << i;
  }
}

TEST_P(CodecTest, OverwriteDoesNotDisturbNeighbours) {
  const auto& codec = CodecFor(bits());
  const uint64_t n = 192;
  auto words = MakeStorage(n);
  for (uint64_t i = 0; i < n; ++i) {
    codec.init(words.data(), i, mask());  // all ones everywhere
  }
  // Rewrite every third element to zero; neighbours must keep their ones.
  for (uint64_t i = 0; i < n; i += 3) {
    codec.init(words.data(), i, 0);
  }
  for (uint64_t i = 0; i < n; ++i) {
    EXPECT_EQ(codec.get(words.data(), i), i % 3 == 0 ? 0 : mask()) << "index " << i;
  }
}

TEST_P(CodecTest, UnpackMatchesGets) {
  const auto& codec = CodecFor(bits());
  const uint64_t n = 4 * kChunkElems;
  auto words = MakeStorage(n);
  Xoshiro256 rng(7 * bits());
  for (uint64_t i = 0; i < n; ++i) {
    codec.init(words.data(), i, rng() & mask());
  }
  uint64_t out[kChunkElems];
  for (uint64_t chunk = 0; chunk < n / kChunkElems; ++chunk) {
    codec.unpack(words.data(), chunk, out);
    for (uint32_t i = 0; i < kChunkElems; ++i) {
      EXPECT_EQ(out[i], codec.get(words.data(), chunk * kChunkElems + i))
          << "chunk " << chunk << " elem " << i;
    }
  }
}

TEST_P(CodecTest, UnpackDoesNotReadPastChunkEnd) {
  // Regression guard for the final-element read in Function 3: unpacking the
  // LAST chunk of an allocation must not touch the word after it.
  const auto& codec = CodecFor(bits());
  auto words = MakeStorage(kChunkElems);  // exactly one chunk
  for (uint64_t i = 0; i < kChunkElems; ++i) {
    codec.init(words.data(), i, i & mask());
  }
  // Place the chunk at the very end of a fresh buffer; ASan/valgrind would
  // catch an overrun, and we assert value correctness regardless.
  uint64_t out[kChunkElems];
  codec.unpack(words.data(), 0, out);
  for (uint64_t i = 0; i < kChunkElems; ++i) {
    EXPECT_EQ(out[i], i & mask());
  }
}

TEST_P(CodecTest, UnrolledUnpackMatchesLoopUnpack) {
  const uint64_t n = 3 * kChunkElems;
  auto words = MakeStorage(n);
  const auto& codec = CodecFor(bits());
  Xoshiro256 rng(31 * bits());
  for (uint64_t i = 0; i < n; ++i) {
    codec.init(words.data(), i, rng() & mask());
  }
  uint64_t loop_out[kChunkElems];
  uint64_t unrolled_out[kChunkElems];
  WithBits(bits(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    for (uint64_t chunk = 0; chunk < n / kChunkElems; ++chunk) {
      BitCompressedArray<kBits>::UnpackImpl(words.data(), chunk, loop_out);
      BitCompressedArray<kBits>::UnpackUnrolledImpl(words.data(), chunk, unrolled_out);
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        EXPECT_EQ(loop_out[i], unrolled_out[i]) << "chunk " << chunk << " elem " << i;
      }
    }
    return 0;
  });
}

TEST_P(CodecTest, InitAtomicMatchesInit) {
  const auto& codec = CodecFor(bits());
  const uint64_t n = 256;
  auto words_plain = MakeStorage(n);
  auto words_atomic = MakeStorage(n);
  Xoshiro256 rng(1234 + bits());
  for (uint64_t i = 0; i < n; ++i) {
    const uint64_t v = rng() & mask();
    codec.init(words_plain.data(), i, v);
    codec.init_atomic(words_atomic.data(), i, v);
  }
  EXPECT_EQ(words_plain, words_atomic);
}

TEST_P(CodecTest, WordsPerChunkEqualsBits) {
  // The layout property the whole design rests on (§4.2): 64 elements of
  // BITS width occupy exactly BITS words.
  EXPECT_EQ(WordsPerChunk(bits()), bits());
  EXPECT_EQ(kChunkElems * bits() % kWordBits, 0u);
}

TEST_P(CodecTest, StraddlingElementsReconstructed) {
  // Every element whose bit range crosses a word boundary must reassemble
  // from its two halves (Function 1 lines 10-11).
  if (bits() == 32 || bits() == 64 || 64 % bits() == 0) {
    GTEST_SKIP() << "width divides the word; no element straddles";
  }
  const auto& codec = CodecFor(bits());
  auto words = MakeStorage(kChunkElems);
  for (uint64_t i = 0; i < kChunkElems; ++i) {
    const uint64_t bit_start = i * bits();
    const bool straddles = bit_start / 64 != (bit_start + bits() - 1) / 64;
    if (straddles) {
      codec.init(words.data(), i, mask());
      EXPECT_EQ(codec.get(words.data(), i), mask()) << "straddling index " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllWidths, CodecTest, ::testing::Range(1u, 65u),
                         [](const auto& p) { return "bits" + std::to_string(p.param); });

// The paper's Fig. 8b worked example: two elements, 33 bits each.
TEST(CodecExampleTest, Fig8bThirtyThreeBitExample) {
  const auto& codec = CodecFor(33);
  std::vector<uint64_t> words(WordsPerChunk(33), 0);
  codec.init(words.data(), 0, 0x1FFFFFFFFULL);
  codec.init(words.data(), 1, 0x1FULL);
  EXPECT_EQ(codec.get(words.data(), 0), 0x1FFFFFFFFULL);
  EXPECT_EQ(codec.get(words.data(), 1), 0x1FULL);
  // First word: low 33 bits all ones, bits 33.. hold the low 31 bits of the
  // second element (0x1F) -> word0 = 0x1F << 33 | 0x1FFFFFFFF.
  EXPECT_EQ(words[0], (0x1FULL << 33) | 0x1FFFFFFFFULL);
  // Second word starts with the remaining 2 bits of element 1 (zero).
  EXPECT_EQ(words[1] & 0x3, 0u);
}

TEST(CodecDeathTest, RejectsOutOfRangeWidth) {
  EXPECT_DEATH(CodecFor(0), "bit width");
  EXPECT_DEATH(CodecFor(65), "bit width");
}

}  // namespace
}  // namespace sa::smart
