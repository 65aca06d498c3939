// AVX-512 flavour of the chunk-granular codec kernels: 16 values per vector
// in 32-bit lanes, for the non-native widths 4..25.
//
// Compiled with per-function target attributes, like chunk_kernels_avx2.h;
// callers must gate on sa::HostCpuFeatures().avx512 (the measured kernel
// table in smart/kernel_table.cc does).
//
// Lane plan: a group of 16 consecutive values spans exactly 2 * BITS bytes,
// so group g starts on byte 2 * g * BITS of the chunk. Each group decodes
// from one 64-byte window load, one byte permute (vpermb) that gives every
// lane the 4 bytes starting at its value's first byte, one per-lane shift
// right by (bit position mod 8), and one mask. The shift is at most 7 and
// BITS at most 25, so every value fits in its lane's 4 bytes. Windows are
// anchored at min(2 * g * BITS, 8 * BITS - 64), so every load stays inside
// the chunk's BITS words (the contract the v2 anchors rely on); a lane byte
// index past the window is clamped to 63, and those bytes lie above the
// value and are masked off. Widths 4..7 have chunks shorter than 64 bytes:
// one byte-masked load reads the whole chunk and serves all four groups.
//
// Only zero-masked forms of the intrinsics that GCC expands through
// _mm512_undefined_epi32() are used: the unmasked forms trip
// -Wmaybe-uninitialized inside GCC 12's own headers (GCC bug 105593).
#ifndef SA_SMART_CHUNK_KERNELS_AVX512_H_
#define SA_SMART_CHUNK_KERNELS_AVX512_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SA_HAVE_AVX512_KERNELS 1

#include <immintrin.h>

#include <algorithm>
#include <cstdint>

#include "common/bits.h"
#include "common/macros.h"

#define SA_AVX512_TARGET \
  __attribute__((target("avx512f,avx512bw,avx512vl,avx512dq,avx512vbmi")))

namespace sa::smart::avx512 {

// Widths served by the 32-bit-lane plan. 1..3 sum as popcounts or fold into
// the block kernel's auto-vectorized loop; 8 and 16 are native layouts; a
// 26-bit or wider value plus its 7-bit shift no longer fits a 32-bit lane.
constexpr bool HasLaneWidth(uint32_t bits) {
  return bits >= 4 && bits <= 25 && bits != 8 && bits != 16;
}

constexpr uint32_t kGroups = kChunkElems / 16;

// Widths 4..7: the whole chunk is shorter than one 64-byte window.
constexpr bool WholeChunkLoad(uint32_t bits) { return 8 * bits < 64; }

// First byte of group g's window inside the chunk.
constexpr uint32_t WindowAnchor(uint32_t bits, uint32_t g) {
  return WholeChunkLoad(bits) ? 0 : std::min(2 * g * bits, 8 * bits - 64);
}

// True when, for every lane, all bytes holding the value's bits lie inside
// its group's window, and every window lies inside the chunk.
constexpr bool PlanFits(uint32_t bits) {
  for (uint32_t g = 0; g < kGroups; ++g) {
    const uint32_t anchor = WindowAnchor(bits, g);
    if (!WholeChunkLoad(bits) && anchor + 64 > 8 * bits) {
      return false;
    }
    for (uint32_t k = 0; k < 16; ++k) {
      const uint32_t bit = (16 * g + k) * bits;
      if (bit / 8 < anchor || (bit + bits - 1) / 8 - anchor >= 64) {
        return false;
      }
    }
  }
  return true;
}

// Decode constants for one group of 16 values: the vpermb control (lane k
// takes window bytes index[4k .. 4k+3]) and the per-lane right shift.
struct LaneGroup {
  alignas(64) uint8_t index[64];
  alignas(64) uint32_t shift[16];
  uint32_t anchor = 0;
};

template <uint32_t BITS>
struct LanePlan {
  LaneGroup groups[kGroups];
};

template <uint32_t BITS>
constexpr LanePlan<BITS> MakeLanePlan() {
  static_assert(HasLaneWidth(BITS), "lane plans exist for non-native widths 4..25");
  static_assert(BITS + 7 <= 32, "a value plus its byte shift must fit one 32-bit lane");
  static_assert(PlanFits(BITS), "every value byte must lie in a window inside the chunk");
  LanePlan<BITS> p{};
  for (uint32_t g = 0; g < kGroups; ++g) {
    LaneGroup& grp = p.groups[g];
    grp.anchor = WindowAnchor(BITS, g);
    for (uint32_t k = 0; k < 16; ++k) {
      const uint32_t bit = (16 * g + k) * BITS;
      grp.shift[k] = bit % 8;
      for (uint32_t j = 0; j < 4; ++j) {
        grp.index[4 * k + j] = static_cast<uint8_t>(std::min(bit / 8 - grp.anchor + j, 63u));
      }
    }
  }
  return p;
}

template <uint32_t BITS>
inline constexpr LanePlan<BITS> kLanePlan = MakeLanePlan<BITS>();

// ---------------------------------------------------------------------------
// Decode
// ---------------------------------------------------------------------------

// The four groups of the chunk at `words`, one value per 32-bit lane.
template <uint32_t BITS>
SA_AVX512_TARGET inline void DecodeChunk(const uint64_t* words, __m512i (&v)[kGroups]) {
  const auto* bytes = reinterpret_cast<const uint8_t*>(words);
  const __m512i value_mask = _mm512_set1_epi32(static_cast<int>(LowMask(BITS)));
  __m512i whole = _mm512_setzero_si512();
  if constexpr (WholeChunkLoad(BITS)) {
    whole = _mm512_maskz_loadu_epi8(LowMask(8 * BITS), bytes);
  }
#pragma GCC unroll 4
  for (uint32_t g = 0; g < kGroups; ++g) {
    const LaneGroup& grp = kLanePlan<BITS>.groups[g];
    const __m512i window =
        WholeChunkLoad(BITS) ? whole : _mm512_loadu_si512(bytes + grp.anchor);
    const __m512i lanes = _mm512_maskz_permutexvar_epi8(
        ~__mmask64{0}, _mm512_load_si512(grp.index), window);
    v[g] = _mm512_and_si512(
        _mm512_maskz_srlv_epi32(0xFFFF, lanes, _mm512_load_si512(grp.shift)), value_mask);
  }
}

// Adds the 16 32-bit lanes of `s` into the eight 64-bit lanes of `acc`.
SA_AVX512_TARGET inline __m512i Widen(__m512i acc, __m512i s) {
  const __m512i lo = _mm512_and_si512(s, _mm512_set1_epi64(0xFFFFFFFF));
  return _mm512_add_epi64(acc, _mm512_add_epi64(lo, _mm512_maskz_srli_epi64(0xFF, s, 32)));
}

SA_AVX512_TARGET inline uint64_t Reduce(__m512i acc) {
  alignas(64) uint64_t lanes[8];
  _mm512_store_si512(lanes, acc);
  return ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3])) +
         ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
}

// Sum of one chunk in 32-bit lanes: at most 4 * (2^25 - 1) per lane.
template <uint32_t BITS>
SA_AVX512_TARGET inline __m512i ChunkSum32(const uint64_t* words) {
  __m512i v[kGroups];
  DecodeChunk<BITS>(words, v);
  return _mm512_add_epi32(_mm512_add_epi32(v[0], v[1]), _mm512_add_epi32(v[2], v[3]));
}

// Match mask of one decoded chunk: bit 16g + k is lane k of group g. The
// compares are unsigned and normalized bounds fit 32 bits at these widths
// (bound <= LowMask(BITS)), so no signed-compare argument is needed.
SA_AVX512_TARGET inline uint64_t MatchMask(const __m512i (&v)[kGroups], __m512i bound,
                                           bool is_eq) {
  uint64_t mask = 0;
#pragma GCC unroll 4
  for (uint32_t g = 0; g < kGroups; ++g) {
    const __mmask16 m =
        is_eq ? _mm512_cmpeq_epu32_mask(v[g], bound) : _mm512_cmplt_epu32_mask(v[g], bound);
    mask |= static_cast<uint64_t>(m) << (16 * g);
  }
  return mask;
}

// ---------------------------------------------------------------------------
// Whole-chunk loops (the kAvx512 kernel kind)
// ---------------------------------------------------------------------------
//
// Each loop carries the target attribute itself so the chunk decode inlines
// into it; a lambda would not inherit the attribute. Sums accumulate in
// 32-bit lanes per chunk, widen once per chunk and reduce once per call.
// Masks hands each chunk's match mask to `sink`, which is plain scalar code
// and inlines into the loop.
template <uint32_t BITS>
struct Kernels {
  static constexpr uint64_t kWords = WordsPerChunk(BITS);

  SA_AVX512_TARGET static uint64_t Sum(const uint64_t* replica, uint64_t first, uint64_t n) {
    const uint64_t* words = replica + first * kWords;
    __m512i acc = _mm512_setzero_si512();
    for (uint64_t c = 0; c < n; ++c, words += kWords) {
      acc = Widen(acc, ChunkSum32<BITS>(words));
    }
    return Reduce(acc);
  }

  // Both chunks share one 32-bit accumulator: at most 8 values per lane.
  SA_AVX512_TARGET static uint64_t Sum2(const uint64_t* r1, const uint64_t* r2, uint64_t first,
                                        uint64_t n) {
    const uint64_t* w1 = r1 + first * kWords;
    const uint64_t* w2 = r2 + first * kWords;
    __m512i acc = _mm512_setzero_si512();
    for (uint64_t c = 0; c < n; ++c, w1 += kWords, w2 += kWords) {
      acc = Widen(acc, _mm512_add_epi32(ChunkSum32<BITS>(w1), ChunkSum32<BITS>(w2)));
    }
    return Reduce(acc);
  }

  // Decodes one chunk into out[0..63], zero-extended to 64 bits.
  SA_AVX512_TARGET static void Unpack(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    __m512i v[kGroups];
    DecodeChunk<BITS>(replica + chunk * kWords, v);
#pragma GCC unroll 4
    for (uint32_t g = 0; g < kGroups; ++g) {
      const __m256i lo = _mm512_maskz_extracti64x4_epi64(0xFF, v[g], 0);
      const __m256i hi = _mm512_maskz_extracti64x4_epi64(0xFF, v[g], 1);
      _mm512_storeu_si512(out + 16 * g, _mm512_maskz_cvtepu32_epi64(0xFF, lo));
      _mm512_storeu_si512(out + 16 * g + 8, _mm512_maskz_cvtepu32_epi64(0xFF, hi));
    }
  }

  template <typename Sink>
  SA_AVX512_TARGET static void Masks(const uint64_t* replica, uint64_t first, uint64_t n,
                                     uint64_t bound, bool is_eq, bool invert, Sink&& sink) {
    SA_DCHECK(bound <= LowMask(BITS));  // normalized, so it fits a 32-bit lane
    const uint64_t* words = replica + first * kWords;
    const __m512i b = _mm512_set1_epi32(static_cast<int>(bound));
    const uint64_t inv = invert ? ~uint64_t{0} : uint64_t{0};
    for (uint64_t c = 0; c < n; ++c, words += kWords) {
      __m512i v[kGroups];
      DecodeChunk<BITS>(words, v);
      sink(MatchMask(v, b, is_eq) ^ inv);
    }
  }

  SA_AVX512_TARGET static uint64_t FilteredSum(const uint64_t* replica, uint64_t first,
                                               uint64_t n, uint64_t bound, bool is_eq,
                                               bool invert) {
    SA_DCHECK(bound <= LowMask(BITS));  // normalized, so it fits a 32-bit lane
    const uint64_t* words = replica + first * kWords;
    const __m512i b = _mm512_set1_epi32(static_cast<int>(bound));
    const uint64_t inv = invert ? ~uint64_t{0} : uint64_t{0};
    __m512i acc = _mm512_setzero_si512();
    for (uint64_t c = 0; c < n; ++c, words += kWords) {
      __m512i v[kGroups];
      DecodeChunk<BITS>(words, v);
      const uint64_t mask = MatchMask(v, b, is_eq) ^ inv;
      __m512i s = _mm512_setzero_si512();
#pragma GCC unroll 4
      for (uint32_t g = 0; g < kGroups; ++g) {
        s = _mm512_mask_add_epi32(s, static_cast<__mmask16>(mask >> (16 * g)), s, v[g]);
      }
      acc = Widen(acc, s);
    }
    return Reduce(acc);
  }
};

}  // namespace sa::smart::avx512

#endif  // x86-64 && GNU-compatible compiler
#endif  // SA_SMART_CHUNK_KERNELS_AVX512_H_
