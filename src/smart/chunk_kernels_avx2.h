// AVX2 flavour of the chunk-granular codec kernels: the shift-network v2
// decoder.
//
// Compiled with per-function target attributes so the library still builds
// without -mavx2 and runs on machines without AVX2; callers must gate on
// sa::HostCpuFeatures().avx2 (the measured kernel table in
// smart/kernel_table.cc does).
//
// v2 design (Lemire & Boytsov-style shift network, adapted to the paper's
// sequential chunk layout): a chunk of 64 BITS-wide elements occupies
// exactly BITS words, and every constant below is a compile-time function
// of (BITS, position-in-chunk). Four consecutive elements (a "group") span
// at most five consecutive words, so each group decodes from two
// overlapping unaligned 256-bit loads whose word windows are anchored at
// compile time to stay inside the chunk, a cross-lane 32-bit permute that
// routes each lane's low/high source word into place, and a
// srlv/sllv/or/and network. No gathers: BENCH_codec.json showed
// _mm256_i64gather_epi64 capping the PR-1 kernel below the scalar block
// kernel at widths 13/17/24/33/48/50; the two loads + two permutes here
// issue on ordinary load/shuffle ports instead.
#ifndef SA_SMART_CHUNK_KERNELS_AVX2_H_
#define SA_SMART_CHUNK_KERNELS_AVX2_H_

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define SA_HAVE_AVX2_KERNELS 1

#include <immintrin.h>

#include <cstdint>
#include <utility>

#include "common/bits.h"

namespace sa::smart::avx2 {

// Widths served by the v2 shift network. Widths 1..3 pack 4 elements into
// (at most) 2 words, too few for the 4-word load windows (and width 1 sums
// are a popcount anyway); 8/16/32/64 have native-integer layouts whose
// scalar loops the compiler already vectorizes.
constexpr bool HasV2Width(uint32_t bits) {
  return bits >= 4 && bits < 64 && bits != 8 && bits != 16 && bits != 32;
}

// ---------------------------------------------------------------------------
// v2 plan tables
// ---------------------------------------------------------------------------

// Decode constants for one group of four consecutive elements. The group's
// low source words live in the 4-word window starting at lo_anchor, the
// straddle high words in the window at hi_anchor; both anchors are clamped
// to BITS - 4 so the loads never read past the chunk's BITS words. perm_*
// are _mm256_permutevar8x32_epi32 controls selecting each lane's 64-bit
// word (as an adjacent 32-bit pair) out of its window. The straddle lane
// mask zeroes the high contribution for non-straddling lanes (the
// 64 - shift left-shift count only zeroes it when shift == 0).
struct V2Group {
  alignas(32) uint32_t perm_lo[8];
  alignas(32) uint32_t perm_hi[8];
  alignas(32) uint64_t shift[4];
  alignas(32) uint64_t straddle[4];
  uint32_t lo_anchor = 0;
  uint32_t hi_anchor = 0;
  bool straddles = false;
};

template <uint32_t BITS>
struct V2Plan {
  V2Group groups[kChunkElems / 4];
};

template <uint32_t BITS>
constexpr V2Plan<BITS> MakeV2Plan() {
  static_assert(HasV2Width(BITS), "v2 plans exist for non-native widths 4..63");
  V2Plan<BITS> p{};
  for (uint32_t grp = 0; grp < kChunkElems / 4; ++grp) {
    V2Group& g = p.groups[grp];
    const uint32_t w0 = grp * 4 * BITS / kWordBits;
    g.lo_anchor = w0 < BITS - 4 ? w0 : BITS - 4;
    g.hi_anchor = w0 + 1 < BITS - 4 ? w0 + 1 : BITS - 4;
    for (uint32_t k = 0; k < 4; ++k) {
      const uint32_t bit = (grp * 4 + k) * BITS;
      const uint32_t lo_word = bit / kWordBits;
      const uint32_t hi_word = (bit + BITS - 1) / kWordBits;
      const uint32_t shift = bit % kWordBits;
      const bool straddles = shift + BITS > kWordBits;
      g.shift[k] = shift;
      g.straddle[k] = straddles ? ~uint64_t{0} : uint64_t{0};
      g.straddles = g.straddles || straddles;
      const uint32_t lo_rel = lo_word - g.lo_anchor;
      // Non-straddling lanes read a don't-care high word (masked off);
      // window slot 0 keeps the permute control in range.
      const uint32_t hi_rel = straddles ? hi_word - g.hi_anchor : 0;
      SA_DCHECK(lo_rel <= 3 && hi_rel <= 3 && lo_word >= g.lo_anchor);
      g.perm_lo[2 * k] = 2 * lo_rel;
      g.perm_lo[2 * k + 1] = 2 * lo_rel + 1;
      g.perm_hi[2 * k] = 2 * hi_rel;
      g.perm_hi[2 * k + 1] = 2 * hi_rel + 1;
    }
  }
  return p;
}

template <uint32_t BITS>
inline constexpr V2Plan<BITS> kV2Plan = MakeV2Plan<BITS>();

// ---------------------------------------------------------------------------
// v2 decode network
// ---------------------------------------------------------------------------

// Elements [4G, 4G + 4) of the chunk at `words`, one per 64-bit lane,
// already masked to BITS bits. The anchors, permute controls, and
// straddle-or-not are compile-time constants of (BITS, G), so the group is
// straight-line load/permute/shift code with no data-dependent control flow.
template <uint32_t BITS, uint32_t G>
__attribute__((target("avx2"))) inline __m256i DecodeGroupV2(const uint64_t* words,
                                                             __m256i value_mask) {
  static constexpr V2Group g = kV2Plan<BITS>.groups[G];
  const __m256i window_lo =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + g.lo_anchor));
  const __m256i lo = _mm256_permutevar8x32_epi32(
      window_lo, _mm256_load_si256(reinterpret_cast<const __m256i*>(g.perm_lo)));
  const __m256i shift = _mm256_load_si256(reinterpret_cast<const __m256i*>(g.shift));
  __m256i value = _mm256_srlv_epi64(lo, shift);
  if constexpr (g.straddles) {
    const __m256i window_hi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + g.hi_anchor));
    const __m256i hi = _mm256_permutevar8x32_epi32(
        window_hi, _mm256_load_si256(reinterpret_cast<const __m256i*>(g.perm_hi)));
    const __m256i straddle =
        _mm256_load_si256(reinterpret_cast<const __m256i*>(g.straddle));
    const __m256i hi_part =
        _mm256_sllv_epi64(hi, _mm256_sub_epi64(_mm256_set1_epi64x(kWordBits), shift));
    value = _mm256_or_si256(value, _mm256_and_si256(hi_part, straddle));
  }
  return _mm256_and_si256(value, value_mask);
}

template <uint32_t BITS, size_t... G>
__attribute__((target("avx2"))) inline uint64_t SumChunkV2Impl(const uint64_t* words,
                                                               std::index_sequence<G...>) {
  const __m256i value_mask = _mm256_set1_epi64x(static_cast<long long>(LowMask(BITS)));
  __m256i acc = _mm256_setzero_si256();
  ((acc = _mm256_add_epi64(acc, DecodeGroupV2<BITS, G>(words, value_mask))), ...);
  const __m128i folded =
      _mm_add_epi64(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(folded)) +
         static_cast<uint64_t>(_mm_extract_epi64(folded, 1));
}

template <uint32_t BITS, size_t... G>
__attribute__((target("avx2"))) inline void UnpackChunkV2Impl(const uint64_t* words,
                                                              uint64_t* out,
                                                              std::index_sequence<G...>) {
  const __m256i value_mask = _mm256_set1_epi64x(static_cast<long long>(LowMask(BITS)));
  ((_mm256_storeu_si256(reinterpret_cast<__m256i*>(out + 4 * G),
                        DecodeGroupV2<BITS, G>(words, value_mask))),
   ...);
}

// Sum of the 64 elements of the chunk starting at `words`.
template <uint32_t BITS>
__attribute__((target("avx2"))) inline uint64_t SumChunkV2(const uint64_t* words) {
  return SumChunkV2Impl<BITS>(words, std::make_index_sequence<kChunkElems / 4>{});
}

// Decodes the 64 elements of the chunk starting at `words` into out[0..63].
// `out` may be unaligned (the UnpackRange seam writes mid-buffer).
template <uint32_t BITS>
__attribute__((target("avx2"))) inline void UnpackChunkV2(const uint64_t* words, uint64_t* out) {
  UnpackChunkV2Impl<BITS>(words, out, std::make_index_sequence<kChunkElems / 4>{});
}

// ---------------------------------------------------------------------------
// v2 predicate kernels (pushdown scans)
// ---------------------------------------------------------------------------
//
// The same DecodeGroupV2 network feeds a 64-bit signed compare per group
// instead of an add. Safe because normalization (smart/predicate.h)
// guarantees bound <= 2^63 - 1 for every v2 width (<= 63 bits), so both
// operands of the signed compare are non-negative. IS_EQ selects the
// compare flavour at compile time; `invert` arrives as a pre-broadcast
// 0 / ~0 mask XORed into the compare result.

// 64-bit match mask of the chunk at `words`: bit k = 1 iff element k
// matches. Lane sign bits of the compare result are harvested four at a
// time via movemask over the double view.
template <uint32_t BITS, bool IS_EQ, size_t... G>
__attribute__((target("avx2"))) inline uint64_t MatchMaskChunkV2Impl(
    const uint64_t* words, uint64_t bound, uint64_t invert_mask, std::index_sequence<G...>) {
  const __m256i value_mask = _mm256_set1_epi64x(static_cast<long long>(LowMask(BITS)));
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bound));
  uint64_t mask = 0;
  ((mask |= static_cast<uint64_t>(static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(
                IS_EQ ? _mm256_cmpeq_epi64(DecodeGroupV2<BITS, G>(words, value_mask), b)
                      : _mm256_cmpgt_epi64(b, DecodeGroupV2<BITS, G>(words, value_mask))))))
            << (4 * G)),
   ...);
  return mask ^ invert_mask;
}

template <uint32_t BITS>
__attribute__((target("avx2"))) inline uint64_t MatchMaskChunkV2(const uint64_t* words,
                                                                 uint64_t bound, bool is_eq,
                                                                 bool invert) {
  const uint64_t invert_mask = invert ? ~uint64_t{0} : uint64_t{0};
  if (is_eq) {
    return MatchMaskChunkV2Impl<BITS, true>(words, bound, invert_mask,
                                            std::make_index_sequence<kChunkElems / 4>{});
  }
  return MatchMaskChunkV2Impl<BITS, false>(words, bound, invert_mask,
                                           std::make_index_sequence<kChunkElems / 4>{});
}

// Sum of the matching elements of the chunk at `words`: the compare result
// is a full-lane 0 / ~0 mask, so `v & (cmp ^ inv)` zeroes non-matching
// lanes before they enter the accumulator. The per-group step is a named
// function (not a lambda) because lambdas do not inherit the enclosing
// function's target("avx2") attribute.
template <uint32_t BITS, bool IS_EQ, size_t G>
__attribute__((target("avx2"))) inline __m256i FilteredGroupV2(const uint64_t* words,
                                                               __m256i value_mask, __m256i b,
                                                               __m256i invert_lanes) {
  const __m256i v = DecodeGroupV2<BITS, G>(words, value_mask);
  const __m256i cmp = IS_EQ ? _mm256_cmpeq_epi64(v, b) : _mm256_cmpgt_epi64(b, v);
  return _mm256_and_si256(v, _mm256_xor_si256(cmp, invert_lanes));
}

template <uint32_t BITS, bool IS_EQ, size_t... G>
__attribute__((target("avx2"))) inline uint64_t FilteredSumChunkV2Impl(
    const uint64_t* words, uint64_t bound, __m256i invert_lanes, std::index_sequence<G...>) {
  const __m256i value_mask = _mm256_set1_epi64x(static_cast<long long>(LowMask(BITS)));
  const __m256i b = _mm256_set1_epi64x(static_cast<long long>(bound));
  __m256i acc = _mm256_setzero_si256();
  ((acc = _mm256_add_epi64(
        acc, FilteredGroupV2<BITS, IS_EQ, G>(words, value_mask, b, invert_lanes))),
   ...);
  const __m128i folded =
      _mm_add_epi64(_mm256_castsi256_si128(acc), _mm256_extracti128_si256(acc, 1));
  return static_cast<uint64_t>(_mm_cvtsi128_si64(folded)) +
         static_cast<uint64_t>(_mm_extract_epi64(folded, 1));
}

template <uint32_t BITS>
__attribute__((target("avx2"))) inline uint64_t FilteredSumChunkV2(const uint64_t* words,
                                                                   uint64_t bound, bool is_eq,
                                                                   bool invert) {
  const __m256i invert_lanes = _mm256_set1_epi64x(invert ? -1LL : 0LL);
  if (is_eq) {
    return FilteredSumChunkV2Impl<BITS, true>(words, bound, invert_lanes,
                                              std::make_index_sequence<kChunkElems / 4>{});
  }
  return FilteredSumChunkV2Impl<BITS, false>(words, bound, invert_lanes,
                                             std::make_index_sequence<kChunkElems / 4>{});
}

}  // namespace sa::smart::avx2

#endif  // x86-64 && GNU-compatible compiler
#endif  // SA_SMART_CHUNK_KERNELS_AVX2_H_
