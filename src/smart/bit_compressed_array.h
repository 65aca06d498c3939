// BitCompressedArray<BITS>: the 64 concrete smart-array subclasses
// (paper §4.2, Functions 1-3).
//
// Elements are logically grouped into chunks of 64; a chunk of BITS-wide
// elements occupies exactly BITS 64-bit words, so the first and last element
// of every chunk are word-aligned for every width 1..64 and one codec serves
// them all. BITS is a template parameter so the per-element arithmetic
// (masks, shifts, word indices) folds at compile time; BITS == 32 and
// BITS == 64 collapse to direct native loads/stores via `if constexpr`,
// which is the paper's "specialized sub-classes" (Fig. 9).
//
// The static *Impl functions are the codec itself, shared by the virtual
// methods here, the typed iterators, and, through the per-width table
// CodecFor (kernel_table.h), the C-ABI entry points and the encodings (so
// foreign callers run the exact same logic without virtual dispatch).
#ifndef SA_SMART_BIT_COMPRESSED_ARRAY_H_
#define SA_SMART_BIT_COMPRESSED_ARRAY_H_

#include <algorithm>
#include <atomic>
#include <bit>
#include <type_traits>
#include <utility>

#include "common/bits.h"
#include "common/macros.h"
#include "obs/telemetry.h"
#include "smart/chunk_kernels_avx2.h"
#include "smart/chunk_kernels_avx512.h"
#include "smart/kernel_table.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace sa::smart {

template <uint32_t BITS>
class BitCompressedArray final : public SmartArray {
  static_assert(BITS >= 1 && BITS <= 64, "element width must be 1..64 bits");

 public:
  BitCompressedArray(uint64_t length, PlacementSpec placement,
                     const platform::Topology& topology)
      : SmartArray(length, placement, BITS, topology) {}

  static constexpr uint64_t kMask = LowMask(BITS);
  static constexpr uint64_t kWordsPerChunk = WordsPerChunk(BITS);

#ifdef SA_MUTATION_CANARY
  // CI mutation smoke (-DSA_MUTATION_CANARY=ON): deliberately drop the top
  // bit of every value stored through the generic packed path. A build with
  // this flag MUST fail the property testkit — if it ever passes, the
  // testkit has lost its teeth. Never enabled in normal builds.
  static constexpr uint64_t kStoreMask = BITS > 1 ? (kMask >> 1) : kMask;
#else
  static constexpr uint64_t kStoreMask = kMask;
#endif

  // ---- Function 1: get(index, replica) ----
  static uint64_t GetImpl(const uint64_t* replica, uint64_t index) {
    if constexpr (BITS == 64) {
      return replica[index];
    } else if constexpr (BITS == 32) {
      return reinterpret_cast<const uint32_t*>(replica)[index];
    } else {
      const uint64_t chunk = index / kChunkElems;
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      const uint64_t bit_in_chunk = (index % kChunkElems) * BITS;
      const uint32_t bit_in_word = static_cast<uint32_t>(bit_in_chunk % kWordBits);
      const uint64_t word = chunk_start + bit_in_chunk / kWordBits;
      if (bit_in_word + BITS <= kWordBits) {
        return (replica[word] >> bit_in_word) & kMask;
      }
      // The element straddles two words; bit_in_word > 0 here, so the
      // (64 - bit_in_word) shift is well defined.
      return ((replica[word] >> bit_in_word) |
              (replica[word + 1] << (kWordBits - bit_in_word))) &
             kMask;
    }
  }

  // Branch-free Get for random gathers. GetImpl branches on whether the
  // element straddles two words, which a random index mispredicts about
  // BITS/64 of the time; this always reads the element's word and the next
  // one. Chunk c's words follow chunk c-1's, so element i starts at bit
  // i * BITS of one bit stream. The caller must own a spare chunk after the
  // last element it reads (arrays allocated one chunk longer than used).
  static uint64_t GetPaddedImpl(const uint64_t* replica, uint64_t index) {
    if constexpr (BITS == 64 || BITS == 32) {
      return GetImpl(replica, index);
    } else {
      const uint64_t bit = index * BITS;
      const uint64_t word = bit / kWordBits;
      const uint32_t shift = static_cast<uint32_t>(bit % kWordBits);
      // (x << 1) << (63 - shift) is x << (64 - shift), and 0 when shift is 0.
      return ((replica[word] >> shift) | ((replica[word + 1] << 1) << (kWordBits - 1 - shift))) &
             kMask;
    }
  }

  // ---- Function 2 (per replica): init(index, value) ----
  static void InitImpl(uint64_t* replica, uint64_t index, uint64_t value) {
    SA_DCHECK((value & ~kMask) == 0);
    if constexpr (BITS == 64) {
      replica[index] = value;
    } else if constexpr (BITS == 32) {
      reinterpret_cast<uint32_t*>(replica)[index] = static_cast<uint32_t>(value);
    } else {
      const uint64_t chunk = index / kChunkElems;
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      const uint64_t bit_in_chunk = (index % kChunkElems) * BITS;
      const uint32_t bit_in_word = static_cast<uint32_t>(bit_in_chunk % kWordBits);
      const uint64_t word = chunk_start + bit_in_chunk / kWordBits;
      const uint64_t word2 = chunk_start + (bit_in_chunk + BITS) / kWordBits;
      const uint64_t stored = value & kStoreMask;
      replica[word] = (replica[word] & ~(kMask << bit_in_word)) | (stored << bit_in_word);
      if (word != word2 && bit_in_word + BITS > kWordBits) {
        // Spill the high part into the next word (bit_in_word > 0 here).
        replica[word2] = (replica[word2] & ~(kMask >> (kWordBits - bit_in_word))) |
                         (stored >> (kWordBits - bit_in_word));
      }
    }
  }

  // Thread-safe per-word compare-and-swap variant of InitImpl.
  static void InitAtomicImpl(uint64_t* replica, uint64_t index, uint64_t value) {
    SA_DCHECK((value & ~kMask) == 0);
    if constexpr (BITS == 64) {
      reinterpret_cast<std::atomic<uint64_t>*>(replica)[index].store(value,
                                                                     std::memory_order_relaxed);
    } else if constexpr (BITS == 32) {
      reinterpret_cast<std::atomic<uint32_t>*>(replica)[index].store(
          static_cast<uint32_t>(value), std::memory_order_relaxed);
    } else {
      const uint64_t chunk = index / kChunkElems;
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      const uint64_t bit_in_chunk = (index % kChunkElems) * BITS;
      const uint32_t bit_in_word = static_cast<uint32_t>(bit_in_chunk % kWordBits);
      const uint64_t word = chunk_start + bit_in_chunk / kWordBits;
      const uint64_t word2 = chunk_start + (bit_in_chunk + BITS) / kWordBits;
      CasMerge(&replica[word], kMask << bit_in_word, value << bit_in_word);
      if (word != word2 && bit_in_word + BITS > kWordBits) {
        CasMerge(&replica[word2], kMask >> (kWordBits - bit_in_word),
                 value >> (kWordBits - bit_in_word));
      }
    }
  }

  // ---- Function 3: unpack(chunk, replica, out) ----
  //
  // The paper's loop form, kept as the reference that tests and
  // micro_ablation time; decoding callers use CodecFor(BITS).unpack, the
  // chunk decoder of the measured kernel kind.
  static void UnpackImpl(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    if constexpr (BITS == 64) {
      const uint64_t* src = replica + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        out[i] = src[i];
      }
    } else if constexpr (BITS == 32) {
      const uint32_t* src = reinterpret_cast<const uint32_t*>(replica) + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        out[i] = src[i];
      }
    } else {
      const uint64_t chunk_start = chunk * kWordsPerChunk;
      uint64_t word = chunk_start;
      uint64_t value = replica[word];
      uint32_t bit_in_word = 0;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        if (bit_in_word + BITS < kWordBits) {
          out[i] = (value >> bit_in_word) & kMask;
          bit_in_word += BITS;
        } else if (bit_in_word + BITS == kWordBits) {
          out[i] = (value >> bit_in_word) & kMask;
          bit_in_word = 0;
          ++word;
          // The final element of the chunk ends exactly at the last word;
          // do not read past it.
          if (i + 1 < kChunkElems) {
            value = replica[word];
          }
        } else {
          const uint64_t next_word_value = replica[word + 1];
          out[i] = kMask & ((value >> bit_in_word) | (next_word_value << (kWordBits - bit_in_word)));
          bit_in_word = (bit_in_word + BITS) - kWordBits;
          ++word;
          value = next_word_value;
        }
      }
    }
  }

  // ---- Inverse of Function 3: pack(chunk, replica, in) ----
  //
  // Encodes in[0..63] into the chunk's BITS words as a word-centric shift
  // network: every output word is the OR of the (compile-time constant)
  // shifted contributions of the elements whose bit ranges intersect it,
  // so a chunk encodes in ~64 + BITS shift/or terms with no read-modify-
  // write and no data-dependent control flow. This is the write-side twin
  // of the v2 unpack network; it is what lets Restructure repack without
  // per-element InitImpl masking (see smart/restructure.cc).
  static void PackChunkImpl(uint64_t* replica, uint64_t chunk, const uint64_t* in) {
    if constexpr (BITS == 64) {
      uint64_t* dst = replica + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        dst[i] = in[i];
      }
    } else if constexpr (BITS == 32) {
      uint32_t* dst = reinterpret_cast<uint32_t*>(replica) + chunk * kChunkElems;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        dst[i] = static_cast<uint32_t>(in[i]);
      }
    } else {
      uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... W>(std::index_sequence<W...>) {
        ((words[W] = PackWord<W>(in)), ...);
      }(std::make_index_sequence<kWordsPerChunk>{});
    }
  }

  // Branch-free unpack: the §4.2 note that "the main loop of the function
  // can be manually or automatically unrolled to avoid the branches and
  // permit compile-time derivation of the constants used", made explicit.
  // Every element's word index, shift, and straddle-or-not are compile-time
  // constants of (BITS, i), so the body is 64 independent shift/mask
  // expressions with no data-dependent control flow (micro_ablation
  // measures this against the loop form of UnpackImpl).
  static void UnpackUnrolledImpl(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    if constexpr (BITS == 64 || BITS == 32) {
      UnpackImpl(replica, chunk, out);
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((out[I] = ChunkElement<I>(words)), ...);
      }(std::make_index_sequence<kChunkElems>{});
    }
  }

  // Element `I` of the chunk whose words start at `words`: the word index,
  // shift, and straddle-or-not are compile-time constants of (BITS, I), so
  // this is one or two shifts and a mask with no data-dependent control
  // flow. All reads stay inside the chunk's kWordsPerChunk words (a
  // straddling element's high bits are by definition still in the chunk).
  template <uint32_t I>
  static uint64_t ChunkElement(const uint64_t* words) {
    static_assert(I < kChunkElems);
    constexpr uint32_t kBitInChunk = I * BITS;
    constexpr uint32_t kWord = kBitInChunk / kWordBits;
    constexpr uint32_t kBitInWord = kBitInChunk % kWordBits;
    if constexpr (kBitInWord + BITS <= kWordBits) {
      return (words[kWord] >> kBitInWord) & kMask;
    } else {
      return ((words[kWord] >> kBitInWord) | (words[kWord + 1] << (kWordBits - kBitInWord))) &
             kMask;
    }
  }

  // ---- Chunk-granular aggregation kernels ----
  //
  // The §5.1 aggregation result (compressed scans win under a bandwidth
  // bottleneck) depends on the decode being nearly free. These kernels
  // aggregate a packed chunk straight from its BITS words — no materialized
  // out[64] buffer, no per-element buffered-chunk branch, no div/mod — and
  // are the layer ParallelSum/ParallelSum2, the graph property scans, and
  // the saArraySumRange entry point all sit on, through the range walkers
  // CodecFor(BITS) binds (smart/kernel_table.h).

  // Sum of the 64 elements of `chunk`. Widths with native layouts collapse
  // to popcount (1) or native-integer loops (8/16/32/64); the generic path
  // is 64 straight-line shift/mask adds over four accumulators.
  static uint64_t SumChunkImpl(const uint64_t* replica, uint64_t chunk) {
    if constexpr (BITS == 1) {
      return static_cast<uint64_t>(std::popcount(replica[chunk]));
    } else if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      uint64_t sum = 0;
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        sum += src[i];
      }
      return sum;
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      uint64_t s0 = 0;
      uint64_t s1 = 0;
      uint64_t s2 = 0;
      uint64_t s3 = 0;
      [&]<size_t... G>(std::index_sequence<G...>) {
        ((s0 += ChunkElement<G * 4 + 0>(words), s1 += ChunkElement<G * 4 + 1>(words),
          s2 += ChunkElement<G * 4 + 2>(words), s3 += ChunkElement<G * 4 + 3>(words)),
         ...);
      }(std::make_index_sequence<kChunkElems / 4>{});
      return (s0 + s1) + (s2 + s3);
    }
  }

  // Sum of elements [lo, hi) of `chunk` (0 <= lo <= hi <= 64) — the masked
  // head/tail of a ragged range. The generic path keeps the straight-line
  // decode and masks each term instead of branching.
  static uint64_t SumChunkSliceImpl(const uint64_t* replica, uint64_t chunk, uint32_t lo,
                                    uint32_t hi) {
    SA_DCHECK(lo <= hi && hi <= kChunkElems);
    if (lo == hi) {
      return 0;
    }
    if constexpr (BITS == 1) {
      return static_cast<uint64_t>(std::popcount((replica[chunk] >> lo) & LowMask(hi - lo)));
    } else if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      uint64_t sum = 0;
      for (uint32_t i = lo; i < hi; ++i) {
        sum += src[i];
      }
      return sum;
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      uint64_t sum = 0;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((sum += I >= lo && I < hi ? ChunkElement<I>(words) : 0), ...);
      }(std::make_index_sequence<kChunkElems>{});
      return sum;
    }
  }

  // Sum of elements [begin, end) using the scalar block kernels.
  static uint64_t SumRangeImpl(const uint64_t* replica, uint64_t begin, uint64_t end) {
    return SumRangeWith<BlockKernels>(replica, begin, end);
  }

  // Fused two-array element-wise sum over [begin, end): sum of
  // r1[i] + r2[i], chunk-interleaved so both streams stay hot.
  static uint64_t Sum2RangeImpl(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                                uint64_t end) {
    return Sum2RangeWith<BlockKernels>(r1, r2, begin, end);
  }

  // ---- Predicate chunk kernels (pushdown scans) ----
  //
  // A scan's unit of work is the 64-bit *match mask* of one chunk: bit k is
  // set iff element k satisfies the normalized predicate (v < bound or
  // v == bound, optionally complemented). CountIf is a popcount of the
  // mask, SelectIf emits it into a selection bitmap, FilteredSum keeps the
  // matching values in the accumulator. Ragged range edges slice the full
  // chunk mask — reading the whole chunk is always in-bounds because
  // allocation rounds up to whole chunks.

  static uint64_t MatchMaskChunkImpl(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                     bool is_eq, bool invert) {
    uint64_t mask = 0;
    if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        const uint64_t v = src[i];
        mask |= static_cast<uint64_t>(is_eq ? v == bound : v < bound) << i;
      }
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((mask |= static_cast<uint64_t>(is_eq ? ChunkElement<I>(words) == bound
                                              : ChunkElement<I>(words) < bound)
                  << I),
         ...);
      }(std::make_index_sequence<kChunkElems>{});
    }
    return invert ? ~mask : mask;
  }

  static uint64_t FilteredSumChunkImpl(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                       bool is_eq, bool invert) {
    const uint64_t inv = invert ? ~uint64_t{0} : uint64_t{0};
    uint64_t sum = 0;
    if constexpr (BITS == 8 || BITS == 16 || BITS == 32 || BITS == 64) {
      const auto* src = reinterpret_cast<const NativeType*>(replica + chunk * kWordsPerChunk);
      for (uint32_t i = 0; i < kChunkElems; ++i) {
        const uint64_t v = src[i];
        const uint64_t hit = (uint64_t{0} - static_cast<uint64_t>(is_eq ? v == bound : v < bound)) ^ inv;
        sum += v & hit;
      }
    } else {
      const uint64_t* words = replica + chunk * kWordsPerChunk;
      [&]<size_t... I>(std::index_sequence<I...>) {
        ((sum += [&] {
           const uint64_t v = ChunkElement<I>(words);
           const uint64_t hit =
               (uint64_t{0} - static_cast<uint64_t>(is_eq ? v == bound : v < bound)) ^ inv;
           return v & hit;
         }()),
         ...);
      }(std::make_index_sequence<kChunkElems>{});
    }
    return sum;
  }

  // ---- Kernel kinds ----
  //
  // A kind is one set of whole-chunk loops over chunks [first, first + n)
  // plus a chunk decoder; the range walkers below are written once over a
  // kind, so every kind shares the ragged head/tail logic. Ops(kind) is the
  // codec table's candidate entry for one kind at this width.

#if defined(SA_HAVE_AVX2_KERNELS)
  static constexpr bool kHasV2 = avx2::HasV2Width(BITS);
#else
  static constexpr bool kHasV2 = false;
#endif
#if defined(SA_HAVE_AVX512_KERNELS)
  static constexpr bool kHasAvx512 = avx512::HasLaneWidth(BITS);
#else
  static constexpr bool kHasAvx512 = false;
#endif

  // The entry of `kind` at this width, or the block entry where the kind
  // has no kernels here: the codec table's candidates. Callers outside it
  // use CandidateKernels (kernel_table.h), which also knows whether the host
  // can run the kind.
  static CodecOps Ops(KernelKind kind) {
#if defined(SA_HAVE_AVX2_KERNELS)
    if constexpr (kHasV2) {
      if (kind == KernelKind::kAvx2V2) {
        return OpsOf<PerChunkKernels<&SumChunkV2, &UnpackChunkV2, &MatchMaskChunkV2,
                                     &FilteredSumChunkV2>>(kind);
      }
    }
#endif
#if defined(SA_HAVE_AVX512_KERNELS)
    if constexpr (kHasAvx512) {
      if (kind == KernelKind::kAvx512) {
        return OpsOf<avx512::Kernels<BITS>>(kind);
      }
    }
#endif
    return OpsOf<BlockKernels>(KernelKind::kBlock);
  }

  // ---- Chunk-streaming decode seam (UnpackRange / PackRange) ----
  //
  // The single bulk decode/encode path: whole chunks stream through the
  // selected chunk decoder (CodecFor(BITS).unpack) or the pack network,
  // ragged head/tail elements through the scalar codec. RangeUnpack (hence
  // MapRange, the graph kernels and saArrayUnpackRange) decodes through
  // UnpackRange; smart::PackRange (parallel_ops.h), the one checked bulk
  // writer, and the encoding builds' payloads encode through PackRange.

  // Decodes elements [begin, end) into out[0 .. end-begin).
  static void UnpackRange(const uint64_t* replica, uint64_t begin, uint64_t end,
                          uint64_t* out) {
    SA_DCHECK(begin <= end);
    SA_OBS_COUNT(kUnpackRangeCalls);
    SA_OBS_COUNT_N(kUnpackRangeBytes, (end - begin) * sizeof(uint64_t));
    const auto unpack = CodecFor(BITS).unpack;
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    for (; i < head_end; ++i) {
      *out++ = GetImpl(replica, i);
    }
    for (; i + kChunkElems <= end; i += kChunkElems, out += kChunkElems) {
      unpack(replica, i / kChunkElems, out);
    }
    for (; i < end; ++i) {
      *out++ = GetImpl(replica, i);
    }
  }

  // Encodes in[0 .. end-begin) into elements [begin, end). Values must fit
  // the width: checked here in debug builds only, always by
  // smart::PackRange. Not thread-safe against concurrent writers of the
  // same words — ranges handed to parallel workers must be chunk-aligned.
  static void PackRange(uint64_t* replica, uint64_t begin, uint64_t end, const uint64_t* in) {
    SA_DCHECK(begin <= end);
    SA_OBS_COUNT(kPackRangeCalls);
    SA_OBS_COUNT_N(kPackRangeBytes, (end - begin) * sizeof(uint64_t));
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    for (; i < head_end; ++i) {
      SA_DCHECK((*in & ~kMask) == 0);
      InitImpl(replica, i, *in++);
    }
    for (; i + kChunkElems <= end; i += kChunkElems, in += kChunkElems) {
      PackChunkImpl(replica, i / kChunkElems, in);
    }
    for (; i < end; ++i) {
      SA_DCHECK((*in & ~kMask) == 0);
      InitImpl(replica, i, *in++);
    }
  }

  // Applies fn(value, index) over [begin, end): whole chunks decode through
  // the selected chunk decoder, ragged head/tail elements through GetImpl.
  // The static counterpart of smart/map_api.h's MapRange, for callers that
  // already hold a compile-time width.
  template <typename Fn>
  static void ForEachRangeImpl(const uint64_t* replica, uint64_t begin, uint64_t end, Fn&& fn) {
    SA_DCHECK(begin <= end);
    uint64_t i = begin;
    const uint64_t head_end = std::min(end, AlignUp(begin, kChunkElems));
    for (; i < head_end; ++i) {
      fn(GetImpl(replica, i), i);
    }
    uint64_t buffer[kChunkElems];
    const auto unpack = CodecFor(BITS).unpack;
    for (; i + kChunkElems <= end; i += kChunkElems) {
      unpack(replica, i / kChunkElems, buffer);
      for (uint32_t j = 0; j < kChunkElems; ++j) {
        fn(buffer[j], i + j);
      }
    }
    for (; i < end; ++i) {
      fn(GetImpl(replica, i), i);
    }
  }

  // ---- Virtual interface (Fig. 9) ----
  //
  // Both write paths widen the chunk's zone *before* any replica word
  // changes, so a scan that classifies the chunk after the data write also
  // sees the widened zone (scan-vs-write linearization, DESIGN.md §4j).
  void Init(uint64_t index, uint64_t value) override {
    SA_DCHECK(index < length_);
    SA_CHECK_MSG((value & ~kMask) == 0, "value exceeds the array's bit width");
    WidenZone(index, value);
    for (uint64_t* replica : replica_ptrs_) {
      InitImpl(replica, index, value);
    }
  }

  void InitAtomic(uint64_t index, uint64_t value) override {
    SA_DCHECK(index < length_);
    SA_CHECK_MSG((value & ~kMask) == 0, "value exceeds the array's bit width");
    WidenZone(index, value);
    for (uint64_t* replica : replica_ptrs_) {
      InitAtomicImpl(replica, index, value);
    }
  }

  uint64_t Get(uint64_t index, const uint64_t* replica) const override {
    SA_DCHECK(index < length_);
    return GetImpl(replica, index);
  }

  void Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const override {
    SA_DCHECK(chunk < num_chunks());
    CodecFor(BITS).unpack(replica, chunk, out);
  }

 private:
  // Element type of the widths whose packed layout coincides with a native
  // integer array (8/16/32/64; little-endian, like the 32-bit reinterpret
  // in GetImpl).
  using NativeType =
      std::conditional_t<BITS == 8, uint8_t,
                         std::conditional_t<BITS == 16, uint16_t,
                                            std::conditional_t<BITS == 32, uint32_t, uint64_t>>>;

  // A kernel kind built from one-chunk kernels (replica, chunk, ...): the
  // block and v2 kinds, whose whole-chunk loops make one chunk-kernel call
  // per chunk.
  template <auto SUM, auto UNPACK, auto MASK, auto FILTERED_SUM>
  struct PerChunkKernels {
    static uint64_t Sum(const uint64_t* replica, uint64_t first, uint64_t n) {
      uint64_t sum = 0;
      for (uint64_t chunk = first; chunk < first + n; ++chunk) {
        sum += SUM(replica, chunk);
      }
      return sum;
    }
    static uint64_t Sum2(const uint64_t* r1, const uint64_t* r2, uint64_t first, uint64_t n) {
      uint64_t sum = 0;
      for (uint64_t chunk = first; chunk < first + n; ++chunk) {
        sum += SUM(r1, chunk) + SUM(r2, chunk);
      }
      return sum;
    }
    static void Unpack(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
      UNPACK(replica, chunk, out);
    }
    template <typename Sink>
    static void Masks(const uint64_t* replica, uint64_t first, uint64_t n, uint64_t bound,
                      bool is_eq, bool invert, Sink&& sink) {
      for (uint64_t chunk = first; chunk < first + n; ++chunk) {
        sink(MASK(replica, chunk, bound, is_eq, invert));
      }
    }
    static uint64_t FilteredSum(const uint64_t* replica, uint64_t first, uint64_t n,
                                uint64_t bound, bool is_eq, bool invert) {
      uint64_t sum = 0;
      for (uint64_t chunk = first; chunk < first + n; ++chunk) {
        sum += FILTERED_SUM(replica, chunk, bound, is_eq, invert);
      }
      return sum;
    }
  };

  using BlockKernels = PerChunkKernels<&SumChunkImpl, &UnpackUnrolledImpl, &MatchMaskChunkImpl,
                                       &FilteredSumChunkImpl>;

#if defined(SA_HAVE_AVX2_KERNELS)
  // v2 shift-network chunk kernels in (replica, chunk) form; only
  // instantiated for widths with a v2 network (see Ops).
  static uint64_t SumChunkV2(const uint64_t* replica, uint64_t chunk) {
    return avx2::SumChunkV2<BITS>(replica + chunk * kWordsPerChunk);
  }
  static void UnpackChunkV2(const uint64_t* replica, uint64_t chunk, uint64_t* out) {
    avx2::UnpackChunkV2<BITS>(replica + chunk * kWordsPerChunk, out);
  }
  static uint64_t MatchMaskChunkV2(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                   bool is_eq, bool invert) {
    return avx2::MatchMaskChunkV2<BITS>(replica + chunk * kWordsPerChunk, bound, is_eq, invert);
  }
  static uint64_t FilteredSumChunkV2(const uint64_t* replica, uint64_t chunk, uint64_t bound,
                                     bool is_eq, bool invert) {
    return avx2::FilteredSumChunkV2<BITS>(replica + chunk * kWordsPerChunk, bound, is_eq,
                                          invert);
  }
#endif

  template <typename K>
  static CodecOps OpsOf(KernelKind kind) {
    return {.get = &GetImpl,
            .init = &InitImpl,
            .init_atomic = &InitAtomicImpl,
            .unpack_range = &UnpackRange,
            .pack_range = &PackRange,
            .sum_range = &SumRangeWith<K>,
            .sum2_range = &Sum2RangeWith<K>,
            .unpack = &K::Unpack,
            .count_if_range = &CountIfWith<K>,
            .select_if_range = &SelectIfWith<K>,
            .filtered_sum_range = &FilteredSumWith<K>,
            .kind = kind,
            .predicate_kind = kind};
  }

  // Splits [begin, end) into a ragged head, a run of whole chunks and a
  // ragged tail: ragged(chunk, lo, hi) gets elements [lo, hi) of one chunk
  // (never the whole chunk), whole(first, n) gets chunks [first, first + n)
  // with n >= 1. Every range walker below is one call of this.
  template <typename Ragged, typename Whole>
  static void SplitRange(uint64_t begin, uint64_t end, Ragged&& ragged, Whole&& whole) {
    SA_DCHECK(begin <= end);
    uint64_t chunk = begin / kChunkElems;
    const auto head = static_cast<uint32_t>(begin % kChunkElems);
    if (head != 0 && begin < end) {
      const auto hi =
          static_cast<uint32_t>(std::min<uint64_t>(kChunkElems, head + (end - begin)));
      ragged(chunk++, head, hi);
      begin += hi - head;
    }
    const uint64_t n = (end - begin) / kChunkElems;
    if (n != 0) {
      whole(chunk, n);
    }
    const auto tail = static_cast<uint32_t>(end - begin - n * kChunkElems);
    if (tail != 0) {
      ragged(chunk + n, 0, tail);
    }
  }

  template <typename K>
  static uint64_t SumRangeWith(const uint64_t* replica, uint64_t begin, uint64_t end) {
    uint64_t sum = 0;
    SplitRange(
        begin, end,
        [&](uint64_t chunk, uint32_t lo, uint32_t hi) {
          sum += SumChunkSliceImpl(replica, chunk, lo, hi);
        },
        [&](uint64_t first, uint64_t n) { sum += K::Sum(replica, first, n); });
    return sum;
  }

  // Fused two-array walker: both streams advance chunk-in-lockstep.
  template <typename K>
  static uint64_t Sum2RangeWith(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                                uint64_t end) {
    uint64_t sum = 0;
    SplitRange(
        begin, end,
        [&](uint64_t chunk, uint32_t lo, uint32_t hi) {
          sum += SumChunkSliceImpl(r1, chunk, lo, hi) + SumChunkSliceImpl(r2, chunk, lo, hi);
        },
        [&](uint64_t first, uint64_t n) { sum += K::Sum2(r1, r2, first, n); });
    return sum;
  }

  // ---- Predicate range walkers ----
  //
  // Bound once per range by the codec table (CodecOps::count_if_range and
  // friends), so a scan pays one indirect call per range rather than one per
  // chunk: at AVX-512 speed that call would cost more than the decode.
  // Ragged edges slice K's full-chunk mask; trivial predicates (kNone/kAll
  // after normalization) answer in closed form.

  // Calls sink(mask, len) for each piece of [begin, end) in order: bit j of
  // `mask` says whether element (piece start + j) matches; bits >= len are
  // clear.
  template <typename K, typename Sink>
  static void ForEachMatchMask(const uint64_t* replica, uint64_t begin, uint64_t end,
                               ScanPredicate p, Sink&& sink) {
    const bool is_eq = p.kind == ScanPredicate::Kind::kEq;
    SplitRange(
        begin, end,
        [&](uint64_t chunk, uint32_t lo, uint32_t hi) {
          K::Masks(replica, chunk, 1, p.bound, is_eq, p.invert,
                   [&](uint64_t m) { sink((m >> lo) & SliceMask(hi - lo), hi - lo); });
        },
        [&](uint64_t first, uint64_t n) {
          K::Masks(replica, first, n, p.bound, is_eq, p.invert,
                   [&](uint64_t m) { sink(m, kChunkElems); });
        });
  }

  template <typename K>
  static uint64_t CountIfWith(const uint64_t* replica, uint64_t begin, uint64_t end,
                              ScanPredicate p) {
    SA_DCHECK(begin <= end);
    if (begin >= end || p.kind == ScanPredicate::Kind::kNone) {
      return 0;
    }
    if (p.kind == ScanPredicate::Kind::kAll) {
      return end - begin;
    }
    uint64_t count = 0;
    ForEachMatchMask<K>(replica, begin, end, p, [&](uint64_t m, uint32_t) {
      count += static_cast<uint64_t>(std::popcount(m));
    });
    return count;
  }

  template <typename K>
  static uint64_t SelectIfWith(const uint64_t* replica, uint64_t begin, uint64_t end,
                               ScanPredicate p, uint64_t* bitmap, uint64_t bit_offset) {
    SA_DCHECK(begin <= end);
    if (begin >= end || p.kind == ScanPredicate::Kind::kNone) {
      return 0;
    }
    if (p.kind == ScanPredicate::Kind::kAll) {
      SetBitRange(bitmap, bit_offset, bit_offset + (end - begin));
      return end - begin;
    }
    uint64_t count = 0;
    uint64_t pos = bit_offset;
    ForEachMatchMask<K>(replica, begin, end, p, [&](uint64_t m, uint32_t len) {
      EmitMaskBits(bitmap, pos, m, len);
      pos += len;
      count += static_cast<uint64_t>(std::popcount(m));
    });
    return count;
  }

  // Whole chunks through K's filtered-sum loop; ragged edges through GetImpl.
  template <typename K>
  static uint64_t FilteredSumWith(const uint64_t* replica, uint64_t begin, uint64_t end,
                                  ScanPredicate p) {
    SA_DCHECK(begin <= end);
    if (begin >= end || p.kind == ScanPredicate::Kind::kNone) {
      return 0;
    }
    if (p.kind == ScanPredicate::Kind::kAll) {
      return SumRangeWith<K>(replica, begin, end);
    }
    const bool is_eq = p.kind == ScanPredicate::Kind::kEq;
    uint64_t sum = 0;
    SplitRange(
        begin, end,
        [&](uint64_t chunk, uint32_t lo, uint32_t hi) {
          for (uint64_t i = chunk * kChunkElems + lo; i < chunk * kChunkElems + hi; ++i) {
            const uint64_t v = GetImpl(replica, i);
            if ((is_eq ? v == p.bound : v < p.bound) != p.invert) {
              sum += v;
            }
          }
        },
        [&](uint64_t first, uint64_t n) {
          sum += K::FilteredSum(replica, first, n, p.bound, is_eq, p.invert);
        });
    return sum;
  }

  // Output word `W` of a packed chunk: the OR of the shifted contributions
  // of every element whose bit range [I*BITS, (I+1)*BITS) intersects
  // [W*64, W*64+64). Both endpoints fold at compile time.
  template <uint32_t W>
  static uint64_t PackWord(const uint64_t* in) {
    static_assert(W < kWordsPerChunk);
    constexpr uint32_t kFirst = W * kWordBits / BITS;
    constexpr uint32_t kLast = (W * kWordBits + kWordBits - 1) / BITS;
    static_assert(kLast < kChunkElems);
    return [&]<size_t... J>(std::index_sequence<J...>) {
      return (PackContribution<W, kFirst + J>(in) | ...);
    }(std::make_index_sequence<kLast - kFirst + 1>{});
  }

  // Element I's bits that land in output word W, already shifted into word
  // position. An element contributes to at most two words; which shift
  // direction applies is a constant of (W, I).
  template <uint32_t W, uint32_t I>
  static uint64_t PackContribution(const uint64_t* in) {
    constexpr uint32_t kStart = I * BITS;
    constexpr uint32_t kWordStart = W * kWordBits;
    const uint64_t value = in[I] & kStoreMask;
    if constexpr (kStart >= kWordStart) {
      return value << (kStart - kWordStart);
    } else {
      return value >> (kWordStart - kStart);
    }
  }

  // Atomically replaces the `mask` bits of *word with `bits_value`.
  static void CasMerge(uint64_t* word, uint64_t mask, uint64_t bits_value) {
    auto* atomic_word = reinterpret_cast<std::atomic<uint64_t>*>(word);
    uint64_t cur = atomic_word->load(std::memory_order_relaxed);
    while (!atomic_word->compare_exchange_weak(cur, (cur & ~mask) | bits_value,
                                               std::memory_order_relaxed)) {
    }
  }
};

}  // namespace sa::smart

#endif  // SA_SMART_BIT_COMPRESSED_ARRAY_H_
