// Parallel bulk operations on smart arrays via Callisto-style loops.
//
// These are the helpers the paper's workloads use: parallel initialization
// (whose batches are chunk-aligned so writers never share a 64-bit word and
// no synchronization is needed) and parallel aggregations through the
// chunk-granular block kernels of bit_compressed_array.h.
#ifndef SA_SMART_PARALLEL_OPS_H_
#define SA_SMART_PARALLEL_OPS_H_

#include <algorithm>
#include <cstdint>

#include "common/bits.h"
#include "rts/parallel_for.h"
#include "smart/dispatch.h"
#include "smart/smart_array.h"

namespace sa::smart {

// Grain for chunk-aligned loops: a multiple of kChunkElems so concurrent
// initializers of a bit-compressed array never touch the same word.
inline constexpr uint64_t kChunkAlignedGrain = 256 * kChunkElems;

// Fills array[i] = generator(i) for i in [0, length) in parallel. The
// generator runs exactly once per index (it may be expensive or stateful
// per call) and the value is written to every replica.
// generator must be safe to call concurrently for distinct indices.
template <typename Generator>
void ParallelFill(rts::WorkerPool& pool, SmartArray& array, const Generator& generator) {
  WithBits(array.bits(), [&](auto bits_const) {
    constexpr uint32_t kBits = bits_const();
    const int replicas = array.num_replicas();
    rts::ParallelFor(pool, 0, array.length(), kChunkAlignedGrain,
                     [&](int /*worker*/, uint64_t begin, uint64_t end) {
                       // Chunk-aligned grains own every element of each chunk
                       // they touch, so the zone bounds computed during the
                       // fill replace the chunk's zone exactly (the same
                       // exclusivity that makes the unsynchronized word
                       // writes safe).
                       for (uint64_t i = begin; i < end;) {
                         const uint64_t chunk = i / kChunkElems;
                         const uint64_t chunk_end =
                             std::min(end, (chunk + 1) * kChunkElems);
                         uint64_t lo = ~uint64_t{0};
                         uint64_t hi = 0;
                         for (; i < chunk_end; ++i) {
                           const uint64_t value = generator(i);
                           lo = std::min(lo, value);
                           hi = std::max(hi, value);
                           for (int r = 0; r < replicas; ++r) {
                             BitCompressedArray<kBits>::InitImpl(array.MutableReplica(r), i,
                                                                 value);
                           }
                         }
                         array.SetZoneBounds(chunk, lo, hi);
                       }
                     });
    return 0;
  });
}

// Parallel sum of all elements (the paper's aggregation kernel, Function 4),
// scanning each worker's socket-local replica through the chunk-granular
// block kernels: whole chunks aggregate straight from the packed words with
// no decode buffer, and the AVX2 path kicks in when the host supports it.
inline uint64_t ParallelSum(rts::WorkerPool& pool, const SmartArray& array,
                            uint64_t grain = rts::kDefaultGrain) {
  return WithBits(array.bits(), [&](auto bits_const) -> uint64_t {
    constexpr uint32_t kBits = bits_const();
    return rts::ParallelReduce<uint64_t>(
        pool, 0, array.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
          return BitCompressedArray<kBits>::SumRange(
              array.GetReplica(pool.worker_socket(worker)), begin, end);
        });
  });
}

// Parallel element-wise sum of two arrays: sum += a1[i] + a2[i] (§5.1),
// through the fused two-array chunk kernel.
inline uint64_t ParallelSum2(rts::WorkerPool& pool, const SmartArray& a1, const SmartArray& a2,
                             uint64_t grain = rts::kDefaultGrain) {
  SA_CHECK(a1.length() == a2.length());
  SA_CHECK_MSG(a1.bits() == a2.bits(), "aggregation arrays share a width in the benchmark");
  return WithBits(a1.bits(), [&](auto bits_const) -> uint64_t {
    constexpr uint32_t kBits = bits_const();
    return rts::ParallelReduce<uint64_t>(
        pool, 0, a1.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
          const int socket = pool.worker_socket(worker);
          return BitCompressedArray<kBits>::Sum2Range(a1.GetReplica(socket),
                                                      a2.GetReplica(socket), begin, end);
        });
  });
}

// Packs in[0 .. end-begin) into elements [begin, end) of every bit-packed
// replica (the encode twin of SmartArray::RangeUnpack). Values must fit the
// array's width. Like ParallelFill, concurrent callers must hand each worker
// a chunk-aligned range (kChunkAlignedGrain) so no two writers share a word.
inline void PackRange(SmartArray& array, uint64_t begin, uint64_t end, const uint64_t* in) {
  SA_CHECK(begin <= end && end <= array.length());
  const CodecOps& codec = CodecFor(array.bits());
  for (int r = 0; r < array.num_replicas(); ++r) {
    codec.pack_range(array.MutableReplica(r), begin, end, in);
  }
  // Zone maintenance: a chunk whose every live element is inside [begin, end)
  // gets exact bounds (legal because PackRange writers own their chunks and
  // run before the array is visible to concurrent scans — the existing bulk
  // loader contract); chunks only partially covered can merely widen.
  const uint64_t length = array.length();
  for (uint64_t i = begin; i < end;) {
    const uint64_t chunk = i / kChunkElems;
    const uint64_t chunk_first = chunk * kChunkElems;
    const uint64_t chunk_last = std::min(length, chunk_first + kChunkElems);
    const uint64_t stop = std::min(end, chunk_last);
    uint64_t lo = in[i - begin];
    uint64_t hi = lo;
    for (uint64_t j = i; j < stop; ++j) {
      const uint64_t value = in[j - begin];
      lo = std::min(lo, value);
      hi = std::max(hi, value);
    }
    if (i == chunk_first && stop == chunk_last) {
      array.SetZoneBounds(chunk, lo, hi);
    } else {
      array.WidenZoneBounds(chunk, lo, hi);
    }
    i = stop;
  }
}

// ---- Parallel pushdown scans (predicate.h, smart_array.h) ----
//
// Each grain runs the array's zone-map pushdown walker against the worker's
// socket-local replica. Grains are chunk-aligned, so every zone verdict is
// owned by exactly one worker and SelectIf grains touch disjoint bitmap
// words.

inline uint64_t ParallelCountIf(rts::WorkerPool& pool, const SmartArray& array, Predicate p,
                                uint64_t grain = kChunkAlignedGrain) {
  SA_CHECK_MSG(grain % kChunkElems == 0, "scan grains must be chunk-aligned");
  return rts::ParallelReduce<uint64_t>(
      pool, 0, array.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
        return array.CountIf(array.GetReplica(pool.worker_socket(worker)), begin, end, p);
      });
}

inline uint64_t ParallelFilteredSum(rts::WorkerPool& pool, const SmartArray& array, Predicate p,
                                    uint64_t grain = kChunkAlignedGrain) {
  SA_CHECK_MSG(grain % kChunkElems == 0, "scan grains must be chunk-aligned");
  return rts::ParallelReduce<uint64_t>(
      pool, 0, array.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
        return array.FilteredSum(array.GetReplica(pool.worker_socket(worker)), begin, end, p);
      });
}

// Emits bit i of `bitmap` = whether array[i] matches; `bitmap` must hold
// (length + 63) / 64 words. Each chunk-aligned grain zeroes and fills its
// own word-disjoint slice, so no serial zeroing pass is needed. Returns the
// match count.
inline uint64_t ParallelSelectIf(rts::WorkerPool& pool, const SmartArray& array, Predicate p,
                                 uint64_t* bitmap, uint64_t grain = kChunkAlignedGrain) {
  SA_CHECK_MSG(grain % kChunkElems == 0, "scan grains must be chunk-aligned");
  return rts::ParallelReduce<uint64_t>(
      pool, 0, array.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
        return array.SelectIf(array.GetReplica(pool.worker_socket(worker)), begin, end, p,
                              bitmap + begin / kWordBits);
      });
}

// Parallel bulk fill from a materialized buffer: values[i] becomes
// array[i]. The chunk-aligned grain keeps concurrent packers word-disjoint;
// whole chunks go through the word-centric pack network rather than
// per-element read-modify-write.
inline void ParallelPack(rts::WorkerPool& pool, SmartArray& array, const uint64_t* values) {
  rts::ParallelFor(pool, 0, array.length(), kChunkAlignedGrain,
                   [&](int /*worker*/, uint64_t begin, uint64_t end) {
                     PackRange(array, begin, end, values + begin);
                   });
}

}  // namespace sa::smart

#endif  // SA_SMART_PARALLEL_OPS_H_
