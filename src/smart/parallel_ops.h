// Parallel bulk operations on smart arrays via Callisto-style loops.
//
// These are the helpers the paper's workloads use: the one checked bulk
// writer (PackRange) and the parallel initialization built on it, whose
// batches are chunk-aligned so writers never share a 64-bit word and no
// synchronization is needed, and parallel aggregations through the
// chunk-granular range walkers of the codec table (kernel_table.h).
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

// Values a bulk writer stages on its stack per PackRange call (8 KiB).
inline constexpr uint64_t kStageElems = 16 * kChunkElems;

// Packs in[0 .. end-begin) into elements [begin, end) of every replica: the
// encode twin of SmartArray::RangeUnpack and the only code that writes a
// range of bit-packed words (the paper's Function 2, init, in bulk). Its
// checks are always on: the range, the encoding (the read-optimised
// encodings do not store bit-packed words at bits()) and every value's
// width. One ChunkBounds pass per chunk feeds both the width check and the
// zones: a chunk the range covers wholly gets exact bounds, a partial one
// only widens. Returns false, packing nothing, when a value is wider than
// the array; the zones of the chunks before it may already be replaced, so
// the caller discards the array (TryRestructure's overflow outcome).
// Callers own the chunks they write and run before the array is visible to
// concurrent scans; parallel callers hand each worker a chunk-aligned range
// (kChunkAlignedGrain) so no two writers share a word or a zone.
bool TryPackRange(SmartArray& array, uint64_t begin, uint64_t end, const uint64_t* in);

// TryPackRange for callers whose values must fit: a wider value aborts.
void PackRange(SmartArray& array, uint64_t begin, uint64_t end, const uint64_t* in);

// Fills array[i] = generator(i) for i in [0, length) in parallel: each
// chunk-aligned grain stages the generator's values in a stack block and
// packs it with PackRange, which checks them and keeps the zones. The
// generator runs exactly once per index (it may be expensive or stateful
// per call) and must be safe to call concurrently for distinct indices.
template <typename Generator>
void ParallelFill(rts::WorkerPool& pool, SmartArray& array, const Generator& generator) {
  rts::ParallelFor(pool, 0, array.length(), kChunkAlignedGrain,
                   [&](int /*worker*/, uint64_t begin, uint64_t end) {
                     uint64_t block[kStageElems];
                     for (uint64_t b = begin; b < end; b += kStageElems) {
                       const uint64_t e = std::min(end, b + kStageElems);
                       for (uint64_t i = b; i < e; ++i) {
                         block[i - b] = generator(i);
                       }
                       PackRange(array, b, e, block);
                     }
                   });
}

// Parallel sum of all elements (the paper's aggregation kernel, Function 4):
// each grain sums the worker's socket-local replica through the array's
// RangeSum, which for the bit-packed encoding is the measured range walker
// CodecFor(bits) binds (whole chunks aggregate straight from the packed
// words, no decode buffer) and which every other encoding overrides.
inline uint64_t ParallelSum(rts::WorkerPool& pool, const SmartArray& array,
                            uint64_t grain = rts::kDefaultGrain) {
  return rts::ParallelReduce<uint64_t>(
      pool, 0, array.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
        return array.RangeSum(array.GetReplica(pool.worker_socket(worker)), begin, end);
      });
}

// Parallel element-wise sum of two bit-packed arrays: sum += a1[i] + a2[i]
// (§5.1), through the fused two-array range walker.
inline uint64_t ParallelSum2(rts::WorkerPool& pool, const SmartArray& a1, const SmartArray& a2,
                             uint64_t grain = rts::kDefaultGrain) {
  SA_CHECK(a1.length() == a2.length());
  SA_CHECK_MSG(a1.bits() == a2.bits(), "aggregation arrays share a width in the benchmark");
  SA_CHECK_MSG(a1.encoding() == Encoding::kBitPacked && a2.encoding() == Encoding::kBitPacked,
               "the fused aggregation reads bit-packed arrays");
  const CodecOps& codec = CodecFor(a1.bits());
  return rts::ParallelReduce<uint64_t>(
      pool, 0, a1.length(), grain, [&](int worker, uint64_t begin, uint64_t end) {
        const int socket = pool.worker_socket(worker);
        return codec.sum2_range(a1.GetReplica(socket), a2.GetReplica(socket), begin, end);
      });
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

}  // namespace sa::smart

#endif  // SA_SMART_PARALLEL_OPS_H_
