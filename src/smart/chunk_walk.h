// Chunk walks shared by the representations behind smart::Encoding: the
// zone-verdict scan walk every packed-payload encoding answers its pushdown
// scans with, and the chunk-by-chunk source stream the encoding builds read
// through. Internal to src/smart.
//
// Scan accounting: a chunk is "skipped" when its zone (or its payload
// translation) alone answered for it — kSkip or kAllMatch, neither touches
// packed words except FilteredSum's all-match chunks, which run the plain sum.
// "Scanned" counts the mixed chunks the kernels actually visited. Trivial
// predicates (kNone/kAll after normalization) bypass the walk entirely and
// count the whole range as skipped.
#ifndef SA_SMART_CHUNK_WALK_H_
#define SA_SMART_CHUNK_WALK_H_

#include <algorithm>
#include <type_traits>
#include <utility>

#include "common/bits.h"
#include "obs/telemetry.h"
#include "smart/dispatch.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace sa::smart {

// The three pushdown scans (SmartArray::CountIf, SelectIf, FilteredSum). Each
// encoding's three overrides instantiate one scan template per op, so every
// scan compiles to its own small loop.
enum class ScanOp : uint8_t { kCount, kSelect, kSum };

// The answer for a range the predicate decides without a walk: an empty
// range, or a normalized `np` that is trivial (kNone/kAll over the array's
// width), whose chunks count as skipped. Scans call it when
// `begin >= end || np.trivial()`; a SelectIf bitmap is zeroed first.
template <ScanOp kOp>
uint64_t AnswerTrivially(const SmartArray& array, const uint64_t* replica, uint64_t begin,
                         uint64_t end, ScanPredicate np, uint64_t* bitmap, ScanStats* stats) {
  SA_DCHECK(begin <= end && end <= array.length());
  if (begin >= end) {
    return 0;
  }
  if constexpr (kOp == ScanOp::kSelect) {
    std::fill_n(bitmap, (end - begin + kWordBits - 1) / kWordBits, uint64_t{0});
  }
  const uint64_t chunks = (end - 1) / kChunkElems - begin / kChunkElems + 1;
  SA_OBS_COUNT_N(kScanChunksSkipped, chunks);
  if (stats != nullptr) {
    stats->chunks_skipped += chunks;
  }
  if (np.kind == ScanPredicate::Kind::kNone) {
    return 0;
  }
  if constexpr (kOp == ScanOp::kSelect) {
    SetBitRange(bitmap, 0, end - begin);
  }
  if constexpr (kOp == ScanOp::kSum) {
    return array.RangeSum(replica, begin, end);
  }
  return end - begin;
}

// Walks the chunks of [begin, end) for a non-trivial value-domain `np`. Each
// chunk is classified on its value-domain zone first; a mixed chunk then
// takes the payload predicate its packed words answer, which may still
// decide the chunk when it is trivial. `payload` is either one ScanPredicate
// for every chunk (np itself for bit-packed, the code range for dictionary),
// and then consecutive mixed chunks coalesce into one on_mixed(lo, hi, dp)
// call, so a scan over data with no zone structure is a single kernel call;
// or a function of the chunk (the frame translation for frame-of-reference),
// and then each mixed chunk is its own call, with no run state in the loop.
// All-match chunks call on_all(lo, hi); skipped ones nothing. Returns the sum
// of the callbacks' results.
template <typename Payload, typename OnMixed, typename OnAll>
uint64_t WalkZones(const SmartArray& array, uint64_t begin, uint64_t end, ScanPredicate np,
                   ScanStats* stats, const Payload& payload, OnMixed&& on_mixed, OnAll&& on_all) {
  constexpr bool kUniform = std::is_same_v<Payload, ScanPredicate>;
  uint64_t result = 0;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  uint64_t run_begin = 0;
  bool in_run = false;
  const uint64_t last_chunk = (end - 1) / kChunkElems;
  for (uint64_t chunk = begin / kChunkElems; chunk <= last_chunk; ++chunk) {
    const uint64_t lo = std::max(begin, chunk * kChunkElems);
    const uint64_t hi = std::min(end, (chunk + 1) * kChunkElems);
    ZoneVerdict verdict = ClassifyZone(np, array.ZoneMin(chunk), array.ZoneMax(chunk));
    if (verdict == ZoneVerdict::kMixed) {
      ScanPredicate dp;
      if constexpr (kUniform) {
        dp = payload;
      } else {
        dp = payload(chunk);
      }
      if (!dp.trivial()) {
        ++scanned;
        if constexpr (kUniform) {
          if (!in_run) {
            run_begin = lo;
            in_run = true;
          }
        } else {
          result += on_mixed(lo, hi, dp);
        }
        continue;
      }
      verdict = dp.kind == ScanPredicate::Kind::kAll ? ZoneVerdict::kAllMatch : ZoneVerdict::kSkip;
    }
    if constexpr (kUniform) {
      if (in_run) {
        result += on_mixed(run_begin, lo, payload);
        in_run = false;
      }
    }
    ++skipped;
    if (verdict == ZoneVerdict::kAllMatch) {
      result += on_all(lo, hi);
    }
  }
  if constexpr (kUniform) {
    if (in_run) {
      result += on_mixed(run_begin, end, payload);
    }
  }
  SA_OBS_COUNT_N(kScanChunksScanned, scanned);
  SA_OBS_COUNT_N(kScanChunksSkipped, skipped);
  if (stats != nullptr) {
    stats->chunks_scanned += scanned;
    stats->chunks_skipped += skipped;
  }
  return result;
}

// One pushdown scan over a packed payload that starts at replica[0] and is
// read through `codec`: mixed runs go to the match-mask kernels (FilteredSum
// to sum_mixed(lo, hi, dp)), all-match chunks answer in closed form
// (FilteredSum through sum_all(lo, hi)). A SelectIf bitmap is zeroed first.
template <ScanOp kOp, typename Payload, typename SumMixed, typename SumAll>
uint64_t WalkScan(const SmartArray& array, const CodecOps& codec, const uint64_t* replica,
                  uint64_t begin, uint64_t end, ScanPredicate np, uint64_t* bitmap,
                  ScanStats* stats, const Payload& payload, SumMixed&& sum_mixed,
                  SumAll&& sum_all) {
  if constexpr (kOp == ScanOp::kCount) {
    return WalkZones(
        array, begin, end, np, stats, payload,
        [&](uint64_t lo, uint64_t hi, ScanPredicate dp) {
          return codec.count_if_range(replica, lo, hi, dp);
        },
        [](uint64_t lo, uint64_t hi) { return hi - lo; });
  } else if constexpr (kOp == ScanOp::kSelect) {
    std::fill_n(bitmap, (end - begin + kWordBits - 1) / kWordBits, uint64_t{0});
    return WalkZones(
        array, begin, end, np, stats, payload,
        [&](uint64_t lo, uint64_t hi, ScanPredicate dp) {
          return codec.select_if_range(replica, lo, hi, dp, bitmap, lo - begin);
        },
        [&](uint64_t lo, uint64_t hi) {
          SetBitRange(bitmap, lo - begin, hi - begin);
          return hi - lo;
        });
  } else {
    return WalkZones(array, begin, end, np, stats, payload, sum_mixed, sum_all);
  }
}

// The [min, max] of values[0..n), n >= 1, as a branch-free loop
// (std::minmax_element branches per element). It does not vectorize: the
// baseline x86-64 flags have no unsigned 64-bit vector min/max, so it runs
// as two compare-select chains: 60-100 ns per 64-value chunk on a 4-core
// Xeon VM.
inline std::pair<uint64_t, uint64_t> ChunkBounds(const uint64_t* values, uint64_t n) {
  uint64_t lo = values[0];
  uint64_t hi = values[0];
  for (uint64_t i = 1; i < n; ++i) {
    lo = std::min(lo, values[i]);
    hi = std::max(hi, values[i]);
  }
  return {lo, hi};
}

// Streams `source` (any encoding) chunk by chunk from replica 0:
// fn(chunk, values, n) with values[0..n) the chunk's decoded elements. The
// encoding builds read their source this way, so none of them holds a
// decoded copy of the whole array.
template <typename Fn>
void ForEachSourceChunk(const SmartArray& source, Fn&& fn) {
  const uint64_t* replica = source.GetReplica(0);
  uint64_t values[kChunkElems];
  for (uint64_t chunk = 0; chunk < source.num_chunks(); ++chunk) {
    const uint64_t lo = chunk * kChunkElems;
    const uint64_t n = std::min<uint64_t>(kChunkElems, source.length() - lo);
    source.RangeUnpack(replica, lo, lo + n, values);
    fn(chunk, values, n);
  }
}

}  // namespace sa::smart

#endif  // SA_SMART_CHUNK_WALK_H_
