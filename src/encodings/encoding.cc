#include "encodings/encoding.h"

#include <algorithm>
#include <unordered_set>

#include "common/bits.h"
#include "common/macros.h"

namespace sa::encodings {

DataStats AnalyzeValues(std::span<const uint64_t> values) {
  DataStats stats;
  stats.count = values.size();
  if (values.empty()) {
    return stats;
  }
  stats.min_value = values.front();
  stats.max_value = values.front();
  stats.runs = 1;
  std::unordered_set<uint64_t> distinct;
  bool distinct_capped = false;

  for (size_t i = 0; i < values.size(); ++i) {
    const uint64_t v = values[i];
    stats.min_value = std::min(stats.min_value, v);
    stats.max_value = std::max(stats.max_value, v);
    if (i > 0 && v != values[i - 1]) {
      ++stats.runs;
    }
    if (!distinct_capped) {
      distinct.insert(v);
      if (distinct.size() > DataStats::kDistinctCap) {
        distinct_capped = true;
      }
    }
  }
  stats.distinct_values =
      distinct_capped ? DataStats::kDistinctCap + 1 : distinct.size();

  // Per-chunk delta width (frame-of-reference stores chunk-local offsets).
  for (size_t chunk_start = 0; chunk_start < values.size(); chunk_start += kChunkElems) {
    const size_t chunk_end = std::min(values.size(), chunk_start + kChunkElems);
    uint64_t lo = values[chunk_start];
    uint64_t hi = values[chunk_start];
    for (size_t i = chunk_start; i < chunk_end; ++i) {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    stats.max_chunk_delta_bits =
        std::max(stats.max_chunk_delta_bits, BitsForValue(hi - lo));
  }
  return stats;
}

double EstimateBitsPerElement(Encoding encoding, const DataStats& stats) {
  if (stats.count == 0) {
    return 64.0;
  }
  const double n = static_cast<double>(stats.count);
  switch (encoding) {
    case Encoding::kBitPacked:
      return BitsForValue(stats.max_value);
    case Encoding::kDictionary: {
      if (stats.distinct_values > DataStats::kDistinctCap) {
        return 64.0;  // dictionary itself would dominate; treat as hopeless
      }
      const double code_bits = BitsForCount(stats.distinct_values);
      const double dict_bits = 64.0 * static_cast<double>(stats.distinct_values) / n;
      return code_bits + dict_bits;
    }
    case Encoding::kRunLength: {
      // Per run: a start offset packed to the widest index plus a packed
      // value, as smart::RunLengthArray stores them.
      const double per_run = BitsForValue(stats.count - 1) + BitsForValue(stats.max_value);
      return per_run * static_cast<double>(stats.runs) / n;
    }
    case Encoding::kForDelta: {
      // Per chunk: one 64-bit base; per element: delta bits.
      return stats.max_chunk_delta_bits + 64.0 / kChunkElems;
    }
  }
  return 64.0;
}

Encoding ChooseEncoding(const DataStats& stats) {
  const Encoding candidates[] = {Encoding::kBitPacked, Encoding::kDictionary,
                                 Encoding::kRunLength, Encoding::kForDelta};
  Encoding best = Encoding::kBitPacked;
  double best_bits = EstimateBitsPerElement(Encoding::kBitPacked, stats);
  for (const Encoding e : candidates) {
    const double bits = EstimateBitsPerElement(e, stats);
    if (bits < best_bits * 0.95) {  // a technique must clearly beat bit packing
      best = e;
      best_bits = bits;
    }
  }
  return best;
}

}  // namespace sa::encodings
