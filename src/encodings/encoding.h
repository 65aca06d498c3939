// Technique selection for the alternative compression techniques of §7 ("we
// can investigate alternative compression techniques that can achieve higher
// compression rates on different categories of data, such as dictionary
// encoding, run-length encoding, etc." and "the ability to dynamically
// select the correct technique").
//
// The techniques themselves are smart::Encoding representations of
// SmartArray (src/smart), so the NUMA placements compose with every one;
// this module only measures data (DataStats) and picks the encoding with the
// smallest estimated footprint.
#ifndef SA_ENCODINGS_ENCODING_H_
#define SA_ENCODINGS_ENCODING_H_

#include <cstdint>
#include <initializer_list>
#include <span>

#include "smart/smart_array.h"

namespace sa::encodings {

// The chooser's vocabulary is the representation seam's.
using smart::Encoding;
using smart::ToString;

// Value statistics driving the technique selection.
struct DataStats {
  uint64_t count = 0;
  uint64_t min_value = 0;
  uint64_t max_value = 0;
  uint64_t distinct_values = 0;  // exact up to kDistinctCap, capped beyond
  uint64_t runs = 0;             // maximal runs of equal adjacent values
  // Widest chunk-local delta range, for kForDelta sizing.
  uint32_t max_chunk_delta_bits = 1;

  static constexpr uint64_t kDistinctCap = 1 << 16;

  double avg_run_length() const {
    return runs == 0 ? 0.0 : static_cast<double>(count) / static_cast<double>(runs);
  }
};

DataStats AnalyzeValues(std::span<const uint64_t> values);

inline DataStats AnalyzeValues(std::initializer_list<uint64_t> values) {
  return AnalyzeValues(std::span<const uint64_t>(values.begin(), values.size()));
}

// Estimated payload bits per element for each technique on `stats` data
// (used by the selector and reported by the benches).
double EstimateBitsPerElement(Encoding encoding, const DataStats& stats);

// Picks the technique with the smallest estimated footprint, preferring
// plain bit packing on ties (cheapest random access).
Encoding ChooseEncoding(const DataStats& stats);

}  // namespace sa::encodings

#endif  // SA_ENCODINGS_ENCODING_H_
