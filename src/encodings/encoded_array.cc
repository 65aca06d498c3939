#include "encodings/encoded_array.h"

#include <algorithm>

#include "common/bits.h"
#include "common/macros.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"

namespace sa::encodings {
namespace {

// Packs `values` into a fresh `bits`-wide smart array. PackRange over the
// whole array packs every chunk through the pack network and installs its
// exact [min, max] zone; payloads are never written after Encode, so the
// zones stay exact and the pushdown scans may prune on them.
std::unique_ptr<smart::SmartArray> PackValues(std::span<const uint64_t> values, uint32_t bits,
                                              const smart::PlacementSpec& placement,
                                              const platform::Topology& topology) {
  auto array = smart::SmartArray::Allocate(values.size(), placement, bits, topology);
  smart::PackRange(*array, 0, values.size(), values.data());
  return array;
}

uint32_t MaxBits(std::span<const uint64_t> values) {
  uint64_t max_value = 0;
  for (const uint64_t v : values) {
    max_value = std::max(max_value, v);
  }
  return BitsForValue(max_value);
}

// Zeroes the bitmap words a SelectIf over `n` elements owns.
void ClearBitmap(uint64_t* bitmap, uint64_t n) {
  std::fill_n(bitmap, (n + kWordBits - 1) / kWordBits, uint64_t{0});
}

// Invokes fn(chunk, lo, hi) for every chunk overlapping [begin, end), with
// [lo, hi) the overlap.
template <typename Fn>
void ForEachChunkSpan(uint64_t begin, uint64_t end, Fn&& fn) {
  for (uint64_t lo = begin; lo < end;) {
    const uint64_t chunk = lo / kChunkElems;
    const uint64_t hi = std::min(end, (chunk + 1) * kChunkElems);
    fn(chunk, lo, hi);
    lo = hi;
  }
}

// The exact [min, max] of `payload` elements [lo, hi), which must be
// non-empty. Whole chunks answer from their exact zones (a final partial
// chunk is whole when it ends at the payload's length); only ragged ends
// decode, from `replica`.
MinMax PayloadMinMax(const smart::SmartArray& payload, const uint64_t* replica, uint64_t lo,
                     uint64_t hi) {
  MinMax result;
  ForEachChunkSpan(lo, hi, [&](uint64_t chunk, uint64_t b, uint64_t e) {
    if (b % kChunkElems == 0 && (e % kChunkElems == 0 || e == payload.length())) {
      result += {payload.ZoneMin(chunk), payload.ZoneMax(chunk)};
      return;
    }
    uint64_t values[kChunkElems];
    payload.RangeUnpack(replica, b, e, values);
    const auto [min, max] = std::minmax_element(values, values + (e - b));
    result += {*min, *max};
  });
  return result;
}

// Aborts unless [begin, end) of an array of `length` elements meets
// EncodedArray::MinMax's contract: a chunk zone cannot answer part of its
// chunk exactly.
void CheckMinMaxRange(uint64_t begin, uint64_t end, uint64_t length) {
  SA_CHECK_MSG(begin < end && end <= length && begin % kChunkElems == 0 &&
                   (end % kChunkElems == 0 || end == length),
               "MinMax ranges must be non-empty, start on a chunk and end on a chunk or at "
               "length()");
}

}  // namespace

uint64_t EncodedArray::footprint_bytes() const {
  uint64_t total = 0;
  for (const smart::SmartArray* payload : payloads()) {
    total += payload->footprint_bytes();
  }
  return total;
}

std::unique_ptr<EncodedArray> EncodedArray::Encode(std::span<const uint64_t> values,
                                                   std::optional<Encoding> encoding,
                                                   const smart::PlacementSpec& placement,
                                                   const platform::Topology& topology) {
  SA_CHECK_MSG(!values.empty(), "cannot encode an empty array");
  const Encoding chosen = encoding.value_or(ChooseEncoding(AnalyzeValues(values)));
  switch (chosen) {
    case Encoding::kBitPacked:
      return std::make_unique<BitPackedArray>(values, placement, topology);
    case Encoding::kDictionary:
      return std::make_unique<DictionaryArray>(values, placement, topology);
    case Encoding::kRunLength:
      return std::make_unique<RunLengthArray>(values, placement, topology);
    case Encoding::kFrameOfReference:
      return std::make_unique<FrameOfReferenceArray>(values, placement, topology);
  }
  return nullptr;
}

// ---- BitPackedArray ----

BitPackedArray::BitPackedArray(std::span<const uint64_t> values,
                               const smart::PlacementSpec& placement,
                               const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kBitPacked) {
  data_ = PackValues(values, MaxBits(values), placement, topology);
}

uint64_t BitPackedArray::Get(uint64_t index, int socket) const {
  return data_->Get(index, data_->GetReplica(socket));
}

void BitPackedArray::Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const {
  data_->RangeUnpack(data_->GetReplica(socket), begin, end, out);
}

uint64_t BitPackedArray::SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                                  uint64_t* bitmap) const {
  return data_->SelectIf(data_->GetReplica(socket), begin, end, p, bitmap);
}

MinMax BitPackedArray::MinMax(uint64_t begin, uint64_t end, int socket) const {
  CheckMinMaxRange(begin, end, length_);
  return PayloadMinMax(*data_, data_->GetReplica(socket), begin, end);
}

// ---- DictionaryArray ----

DictionaryArray::DictionaryArray(std::span<const uint64_t> values,
                                 const smart::PlacementSpec& placement,
                                 const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kDictionary) {
  // Sorted dictionary; code order preserves value order, so range predicates
  // can run on codes directly (the column-store trick).
  std::vector<uint64_t> sorted(values.begin(), values.end());
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());

  dictionary_ = PackValues(sorted, 64, placement, topology);
  std::vector<uint64_t> codes(values.size());
  for (uint64_t i = 0; i < values.size(); ++i) {
    codes[i] = std::lower_bound(sorted.begin(), sorted.end(), values[i]) - sorted.begin();
  }
  codes_ = PackValues(codes, BitsForCount(sorted.size()), placement, topology);
}

uint64_t DictionaryArray::Get(uint64_t index, int socket) const {
  const uint64_t code = codes_->Get(index, codes_->GetReplica(socket));
  return dictionary_->GetReplica(socket)[code];
}

void DictionaryArray::DecodeCodes(uint64_t begin, uint64_t end, int socket,
                                  uint64_t* out) const {
  codes_->RangeUnpack(codes_->GetReplica(socket), begin, end, out);
}

void DictionaryArray::Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const {
  DecodeCodes(begin, end, socket, out);
  const uint64_t* dict = dictionary_->GetReplica(socket);
  for (uint64_t i = 0; i < end - begin; ++i) {
    out[i] = dict[out[i]];
  }
}

smart::Predicate DictionaryArray::ToCodePredicate(smart::Predicate p) const {
  using smart::CmpOp;
  const uint64_t* dict = dictionary_->GetReplica(0);
  const uint64_t* dict_end = dict + dictionary_->length();
  // Codes [0, below) stand for values < constant, [0, upto) for values <=.
  const uint64_t below = std::lower_bound(dict, dict_end, p.constant) - dict;
  const uint64_t upto = std::upper_bound(dict, dict_end, p.constant) - dict;
  const bool present = below != upto;
  constexpr smart::Predicate kNone{CmpOp::kLt, 0};
  constexpr smart::Predicate kAll{CmpOp::kGe, 0};
  switch (p.op) {
    case CmpOp::kEq:
      return present ? smart::Predicate{CmpOp::kEq, below} : kNone;
    case CmpOp::kNe:
      return present ? smart::Predicate{CmpOp::kNe, below} : kAll;
    case CmpOp::kLt:
      return {CmpOp::kLt, below};
    case CmpOp::kLe:
      return {CmpOp::kLt, upto};
    case CmpOp::kGt:
      return {CmpOp::kGe, upto};
    case CmpOp::kGe:
      return {CmpOp::kGe, below};
  }
  return kNone;
}

uint64_t DictionaryArray::SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                                   uint64_t* bitmap) const {
  return codes_->SelectIf(codes_->GetReplica(socket), begin, end, ToCodePredicate(p), bitmap);
}

MinMax DictionaryArray::MinMax(uint64_t begin, uint64_t end, int socket) const {
  CheckMinMaxRange(begin, end, length_);
  // Code order is value order, so the extreme codes stand for the extreme
  // values.
  const encodings::MinMax codes = PayloadMinMax(*codes_, codes_->GetReplica(socket), begin, end);
  const uint64_t* dict = dictionary_->GetReplica(socket);
  return {dict[codes.min], dict[codes.max]};
}

// ---- RunLengthArray ----

RunLengthArray::RunLengthArray(std::span<const uint64_t> values,
                               const smart::PlacementSpec& placement,
                               const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kRunLength) {
  std::vector<uint64_t> starts;
  std::vector<uint64_t> run_values;
  for (uint64_t i = 0; i < values.size(); ++i) {
    if (i == 0 || values[i] != values[i - 1]) {
      starts.push_back(i);
      run_values.push_back(values[i]);
    }
  }
  run_starts_ = PackValues(starts, BitsForValue(values.size() - 1), placement, topology);
  run_values_ = PackValues(run_values, MaxBits(run_values), placement, topology);
}

uint64_t RunLengthArray::FindRun(uint64_t index, const uint64_t* starts_replica) const {
  // Largest run whose start <= index (starts are strictly increasing).
  const auto& codec = smart::CodecFor(run_starts_->bits());
  uint64_t lo = 0;
  uint64_t hi = run_starts_->length();  // exclusive
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (codec.get(starts_replica, mid) <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

uint64_t RunLengthArray::Get(uint64_t index, int socket) const {
  SA_DCHECK(index < length_);
  const uint64_t run = FindRun(index, run_starts_->GetReplica(socket));
  return run_values_->Get(run, run_values_->GetReplica(socket));
}

template <typename Fn>
void RunLengthArray::ForEachRun(uint64_t begin, uint64_t end, int socket, Fn&& fn) const {
  if (begin >= end) {
    return;
  }
  const uint64_t* starts = run_starts_->GetReplica(socket);
  const uint64_t* values = run_values_->GetReplica(socket);
  const uint64_t num_runs = run_values_->length();
  uint64_t run = FindRun(begin, starts);
  uint64_t lo = begin;
  // Runs decode in blocks through RangeUnpack: the values of runs
  // [run, run + n) and the starts of their successors, which end them.
  uint64_t block_values[kChunkElems];
  uint64_t block_ends[kChunkElems];
  while (lo < end) {
    // Every run covers at least one element, so [lo, end) spans at most
    // end - lo of them.
    const uint64_t n = std::min({uint64_t{kChunkElems}, num_runs - run, end - lo});
    run_values_->RangeUnpack(values, run, run + n, block_values);
    const uint64_t with_successor = std::min(n, num_runs - run - 1);
    run_starts_->RangeUnpack(starts, run + 1, run + 1 + with_successor, block_ends);
    if (with_successor < n) {
      block_ends[with_successor] = length_;  // the final run ends the array
    }
    for (uint64_t i = 0; i < n && lo < end; ++i) {
      const uint64_t hi = std::min(end, block_ends[i]);
      fn(block_values[i], lo, hi);
      lo = hi;
    }
    run += n;
  }
}

void RunLengthArray::Decode(uint64_t begin, uint64_t end, int socket, uint64_t* out) const {
  ForEachRun(begin, end, socket, [&](uint64_t value, uint64_t lo, uint64_t hi) {
    std::fill(out + (lo - begin), out + (hi - begin), value);
  });
}

uint64_t RunLengthArray::SelectIf(uint64_t begin, uint64_t end, int socket, smart::Predicate p,
                                  uint64_t* bitmap) const {
  SA_DCHECK(begin <= end && end <= length_);
  ClearBitmap(bitmap, end - begin);
  uint64_t count = 0;
  ForEachRun(begin, end, socket, [&](uint64_t value, uint64_t lo, uint64_t hi) {
    if (smart::Matches(p, value)) {
      smart::SetBitRange(bitmap, lo - begin, hi - begin);
      count += hi - lo;
    }
  });
  return count;
}

MinMax RunLengthArray::MinMax(uint64_t begin, uint64_t end, int socket) const {
  CheckMinMaxRange(begin, end, length_);
  const uint64_t* starts = run_starts_->GetReplica(socket);
  const uint64_t first = FindRun(begin, starts);
  const uint64_t last = FindRun(end - 1, starts);
  return PayloadMinMax(*run_values_, run_values_->GetReplica(socket), first, last + 1);
}

// ---- FrameOfReferenceArray ----

FrameOfReferenceArray::FrameOfReferenceArray(std::span<const uint64_t> values,
                                             const smart::PlacementSpec& placement,
                                             const platform::Topology& topology)
    : EncodedArray(values.size(), Encoding::kFrameOfReference) {
  const uint64_t chunks = (values.size() + kChunkElems - 1) / kChunkElems;
  std::vector<uint64_t> bases(chunks);
  uint32_t delta_bits = 1;
  for (uint64_t c = 0; c < chunks; ++c) {
    const uint64_t begin = c * kChunkElems;
    const uint64_t end = std::min<uint64_t>(values.size(), begin + kChunkElems);
    uint64_t lo = values[begin];
    uint64_t hi = values[begin];
    for (uint64_t i = begin; i < end; ++i) {
      lo = std::min(lo, values[i]);
      hi = std::max(hi, values[i]);
    }
    bases[c] = lo;
    delta_bits = std::max(delta_bits, BitsForValue(hi - lo));
  }
  std::vector<uint64_t> deltas(values.size());
  for (uint64_t i = 0; i < values.size(); ++i) {
    deltas[i] = values[i] - bases[i / kChunkElems];
  }
  bases_ = PackValues(bases, 64, placement, topology);
  deltas_ = PackValues(deltas, delta_bits, placement, topology);
}

uint64_t FrameOfReferenceArray::Get(uint64_t index, int socket) const {
  SA_DCHECK(index < length_);
  return bases_->GetReplica(socket)[index / kChunkElems] +
         deltas_->Get(index, deltas_->GetReplica(socket));
}

void FrameOfReferenceArray::Decode(uint64_t begin, uint64_t end, int socket,
                                   uint64_t* out) const {
  deltas_->RangeUnpack(deltas_->GetReplica(socket), begin, end, out);
  const uint64_t* bases = bases_->GetReplica(socket);
  ForEachChunkSpan(begin, end, [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
    const uint64_t base = bases[chunk];
    for (uint64_t i = lo - begin; i < hi - begin; ++i) {
      out[i] += base;
    }
  });
}

uint64_t FrameOfReferenceArray::SelectIf(uint64_t begin, uint64_t end, int socket,
                                         smart::Predicate p, uint64_t* bitmap) const {
  SA_DCHECK(begin <= end && end <= length_);
  ClearBitmap(bitmap, end - begin);
  // Values are unconstrained 64-bit integers in the absolute domain.
  const smart::ScanPredicate np = smart::NormalizePredicate(p, 64);
  if (np.trivial()) {
    if (np.kind != smart::ScanPredicate::Kind::kAll) {
      return 0;
    }
    smart::SetBitRange(bitmap, 0, end - begin);
    return end - begin;
  }
  const uint32_t delta_bits = deltas_->bits();
  const smart::CodecOps& codec = smart::CodecFor(delta_bits);
  const uint64_t* bases = bases_->GetReplica(socket);
  const uint64_t* deltas = deltas_->GetReplica(socket);
  uint64_t count = 0;
  ForEachChunkSpan(begin, end, [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
    // The frame decides most chunks outright; the rest classify against the
    // chunk's exact delta zone before any packed word is read.
    const smart::ScanPredicate dp = smart::TranslateToDelta(np, bases[chunk], delta_bits);
    smart::ZoneVerdict verdict = smart::ZoneVerdict::kSkip;
    if (dp.kind == smart::ScanPredicate::Kind::kAll) {
      verdict = smart::ZoneVerdict::kAllMatch;
    } else if (!dp.trivial()) {
      verdict = smart::ClassifyZone(dp, deltas_->ZoneMin(chunk), deltas_->ZoneMax(chunk));
    }
    switch (verdict) {
      case smart::ZoneVerdict::kSkip:
        break;
      case smart::ZoneVerdict::kAllMatch:
        smart::SetBitRange(bitmap, lo - begin, hi - begin);
        count += hi - lo;
        break;
      case smart::ZoneVerdict::kMixed:
        count += codec.select_if_range(deltas, lo, hi, dp, bitmap, lo - begin);
        break;
    }
  });
  return count;
}

MinMax FrameOfReferenceArray::MinMax(uint64_t begin, uint64_t end, int socket) const {
  CheckMinMaxRange(begin, end, length_);
  const uint64_t* bases = bases_->GetReplica(socket);
  encodings::MinMax result;
  for (uint64_t chunk = begin / kChunkElems; chunk * kChunkElems < end; ++chunk) {
    result += {bases[chunk] + deltas_->ZoneMin(chunk), bases[chunk] + deltas_->ZoneMax(chunk)};
  }
  return result;
}

}  // namespace sa::encodings
