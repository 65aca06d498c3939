#include "smart/dictionary.h"

#include <algorithm>
#include <vector>

#include "common/bits.h"
#include "smart/chunk_walk.h"
#include "smart/dispatch.h"

namespace sa::smart {
namespace {

// The sorted distinct values of `source`, streamed: a value the sorted prefix
// already holds costs one binary search, new ones queue behind it and are
// sorted in once the queue outgrows the prefix, so the vector stays within
// about twice the distinct count.
std::vector<uint64_t> SortedDistinct(const SmartArray& source) {
  std::vector<uint64_t> values;
  size_t sorted = 0;
  const auto settle = [&] {
    std::sort(values.begin(), values.end());
    values.erase(std::unique(values.begin(), values.end()), values.end());
    sorted = values.size();
  };
  ForEachSourceChunk(source, [&](uint64_t, const uint64_t* chunk, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      if (!std::binary_search(values.begin(), values.begin() + sorted, chunk[i])) {
        values.push_back(chunk[i]);
      }
    }
    if (values.size() - sorted > std::max<size_t>(sorted, 64 * kChunkElems)) {
      settle();
    }
  });
  settle();
  return values;
}

}  // namespace

DictionaryArray::DictionaryArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                                 uint64_t dictionary_size, const platform::Topology& topology)
    : SmartArray(length, placement, bits, BitsForCount(dictionary_size),
                 (length + kChunkElems - 1) / kChunkElems *
                         WordsPerChunk(BitsForCount(dictionary_size)) +
                     dictionary_size,
                 topology),
      dictionary_size_(dictionary_size),
      dictionary_(num_chunks() * WordsPerChunk(storage_bits_)) {}

std::unique_ptr<SmartArray> DictionaryArray::TryBuild(const SmartArray& source,
                                                      PlacementSpec placement,
                                                      uint32_t logical_bits,
                                                      const platform::Topology& topology) {
  const std::vector<uint64_t> dictionary = SortedDistinct(source);
  std::unique_ptr<DictionaryArray> array(
      new DictionaryArray(source.length(), placement,
                          logical_bits == 0 ? source.bits() : logical_bits, dictionary.size(),
                          topology));
  if (!array->allocation_ok()) {
    return nullptr;
  }
  for (int r = 0; r < array->num_replicas(); ++r) {
    std::copy(dictionary.begin(), dictionary.end(), array->MutableReplica(r) + array->dictionary_);
  }
  const CodecOps& codec = CodecFor(array->storage_bits_);
  ForEachSourceChunk(source, [&](uint64_t chunk, const uint64_t* values, uint64_t n) {
    uint64_t codes[kChunkElems];
    for (uint64_t i = 0; i < n; ++i) {
      codes[i] = std::lower_bound(dictionary.begin(), dictionary.end(), values[i]) -
                 dictionary.begin();
    }
    const auto [min, max] = ChunkBounds(values, n);
    array->SetZoneBounds(chunk, min, max);
    for (int r = 0; r < array->num_replicas(); ++r) {
      codec.pack_range(array->MutableReplica(r), chunk * kChunkElems, chunk * kChunkElems + n,
                       codes);
    }
  });
  return array;
}

uint64_t DictionaryArray::CodeOf(uint64_t value) const {
  const uint64_t* dict = dictionary(replica_ptrs_[0]);
  const uint64_t code = std::lower_bound(dict, dict + dictionary_size_, value) - dict;
  return code < dictionary_size_ && dict[code] == value ? code : dictionary_size_;
}

bool DictionaryArray::Admits(uint64_t index, uint64_t value) const {
  return SmartArray::Admits(index, value) && CodeOf(value) < dictionary_size_;
}

uint64_t DictionaryArray::CodeForWrite(uint64_t value) const {
  const uint64_t code = CodeOf(value);
  SA_CHECK_MSG(code < dictionary_size_,
               "dictionary write of a value outside the dictionary: restructure to bit-packed "
               "first");
  return code;
}

void DictionaryArray::Init(uint64_t index, uint64_t value) {
  const uint64_t code = CodeForWrite(value);
  WidenZone(index, value);
  const CodecOps& codec = CodecFor(storage_bits_);
  for (int r = 0; r < num_replicas(); ++r) {
    codec.init(MutableReplica(r), index, code);
  }
}

void DictionaryArray::InitAtomic(uint64_t index, uint64_t value) {
  const uint64_t code = CodeForWrite(value);
  WidenZone(index, value);
  const CodecOps& codec = CodecFor(storage_bits_);
  for (int r = 0; r < num_replicas(); ++r) {
    codec.init_atomic(MutableReplica(r), index, code);
  }
}

uint64_t DictionaryArray::Get(uint64_t index, const uint64_t* replica) const {
  return dictionary(replica)[CodecFor(storage_bits_).get(replica, index)];
}

void DictionaryArray::Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const {
  CodecFor(storage_bits_).unpack(replica, chunk, out);
  const uint64_t* dict = dictionary(replica);
  for (uint32_t i = 0; i < kChunkElems; ++i) {
    out[i] = dict[out[i]];
  }
}

void DictionaryArray::RangeUnpackCodes(const uint64_t* replica, uint64_t begin, uint64_t end,
                                       uint64_t* out) const {
  CodecFor(storage_bits_).unpack_range(replica, begin, end, out);
}

void DictionaryArray::RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                                  uint64_t* out) const {
  RangeUnpackCodes(replica, begin, end, out);
  const uint64_t* dict = dictionary(replica);
  for (uint64_t i = 0; i < end - begin; ++i) {
    out[i] = dict[out[i]];
  }
}

uint64_t DictionaryArray::RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const {
  uint64_t sum = 0;
  uint64_t values[kChunkElems];
  for (uint64_t lo = begin; lo < end; lo += kChunkElems) {
    const uint64_t hi = std::min(end, lo + kChunkElems);
    RangeUnpack(replica, lo, hi, values);
    for (uint64_t i = 0; i < hi - lo; ++i) {
      sum += values[i];
    }
  }
  return sum;
}

namespace {

template <ScanOp kOp>
uint64_t DictionaryScan(const DictionaryArray& array, const uint64_t* replica, uint64_t begin,
                        uint64_t end, Predicate p, uint64_t* bitmap, ScanStats* stats) {
  const ScanPredicate np = NormalizePredicate(p, array.bits());
  if (begin >= end || np.trivial()) {
    return AnswerTrivially<kOp>(array, replica, begin, end, np, bitmap, stats);
  }
  // The same predicate over codes: v < bound holds exactly for the codes
  // below bound's insertion point, and v == bound for bound's own code, if
  // the dictionary holds it.
  const uint64_t* dict = array.dictionary(replica);
  const uint64_t size = array.dictionary_size();
  const uint64_t at = std::lower_bound(dict, dict + size, np.bound) - dict;
  Predicate codes{np.invert ? CmpOp::kGe : CmpOp::kLt, at};
  if (np.kind == ScanPredicate::Kind::kEq) {
    codes = at < size && dict[at] == np.bound
                ? Predicate{np.invert ? CmpOp::kNe : CmpOp::kEq, at}
                : Predicate{np.invert ? CmpOp::kGe : CmpOp::kLt, 0};
  }
  const ScanPredicate cp = NormalizePredicate(codes, array.code_bits());
  const CodecOps& codec = CodecFor(array.code_bits());
  return WalkScan<kOp>(
      array, codec, replica, begin, end, np, bitmap, stats, cp,
      [&](uint64_t lo, uint64_t hi, ScanPredicate dp) {
        uint64_t sum = 0;
        uint64_t block[kChunkElems];
        for (uint64_t b = lo; b < hi; b += kChunkElems) {
          const uint64_t n = std::min<uint64_t>(kChunkElems, hi - b);
          array.RangeUnpackCodes(replica, b, b + n, block);
          for (uint64_t i = 0; i < n; ++i) {
            sum += Matches(dp, block[i]) ? dict[block[i]] : 0;
          }
        }
        return sum;
      },
      [&](uint64_t lo, uint64_t hi) { return array.DictionaryArray::RangeSum(replica, lo, hi); });
}

}  // namespace

uint64_t DictionaryArray::CountIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                  Predicate p, ScanStats* stats) const {
  return DictionaryScan<ScanOp::kCount>(*this, replica, begin, end, p, nullptr, stats);
}

uint64_t DictionaryArray::SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                   Predicate p, uint64_t* bitmap, ScanStats* stats) const {
  return DictionaryScan<ScanOp::kSelect>(*this, replica, begin, end, p, bitmap, stats);
}

uint64_t DictionaryArray::FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end,
                                      Predicate p, ScanStats* stats) const {
  return DictionaryScan<ScanOp::kSum>(*this, replica, begin, end, p, nullptr, stats);
}

}  // namespace sa::smart
