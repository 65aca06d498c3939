// Default pushdown-scan and range implementations for SmartArray (declared
// in smart_array.h): the bit-packed payload read through the codec table,
// scans walked by the shared zone walker (chunk_walk.h) with the predicate
// itself as the payload predicate. Also the encode twin of RangeUnpack, the
// checked bulk writer PackRange (declared in parallel_ops.h).

#include <algorithm>

#include "smart/chunk_walk.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"
#include "smart/smart_array.h"

namespace sa::smart {

uint64_t SmartArray::RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const {
  return CodecFor(bits_).sum_range(replica, begin, end);
}

void SmartArray::RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                             uint64_t* out) const {
  CodecFor(bits_).unpack_range(replica, begin, end, out);
}

bool TryPackRange(SmartArray& array, uint64_t begin, uint64_t end, const uint64_t* in) {
  SA_CHECK_MSG(begin <= end && end <= array.length(), "pack range out of bounds");
  SA_CHECK_MSG(array.encoding() == Encoding::kBitPacked,
               "bulk pack requires the bit-packed encoding");
  for (uint64_t i = begin; i < end;) {
    const uint64_t chunk = i / kChunkElems;
    const uint64_t chunk_first = chunk * kChunkElems;
    const uint64_t chunk_last = std::min(array.length(), chunk_first + kChunkElems);
    const uint64_t stop = std::min(end, chunk_last);
    const auto [lo, hi] = ChunkBounds(in + (i - begin), stop - i);
    if (SA_UNLIKELY(hi > array.max_value())) {
      return false;
    }
    if (i == chunk_first && stop == chunk_last) {
      array.SetZoneBounds(chunk, lo, hi);
    } else {
      array.WidenZoneBounds(chunk, lo, hi);
    }
    i = stop;
  }
  const CodecOps& codec = CodecFor(array.bits());
  for (int r = 0; r < array.num_replicas(); ++r) {
    codec.pack_range(array.MutableReplica(r), begin, end, in);
  }
  return true;
}

void PackRange(SmartArray& array, uint64_t begin, uint64_t end, const uint64_t* in) {
  SA_CHECK_MSG(TryPackRange(array, begin, end, in), "value exceeds the array's bit width");
}

namespace {

template <ScanOp kOp>
uint64_t BitPackedScan(const SmartArray& array, const uint64_t* replica, uint64_t begin,
                       uint64_t end, Predicate p, uint64_t* bitmap, ScanStats* stats) {
  const ScanPredicate np = NormalizePredicate(p, array.bits());
  if (begin >= end || np.trivial()) {
    return AnswerTrivially<kOp>(array, replica, begin, end, np, bitmap, stats);
  }
  const CodecOps& codec = CodecFor(array.bits());
  return WalkScan<kOp>(
      array, codec, replica, begin, end, np, bitmap, stats, np,
      [&](uint64_t lo, uint64_t hi, ScanPredicate dp) {
        return codec.filtered_sum_range(replica, lo, hi, dp);
      },
      [&](uint64_t lo, uint64_t hi) { return codec.sum_range(replica, lo, hi); });
}

}  // namespace

uint64_t SmartArray::CountIf(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                             ScanStats* stats) const {
  return BitPackedScan<ScanOp::kCount>(*this, replica, begin, end, p, nullptr, stats);
}

uint64_t SmartArray::SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                              uint64_t* bitmap, ScanStats* stats) const {
  return BitPackedScan<ScanOp::kSelect>(*this, replica, begin, end, p, bitmap, stats);
}

uint64_t SmartArray::FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 Predicate p, ScanStats* stats) const {
  return BitPackedScan<ScanOp::kSum>(*this, replica, begin, end, p, nullptr, stats);
}

}  // namespace sa::smart
