#include "smart/for_delta.h"

#include <algorithm>

#include "common/bits.h"
#include "smart/chunk_walk.h"
#include "smart/dispatch.h"

namespace sa::smart {

ForDeltaArray::ForDeltaArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                             uint32_t delta_bits, const platform::Topology& topology)
    : SmartArray(length, placement, bits, delta_bits,
                 (length + kChunkElems - 1) / kChunkElems * (WordsPerChunk(delta_bits) + 1),
                 topology),
      bases_(num_chunks() * WordsPerChunk(delta_bits)) {}

std::unique_ptr<SmartArray> ForDeltaArray::TryBuild(const SmartArray& source,
                                                    PlacementSpec placement,
                                                    uint32_t logical_bits,
                                                    const platform::Topology& topology) {
  // Pass 1: measure the delta width. The frames come from the data, not the
  // (conservative) zone maps, so a stale-wide zone cannot inflate it.
  uint32_t delta_bits = 1;
  ForEachSourceChunk(source, [&](uint64_t, const uint64_t* values, uint64_t n) {
    const auto [min, max] = ChunkBounds(values, n);
    delta_bits = std::max(delta_bits, BitsForValue(max - min));
  });
  std::unique_ptr<ForDeltaArray> array(
      new ForDeltaArray(source.length(), placement,
                        logical_bits == 0 ? source.bits() : logical_bits, delta_bits, topology));
  if (!array->allocation_ok()) {
    return nullptr;
  }

  // Pass 2: take each chunk's frame again from the values it decodes, write
  // every replica's base and deltas, and install the chunk's exact zone. A
  // write that landed on the source between the passes can widen a frame
  // past the measured width: that is the overflow outcome, as for any
  // rebuild that cannot hold a value.
  const CodecOps& codec = CodecFor(delta_bits);
  const uint64_t delta_mask = LowMask(delta_bits);
  bool overflow = false;
  ForEachSourceChunk(source, [&](uint64_t chunk, const uint64_t* values, uint64_t n) {
    const auto [base, max] = ChunkBounds(values, n);
    overflow |= max - base > delta_mask;
    if (overflow) {
      return;
    }
    array->SetZoneBounds(chunk, base, max);
    uint64_t deltas[kChunkElems];
    for (uint64_t i = 0; i < n; ++i) {
      deltas[i] = values[i] - base;
    }
    for (int r = 0; r < array->num_replicas(); ++r) {
      uint64_t* replica = array->MutableReplica(r);
      replica[array->bases_ + chunk] = base;
      codec.pack_range(replica, chunk * kChunkElems, chunk * kChunkElems + n, deltas);
    }
  });
  if (overflow) {
    return nullptr;
  }
  return array;
}

double ForDeltaArray::EstimateDeltaRatio(const SmartArray& source) {
  const uint64_t chunks = source.num_chunks();
  uint32_t delta_bits = 1;
  for (uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const uint64_t zmin = source.ZoneMin(chunk);
    const uint64_t zmax = source.ZoneMax(chunk);
    if (zmin > zmax) {
      return 1.0;  // unknown zone: no basis for a savings claim
    }
    delta_bits = std::max(delta_bits, BitsForValue(zmax - zmin));
  }
  return static_cast<double>(delta_bits) / static_cast<double>(source.bits());
}

bool ForDeltaArray::Admits(uint64_t index, uint64_t value) const {
  const uint64_t base = this->base(index / kChunkElems);
  return SmartArray::Admits(index, value) && value >= base &&
         value - base <= LowMask(storage_bits_);
}

uint64_t ForDeltaArray::DeltaForWrite(uint64_t index, uint64_t value) const {
  SA_CHECK_MSG(Admits(index, value),
               "for-delta write outside the chunk frame: restructure to bit-packed first");
  return value - base(index / kChunkElems);
}

void ForDeltaArray::Init(uint64_t index, uint64_t value) {
  const uint64_t delta = DeltaForWrite(index, value);
  WidenZone(index, value);
  const CodecOps& codec = CodecFor(storage_bits_);
  for (int r = 0; r < num_replicas(); ++r) {
    codec.init(MutableReplica(r), index, delta);
  }
}

void ForDeltaArray::InitAtomic(uint64_t index, uint64_t value) {
  const uint64_t delta = DeltaForWrite(index, value);
  WidenZone(index, value);
  const CodecOps& codec = CodecFor(storage_bits_);
  for (int r = 0; r < num_replicas(); ++r) {
    codec.init_atomic(MutableReplica(r), index, delta);
  }
}

uint64_t ForDeltaArray::Get(uint64_t index, const uint64_t* replica) const {
  return bases(replica)[index / kChunkElems] + CodecFor(storage_bits_).get(replica, index);
}

void ForDeltaArray::Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const {
  CodecFor(storage_bits_).unpack(replica, chunk, out);
  const uint64_t base = bases(replica)[chunk];
  for (uint32_t i = 0; i < kChunkElems; ++i) {
    out[i] += base;
  }
}

uint64_t ForDeltaArray::RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const {
  if (begin >= end) {
    return 0;
  }
  uint64_t sum = CodecFor(storage_bits_).sum_range(replica, begin, end);
  for (uint64_t lo = begin; lo < end;) {
    const uint64_t hi = std::min(end, AlignUp(lo + 1, kChunkElems));
    sum += bases(replica)[lo / kChunkElems] * (hi - lo);
    lo = hi;
  }
  return sum;
}

void ForDeltaArray::RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                                uint64_t* out) const {
  if (begin >= end) {
    return;
  }
  CodecFor(storage_bits_).unpack_range(replica, begin, end, out);
  for (uint64_t lo = begin; lo < end;) {
    const uint64_t hi = std::min(end, AlignUp(lo + 1, kChunkElems));
    const uint64_t base = bases(replica)[lo / kChunkElems];
    for (uint64_t i = lo; i < hi; ++i) {
      out[i - begin] += base;
    }
    lo = hi;
  }
}

namespace {

// Zones hold absolute values, so the skip/all-match pruning is the
// bit-packed walker's; a mixed chunk's frame then re-parameterizes the
// predicate over its deltas.
template <ScanOp kOp>
uint64_t ForDeltaScan(const ForDeltaArray& array, const uint64_t* replica, uint64_t begin,
                      uint64_t end, Predicate p, uint64_t* bitmap, ScanStats* stats) {
  const ScanPredicate np = NormalizePredicate(p, array.bits());
  if (begin >= end || np.trivial()) {
    return AnswerTrivially<kOp>(array, replica, begin, end, np, bitmap, stats);
  }
  const uint32_t delta_bits = array.delta_bits();
  const CodecOps& codec = CodecFor(delta_bits);
  const uint64_t* bases = array.bases(replica);
  return WalkScan<kOp>(
      array, codec, replica, begin, end, np, bitmap, stats,
      [&](uint64_t chunk) { return TranslateToDelta(np, bases[chunk], delta_bits); },
      [&](uint64_t lo, uint64_t hi, ScanPredicate dp) {
        // Absolute filtered sum = delta filtered sum + base * match count;
        // the base term needs the count, so mixed chunks pay a second
        // (mask-only) kernel pass.
        return codec.filtered_sum_range(replica, lo, hi, dp) +
               bases[lo / kChunkElems] * codec.count_if_range(replica, lo, hi, dp);
      },
      [&](uint64_t lo, uint64_t hi) { return array.ForDeltaArray::RangeSum(replica, lo, hi); });
}

}  // namespace

uint64_t ForDeltaArray::CountIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                Predicate p, ScanStats* stats) const {
  return ForDeltaScan<ScanOp::kCount>(*this, replica, begin, end, p, nullptr, stats);
}

uint64_t ForDeltaArray::SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 Predicate p, uint64_t* bitmap, ScanStats* stats) const {
  return ForDeltaScan<ScanOp::kSelect>(*this, replica, begin, end, p, bitmap, stats);
}

uint64_t ForDeltaArray::FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end,
                                    Predicate p, ScanStats* stats) const {
  return ForDeltaScan<ScanOp::kSum>(*this, replica, begin, end, p, nullptr, stats);
}

}  // namespace sa::smart
