#include "smart/for_delta.h"

#include <algorithm>

#include "common/bits.h"
#include "obs/telemetry.h"
#include "smart/dispatch.h"

namespace sa::smart {
namespace {

// Chunks a scan range: invokes fn(chunk, lo, hi) for every chunk overlapping
// [begin, end), with [lo, hi) the overlap.
template <typename Fn>
void ForEachChunkSpan(uint64_t begin, uint64_t end, Fn&& fn) {
  const uint64_t first = begin / kChunkElems;
  const uint64_t last = (end - 1) / kChunkElems;
  for (uint64_t chunk = first; chunk <= last; ++chunk) {
    fn(chunk, std::max(begin, chunk * kChunkElems), std::min(end, (chunk + 1) * kChunkElems));
  }
}

}  // namespace

ForDeltaArray::ForDeltaArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                             uint32_t delta_bits, const platform::Topology& topology,
                             std::vector<uint64_t> bases)
    : SmartArray(length, placement, bits, delta_bits, topology), bases_(std::move(bases)) {
  SA_DCHECK(bases_.size() == num_chunks());
}

std::unique_ptr<SmartArray> ForDeltaArray::TryBuild(const SmartArray& source,
                                                    PlacementSpec placement,
                                                    uint32_t logical_bits,
                                                    const platform::Topology& topology) {
  const uint64_t length = source.length();
  const uint64_t chunks = source.num_chunks();
  const uint32_t bits = logical_bits == 0 ? source.bits() : logical_bits;
  const uint64_t* src = source.GetReplica(0);

  // Pass 1: measure. Bases come from the data, not the (conservative) zone
  // maps, so a stale-wide zone cannot inflate the stored delta width.
  std::vector<uint64_t> bases(chunks);
  std::vector<uint64_t> maxima(chunks);
  uint32_t delta_bits = 1;
  uint64_t buffer[kChunkElems];
  for (uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const uint64_t lo = chunk * kChunkElems;
    const uint64_t hi = std::min(length, lo + kChunkElems);
    source.RangeUnpack(src, lo, hi, buffer);
    uint64_t vmin = buffer[0];
    uint64_t vmax = buffer[0];
    for (uint64_t i = 1; i < hi - lo; ++i) {
      vmin = std::min(vmin, buffer[i]);
      vmax = std::max(vmax, buffer[i]);
    }
    bases[chunk] = vmin;
    maxima[chunk] = vmax;
    delta_bits = std::max(delta_bits, BitsForValue(vmax - vmin));
  }

  std::unique_ptr<ForDeltaArray> array(
      new ForDeltaArray(length, placement, bits, delta_bits, topology, std::move(bases)));
  if (!array->allocation_ok()) {
    return nullptr;
  }

  // Pass 2: pack deltas into every replica and install the exact zones the
  // measurement just produced.
  const CodecOps& codec = CodecFor(delta_bits);
  for (uint64_t chunk = 0; chunk < chunks; ++chunk) {
    const uint64_t lo = chunk * kChunkElems;
    const uint64_t hi = std::min(length, lo + kChunkElems);
    source.RangeUnpack(src, lo, hi, buffer);
    const uint64_t base = array->bases_[chunk];
    for (uint64_t i = 0; i < hi - lo; ++i) {
      buffer[i] -= base;
    }
    for (int r = 0; r < array->num_replicas(); ++r) {
      codec.pack_range(array->MutableReplica(r), lo, hi, buffer);
    }
    array->SetZoneBounds(chunk, base, maxima[chunk]);
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
  const uint64_t base = bases_[index / kChunkElems];
  return SmartArray::Admits(index, value) && value >= base &&
         value - base <= LowMask(storage_bits());
}

uint64_t ForDeltaArray::DeltaForWrite(uint64_t index, uint64_t value) const {
  SA_CHECK_MSG(Admits(index, value),
               "for-delta write outside the chunk frame: restructure to bit-packed first");
  return value - bases_[index / kChunkElems];
}

void ForDeltaArray::Init(uint64_t index, uint64_t value) {
  const uint64_t delta = DeltaForWrite(index, value);
  WidenZone(index, value);
  const CodecOps& codec = CodecFor(storage_bits());
  for (int r = 0; r < num_replicas(); ++r) {
    codec.init(MutableReplica(r), index, delta);
  }
}

void ForDeltaArray::InitAtomic(uint64_t index, uint64_t value) {
  const uint64_t delta = DeltaForWrite(index, value);
  WidenZone(index, value);
  const CodecOps& codec = CodecFor(storage_bits());
  for (int r = 0; r < num_replicas(); ++r) {
    codec.init_atomic(MutableReplica(r), index, delta);
  }
}

uint64_t ForDeltaArray::Get(uint64_t index, const uint64_t* replica) const {
  return bases_[index / kChunkElems] + CodecFor(storage_bits()).get(replica, index);
}

void ForDeltaArray::Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const {
  CodecFor(storage_bits()).unpack(replica, chunk, out);
  const uint64_t base = bases_[chunk];
  for (uint32_t i = 0; i < kChunkElems; ++i) {
    out[i] += base;
  }
}

uint64_t ForDeltaArray::RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const {
  if (begin >= end) {
    return 0;
  }
  uint64_t sum = CodecFor(storage_bits()).sum_range(replica, begin, end);
  ForEachChunkSpan(begin, end,
                   [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
                     sum += bases_[chunk] * (hi - lo);
                   });
  return sum;
}

void ForDeltaArray::RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                                uint64_t* out) const {
  if (begin >= end) {
    return;
  }
  CodecFor(storage_bits()).unpack_range(replica, begin, end, out);
  ForEachChunkSpan(begin, end, [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
    const uint64_t base = bases_[chunk];
    for (uint64_t i = lo; i < hi; ++i) {
      out[i - begin] += base;
    }
  });
}

// The FoR scans run their own chunk walk (no run coalescing: the delta
// translation re-parameterizes the predicate per chunk anyway). Zone maps
// hold absolute values, so the skip/all-match pruning is identical to the
// bit-packed walker's; only the mixed-chunk kernel calls differ.

uint64_t ForDeltaArray::CountIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                Predicate p, ScanStats* stats) const {
  SA_DCHECK(begin <= end && end <= length());
  if (begin >= end) {
    return 0;
  }
  const ScanPredicate np = NormalizePredicate(p, bits());
  if (np.trivial()) {
    return np.kind == ScanPredicate::Kind::kAll ? end - begin : 0;
  }
  const CodecOps& codec = CodecFor(storage_bits());
  uint64_t count = 0;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  ForEachChunkSpan(begin, end, [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
    ZoneVerdict verdict = ClassifyZone(np, ZoneMin(chunk), ZoneMax(chunk));
    ScanPredicate dp{};
    if (verdict == ZoneVerdict::kMixed) {
      dp = TranslateToDelta(np, bases_[chunk], storage_bits());
      if (dp.kind == ScanPredicate::Kind::kNone) {
        verdict = ZoneVerdict::kSkip;
      } else if (dp.kind == ScanPredicate::Kind::kAll) {
        verdict = ZoneVerdict::kAllMatch;
      }
    }
    switch (verdict) {
      case ZoneVerdict::kSkip:
        ++skipped;
        break;
      case ZoneVerdict::kAllMatch:
        ++skipped;
        count += hi - lo;
        break;
      case ZoneVerdict::kMixed:
        ++scanned;
        count += codec.count_if_range(replica, lo, hi, dp);
        break;
    }
  });
  SA_OBS_COUNT_N(kScanChunksScanned, scanned);
  SA_OBS_COUNT_N(kScanChunksSkipped, skipped);
  if (stats != nullptr) {
    stats->chunks_scanned += scanned;
    stats->chunks_skipped += skipped;
  }
  return count;
}

uint64_t ForDeltaArray::SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 Predicate p, uint64_t* bitmap, ScanStats* stats) const {
  SA_DCHECK(begin <= end && end <= length());
  if (begin >= end) {
    return 0;
  }
  const uint64_t n = end - begin;
  for (uint64_t w = 0; w < (n + kWordBits - 1) / kWordBits; ++w) {
    bitmap[w] = 0;
  }
  const ScanPredicate np = NormalizePredicate(p, bits());
  if (np.trivial()) {
    if (np.kind != ScanPredicate::Kind::kAll) {
      return 0;
    }
    SetBitRange(bitmap, 0, n);
    return n;
  }
  const CodecOps& codec = CodecFor(storage_bits());
  uint64_t count = 0;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  ForEachChunkSpan(begin, end, [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
    ZoneVerdict verdict = ClassifyZone(np, ZoneMin(chunk), ZoneMax(chunk));
    ScanPredicate dp{};
    if (verdict == ZoneVerdict::kMixed) {
      dp = TranslateToDelta(np, bases_[chunk], storage_bits());
      if (dp.kind == ScanPredicate::Kind::kNone) {
        verdict = ZoneVerdict::kSkip;
      } else if (dp.kind == ScanPredicate::Kind::kAll) {
        verdict = ZoneVerdict::kAllMatch;
      }
    }
    switch (verdict) {
      case ZoneVerdict::kSkip:
        ++skipped;
        break;
      case ZoneVerdict::kAllMatch:
        ++skipped;
        SetBitRange(bitmap, lo - begin, hi - begin);
        count += hi - lo;
        break;
      case ZoneVerdict::kMixed:
        ++scanned;
        count += codec.select_if_range(replica, lo, hi, dp, bitmap, lo - begin);
        break;
    }
  });
  SA_OBS_COUNT_N(kScanChunksScanned, scanned);
  SA_OBS_COUNT_N(kScanChunksSkipped, skipped);
  if (stats != nullptr) {
    stats->chunks_scanned += scanned;
    stats->chunks_skipped += skipped;
  }
  return count;
}

uint64_t ForDeltaArray::FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end,
                                    Predicate p, ScanStats* stats) const {
  SA_DCHECK(begin <= end && end <= length());
  if (begin >= end) {
    return 0;
  }
  const ScanPredicate np = NormalizePredicate(p, bits());
  if (np.trivial()) {
    return np.kind == ScanPredicate::Kind::kAll ? RangeSum(replica, begin, end) : 0;
  }
  const CodecOps& codec = CodecFor(storage_bits());
  uint64_t sum = 0;
  uint64_t scanned = 0;
  uint64_t skipped = 0;
  ForEachChunkSpan(begin, end, [&](uint64_t chunk, uint64_t lo, uint64_t hi) {
    ZoneVerdict verdict = ClassifyZone(np, ZoneMin(chunk), ZoneMax(chunk));
    ScanPredicate dp{};
    if (verdict == ZoneVerdict::kMixed) {
      dp = TranslateToDelta(np, bases_[chunk], storage_bits());
      if (dp.kind == ScanPredicate::Kind::kNone) {
        verdict = ZoneVerdict::kSkip;
      } else if (dp.kind == ScanPredicate::Kind::kAll) {
        verdict = ZoneVerdict::kAllMatch;
      }
    }
    switch (verdict) {
      case ZoneVerdict::kSkip:
        ++skipped;
        break;
      case ZoneVerdict::kAllMatch:
        ++skipped;
        sum += RangeSum(replica, lo, hi);
        break;
      case ZoneVerdict::kMixed: {
        ++scanned;
        // Absolute filtered sum = delta filtered sum + base * match count;
        // the base term needs the count, so mixed FoR chunks pay a second
        // (mask-only) kernel pass.
        const uint64_t matches = codec.count_if_range(replica, lo, hi, dp);
        sum += codec.filtered_sum_range(replica, lo, hi, dp) + bases_[chunk] * matches;
        break;
      }
    }
  });
  SA_OBS_COUNT_N(kScanChunksScanned, scanned);
  SA_OBS_COUNT_N(kScanChunksSkipped, skipped);
  if (stats != nullptr) {
    stats->chunks_scanned += scanned;
    stats->chunks_skipped += skipped;
  }
  return sum;
}

}  // namespace sa::smart
