#include "smart/run_length.h"

#include <algorithm>

#include "common/bits.h"
#include "smart/chunk_walk.h"
#include "smart/dispatch.h"

namespace sa::smart {

RunLengthArray::RunLengthArray(uint64_t length, PlacementSpec placement, uint32_t bits,
                               uint64_t num_runs, uint32_t value_bits,
                               const platform::Topology& topology)
    : SmartArray(length, placement, bits, value_bits,
                 (num_runs + kChunkElems - 1) / kChunkElems *
                     (WordsPerChunk(BitsForValue(length - 1)) + WordsPerChunk(value_bits)),
                 topology),
      num_runs_(num_runs),
      start_bits_(BitsForValue(length - 1)),
      values_((num_runs + kChunkElems - 1) / kChunkElems * WordsPerChunk(start_bits_)) {}

std::unique_ptr<SmartArray> RunLengthArray::TryBuild(const SmartArray& source,
                                                     PlacementSpec placement,
                                                     uint32_t logical_bits,
                                                     const platform::Topology& topology) {
  // Pass 1: count the runs and measure the widest value.
  uint64_t runs = 0;
  uint64_t max_value = 0;
  uint64_t previous = 0;
  ForEachSourceChunk(source, [&](uint64_t chunk, const uint64_t* values, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      runs += (chunk == 0 && i == 0) || values[i] != previous;
      previous = values[i];
      max_value = std::max(max_value, values[i]);
    }
  });
  std::unique_ptr<RunLengthArray> array(new RunLengthArray(
      source.length(), placement, logical_bits == 0 ? source.bits() : logical_bits, runs,
      BitsForValue(max_value), topology));
  if (!array->allocation_ok()) {
    return nullptr;
  }

  // Pass 2: write each run's start and value into every replica, and
  // install each chunk's exact zone.
  const CodecOps& starts = CodecFor(array->start_bits_);
  const CodecOps& run_values = CodecFor(array->storage_bits_);
  uint64_t run = 0;
  ForEachSourceChunk(source, [&](uint64_t chunk, const uint64_t* values, uint64_t n) {
    for (uint64_t i = 0; i < n; ++i) {
      if ((chunk == 0 && i == 0) || values[i] != previous) {
        for (int r = 0; r < array->num_replicas(); ++r) {
          uint64_t* replica = array->MutableReplica(r);
          starts.init(replica, run, chunk * kChunkElems + i);
          run_values.init(replica + array->values_, run, values[i]);
        }
        ++run;
      }
      previous = values[i];
    }
    const auto [min, max] = ChunkBounds(values, n);
    array->SetZoneBounds(chunk, min, max);
  });
  return array;
}

uint64_t RunLengthArray::FindRun(uint64_t index, const uint64_t* replica) const {
  // Largest run whose start <= index (starts are strictly increasing).
  const CodecOps& starts = CodecFor(start_bits_);
  uint64_t lo = 0;
  uint64_t hi = num_runs_;  // exclusive
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    if (starts.get(replica, mid) <= index) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

template <typename Fn>
void RunLengthArray::ForEachRun(const uint64_t* replica, uint64_t begin, uint64_t end,
                                Fn&& fn) const {
  if (begin >= end) {
    return;
  }
  const CodecOps& starts = CodecFor(start_bits_);
  const CodecOps& run_values = CodecFor(storage_bits_);
  uint64_t run = FindRun(begin, replica);
  uint64_t lo = begin;
  // Runs decode in blocks: the values of runs [run, run + n) and the starts
  // of their successors, which end them.
  uint64_t block_values[kChunkElems];
  uint64_t block_ends[kChunkElems];
  while (lo < end) {
    // Every run covers at least one element, so [lo, end) spans at most
    // end - lo of them.
    const uint64_t n = std::min({uint64_t{kChunkElems}, num_runs_ - run, end - lo});
    run_values.unpack_range(replica + values_, run, run + n, block_values);
    const uint64_t with_successor = std::min(n, num_runs_ - run - 1);
    starts.unpack_range(replica, run + 1, run + 1 + with_successor, block_ends);
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

uint64_t RunLengthArray::Get(uint64_t index, const uint64_t* replica) const {
  SA_DCHECK(index < length_);
  return CodecFor(storage_bits_).get(replica + values_, FindRun(index, replica));
}

bool RunLengthArray::Admits(uint64_t index, uint64_t value) const {
  return Get(index, replica_ptrs_[0]) == value;
}

void RunLengthArray::Init(uint64_t index, uint64_t value) {
  SA_CHECK_MSG(Admits(index, value),
               "run-length write that changes a run's value: restructure to bit-packed first");
}

void RunLengthArray::InitAtomic(uint64_t index, uint64_t value) { Init(index, value); }

void RunLengthArray::Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const {
  const uint64_t lo = chunk * kChunkElems;
  const uint64_t hi = std::min(length_, lo + kChunkElems);
  RangeUnpack(replica, lo, hi, out);
  std::fill(out + (hi - lo), out + kChunkElems, uint64_t{0});
}

void RunLengthArray::RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 uint64_t* out) const {
  ForEachRun(replica, begin, end, [&](uint64_t value, uint64_t lo, uint64_t hi) {
    std::fill(out + (lo - begin), out + (hi - begin), value);
  });
}

uint64_t RunLengthArray::RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const {
  uint64_t sum = 0;
  ForEachRun(replica, begin, end,
             [&](uint64_t value, uint64_t lo, uint64_t hi) { sum += value * (hi - lo); });
  return sum;
}

uint64_t RunLengthArray::CountIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 Predicate p, ScanStats*) const {
  uint64_t count = 0;
  ForEachRun(replica, begin, end, [&](uint64_t value, uint64_t lo, uint64_t hi) {
    count += Matches(p, value) ? hi - lo : 0;
  });
  return count;
}

uint64_t RunLengthArray::SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end,
                                  Predicate p, uint64_t* bitmap, ScanStats*) const {
  std::fill_n(bitmap, (end - begin + kWordBits - 1) / kWordBits, uint64_t{0});
  uint64_t count = 0;
  ForEachRun(replica, begin, end, [&](uint64_t value, uint64_t lo, uint64_t hi) {
    if (Matches(p, value)) {
      SetBitRange(bitmap, lo - begin, hi - begin);
      count += hi - lo;
    }
  });
  return count;
}

uint64_t RunLengthArray::FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end,
                                     Predicate p, ScanStats*) const {
  uint64_t sum = 0;
  ForEachRun(replica, begin, end, [&](uint64_t value, uint64_t lo, uint64_t hi) {
    sum += Matches(p, value) ? value * (hi - lo) : 0;
  });
  return sum;
}

}  // namespace sa::smart
