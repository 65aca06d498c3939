#include "smart/entry_points.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/macros.h"
#include "smart/dispatch.h"
#include "smart/iterator.h"
#include "smart/parallel_ops.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace {

using sa::smart::CodecFor;
using sa::smart::Placement;
using sa::smart::PlacementSpec;
using sa::smart::SmartArray;

std::mutex g_topology_mu;
std::unique_ptr<sa::platform::Topology> g_topology;

const sa::platform::Topology& DefaultTopology() {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  if (g_topology == nullptr) {
    g_topology = std::make_unique<sa::platform::Topology>(sa::platform::Topology::Host());
  }
  return *g_topology;
}

SmartArray* Array(void* sa) { return static_cast<SmartArray*>(sa); }
const SmartArray* Array(const void* sa) { return static_cast<const SmartArray*>(sa); }

// Entry-point iterator state: the C-ABI analogue of CompressedIterator's
// buffer, usable for every width.
struct EntryIterator {
  const SmartArray* array = nullptr;
  const uint64_t* replica = nullptr;
  uint64_t index = 0;
  uint64_t buffered_chunk = ~uint64_t{0};
  uint64_t buffer[sa::kChunkElems] = {};
};

EntryIterator* Iter(void* it) { return static_cast<EntryIterator*>(it); }

uint64_t IterGetImpl(EntryIterator* it, uint32_t bits) {
  SA_DCHECK(it->index < it->array->length());
  if (bits == 64) {
    return it->replica[it->index];
  }
  if (bits == 32) {
    return reinterpret_cast<const uint32_t*>(it->replica)[it->index];
  }
  const uint64_t chunk = it->index / sa::kChunkElems;
  if (SA_UNLIKELY(chunk != it->buffered_chunk)) {
    CodecFor(bits).unpack(it->replica, chunk, it->buffer);
    it->buffered_chunk = chunk;
  }
  return it->buffer[it->index % sa::kChunkElems];
}

}  // namespace

extern "C" {

void saSetDefaultTopology(int sockets, int cpus_per_socket) {
  std::lock_guard<std::mutex> lock(g_topology_mu);
  if (sockets <= 0) {
    g_topology = std::make_unique<sa::platform::Topology>(sa::platform::Topology::Host());
  } else {
    g_topology = std::make_unique<sa::platform::Topology>(
        sa::platform::Topology::Synthetic(sockets, cpus_per_socket));
  }
}

int saGetNumSockets(void) { return DefaultTopology().num_sockets(); }

void* saArrayAllocate(uint64_t length, int replicated, int interleaved, int pinned,
                      uint32_t bits) {
  SA_CHECK_MSG(length > 0, "smart arrays cannot be empty");
  SA_CHECK_MSG(bits >= 1 && bits <= 64, "bit width must be 1..64");
  SA_CHECK_MSG(!(replicated && interleaved), "data placements cannot be combined");
  SA_CHECK_MSG(!((replicated || interleaved) && pinned >= 0),
               "data placements cannot be combined");
  PlacementSpec placement = PlacementSpec::OsDefault();
  if (replicated) {
    placement = PlacementSpec::Replicated();
  } else if (interleaved) {
    placement = PlacementSpec::Interleaved();
  } else if (pinned >= 0) {
    placement = PlacementSpec::SingleSocket(pinned);
  }
  return SmartArray::Allocate(length, placement, bits, DefaultTopology()).release();
}

void saArrayFree(void* sa) { delete Array(sa); }

uint64_t saArrayGetLength(const void* sa) { return Array(sa)->length(); }
uint32_t saArrayGetBits(const void* sa) { return Array(sa)->bits(); }
int saArrayIsReplicated(const void* sa) { return Array(sa)->replicated() ? 1 : 0; }
uint64_t saArrayFootprintBytes(const void* sa) { return Array(sa)->footprint_bytes(); }

const uint64_t* saArrayGetReplica(const void* sa) {
  return Array(sa)->GetReplicaForCurrentThread();
}

void saArrayInit(void* sa, uint64_t index, uint64_t value) {
  SmartArray* a = Array(sa);
  SA_CHECK_MSG(index < a->length(), "index out of range");
  a->Init(index, value);
}

uint64_t saArrayGet(const void* sa, uint64_t index) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(index < a->length(), "index out of range");
  return a->Get(index, a->GetReplicaForCurrentThread());
}

void saArrayUnpack(const void* sa, uint64_t chunk, uint64_t* out) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(chunk < a->num_chunks(), "chunk out of range");
  a->Unpack(chunk, a->GetReplicaForCurrentThread(), out);
}

void saArrayUnpackRange(const void* sa, uint64_t begin, uint64_t end, uint64_t* out) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(begin <= end && end <= a->length(), "decode range out of bounds");
  // Virtual bulk decode: correct for every encoding, still one width
  // dispatch + chunk-streaming kernels for the bit-packed default.
  a->RangeUnpack(a->GetReplicaForCurrentThread(), begin, end, out);
}

void saArrayPackRange(void* sa, uint64_t begin, uint64_t end, const uint64_t* in) {
  SmartArray* a = Array(sa);
  SA_CHECK(begin <= end && end <= a->length());
  SA_CHECK_MSG(a->encoding() == sa::smart::Encoding::kBitPacked,
               "bulk pack requires the bit-packed encoding");
  const uint64_t mask = ~sa::LowMask(a->bits());
  uint64_t any = 0;
  for (uint64_t i = 0; i < end - begin; ++i) {
    any |= in[i];
  }
  SA_CHECK_MSG((any & mask) == 0, "value exceeds the array's bit width");
  // PackRange (parallel_ops.h) also maintains the chunk zone maps, which a
  // raw codec pack would silently leave stale-narrow.
  sa::smart::PackRange(*a, begin, end, in);
}

void saArrayInitWithBits(void* sa, uint64_t index, uint64_t value, uint32_t bits) {
  SmartArray* a = Array(sa);
  // A mismatched width would run the wrong codec geometry over the replica
  // words — silent corruption, or reads/writes past the mapped region for
  // wider-than-actual widths. Foreign callers pass `bits` as a plain long,
  // so this boundary stays a hard check, not a debug assert.
  SA_CHECK_MSG(a->bits() == bits, "width does not match the array");
  SA_CHECK_MSG(a->encoding() == sa::smart::Encoding::kBitPacked,
               "width-branched access requires the bit-packed encoding");
  SA_CHECK_MSG(index < a->length(), "index out of range");
  // Widen-before-write, same ordering as the virtual Init path: a scan that
  // observes the new value must already see a zone admitting it.
  a->WidenZone(index, value);
  const auto& codec = CodecFor(bits);
  for (int r = 0; r < a->num_replicas(); ++r) {
    codec.init(a->MutableReplica(r), index, value);
  }
}

uint64_t saArrayGetWithBits(const void* sa, uint64_t index, uint32_t bits) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(a->bits() == bits, "width does not match the array");
  SA_CHECK_MSG(a->encoding() == sa::smart::Encoding::kBitPacked,
               "width-branched access requires the bit-packed encoding");
  SA_CHECK_MSG(index < a->length(), "index out of range");
  return CodecFor(bits).get(a->GetReplicaForCurrentThread(), index);
}

void* saIterAllocate(const void* sa, uint64_t index) {
  const SmartArray* a = Array(sa);
  // index == length is a legal one-past-the-end resting position (a scan
  // loop allocates at its start bound, which may equal its end bound).
  SA_CHECK_MSG(index <= a->length(), "iterator index out of range");
  SA_CHECK_MSG(a->encoding() == sa::smart::Encoding::kBitPacked,
               "iterators read the bit-packed encoding");
  auto* it = new EntryIterator;
  it->array = a;
  it->replica = a->GetReplicaForCurrentThread();
  it->index = index;
  return it;
}

void saIterFree(void* it) { delete Iter(it); }

void saIterReset(void* it, uint64_t index) {
  EntryIterator* e = Iter(it);
  SA_CHECK_MSG(index <= e->array->length(), "iterator index out of range");
  e->index = index;
  e->buffered_chunk = ~uint64_t{0};
}

uint64_t saIterGet(void* it) {
  EntryIterator* e = Iter(it);
  return IterGetImpl(e, e->array->bits());
}

void saIterNext(void* it) { ++Iter(it)->index; }

uint64_t saIterGetWithBits(void* it, uint32_t bits) { return IterGetImpl(Iter(it), bits); }

void saIterNextWithBits(void* it, uint32_t bits) {
  (void)bits;  // widths share the bump; the parameter mirrors the thin API
  ++Iter(it)->index;
}

void saArrayMapRange(const void* sa, uint64_t begin, uint64_t end, saMapCallback callback,
                     void* ctx) {
  const SmartArray* a = Array(sa);
  SA_CHECK(begin <= end && end <= a->length());
  if (begin == end) {
    return;
  }
  const uint64_t* replica = a->GetReplicaForCurrentThread();
  uint64_t buffer[sa::kChunkElems];
  // Chunk-aligned spans after a partial head, decoded through the array's
  // own (encoding-polymorphic) bulk decode.
  for (uint64_t i = begin; i < end;) {
    const uint64_t span_end = std::min(end, sa::AlignUp(i + 1, sa::kChunkElems));
    a->RangeUnpack(replica, i, span_end, buffer);
    callback(buffer, span_end - i, i, ctx);
    i = span_end;
  }
}

uint64_t saArraySumRange(const void* sa, uint64_t begin, uint64_t end) {
  const SmartArray* a = Array(sa);
  SA_CHECK(begin <= end && end <= a->length());
  // Straight to the measured range walker (CodecFor) via the
  // encoding-polymorphic seam: foreign callers aggregate at the same speed
  // as native ParallelSum batches, with no per-chunk callback round trips.
  return a->RangeSum(a->GetReplicaForCurrentThread(), begin, end);
}

uint64_t saArraySum2Range(const void* sa1, const void* sa2, uint64_t begin, uint64_t end) {
  const SmartArray* a1 = Array(sa1);
  const SmartArray* a2 = Array(sa2);
  SA_CHECK(begin <= end && end <= a1->length() && end <= a2->length());
  SA_CHECK_MSG(a1->bits() == a2->bits(), "fused aggregation arrays share a width");
  if (a1->encoding() != sa::smart::Encoding::kBitPacked ||
      a2->encoding() != sa::smart::Encoding::kBitPacked) {
    // The fused kernel reads the bit-packed layout; the sum is the same.
    return a1->RangeSum(a1->GetReplicaForCurrentThread(), begin, end) +
           a2->RangeSum(a2->GetReplicaForCurrentThread(), begin, end);
  }
  return CodecFor(a1->bits())
      .sum2_range(a1->GetReplicaForCurrentThread(), a2->GetReplicaForCurrentThread(), begin,
                  end);
}

uint64_t saArrayCountIf(const void* sa, uint64_t begin, uint64_t end, int op,
                        uint64_t constant) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(begin <= end && end <= a->length(), "scan range out of bounds");
  SA_CHECK_MSG(op >= 0 && op < 6, "unknown comparison operator");
  const sa::smart::Predicate p{static_cast<sa::smart::CmpOp>(op), constant};
  return a->CountIf(a->GetReplicaForCurrentThread(), begin, end, p);
}

uint64_t saArraySelectIf(const void* sa, uint64_t begin, uint64_t end, int op,
                         uint64_t constant, uint64_t* bitmap, uint64_t bitmap_words) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(begin <= end && end <= a->length(), "scan range out of bounds");
  SA_CHECK_MSG(op >= 0 && op < 6, "unknown comparison operator");
  const uint64_t n = end - begin;
  if (n == 0) {
    return 0;
  }
  // The buffer size arrives from an untrusted caller: an undersized bitmap
  // would turn the emit into a heap overwrite, so both the pointer and the
  // capacity are hard checks, not debug asserts.
  SA_CHECK_MSG(bitmap != nullptr, "selection bitmap must not be null");
  SA_CHECK_MSG(bitmap_words >= (n + sa::kWordBits - 1) / sa::kWordBits,
               "selection bitmap too small for the range");
  const sa::smart::Predicate p{static_cast<sa::smart::CmpOp>(op), constant};
  return a->SelectIf(a->GetReplicaForCurrentThread(), begin, end, p, bitmap);
}

uint64_t saArrayFilteredSum(const void* sa, uint64_t begin, uint64_t end, int op,
                            uint64_t constant) {
  const SmartArray* a = Array(sa);
  SA_CHECK_MSG(begin <= end && end <= a->length(), "scan range out of bounds");
  SA_CHECK_MSG(op >= 0 && op < 6, "unknown comparison operator");
  const sa::smart::Predicate p{static_cast<sa::smart::CmpOp>(op), constant};
  return a->FilteredSum(a->GetReplicaForCurrentThread(), begin, end, p);
}

}  // extern "C"
