// Smart arrays: language-independent 64-bit-integer arrays with pluggable
// smart functionalities — NUMA-aware placement and compression (paper §4,
// Fig. 9, and the alternative techniques of §7).
//
// SmartArray is the abstract unified API and smart::Encoding is its one
// representation seam. kBitPacked is served by the 64 instantiations of
// BitCompressedArray<BITS> (bit_compressed_array.h), with BITS == 32 and
// BITS == 64 specialized to direct native-integer accesses; Allocate() is the
// factory of Fig. 9 that picks one from `bits`. The read-optimised encodings
// (ForDeltaArray, DictionaryArray, RunLengthArray) are built from an existing
// array by TryEncode (restructure.h). Every representation keeps all of its
// words — packed payload and side tables alike — in the replica regions, so
// placement and replication cover all of it and GetReplica(socket) is all a
// reader needs.
#ifndef SA_SMART_SMART_ARRAY_H_
#define SA_SMART_SMART_ARRAY_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/bits.h"
#include "platform/numa_memory.h"
#include "platform/topology.h"
#include "smart/placement.h"
#include "smart/predicate.h"

namespace sa::smart {

// How element values are represented in the backing words. kBitPacked is
// the paper's layout (bits() wide); kForDelta stores per-chunk
// frame-of-reference bases plus bit-packed deltas (for_delta.h); kDictionary
// stores bit-packed codes into a sorted dictionary (dictionary.h);
// kRunLength stores one (start, value) pair per run (run_length.h). The
// values are part of the adaptation trace words: append, never reorder.
enum class Encoding : uint8_t {
  kBitPacked = 0,
  kForDelta = 1,
  kDictionary = 2,
  kRunLength = 3,
};

const char* ToString(Encoding encoding);

// Per-scan accounting: how many chunks the pushdown walker touched vs
// proved irrelevant from their zone alone.
struct ScanStats {
  uint64_t chunks_scanned = 0;
  uint64_t chunks_skipped = 0;
};

class SmartArray {
 public:
  virtual ~SmartArray() = default;

  SmartArray(const SmartArray&) = delete;
  SmartArray& operator=(const SmartArray&) = delete;

  // ---- Basic properties (Fig. 9) ----
  uint64_t length() const { return length_; }
  uint32_t bits() const { return bits_; }
  bool replicated() const { return placement_.kind == Placement::kReplicated; }
  bool interleaved() const { return placement_.kind == Placement::kInterleaved; }
  // Socket the array is pinned to, or -1 when not pinned to a single socket.
  int pinned() const {
    return placement_.kind == Placement::kSingleSocket ? placement_.socket : -1;
  }
  const PlacementSpec& placement() const { return placement_; }
  // Topology the replicas were placed against (kernels allocating scratch
  // arrays beside their inputs place them on the same machine shape).
  const platform::Topology& topology() const { return topology_; }

  int num_replicas() const { return static_cast<int>(regions_.size()); }

  // Replica that threads on `socket` should read. With replication this is
  // the socket-local copy; otherwise the single shared allocation.
  const uint64_t* GetReplica(int socket) const {
    SA_DCHECK(socket >= 0 && socket < num_sockets_);
    return replicated() ? replica_ptrs_[socket] : replica_ptrs_[0];
  }

  // Replica for the calling thread, resolved through the CPU it runs on.
  // Falls back to replica 0 when the socket cannot be determined.
  const uint64_t* GetReplicaForCurrentThread() const;

  // ---- Element access (Functions 1-3 of the paper) ----
  // Writes `value` into element `index` of every replica. Not thread-safe
  // for elements sharing a 64-bit word; see InitAtomic, and PackRange
  // (parallel_ops.h) for ranges.
  virtual void Init(uint64_t index, uint64_t value) = 0;

  // Thread-safe variant of Init using compare-and-swap per touched word.
  // Concurrent InitAtomic calls to *distinct* indices are always safe;
  // concurrent writes to the same index may interleave per word.
  virtual void InitAtomic(uint64_t index, uint64_t value) = 0;

  // Reads element `index` from `replica` (obtained via GetReplica).
  virtual uint64_t Get(uint64_t index, const uint64_t* replica) const = 0;

  // Convenience Get from the current thread's replica.
  uint64_t Get(uint64_t index) const { return Get(index, GetReplicaForCurrentThread()); }

  // Whether Init/InitAtomic can store `value` at `index` without aborting:
  // it fits the width here; encodings with per-chunk frames narrow that.
  virtual bool Admits(uint64_t index, uint64_t value) const {
    (void)index;
    return (value & ~max_value()) == 0;
  }

  // Decodes the 64 elements of `chunk` from `replica` into out[0..63].
  virtual void Unpack(uint64_t chunk, const uint64_t* replica, uint64_t* out) const = 0;

  // ---- Encoding-polymorphic range operations ----
  //
  // The defaults route through the bit-packed codec table (CodecFor(bits));
  // non-bit-packed encodings override them. Callers that cannot assume the
  // paper's packed word geometry (restructure sources, registry snapshots
  // of daemon-chosen representations, entry points) go through these.
  virtual Encoding encoding() const { return Encoding::kBitPacked; }

  // Sum of elements [begin, end) read from `replica`.
  virtual uint64_t RangeSum(const uint64_t* replica, uint64_t begin, uint64_t end) const;

  // Decodes elements [begin, end) from `replica` into out[0 .. end-begin).
  virtual void RangeUnpack(const uint64_t* replica, uint64_t begin, uint64_t end,
                           uint64_t* out) const;

  // ---- Pushdown scans (predicate.h) ----
  //
  // Evaluate `v ⊖ constant` over [begin, end) without materializing the
  // values: chunks whose zone proves no element can match are skipped,
  // all-match chunks answer in closed form, and only mixed chunks run the
  // per-width match-mask kernels. `stats` (optional) receives the
  // scanned/skipped split; the same split feeds the sa_scan_chunks_*
  // telemetry counters.
  virtual uint64_t CountIf(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                           ScanStats* stats = nullptr) const;

  // Emits bit j of `bitmap` = whether element begin+j matches; the callee
  // zeroes the (end-begin+63)/64 output words first. Returns the match
  // count.
  virtual uint64_t SelectIf(const uint64_t* replica, uint64_t begin, uint64_t end, Predicate p,
                            uint64_t* bitmap, ScanStats* stats = nullptr) const;

  virtual uint64_t FilteredSum(const uint64_t* replica, uint64_t begin, uint64_t end,
                               Predicate p, ScanStats* stats = nullptr) const;

  // ---- Chunk zone maps ----
  //
  // Per-chunk [min, max] value bounds, maintained conservatively: element
  // writes only widen (before the data write — see bit_compressed_array.h),
  // PackRange (parallel_ops.h) installs exact bounds on the chunks it
  // covers wholly under its no-concurrent-writer contract, and the encoding
  // builds install exact bounds in the array they build. Bounds are always
  // over element values, whatever the encoding stores. min > max means
  // "unknown"; scans treat it as mixed. A fresh array's zones are the exact
  // [0, 0] of its zero-filled memory.
  uint64_t ZoneMin(uint64_t chunk) const {
    return zone_min_[chunk].load(std::memory_order_relaxed);
  }
  uint64_t ZoneMax(uint64_t chunk) const {
    return zone_max_[chunk].load(std::memory_order_relaxed);
  }

  // Grows chunk bounds to admit `value` (element write path).
  void WidenZone(uint64_t index, uint64_t value) {
    WidenZoneBounds(index / kChunkElems, value, value);
  }

  // Grows chunk bounds to admit the whole interval [lo, hi].
  void WidenZoneBounds(uint64_t chunk, uint64_t lo, uint64_t hi) {
    AtomicMin(zone_min_[chunk], lo);
    AtomicMax(zone_max_[chunk], hi);
  }

  // Replaces chunk bounds outright. Only legal for writers that own every
  // element of the chunk (PackRange on a whole chunk, the encoding builds)
  // — the same contract under which the word writes themselves are safe.
  void SetZoneBounds(uint64_t chunk, uint64_t lo, uint64_t hi) {
    zone_min_[chunk].store(lo, std::memory_order_relaxed);
    zone_max_[chunk].store(hi, std::memory_order_relaxed);
  }

  // Adopts `src`'s zones chunk-for-chunk (contents-preserving rebuilds).
  void CopyZoneMapFrom(const SmartArray& src);

  // ---- Geometry ----
  uint64_t num_chunks() const { return (length_ + kChunkElems - 1) / kChunkElems; }
  // 64-bit words allocated per replica: for kBitPacked, whole chunks at
  // bits() (so Unpack of the final partial chunk stays in bounds); the other
  // encodings size their packed payload plus side tables.
  uint64_t words_per_replica() const { return words_per_replica_; }

  // Width each stored value is packed at: bits() for kBitPacked, the delta
  // width for kForDelta, the code width for kDictionary, the run-value width
  // for kRunLength.
  uint32_t storage_bits() const { return storage_bits_; }

  // Total bytes across all replicas: every word of the representation.
  uint64_t footprint_bytes() const {
    return static_cast<uint64_t>(num_replicas()) * words_per_replica_ * sizeof(uint64_t);
  }

  // Backing region of replica `r` (placement bookkeeping; used by tests and
  // the machine-model demand builders).
  const platform::MappedRegion& region(int r) const { return regions_[r]; }

  // Mutable raw words of replica `r`, for the writers that own the layout:
  // PackRange, the encoding builds and width-specialised kernels.
  uint64_t* MutableReplica(int r) { return replica_ptrs_[r]; }

  // Largest value representable with this array's width.
  uint64_t max_value() const { return LowMask(bits_); }

  // True when every replica region was actually mapped. Only false under
  // injected allocation failure (platform/fault_injection.h); a genuine mmap
  // failure aborts inside MappedRegion.
  bool allocation_ok() const;

  // ---- Factory (Fig. 9 ::allocate) ----
  // Creates the concrete subclass for `bits` (1..64) and allocates its
  // replica(s) under `placement` relative to `topology`. Aborts when a
  // replica cannot be allocated.
  static std::unique_ptr<SmartArray> Allocate(uint64_t length, PlacementSpec placement,
                                              uint32_t bits, const platform::Topology& topology);

  // Non-aborting factory: returns nullptr when a replica allocation fails
  // (the OOM-tolerant path TryRestructure and the adaptation daemon use).
  static std::unique_ptr<SmartArray> TryAllocate(uint64_t length, PlacementSpec placement,
                                                 uint32_t bits,
                                                 const platform::Topology& topology);

 protected:
  SmartArray(uint64_t length, PlacementSpec placement, uint32_t bits,
             const platform::Topology& topology);

  // Encoding-subclass constructor: `bits` is the logical width callers see,
  // `storage_bits` the width values are packed at, and every replica holds
  // `words` words, laid out by the subclass.
  SmartArray(uint64_t length, PlacementSpec placement, uint32_t bits, uint32_t storage_bits,
             uint64_t words, const platform::Topology& topology);

  static void AtomicMin(std::atomic<uint64_t>& slot, uint64_t value) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value < cur &&
           !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  static void AtomicMax(std::atomic<uint64_t>& slot, uint64_t value) {
    uint64_t cur = slot.load(std::memory_order_relaxed);
    while (value > cur &&
           !slot.compare_exchange_weak(cur, value, std::memory_order_relaxed)) {
    }
  }

  uint64_t length_ = 0;
  uint32_t bits_ = 64;
  uint32_t storage_bits_ = 64;
  uint64_t words_per_replica_ = 0;
  PlacementSpec placement_;
  int num_sockets_ = 1;
  platform::Topology topology_;  // copied: cheap, and avoids lifetime coupling
  std::vector<platform::MappedRegion> regions_;
  std::vector<uint64_t*> replica_ptrs_;
  // Chunk zone maps (value-initialized atomics: the exact bounds of the
  // zero-filled fresh allocation).
  std::unique_ptr<std::atomic<uint64_t>[]> zone_min_;
  std::unique_ptr<std::atomic<uint64_t>[]> zone_max_;
};

}  // namespace sa::smart

#endif  // SA_SMART_SMART_ARRAY_H_
