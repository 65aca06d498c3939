// ArrayRegistry: named, concurrently readable smart-array slots whose
// storage can be swapped out from under readers by the adaptation daemon.
//
// The paper's §6 adaptivity restructures an array "on the fly"; in the seed
// implementation that swap is only safe because the benchmark loop owns the
// array exclusively. The registry makes the swap safe under traffic, in the
// LLAMA shape of a stable array identity decoupled from a swappable layout:
//
//   * An ArraySlot is the stable identity (name, length). Its current
//     representation is an immutable ArrayVersion published through one
//     atomic pointer.
//   * Readers call Acquire() and get an ArraySnapshot: an epoch pin plus
//     the version pointer. Acquisition is a couple of atomic operations
//     (EpochManager::Pin + one acquire load) — no locks on the hot path.
//     Everything read through a snapshot comes from one version: a
//     concurrent restructure is invisible until the next Acquire.
//   * A publisher (the AdaptationDaemon) swaps the pointer and retires the
//     old version to the epoch garbage list; it is freed only once every
//     pin taken before the swap has been released (epoch.h).
//   * Writers serialize on a per-slot mutex against publication, so a
//     restructure never loses a committed write: Publish aborts when writes
//     raced the rebuild. Reads stay lock-free throughout — the runtime is
//     built for the paper's read-only/read-mostly analytics arrays.
//
// Multi-tenant scale (10⁴–10⁵ slots, hundreds of client threads) adds a
// second axis: the control plane itself is sharded. Slot names hash to one
// of `Options::num_shards` shards; each shard owns an independent mutex +
// name map (Create/Open contention domain), an independent epoch domain
// (pin arrays and TryReclaim never scan other shards' readers), a published
// open-addressed hash table for lock-free by-name acquisition, and an
// intrusive MPSC queue of slots with undrained workload samples (what the
// daemon workers consume). A single-shard registry (the default) keeps the
// seed's behavior and cost model exactly.
//
// Snapshots also sample the workload (sequential vs random reads, writes)
// into per-slot counters; the daemon drains them to drive the §6 selector.
#ifndef SA_RUNTIME_REGISTRY_H_
#define SA_RUNTIME_REGISTRY_H_

#include <atomic>
#include <chrono>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "platform/topology.h"
#include "runtime/epoch.h"
#include "smart/dispatch.h"
#include "smart/smart_array.h"

namespace sa::runtime {

class ArraySlot;
class ArrayRegistry;
class AdaptationDaemon;
struct RegistryShard;
struct SlotAuditState;

// One published representation of a slot's contents. Immutable once
// published except through ArraySlot::Write (which serializes with
// publication); `sequence` increments with every restructure.
struct ArrayVersion {
  std::unique_ptr<smart::SmartArray> storage;
  uint64_t sequence = 0;
  // Snapshot-construction fast path, filled when the version is published:
  // the codec is fixed per version, and for placement-invariant storage
  // (everything except kReplicated) so is the replica pointer. Binding
  // both here lets a snapshot build off this one cache line without
  // touching the SmartArray header.
  const uint64_t* fixed_replica = nullptr;  // nullptr => resolve per thread
  const smart::CodecOps* codec = nullptr;
  // Copied from Options::counter_flush_sample_shift so a snapshot learns
  // its flush policy from the version line it reads anyway.
  uint32_t flush_shift = 0;

  // Whether the storage can take `value` at `index`: an inline width check
  // for bit-packed storage (the service write path makes no virtual call),
  // the encoding's own check otherwise.
  bool Admits(uint64_t index, uint64_t value) const {
    return codec != nullptr ? (value & ~storage->max_value()) == 0
                            : storage->Admits(index, value);
  }
};

// Interval sample of a slot's workload counters (drained by the daemon).
struct SlotSample {
  uint64_t sequential_reads = 0;
  uint64_t random_reads = 0;
  uint64_t writes = 0;
  uint64_t pins = 0;
  // Pushdown-scan workload: elements covered by snapshot predicate scans
  // and how many of them matched. Their ratio is the observed selectivity
  // the §6 selector uses to judge encodings that accelerate scans.
  uint64_t predicate_elems = 0;
  uint64_t predicate_matches = 0;
  double seconds = 0.0;

  uint64_t reads() const { return sequential_reads + random_reads; }
  // Observed predicate selectivity in [0,1]; negative when no scans ran.
  double predicate_selectivity() const {
    if (predicate_elems == 0) return -1.0;
    return static_cast<double>(predicate_matches) / static_cast<double>(predicate_elems);
  }
};

// A consistent, immutable view of one slot's contents. Move-only RAII:
// holds an epoch pin; releasing the snapshot (destructor) unpins and
// flushes the locally accumulated access counters to the slot. Cheap to
// acquire and intended to be short-lived (a pinned snapshot blocks storage
// reclamation, never publication).
//
// A default-constructed snapshot is invalid (valid() == false): that is
// what TryAcquire/AcquireByName return when the slot's epoch domain is
// saturated or the name is unknown — admission control surfaces as a
// rejected acquire, not an abort.
class ArraySnapshot {
 public:
  ArraySnapshot() = default;
  ArraySnapshot(ArraySnapshot&& other) noexcept;
  ArraySnapshot& operator=(ArraySnapshot&& other) noexcept;
  ~ArraySnapshot() { Release(); }

  ArraySnapshot(const ArraySnapshot&) = delete;
  ArraySnapshot& operator=(const ArraySnapshot&) = delete;

  bool valid() const { return version_ != nullptr; }

  const smart::SmartArray& array() const { return *version_->storage; }
  uint64_t length() const { return version_->storage->length(); }
  uint32_t bits() const { return version_->storage->bits(); }
  // Restructure generation this snapshot observes (0 = initial storage).
  uint64_t sequence() const { return version_->sequence; }

  // Element read from this snapshot's version (never sees a concurrent
  // restructure). Classified sequential/random for the workload counters.
  uint64_t Get(uint64_t index) {
    if (index == prev_index_plus_one_) {
      ++local_sequential_;
    } else {
      ++local_random_;
    }
    prev_index_plus_one_ = index + 1;
    // codec_ is bound only for bit-packed storage; other encodings (§6's
    // frame-of-reference arrays) answer through the virtual interface.
    if (codec_ != nullptr) return codec_->get(replica_, index);
    return version_->storage->Get(index, replica_);
  }

  // Sum of elements in [begin, end) through the chunk-granular block
  // kernels (counted as a sequential scan of the range).
  uint64_t SumRange(uint64_t begin, uint64_t end);

  // ---- pushdown scans (zone-map skipping + calibrated match kernels) ----
  // All three account the covered range as a sequential scan and feed the
  // slot's predicate-selectivity counters, which the daemon reads as a §6
  // hint. Like Get, not safe to call concurrently on one snapshot.
  uint64_t CountIf(uint64_t begin, uint64_t end, smart::Predicate p);
  // Bitmap semantics follow SmartArray::SelectIf: bit j of bitmap describes
  // element begin+j; the caller supplies (end-begin+63)/64 words.
  uint64_t SelectIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* bitmap);
  uint64_t FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p);

  // Bulk workload accounting for kernels that stream this snapshot's pinned
  // storage directly (graph traversals read raw replica pointers, so the
  // per-element Get classification never sees their accesses). Adds to the
  // locally accumulated counters flushed on Release. Like Get, not safe to
  // call concurrently on one snapshot — parallel kernels reduce their
  // per-worker tallies first and account once.
  void AccountReads(uint64_t sequential, uint64_t random) {
    local_sequential_ += sequential;
    local_random_ += random;
  }

  // Releases the pin early (destructor becomes a no-op).
  void Release();

 private:
  friend class ArraySlot;
  friend class ArrayRegistry;
  ArraySnapshot(ArraySlot* slot, const ArrayVersion* version, EpochManager::PinHandle pin);

  ArraySlot* slot_ = nullptr;  // null once released / moved from
  const ArrayVersion* version_ = nullptr;
  const uint64_t* replica_ = nullptr;
  const smart::CodecOps* codec_ = nullptr;
  EpochManager::PinHandle pin_;
  uint64_t prev_index_plus_one_ = ~uint64_t{0};
  uint64_t local_sequential_ = 0;
  uint64_t local_random_ = 0;
  uint64_t local_predicate_elems_ = 0;
  uint64_t local_predicate_matches_ = 0;
  uint32_t flush_shift_ = 0;  // copied from the version at construction
};

class ArraySlot {
 public:
  const std::string& name() const { return name_; }
  uint64_t length() const { return length_; }

  // Current representation (racy by nature: the daemon may republish at any
  // time; use a snapshot for consistent multi-call reads).
  uint32_t bits() const { return Current()->storage->bits(); }
  smart::PlacementSpec placement() const { return Current()->storage->placement(); }
  uint64_t sequence() const { return Current()->sequence; }

  // Logical value width the slot was declared with (Create's `bits`, or the
  // last explicit RedeclareBits). FetchAdd wraps at this width regardless
  // of how narrow the live storage currently is, so arithmetic semantics
  // survive daemon restructures.
  uint32_t declared_bits() const {
    return declared_bits_.load(std::memory_order_relaxed);
  }
  void RedeclareBits(uint32_t bits);

  // The epoch domain this slot pins and retires through (its shard's).
  EpochManager& epoch() const { return *epoch_; }

  // Lock-free snapshot acquisition — the reader hot path.
  ArraySnapshot Acquire();

  // Like Acquire(), but returns an invalid snapshot instead of aborting
  // when the slot's epoch domain has no free pin slots.
  ArraySnapshot TryAcquire();

  // Element write into the current representation (every replica). Writers
  // serialize on a per-slot mutex against each other and against
  // publication. TryWrite's admission rule decides; Write aborts where
  // TryWrite refuses.
  void Write(uint64_t index, uint64_t value);

  // Failable Write: false when the live representation cannot hold `value`
  // (ArrayVersion::Admits): it exceeds the live width, or a kForDelta
  // chunk's frame, or the dictionary, or the run's value — the admissible
  // outcome under open-loop traffic. A concurrent restructure may have
  // narrowed the storage to the observed data width.
  bool TryWrite(uint64_t index, uint64_t value);

  // Atomic-with-respect-to-writers read-modify-write: returns the old value
  // and stores (old + delta) wrapped at declared_bits(). Aborts where
  // TryFetchAdd refuses.
  uint64_t FetchAdd(uint64_t index, uint64_t delta);

  // Failable FetchAdd: stores nothing and returns false when the live
  // storage cannot hold the result (as for TryWrite); otherwise *old_value
  // gets the previous value.
  bool TryFetchAdd(uint64_t index, uint64_t delta, uint64_t* old_value);

  // ---- workload counters ----
  uint64_t write_count() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t read_count() const {
    return sequential_reads_.load(std::memory_order_relaxed) +
           random_reads_.load(std::memory_order_relaxed);
  }
  // Widest value ever stored through Write (bits); the daemon keeps the
  // compressed width at least this wide so racing writes cannot overflow a
  // narrowed rebuild.
  uint32_t max_written_bits() const;

  // §6.1 software hint: the uploader declares bulk population finished and
  // the slot effectively read-only from here on. Writes made before the
  // seal stop counting against the daemon's read-only / mostly-reads hints
  // (a freshly uploaded immutable array would otherwise look write-heavy
  // for its first ~20 read passes and never qualify for replication or
  // compression). Writing after sealing stays legal — this is a hint, not
  // an enforcement point — and re-sealing moves the baseline forward.
  void SealWrites() {
    sealed_writes_.store(writes_.load(std::memory_order_relaxed), std::memory_order_relaxed);
  }
  // Writes since the last SealWrites() (all writes when never sealed).
  uint64_t unsealed_write_count() const {
    return writes_.load(std::memory_order_relaxed) -
           sealed_writes_.load(std::memory_order_relaxed);
  }

  // Counters accumulated since the previous drain, with the elapsed wall
  // time. Single consumer: callers that may race another drainer of the
  // same slot (daemon workers) go through TryDrainSample.
  SlotSample DrainSample();
  // DrainSample under an exclusive per-slot claim. A caller that loses the
  // claim to a drain in progress gets false and skips the slot; nothing is
  // lost, because the counters are cumulative and the next drain reads
  // them.
  bool TryDrainSample(SlotSample* sample);
  // Lifetime totals (for the §6.1 pass-amortization hints).
  SlotSample LifetimeSample() const;

  // ---- decision audit (runtime/audit.h) ----
  // nullptr until the daemon records the slot's first decision. Readers
  // (explain CLI/C-ABI/testkit) take audit()->mu before touching the ring.
  SlotAuditState* audit() const { return audit_.load(std::memory_order_acquire); }
  // Allocates the audit state on first use (safe against concurrent callers).
  SlotAuditState& EnsureAudit();

  ~ArraySlot();

 private:
  friend class ArrayRegistry;
  friend class ArraySnapshot;
  friend class AdaptationDaemon;
  friend struct RegistryShard;

  ArraySlot(std::string name, uint64_t length, EpochManager* epoch);

  const ArrayVersion* Current() const {
    return current_.load(std::memory_order_acquire);
  }

  ArraySnapshot MakeSnapshot(EpochManager::PinHandle pin);

  void FlushSnapshotCounters(uint64_t sequential, uint64_t random, uint64_t pins,
                             uint64_t predicate_elems, uint64_t predicate_matches);

  // Pushes this slot onto its shard's undrained-sample queue unless it is
  // already queued. One relaxed load on the repeat path; at most one
  // exchange + CAS per daemon drain interval per slot.
  void EnqueueForSampling();

  // Write/FetchAdd bookkeeping shared by the checked and Try variants;
  // caller holds write_mu_.
  void CommitWriteLocked(const ArrayVersion* version, uint64_t index, uint64_t value);

  // Acquire-path fields first: a by-name hit compares name_, then loads
  // current_ and touches epoch_ — keeping all three inside the first 64
  // bytes makes a cold acquire one slot-object cache miss instead of two.
  // The second line holds everything an acquire/release pair increments
  // (workload counters + sample-queue linkage), so snapshot bookkeeping
  // stays within one further line.
  std::string name_;
  std::atomic<ArrayVersion*> current_{nullptr};
  EpochManager* epoch_ = nullptr;
  uint64_t length_ = 0;
  uint64_t name_hash_ = 0;

  std::atomic<uint64_t> sequential_reads_{0};
  std::atomic<uint64_t> random_reads_{0};
  std::atomic<uint64_t> writes_{0};
  std::atomic<uint64_t> pins_{0};
  std::atomic<uint64_t> predicate_elems_{0};
  std::atomic<uint64_t> predicate_matches_{0};
  // Intrusive MPSC sample-queue linkage (head lives on the shard).
  std::atomic<bool> queued_{false};
  std::atomic<ArraySlot*> next_queued_{nullptr};

  RegistryShard* shard_ = nullptr;
  std::atomic<uint32_t> declared_bits_{64};
  uint32_t flush_shift_ = 0;  // registry's counter_flush_sample_shift

  // Serializes writers against each other and against Publish.
  std::mutex write_mu_;
  std::atomic<uint64_t> max_written_{0};  // updated under write_mu_
  // Write-count baseline set by SealWrites(); writes at or below it are
  // upload traffic the adaptation hints ignore.
  std::atomic<uint64_t> sealed_writes_{0};

  // Daemon-side drain bookkeeping, owned by whoever holds draining_.
  std::atomic<bool> draining_{false};
  SlotSample drained_{};
  std::chrono::steady_clock::time_point last_drain_;

  // Decision audit ring + calibration state; allocated by EnsureAudit on
  // the first recorded decision, owned by the slot (freed in ~ArraySlot).
  std::atomic<SlotAuditState*> audit_{nullptr};
};

class ArrayRegistry {
 public:
  struct Options {
    // Rounded up to a power of two. 1 (the default) preserves the seed's
    // single contention domain: one mutex, one name map, one epoch domain.
    int num_shards = 1;
    // Pin-slot budget per shard epoch domain (max simultaneous pins).
    int pin_slots_per_shard = EpochManager::kDefaultSlots;
    // Sampled telemetry: when nonzero, a snapshot flushes its access
    // counters to the slot only on every 2^shift-th release (per thread),
    // scaled by 2^shift so the expectation stays exact. Keeps the shared
    // counter cache line off most acquire/release pairs. 0 = flush every
    // release (exact counts — what the daemon threshold tests rely on).
    uint32_t counter_flush_sample_shift = 0;
  };

  explicit ArrayRegistry(const platform::Topology& topology)
      : ArrayRegistry(topology, Options{}) {}
  ArrayRegistry(const platform::Topology& topology, Options options);
  ~ArrayRegistry();

  ArrayRegistry(const ArrayRegistry&) = delete;
  ArrayRegistry& operator=(const ArrayRegistry&) = delete;

  // Creates a named slot with freshly allocated storage; nullptr when the
  // name is already taken (checked under the shard mutex). Control path.
  ArraySlot* TryCreate(std::string_view name, uint64_t length, smart::PlacementSpec placement,
                       uint32_t bits);
  // TryCreate that aborts on a duplicate name.
  ArraySlot* Create(std::string_view name, uint64_t length, smart::PlacementSpec placement,
                    uint32_t bits);

  // Looks a slot up by name; nullptr when absent. Control path.
  ArraySlot* Open(std::string_view name) const;

  // The by-name reader hot path: hashes `name` once, pins the owning
  // shard's epoch, and probes the shard's published open-addressed table
  // under that pin — no mutex, no std::string construction, no std::map.
  // Invalid snapshot when the name is unknown or the shard's pin slots are
  // exhausted (kSnapshotAcquireRejects counts the latter).
  ArraySnapshot AcquireByName(std::string_view name);

  std::vector<ArraySlot*> slots() const;
  size_t size() const;

  // Atomically replaces `slot`'s storage with `storage` and retires the old
  // version to the epoch garbage list. `writes_before` is the slot's
  // write_count() observed before the rebuild that produced `storage`
  // started: when writes have happened since, the rebuild may have missed
  // them, so the publish is refused (returns false, `storage` is dropped)
  // and the caller retries with a fresh rebuild. `trace_id` is the
  // publisher's per-adaptation trace id (0 = untracked): it links the
  // publish and the eventual version_reclaim trace events to the decision
  // that caused them. On success `published_sequence` (when non-null)
  // receives the new version's sequence — the authoritative value for audit
  // records, since a racing publish may have advanced the slot past the
  // sequence the rebuild started from.
  bool Publish(ArraySlot& slot, std::unique_ptr<smart::SmartArray> storage,
               uint64_t writes_before, uint64_t trace_id = 0,
               uint64_t* published_sequence = nullptr);

  // Frees retired storage whose epochs have fully drained across every
  // shard; returns the number of versions reclaimed.
  size_t Reclaim();

  // ---- shard plane (daemon workers, stats exposition, tests) ----
  int num_shards() const { return num_shards_; }
  EpochManager& shard_epoch(int shard);
  size_t shard_retired(int shard) const;
  int64_t shard_queue_depth(int shard) const;
  // Due-time cell the daemon worker set claims shards through (epoch ns).
  std::atomic<uint64_t>& shard_next_due(int shard);
  // Takes every slot currently queued with undrained samples on `shard`
  // (single consumer per shard: the claiming daemon worker).
  std::vector<ArraySlot*> DrainSampleQueue(int shard);
  // Slots owned by `shard` (control path; used by synchronous RunOnce).
  std::vector<ArraySlot*> shard_slots(int shard) const;
  size_t ReclaimShard(int shard);
  // Smallest epoch across shards (a conservative progress indicator for
  // the C ABI's saRegistryEpoch).
  uint64_t min_epoch() const;

  // Legacy single-domain accessor; only meaningful (and only allowed) on a
  // single-shard registry.
  EpochManager& epoch();
  const platform::Topology& topology() const { return topology_; }

 private:
  RegistryShard& ShardFor(uint64_t hash) const;

  platform::Topology topology_;
  int num_shards_ = 1;
  int shard_bits_ = 0;  // log2(num_shards_): table probes skip these bits
  uint32_t flush_shift_ = 0;
  std::vector<std::unique_ptr<RegistryShard>> shards_;
};

namespace testing {

// Test-only seam: `hook` runs at the top of every ArrayRegistry::Publish,
// before the lost-write check and outside the slot's write mutex. The
// testkit installs a hook that performs a racing ArraySlot::Write so the
// publish-refusal (lost-write) path is exercised deterministically; pass
// nullptr to clear. Not for production use.
void SetPrePublishHook(std::function<void(ArraySlot&)> hook);

// Test-only seam: `hook` runs inside every ArraySlot::TryDrainSample, after
// the drain claim is taken and before the counters are read. Tests hold a
// drain here to let a second daemon worker reach the same slot; pass
// nullptr to clear. Not for production use.
void SetDrainHook(std::function<void(ArraySlot&)> hook);

}  // namespace testing

}  // namespace sa::runtime

#endif  // SA_RUNTIME_REGISTRY_H_
