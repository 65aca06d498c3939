#include "runtime/registry.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

#include "common/bits.h"
#include "common/macros.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/audit.h"

namespace sa::runtime {
namespace {

// Pre-publish test hook (testing::SetPrePublishHook). Guarded by its own
// mutex: Publish is a control-path operation, never hot.
std::mutex g_pre_publish_mu;
std::function<void(ArraySlot&)> g_pre_publish_hook;

std::function<void(ArraySlot&)> PrePublishHook() {
  std::lock_guard<std::mutex> lock(g_pre_publish_mu);
  return g_pre_publish_hook;
}

// Drain test hook (testing::SetDrainHook). The daemon drains every queued
// slot each pass, so an unset hook costs one relaxed load, not the mutex.
std::mutex g_drain_mu;
std::function<void(ArraySlot&)> g_drain_hook;
std::atomic<bool> g_drain_hook_set{false};

std::function<void(ArraySlot&)> DrainHook() {
  if (!g_drain_hook_set.load(std::memory_order_relaxed)) {
    return nullptr;
  }
  std::lock_guard<std::mutex> lock(g_drain_mu);
  return g_drain_hook;
}

// FNV-1a. Stable across runs (no seed): shard addressing and table probing
// both key off it, and tests rely on deterministic shard assignment.
uint64_t HashName(std::string_view name) {
  uint64_t h = 1469598103934665603ull;
  for (const char c : name) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t MaskForBits(uint32_t bits) {
  return bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << bits) - 1;
}

// Binds the snapshot fast-path fields once the version's storage is final.
void BindVersionFastPath(ArrayVersion& version, uint32_t flush_shift) {
  // The codec shortcut is only sound when the packed words follow the
  // bit-packed geometry; other encodings leave it null and snapshots route
  // through the storage's virtual interface.
  version.codec = version.storage->encoding() == smart::Encoding::kBitPacked
                      ? &smart::CodecFor(version.storage->bits())
                      : nullptr;
  // Only kReplicated storage resolves replicas per thread; every other
  // placement has a single replica, fetchable here once.
  version.fixed_replica = version.storage->replicated()
                              ? nullptr
                              : version.storage->GetReplicaForCurrentThread();
  version.flush_shift = flush_shift;
}

}  // namespace

namespace testing {

void SetPrePublishHook(std::function<void(ArraySlot&)> hook) {
  std::lock_guard<std::mutex> lock(g_pre_publish_mu);
  g_pre_publish_hook = std::move(hook);
}

void SetDrainHook(std::function<void(ArraySlot&)> hook) {
  std::lock_guard<std::mutex> lock(g_drain_mu);
  g_drain_hook_set.store(hook != nullptr, std::memory_order_relaxed);
  g_drain_hook = std::move(hook);
}

}  // namespace testing

// Published open-addressed index for one shard's by-name hot path.
// Grow-only: entries are never removed or moved, so Create can publish a
// new entry into the live table in place (hash stored first, slot pointer
// release-stored last — a racing probe sees either a complete entry or an
// empty bucket, never a torn one). When load would exceed 1/2 the table is
// rebuilt larger under the shard mutex, release-stored, and the old one
// retired through the shard's epoch domain, so readers probing under a pin
// can never touch freed entries. Low hash bits select the shard, so
// probing starts from the bits above them.
struct SlotTable {
  // 64-byte entries with the key inlined: the confirming name compare for
  // a probe hit reads the entry line the probe already fetched instead of
  // chasing the slot's heap-allocated name (one fewer cold cache line on
  // every by-name acquire). Names longer than the inline capacity fall
  // back to comparing through the slot.
  static constexpr size_t kInlineName = 47;
  static constexpr uint8_t kNameOverflow = 0xff;

  struct Entry {
    std::atomic<uint64_t> hash{0};
    std::atomic<ArraySlot*> slot{nullptr};  // nullptr = empty
    uint8_t name_len = 0;                   // kNameOverflow => compare via slot
    char name[kInlineName] = {};
  };
  static_assert(sizeof(Entry) == 64);

  explicit SlotTable(size_t capacity)
      : mask(capacity - 1), entries(new Entry[capacity]) {}

  // Writer side; serialized by the shard mutex. The slot pointer is
  // release-stored last, so a racing probe sees either a complete entry or
  // an empty bucket.
  void Insert(uint64_t hash, ArraySlot* slot, int shard_bits) {
    size_t i = (hash >> shard_bits) & mask;
    while (entries[i].slot.load(std::memory_order_relaxed) != nullptr) {
      i = (i + 1) & mask;
    }
    const std::string_view name = slot->name();
    if (name.size() <= kInlineName) {
      entries[i].name_len = static_cast<uint8_t>(name.size());
      std::memcpy(entries[i].name, name.data(), name.size());
    } else {
      entries[i].name_len = kNameOverflow;
    }
    entries[i].hash.store(hash, std::memory_order_relaxed);
    entries[i].slot.store(slot, std::memory_order_release);
  }

  ArraySlot* Find(uint64_t hash, std::string_view name, int shard_bits) const {
    size_t i = (hash >> shard_bits) & mask;
    for (;;) {
      // The acquire pairs with Insert's release store, making the plain
      // reads of the rest of the entry below well-ordered.
      ArraySlot* slot = entries[i].slot.load(std::memory_order_acquire);
      if (slot == nullptr) {
        return nullptr;
      }
      // The name compare runs only on a 64-bit hash match, i.e. at most
      // once per probe in practice.
      if (entries[i].hash.load(std::memory_order_relaxed) == hash) {
        const Entry& e = entries[i];
        if (e.name_len != kNameOverflow
                ? (e.name_len == name.size() &&
                   std::memcmp(e.name, name.data(), name.size()) == 0)
                : slot->name() == name) {
          return slot;
        }
      }
      i = (i + 1) & mask;
    }
  }

  size_t capacity() const { return mask + 1; }

  const size_t mask;
  std::unique_ptr<Entry[]> entries;
};

// One independent contention domain of the control plane.
struct RegistryShard {
  explicit RegistryShard(int pin_slots) : epoch(pin_slots) {}

  ~RegistryShard() {
    // Current versions die with their shard; retired ones are freed by the
    // epoch member's destructor, which runs after this body.
    for (auto& [name, slot] : slots) {
      delete slot->current_.exchange(nullptr, std::memory_order_acq_rel);
    }
    delete table.load(std::memory_order_acquire);
  }

  std::mutex mu;
  std::map<std::string, std::unique_ptr<ArraySlot>, std::less<>> slots;
  std::atomic<SlotTable*> table{nullptr};
  EpochManager epoch;

  // Intrusive MPSC stack of slots with undrained workload samples; the
  // claiming daemon worker is the single consumer.
  std::atomic<ArraySlot*> sample_head{nullptr};
  std::atomic<int64_t> queue_depth{0};

  // Epoch-ns cell the daemon worker set claims this shard through (CAS
  // winner owns the pass; losers move on — that is the steal protocol).
  std::atomic<uint64_t> next_due{0};
};

// ---- ArraySnapshot ----

ArraySnapshot::ArraySnapshot(ArraySlot* slot, const ArrayVersion* version,
                             EpochManager::PinHandle pin)
    : slot_(slot),
      version_(version),
      replica_(version->fixed_replica != nullptr
                   ? version->fixed_replica
                   : version->storage->GetReplicaForCurrentThread()),
      codec_(version->codec != nullptr ? version->codec
             : version->storage->encoding() == smart::Encoding::kBitPacked
                 ? &smart::CodecFor(version->storage->bits())
                 : nullptr),
      pin_(pin),
      flush_shift_(version->flush_shift) {}

ArraySnapshot::ArraySnapshot(ArraySnapshot&& other) noexcept
    : slot_(std::exchange(other.slot_, nullptr)),
      version_(other.version_),
      replica_(other.replica_),
      codec_(other.codec_),
      pin_(other.pin_),
      prev_index_plus_one_(other.prev_index_plus_one_),
      local_sequential_(other.local_sequential_),
      local_random_(other.local_random_),
      local_predicate_elems_(other.local_predicate_elems_),
      local_predicate_matches_(other.local_predicate_matches_),
      flush_shift_(other.flush_shift_) {}

ArraySnapshot& ArraySnapshot::operator=(ArraySnapshot&& other) noexcept {
  if (this != &other) {
    Release();
    slot_ = std::exchange(other.slot_, nullptr);
    version_ = other.version_;
    replica_ = other.replica_;
    codec_ = other.codec_;
    pin_ = other.pin_;
    prev_index_plus_one_ = other.prev_index_plus_one_;
    local_sequential_ = other.local_sequential_;
    local_random_ = other.local_random_;
    local_predicate_elems_ = other.local_predicate_elems_;
    local_predicate_matches_ = other.local_predicate_matches_;
    flush_shift_ = other.flush_shift_;
  }
  return *this;
}

uint64_t ArraySnapshot::SumRange(uint64_t begin, uint64_t end) {
  SA_CHECK(begin <= end && end <= length());
  local_sequential_ += end - begin;
  prev_index_plus_one_ = end;
  SA_OBS_COUNT_N(kSnapshotScannedElems, end - begin);
  if (codec_ != nullptr) return codec_->sum_range(replica_, begin, end);
  return version_->storage->RangeSum(replica_, begin, end);
}

uint64_t ArraySnapshot::CountIf(uint64_t begin, uint64_t end, smart::Predicate p) {
  SA_CHECK(begin <= end && end <= length());
  local_sequential_ += end - begin;
  prev_index_plus_one_ = end;
  SA_OBS_COUNT_N(kSnapshotScannedElems, end - begin);
  const uint64_t matches = version_->storage->CountIf(replica_, begin, end, p);
  local_predicate_elems_ += end - begin;
  local_predicate_matches_ += matches;
  return matches;
}

uint64_t ArraySnapshot::SelectIf(uint64_t begin, uint64_t end, smart::Predicate p,
                                 uint64_t* bitmap) {
  SA_CHECK(begin <= end && end <= length());
  local_sequential_ += end - begin;
  prev_index_plus_one_ = end;
  SA_OBS_COUNT_N(kSnapshotScannedElems, end - begin);
  const uint64_t matches = version_->storage->SelectIf(replica_, begin, end, p, bitmap);
  local_predicate_elems_ += end - begin;
  local_predicate_matches_ += matches;
  return matches;
}

uint64_t ArraySnapshot::FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p) {
  SA_CHECK(begin <= end && end <= length());
  local_sequential_ += end - begin;
  prev_index_plus_one_ = end;
  SA_OBS_COUNT_N(kSnapshotScannedElems, end - begin);
  // The filtered sum reports the sum, not the match count, and re-counting
  // just to sample selectivity would double the scan cost — so it stays out
  // of the selectivity counters; CountIf/SelectIf traffic drives that
  // estimate.
  return version_->storage->FilteredSum(replica_, begin, end, p);
}

void ArraySnapshot::Release() {
  if (slot_ == nullptr) {
    return;
  }
  // Batched on release, so per-element reads never touch a shared counter.
  SA_OBS_COUNT_N(kSnapshotReads, local_sequential_ + local_random_);
  SA_OBS_GAUGE_ADD(kLiveSnapshots, -1);
  if (flush_shift_ == 0) {
    slot_->FlushSnapshotCounters(local_sequential_, local_random_, 1,
                                 local_predicate_elems_, local_predicate_matches_);
  } else {
    // Sampled telemetry mode: only every 2^shift-th release (per thread)
    // writes the shared counter line, with counts scaled by 2^shift so the
    // daemon still sees an expectation-exact access rate.
    thread_local uint64_t flush_tick = 0;
    if ((++flush_tick & ((uint64_t{1} << flush_shift_) - 1)) == 0) {
      slot_->FlushSnapshotCounters(local_sequential_ << flush_shift_,
                                   local_random_ << flush_shift_,
                                   uint64_t{1} << flush_shift_,
                                   local_predicate_elems_ << flush_shift_,
                                   local_predicate_matches_ << flush_shift_);
    }
  }
  slot_->epoch_->Unpin(pin_);
  slot_ = nullptr;
  version_ = nullptr;
}

// ---- ArraySlot ----

ArraySlot::ArraySlot(std::string name, uint64_t length, EpochManager* epoch)
    : name_(std::move(name)),
      epoch_(epoch),
      length_(length),
      last_drain_(std::chrono::steady_clock::now()) {}

ArraySlot::~ArraySlot() { delete audit_.load(std::memory_order_relaxed); }

SlotAuditState& ArraySlot::EnsureAudit() {
  SlotAuditState* state = audit_.load(std::memory_order_acquire);
  if (state == nullptr) {
    auto* fresh = new SlotAuditState();
    if (audit_.compare_exchange_strong(state, fresh, std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
      state = fresh;
    } else {
      delete fresh;  // a racing creator won; `state` holds the winner
    }
  }
  return *state;
}

ArraySnapshot ArraySlot::MakeSnapshot(EpochManager::PinHandle pin) {
  // The pin happens-before this load: the version read here cannot be freed
  // until the pin is released (it can be *retired* concurrently, which is
  // fine — retirement only queues the free).
  const ArrayVersion* version = current_.load(std::memory_order_acquire);
  return ArraySnapshot(this, version, pin);
}

ArraySnapshot ArraySlot::Acquire() {
  SA_OBS_COUNT(kSnapshotAcquires);
  SA_OBS_GAUGE_ADD(kLiveSnapshots, 1);
  return MakeSnapshot(epoch_->Pin());
}

ArraySnapshot ArraySlot::TryAcquire() {
  const EpochManager::PinHandle pin = epoch_->TryPin();
  if (!pin.valid()) {
    SA_OBS_COUNT(kSnapshotAcquireRejects);
    return ArraySnapshot();
  }
  SA_OBS_COUNT(kSnapshotAcquires);
  SA_OBS_GAUGE_ADD(kLiveSnapshots, 1);
  return MakeSnapshot(pin);
}

void ArraySlot::RedeclareBits(uint32_t bits) {
  SA_CHECK(bits >= 1 && bits <= 64);
  declared_bits_.store(bits, std::memory_order_relaxed);
}

void ArraySlot::CommitWriteLocked(const ArrayVersion* version, uint64_t index,
                                  uint64_t value) {
  version->storage->InitAtomic(index, value);
  if (value > max_written_.load(std::memory_order_relaxed)) {
    max_written_.store(value, std::memory_order_relaxed);
  }
  writes_.fetch_add(1, std::memory_order_release);
}

void ArraySlot::Write(uint64_t index, uint64_t value) {
  SA_CHECK(index < length_);
  SA_OBS_COUNT(kSlotWrites);
  std::lock_guard<std::mutex> lock(write_mu_);
  // Holding write_mu_ keeps this version current (Publish takes the same
  // mutex), so no epoch pin is needed here.
  ArrayVersion* version = current_.load(std::memory_order_acquire);
  SA_CHECK_MSG((value & ~version->storage->max_value()) == 0,
               "write exceeds the slot's current storage width");
  CommitWriteLocked(version, index, value);
  EnqueueForSampling();
}

bool ArraySlot::TryWrite(uint64_t index, uint64_t value) {
  SA_CHECK(index < length_);
  std::lock_guard<std::mutex> lock(write_mu_);
  ArrayVersion* version = current_.load(std::memory_order_acquire);
  if (!version->Admits(index, value)) {
    return false;
  }
  SA_OBS_COUNT(kSlotWrites);
  CommitWriteLocked(version, index, value);
  EnqueueForSampling();
  return true;
}

uint64_t ArraySlot::FetchAdd(uint64_t index, uint64_t delta) {
  SA_CHECK(index < length_);
  SA_OBS_COUNT(kSlotFetchAdds);
  std::lock_guard<std::mutex> lock(write_mu_);
  ArrayVersion* version = current_.load(std::memory_order_acquire);
  smart::SmartArray& storage = *version->storage;
  const uint64_t old = storage.Get(index, storage.GetReplicaForCurrentThread());
  // Wrap at the declared width, not the live storage width: the arithmetic
  // contract must not depend on how far the daemon has narrowed storage.
  const uint64_t next = (old + delta) & MaskForBits(declared_bits());
  SA_CHECK_MSG((next & ~storage.max_value()) == 0,
               "fetch-add exceeds the slot's current storage width");
  CommitWriteLocked(version, index, next);
  EnqueueForSampling();
  return old;
}

bool ArraySlot::TryFetchAdd(uint64_t index, uint64_t delta, uint64_t* old_value) {
  SA_CHECK(index < length_);
  std::lock_guard<std::mutex> lock(write_mu_);
  ArrayVersion* version = current_.load(std::memory_order_acquire);
  smart::SmartArray& storage = *version->storage;
  const uint64_t old = storage.Get(index, storage.GetReplicaForCurrentThread());
  const uint64_t next = (old + delta) & MaskForBits(declared_bits());
  if (!version->Admits(index, next)) {
    return false;
  }
  SA_OBS_COUNT(kSlotFetchAdds);
  CommitWriteLocked(version, index, next);
  EnqueueForSampling();
  if (old_value != nullptr) {
    *old_value = old;
  }
  return true;
}

uint32_t ArraySlot::max_written_bits() const {
  const uint64_t v = max_written_.load(std::memory_order_relaxed);
  return v == 0 ? 0 : BitsForValue(v);
}

void ArraySlot::FlushSnapshotCounters(uint64_t sequential, uint64_t random, uint64_t pins,
                                      uint64_t predicate_elems, uint64_t predicate_matches) {
  if (sequential != 0) {
    sequential_reads_.fetch_add(sequential, std::memory_order_relaxed);
  }
  if (random != 0) {
    random_reads_.fetch_add(random, std::memory_order_relaxed);
  }
  if (predicate_elems != 0) {
    predicate_elems_.fetch_add(predicate_elems, std::memory_order_relaxed);
    predicate_matches_.fetch_add(predicate_matches, std::memory_order_relaxed);
  }
  pins_.fetch_add(pins, std::memory_order_relaxed);
  EnqueueForSampling();
}

void ArraySlot::EnqueueForSampling() {
  if (shard_ == nullptr) {
    return;
  }
  // Cheap dedup: after the first enqueue every release/write until the next
  // daemon drain costs one relaxed load.
  if (queued_.load(std::memory_order_relaxed)) {
    return;
  }
  if (queued_.exchange(true, std::memory_order_acq_rel)) {
    return;
  }
  ArraySlot* head = shard_->sample_head.load(std::memory_order_relaxed);
  do {
    next_queued_.store(head, std::memory_order_relaxed);
  } while (!shard_->sample_head.compare_exchange_weak(
      head, this, std::memory_order_release, std::memory_order_relaxed));
  shard_->queue_depth.fetch_add(1, std::memory_order_relaxed);
  SA_OBS_GAUGE_ADD(kDaemonQueueDepth, 1);
}

SlotSample ArraySlot::DrainSample() {
  const auto now = std::chrono::steady_clock::now();
  SlotSample total = LifetimeSample();
  SlotSample delta;
  delta.sequential_reads = total.sequential_reads - drained_.sequential_reads;
  delta.random_reads = total.random_reads - drained_.random_reads;
  delta.writes = total.writes - drained_.writes;
  delta.pins = total.pins - drained_.pins;
  delta.predicate_elems = total.predicate_elems - drained_.predicate_elems;
  delta.predicate_matches = total.predicate_matches - drained_.predicate_matches;
  delta.seconds = std::chrono::duration<double>(now - last_drain_).count();
  drained_ = total;
  last_drain_ = now;
  return delta;
}

bool ArraySlot::TryDrainSample(SlotSample* sample) {
  // The acquire/release pair orders each drain's reads and writes of
  // drained_ and last_drain_ after the previous holder's.
  if (draining_.exchange(true, std::memory_order_acquire)) {
    return false;
  }
  if (auto hook = DrainHook()) {
    hook(*this);
  }
  *sample = DrainSample();
  draining_.store(false, std::memory_order_release);
  return true;
}

SlotSample ArraySlot::LifetimeSample() const {
  SlotSample s;
  s.sequential_reads = sequential_reads_.load(std::memory_order_relaxed);
  s.random_reads = random_reads_.load(std::memory_order_relaxed);
  s.writes = writes_.load(std::memory_order_relaxed);
  s.pins = pins_.load(std::memory_order_relaxed);
  s.predicate_elems = predicate_elems_.load(std::memory_order_relaxed);
  s.predicate_matches = predicate_matches_.load(std::memory_order_relaxed);
  return s;
}

// ---- ArrayRegistry ----

ArrayRegistry::ArrayRegistry(const platform::Topology& topology, Options options)
    : topology_(topology) {
  const unsigned requested =
      static_cast<unsigned>(std::max(1, options.num_shards));
  num_shards_ = static_cast<int>(std::bit_ceil(requested));
  shard_bits_ = std::countr_zero(static_cast<unsigned>(num_shards_));
  SA_CHECK(options.pin_slots_per_shard > 0);
  SA_CHECK(options.counter_flush_sample_shift < 16);
  flush_shift_ = options.counter_flush_sample_shift;
  shards_.reserve(static_cast<size_t>(num_shards_));
  for (int i = 0; i < num_shards_; ++i) {
    shards_.push_back(std::make_unique<RegistryShard>(options.pin_slots_per_shard));
  }
}

ArrayRegistry::~ArrayRegistry() = default;

RegistryShard& ArrayRegistry::ShardFor(uint64_t hash) const {
  return *shards_[hash & static_cast<uint64_t>(num_shards_ - 1)];
}

ArraySlot* ArrayRegistry::Create(std::string_view name, uint64_t length,
                                 smart::PlacementSpec placement, uint32_t bits) {
  ArraySlot* slot = TryCreate(name, length, placement, bits);
  SA_CHECK_MSG(slot != nullptr, "registry slot name already exists");
  return slot;
}

ArraySlot* ArrayRegistry::TryCreate(std::string_view name, uint64_t length,
                                    smart::PlacementSpec placement, uint32_t bits) {
  auto storage = smart::SmartArray::Allocate(length, placement, bits, topology_);
  auto version = std::make_unique<ArrayVersion>();
  version->storage = std::move(storage);
  version->sequence = 0;
  BindVersionFastPath(*version, flush_shift_);

  const uint64_t hash = HashName(name);
  RegistryShard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  if (shard.slots.find(name) != shard.slots.end()) {
    return nullptr;
  }
  auto slot =
      std::unique_ptr<ArraySlot>(new ArraySlot(std::string(name), length, &shard.epoch));
  slot->name_hash_ = hash;
  slot->shard_ = &shard;
  slot->flush_shift_ = flush_shift_;
  slot->declared_bits_.store(bits, std::memory_order_relaxed);
  slot->current_.store(version.release(), std::memory_order_release);
  ArraySlot* raw = slot.get();
  shard.slots.emplace(raw->name(), std::move(slot));

  // Publish into the shard's by-name index. Fast path: the live table has
  // headroom, so the new entry is release-stored in place (grow-only open
  // addressing — safe against concurrent probes). Slow path: rebuild at 4x
  // the population, swap, and drain the old table through the shard epoch
  // like a retired version. Amortized O(1) per create, load factor <= 1/2.
  SlotTable* table = shard.table.load(std::memory_order_relaxed);
  if (table == nullptr || shard.slots.size() * 2 > table->capacity()) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(16, shard.slots.size() * 4));
    auto* grown = new SlotTable(capacity);
    for (const auto& [slot_name, s] : shard.slots) {
      grown->Insert(s->name_hash_, s.get(), shard_bits_);
    }
    SlotTable* old_table = shard.table.exchange(grown, std::memory_order_acq_rel);
    if (old_table != nullptr) {
      shard.epoch.Retire([old_table] { delete old_table; });
    }
  } else {
    table->Insert(raw->name_hash_, raw, shard_bits_);
  }
  SA_OBS_GAUGE_ADD(kRegistrySlots, 1);
  return raw;
}

ArraySlot* ArrayRegistry::Open(std::string_view name) const {
  const uint64_t hash = HashName(name);
  RegistryShard& shard = ShardFor(hash);
  std::lock_guard<std::mutex> lock(shard.mu);
  const auto it = shard.slots.find(name);
  return it == shard.slots.end() ? nullptr : it->second.get();
}

ArraySnapshot ArrayRegistry::AcquireByName(std::string_view name) {
  SA_OBS_COUNT(kRegistryAcquireByName);
  const uint64_t hash = HashName(name);
  RegistryShard& shard = ShardFor(hash);
  // Pin before probing: the pin protects the table as well as the version,
  // so one epoch enter/exit covers the whole acquire.
  const EpochManager::PinHandle pin = shard.epoch.TryPin();
  if (!pin.valid()) {
    SA_OBS_COUNT(kSnapshotAcquireRejects);
    return ArraySnapshot();
  }
  const SlotTable* table = shard.table.load(std::memory_order_acquire);
  ArraySlot* slot = table == nullptr ? nullptr : table->Find(hash, name, shard_bits_);
  if (slot == nullptr) {
    shard.epoch.Unpin(pin);
    return ArraySnapshot();
  }
  SA_OBS_COUNT(kSnapshotAcquires);
  SA_OBS_GAUGE_ADD(kLiveSnapshots, 1);
  return slot->MakeSnapshot(pin);
}

std::vector<ArraySlot*> ArrayRegistry::slots() const {
  std::vector<ArraySlot*> out;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    out.reserve(out.size() + shard->slots.size());
    for (const auto& [name, slot] : shard->slots) {
      out.push_back(slot.get());
    }
  }
  return out;
}

std::vector<ArraySlot*> ArrayRegistry::shard_slots(int shard) const {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  RegistryShard& s = *shards_[shard];
  std::lock_guard<std::mutex> lock(s.mu);
  std::vector<ArraySlot*> out;
  out.reserve(s.slots.size());
  for (const auto& [name, slot] : s.slots) {
    out.push_back(slot.get());
  }
  return out;
}

size_t ArrayRegistry::size() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->slots.size();
  }
  return total;
}

bool ArrayRegistry::Publish(ArraySlot& slot, std::unique_ptr<smart::SmartArray> storage,
                            uint64_t writes_before, uint64_t trace_id,
                            uint64_t* published_sequence) {
  SA_CHECK(storage != nullptr && storage->length() == slot.length());
  if (auto hook = PrePublishHook()) {
    // Deterministic race injection (testing::SetPrePublishHook): the hook
    // may Write to the slot here, exactly where a real writer could land
    // between a rebuild and its publication.
    hook(slot);
  }
  std::lock_guard<std::mutex> lock(slot.write_mu_);
  if (slot.writes_.load(std::memory_order_acquire) != writes_before) {
    // A write landed after the rebuild read its input; the rebuilt storage
    // may miss it. Refuse — the daemon rebuilds from fresh contents on its
    // next cycle.
    SA_OBS_COUNT(kPublishLostWrite);
    SA_OBS_TRACE(kTracePublish, slot.name().c_str(), 0, /*ok=*/0, trace_id);
    return false;
  }
  ArrayVersion* old = slot.current_.load(std::memory_order_acquire);
  auto next = std::make_unique<ArrayVersion>();
  next->storage = std::move(storage);
  next->sequence = old->sequence + 1;
  BindVersionFastPath(*next, slot.flush_shift_);
  const uint64_t sequence = next->sequence;
  slot.current_.store(next.release(), std::memory_order_seq_cst);
  // Retire through the slot's own shard domain: reclamation progress on one
  // shard never waits on another shard's pinned readers. The deleter runs
  // when the epoch actually frees this version — emitting the reclaim event
  // from inside it is what closes the adaptation's span timeline. The name
  // is captured by value: the closure can run as late as the epoch domain's
  // teardown, ordering it after the slot would be fragile.
  const uint64_t retired_sequence = old->sequence;
  slot.epoch_->Retire([old, name = slot.name(), retired_sequence, trace_id] {
    SA_OBS_TRACE(kTraceVersionReclaim, name.c_str(), retired_sequence, 0, trace_id);
    (void)name;
    (void)retired_sequence;
    (void)trace_id;
    delete old;
  });
  SA_OBS_COUNT(kPublishes);
  SA_OBS_TRACE(kTracePublish, slot.name().c_str(), sequence, /*ok=*/1, trace_id);
  if (published_sequence != nullptr) {
    *published_sequence = sequence;
  }
  return true;
}

size_t ArrayRegistry::Reclaim() {
  size_t freed = 0;
  for (const auto& shard : shards_) {
    freed += shard->epoch.TryReclaim();
  }
  return freed;
}

size_t ArrayRegistry::ReclaimShard(int shard) {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  return shards_[shard]->epoch.TryReclaim();
}

EpochManager& ArrayRegistry::shard_epoch(int shard) {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  return shards_[shard]->epoch;
}

size_t ArrayRegistry::shard_retired(int shard) const {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  return shards_[shard]->epoch.retired_count();
}

int64_t ArrayRegistry::shard_queue_depth(int shard) const {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  return shards_[shard]->queue_depth.load(std::memory_order_relaxed);
}

std::atomic<uint64_t>& ArrayRegistry::shard_next_due(int shard) {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  return shards_[shard]->next_due;
}

std::vector<ArraySlot*> ArrayRegistry::DrainSampleQueue(int shard) {
  SA_DCHECK(shard >= 0 && shard < num_shards_);
  RegistryShard& s = *shards_[shard];
  ArraySlot* head = s.sample_head.exchange(nullptr, std::memory_order_acquire);
  std::vector<ArraySlot*> out;
  while (head != nullptr) {
    // Save the link before re-arming the flag: once queued_ drops, the slot
    // may immediately re-enqueue itself and overwrite next_queued_.
    ArraySlot* next = head->next_queued_.load(std::memory_order_relaxed);
    head->next_queued_.store(nullptr, std::memory_order_relaxed);
    head->queued_.store(false, std::memory_order_release);
    out.push_back(head);
    head = next;
  }
  if (!out.empty()) {
    s.queue_depth.fetch_sub(static_cast<int64_t>(out.size()), std::memory_order_relaxed);
    SA_OBS_GAUGE_ADD(kDaemonQueueDepth, -static_cast<int64_t>(out.size()));
  }
  return out;
}

uint64_t ArrayRegistry::min_epoch() const {
  uint64_t lowest = ~uint64_t{0};
  for (const auto& shard : shards_) {
    lowest = std::min(lowest, shard->epoch.epoch());
  }
  return lowest;
}

EpochManager& ArrayRegistry::epoch() {
  SA_CHECK_MSG(num_shards_ == 1,
               "ArrayRegistry::epoch() is single-shard only; use shard_epoch(i)");
  return shards_[0]->epoch;
}

}  // namespace sa::runtime
