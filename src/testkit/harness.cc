#include "testkit/harness.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/macros.h"
#include "runtime/entry_points.h"
#include "runtime/registry.h"
#include "smart/dispatch.h"
#include "smart/entry_points.h"
#include "smart/iterator.h"
#include "smart/parallel_ops.h"
#include "smart/restructure.h"
#include "smart/smart_array.h"
#include "smart/synchronized_array.h"

namespace sa::testkit {

uint64_t Harness::FetchAdd(uint64_t index, uint64_t delta) {
  (void)index;
  (void)delta;
  SA_CHECK_MSG(false, "FetchAdd on a variant without read-modify-write support");
  return 0;
}

RestructureResult Harness::Restructure(smart::PlacementSpec placement, uint32_t bits) {
  (void)placement;
  (void)bits;
  return RestructureResult::kUnsupported;
}

uint64_t Harness::SnapshotGet(void* snap, uint64_t index) {
  (void)snap;
  (void)index;
  SA_CHECK_MSG(false, "snapshot op on a variant without snapshots");
  return 0;
}

uint64_t Harness::SnapshotSum(void* snap, uint64_t begin, uint64_t end) {
  (void)snap;
  (void)begin;
  (void)end;
  SA_CHECK_MSG(false, "snapshot op on a variant without snapshots");
  return 0;
}

uint32_t Harness::SnapshotBits(void* snap) {
  (void)snap;
  SA_CHECK_MSG(false, "snapshot op on a variant without snapshots");
  return 0;
}

void Harness::SnapshotUnpin(void* snap) {
  (void)snap;
  SA_CHECK_MSG(false, "snapshot op on a variant without snapshots");
}

namespace {

// ---- Plain SmartArray through the native C++ classes ----

class PlainHarness final : public Harness {
 public:
  PlainHarness(const Scenario& scenario, TestContext& ctx)
      : ctx_(&ctx),
        array_(smart::SmartArray::Allocate(scenario.length, scenario.placement, scenario.bits,
                                           ctx.topology)) {}

  uint64_t length() const override { return array_->length(); }
  uint32_t bits() const override { return array_->bits(); }

  void Init(uint64_t index, uint64_t value) override { array_->Init(index, value); }
  void InitAtomic(uint64_t index, uint64_t value) override { array_->InitAtomic(index, value); }

  uint64_t Get(uint64_t index, uint64_t replica) override {
    const int socket = static_cast<int>(replica % ctx_->topology.num_sockets());
    return array_->Get(index, array_->GetReplica(socket));
  }

  uint64_t GetCodec(uint64_t index) override {
    return smart::CodecFor(array_->bits()).get(array_->GetReplica(0), index);
  }

  bool Unpack(uint64_t chunk, uint64_t* out) override {
    array_->Unpack(chunk, array_->GetReplica(0), out);
    return true;
  }

  bool UnpackRange(uint64_t begin, uint64_t end, uint64_t* out) override {
    array_->RangeUnpack(array_->GetReplica(0), begin, end, out);
    return true;
  }

  bool PackRange(uint64_t begin, uint64_t end, const uint64_t* in) override {
    smart::PackRange(*array_, begin, end, in);
    return true;
  }

  bool IterRead(uint64_t start, uint64_t count, uint64_t* out) override {
    if ((start + count) % 2 == 0) {
      // Compile-time-specialized path (§4.3 TypedIterator).
      smart::WithBits(array_->bits(), [&](auto bits_const) {
        smart::TypedIterator<bits_const()> it(*array_, start, 0);
        for (uint64_t i = 0; i < count; ++i, it.Next()) {
          out[i] = it.Get();
        }
        return 0;
      });
    } else {
      // Runtime-polymorphic path (Fig. 9 SmartArrayIterator).
      auto it = smart::SmartArrayIterator::Allocate(*array_, start, 0);
      for (uint64_t i = 0; i < count; ++i, it->Next()) {
        out[i] = it->Get();
      }
    }
    return true;
  }

  uint64_t SumRange(uint64_t begin, uint64_t end) override {
    return smart::CodecFor(array_->bits()).sum_range(array_->GetReplica(0), begin, end);
  }

  bool CountIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* result) override {
    *result = array_->CountIf(array_->GetReplica(0), begin, end, p);
    return true;
  }

  bool SelectIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* bitmap,
                uint64_t* result) override {
    *result = array_->SelectIf(array_->GetReplica(0), begin, end, p, bitmap);
    return true;
  }

  bool FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p,
                   uint64_t* result) override {
    *result = array_->FilteredSum(array_->GetReplica(0), begin, end, p);
    return true;
  }

  RestructureResult Restructure(smart::PlacementSpec placement, uint32_t new_bits) override {
    auto rebuilt = smart::TryRestructure(ctx_->pool, *array_, placement, new_bits,
                                         ctx_->topology);
    if (rebuilt == nullptr) {
      return RestructureResult::kRejected;
    }
    array_ = std::move(rebuilt);
    return RestructureResult::kPublished;
  }

 private:
  TestContext* ctx_;
  std::unique_ptr<smart::SmartArray> array_;
};

// ---- Plain SmartArray through the saArray*/saIter* C ABI ----

class CAbiPlainHarness final : public Harness {
 public:
  CAbiPlainHarness(const Scenario& scenario, TestContext& ctx) : ctx_(&ctx) {
    // Entry-point allocations draw from the process-default topology; match
    // it to the checker's synthetic 2x4 so replica counts line up.
    saSetDefaultTopology(2, 4);
    const auto& p = scenario.placement;
    handle_ = saArrayAllocate(scenario.length,
                              p.kind == smart::Placement::kReplicated ? 1 : 0,
                              p.kind == smart::Placement::kInterleaved ? 1 : 0,
                              p.kind == smart::Placement::kSingleSocket ? p.socket : -1,
                              scenario.bits);
  }

  ~CAbiPlainHarness() override { saArrayFree(handle_); }

  uint64_t length() const override { return saArrayGetLength(handle_); }
  uint32_t bits() const override { return saArrayGetBits(handle_); }

  void Init(uint64_t index, uint64_t value) override {
    // Alternate the virtual-dispatch and bits-branched write entry points.
    if ((index ^ value) & 1) {
      saArrayInitWithBits(handle_, index, value, bits());
    } else {
      saArrayInit(handle_, index, value);
    }
  }

  uint64_t Get(uint64_t index, uint64_t replica) override {
    (void)replica;  // entry points resolve the calling thread's replica
    return saArrayGet(handle_, index);
  }

  uint64_t GetCodec(uint64_t index) override {
    return saArrayGetWithBits(handle_, index, bits());
  }

  bool Unpack(uint64_t chunk, uint64_t* out) override {
    saArrayUnpack(handle_, chunk, out);
    return true;
  }

  bool UnpackRange(uint64_t begin, uint64_t end, uint64_t* out) override {
    saArrayUnpackRange(handle_, begin, end, out);
    return true;
  }

  bool PackRange(uint64_t begin, uint64_t end, const uint64_t* in) override {
    saArrayPackRange(handle_, begin, end, in);
    return true;
  }

  bool IterRead(uint64_t start, uint64_t count, uint64_t* out) override {
    void* it = saIterAllocate(handle_, start);
    const bool with_bits = count % 2 == 0;
    const uint32_t w = bits();
    for (uint64_t i = 0; i < count; ++i) {
      if (with_bits) {
        out[i] = saIterGetWithBits(it, w);
        saIterNextWithBits(it, w);
      } else {
        out[i] = saIterGet(it);
        saIterNext(it);
      }
    }
    saIterFree(it);
    return true;
  }

  uint64_t SumRange(uint64_t begin, uint64_t end) override {
    return saArraySumRange(handle_, begin, end);
  }

  bool CountIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* result) override {
    *result = saArrayCountIf(handle_, begin, end, static_cast<int>(p.op), p.constant);
    return true;
  }

  bool SelectIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* bitmap,
                uint64_t* result) override {
    *result = saArraySelectIf(handle_, begin, end, static_cast<int>(p.op), p.constant,
                              bitmap, (end - begin + kWordBits - 1) / kWordBits);
    return true;
  }

  bool FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p,
                   uint64_t* result) override {
    *result = saArrayFilteredSum(handle_, begin, end, static_cast<int>(p.op), p.constant);
    return true;
  }

  RestructureResult Restructure(smart::PlacementSpec placement, uint32_t new_bits) override {
    auto* array = static_cast<smart::SmartArray*>(handle_);
    auto rebuilt = smart::TryRestructure(ctx_->pool, *array, placement, new_bits,
                                         ctx_->topology);
    if (rebuilt == nullptr) {
      return RestructureResult::kRejected;
    }
    saArrayFree(handle_);
    handle_ = rebuilt.release();
    return RestructureResult::kPublished;
  }

 private:
  TestContext* ctx_;
  void* handle_ = nullptr;
};

// ---- SynchronizedArray (chunk-locked) ----

class SynchronizedHarness final : public Harness {
 public:
  SynchronizedHarness(const Scenario& scenario, TestContext& ctx)
      : ctx_(&ctx),
        array_(scenario.length, scenario.placement, scenario.bits, ctx.topology) {}

  uint64_t length() const override { return array_.length(); }
  uint32_t bits() const override { return array_.bits(); }

  void Init(uint64_t index, uint64_t value) override { array_.Set(index, value); }

  uint64_t Get(uint64_t index, uint64_t replica) override {
    return array_.Get(index, static_cast<int>(replica % ctx_->topology.num_sockets()));
  }

  uint64_t GetCodec(uint64_t index) override {
    return smart::CodecFor(bits()).get(array_.storage().GetReplica(0), index);
  }

  bool Unpack(uint64_t chunk, uint64_t* out) override {
    array_.storage().Unpack(chunk, array_.storage().GetReplica(0), out);
    return true;
  }

  bool IterRead(uint64_t start, uint64_t count, uint64_t* out) override {
    auto it = smart::SmartArrayIterator::Allocate(array_.storage(), start, 0);
    for (uint64_t i = 0; i < count; ++i, it->Next()) {
      out[i] = it->Get();
    }
    return true;
  }

  uint64_t SumRange(uint64_t begin, uint64_t end) override {
    return smart::CodecFor(bits()).sum_range(array_.storage().GetReplica(0), begin, end);
  }

  // Scans run on the underlying storage: Set/FetchAdd route through the
  // virtual Init, which widens zone maps before the packed write, so a scan
  // issued after any chunk-locked RMW must observe the new value.
  bool CountIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* result) override {
    *result = array_.storage().CountIf(array_.storage().GetReplica(0), begin, end, p);
    return true;
  }

  bool SelectIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* bitmap,
                uint64_t* result) override {
    *result = array_.storage().SelectIf(array_.storage().GetReplica(0), begin, end, p, bitmap);
    return true;
  }

  bool FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p,
                   uint64_t* result) override {
    *result = array_.storage().FilteredSum(array_.storage().GetReplica(0), begin, end, p);
    return true;
  }

  uint64_t FetchAdd(uint64_t index, uint64_t delta) override {
    return array_.FetchAdd(index, delta);
  }

 private:
  TestContext* ctx_;
  smart::SynchronizedArray array_;
};

// ---- ArrayRegistry slot (native or through the saSlot*/saSnapshot* ABI) ----

class RegistryHarness final : public Harness {
 public:
  RegistryHarness(const Scenario& scenario, TestContext& ctx)
      : ctx_(&ctx),
        c_abi_(scenario.via_c_abi),
        registry_(ctx.topology, RegistryOptionsFor(scenario)) {
    const int num_slots = std::max(1, scenario.num_slots);
    names_.reserve(static_cast<size_t>(num_slots));
    slots_.reserve(static_cast<size_t>(num_slots));
    for (int s = 0; s < num_slots; ++s) {
      // Slot 0 keeps the historical name so single-slot replays stay
      // byte-identical in reports.
      names_.push_back(s == 0 ? "prop" : "prop-" + std::to_string(s));
      slots_.push_back(
          registry_.Create(names_.back(), scenario.length, scenario.placement, scenario.bits));
    }
    slot_ = slots_[0];
    active_ = 0;
    if (scenario.concurrent_daemon) {
      // Seed each slot's max-written high-water to the declared width. The
      // daemon floors narrowed rebuilds at max_written_bits(); without the
      // seed it could compress below a width the checker's future writes
      // (masked to the declared bits) still need, and ArraySlot::Write
      // treats that overflow as a hard contract violation.
      for (runtime::ArraySlot* slot : slots_) {
        slot->Write(0, LowMask(scenario.bits));
        slot->Write(0, 0);
      }
    }
  }

  uint64_t length() const override { return slot_->length(); }
  uint32_t bits() const override { return slot_->bits(); }

  void Init(uint64_t index, uint64_t value) override {
    if (c_abi_) {
      saSlotWrite(slot_, index, value);
    } else {
      slot_->Write(index, value);
    }
  }

  uint64_t Get(uint64_t index, uint64_t replica) override {
    (void)replica;  // snapshots resolve the calling thread's replica
    void* snap = SnapshotPin();
    const uint64_t value = SnapshotGet(snap, index);
    SnapshotUnpin(snap);
    return value;
  }

  uint64_t GetCodec(uint64_t index) override { return Get(index, 0); }

  uint64_t SumRange(uint64_t begin, uint64_t end) override {
    void* snap = SnapshotPin();
    const uint64_t sum = SnapshotSum(snap, begin, end);
    SnapshotUnpin(snap);
    return sum;
  }

  bool CountIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* result) override {
    void* snap = SnapshotPin();
    *result = c_abi_ ? saSnapshotCountIf(snap, begin, end, static_cast<int>(p.op), p.constant)
                     : static_cast<runtime::ArraySnapshot*>(snap)->CountIf(begin, end, p);
    SnapshotUnpin(snap);
    return true;
  }

  bool SelectIf(uint64_t begin, uint64_t end, smart::Predicate p, uint64_t* bitmap,
                uint64_t* result) override {
    void* snap = SnapshotPin();
    if (c_abi_) {
      *result = saSnapshotSelectIf(snap, begin, end, static_cast<int>(p.op), p.constant,
                                   bitmap, (end - begin + kWordBits - 1) / kWordBits);
    } else {
      *result = static_cast<runtime::ArraySnapshot*>(snap)->SelectIf(begin, end, p, bitmap);
    }
    SnapshotUnpin(snap);
    return true;
  }

  bool FilteredSum(uint64_t begin, uint64_t end, smart::Predicate p,
                   uint64_t* result) override {
    void* snap = SnapshotPin();
    *result = c_abi_
                  ? saSnapshotFilteredSum(snap, begin, end, static_cast<int>(p.op), p.constant)
                  : static_cast<runtime::ArraySnapshot*>(snap)->FilteredSum(begin, end, p);
    SnapshotUnpin(snap);
    return true;
  }

  RestructureResult Restructure(smart::PlacementSpec placement, uint32_t new_bits) override {
    const uint64_t writes_before = slot_->write_count();
    // Pin the source while rebuilding, exactly as the daemon does.
    runtime::ArraySnapshot source = slot_->Acquire();
    auto rebuilt = smart::TryRestructure(ctx_->pool, source.array(), placement, new_bits,
                                         ctx_->topology);
    source.Release();
    if (rebuilt == nullptr) {
      return RestructureResult::kRejected;
    }
    if (!registry_.Publish(*slot_, std::move(rebuilt), writes_before)) {
      return RestructureResult::kPublishRefused;
    }
    registry_.Reclaim();
    return RestructureResult::kPublished;
  }

  void* SnapshotPin() override {
    if (c_abi_) {
      return saSlotPin(slot_);
    }
    if (slots_.size() > 1) {
      // Multi-slot scenarios pin through the sharded by-name hot path, so
      // the differential oracle also proves AcquireByName's routing.
      return new runtime::ArraySnapshot(registry_.AcquireByName(names_[active_]));
    }
    return new runtime::ArraySnapshot(slot_->Acquire());
  }

  uint64_t SnapshotGet(void* snap, uint64_t index) override {
    if (c_abi_) {
      return saSnapshotRead(snap, index);
    }
    return static_cast<runtime::ArraySnapshot*>(snap)->Get(index);
  }

  uint64_t SnapshotSum(void* snap, uint64_t begin, uint64_t end) override {
    if (c_abi_) {
      return saSnapshotSumRange(snap, begin, end);
    }
    return static_cast<runtime::ArraySnapshot*>(snap)->SumRange(begin, end);
  }

  uint32_t SnapshotBits(void* snap) override {
    if (c_abi_) {
      return saSnapshotBits(snap);
    }
    return static_cast<runtime::ArraySnapshot*>(snap)->bits();
  }

  void SnapshotUnpin(void* snap) override {
    if (c_abi_) {
      saSnapshotUnpin(snap);
    } else {
      delete static_cast<runtime::ArraySnapshot*>(snap);
    }
  }

  runtime::ArraySlot* slot() override { return slot_; }

  void SelectSlot(int slot) override {
    active_ = static_cast<size_t>(slot) % slots_.size();
    slot_ = slots_[active_];
  }

  runtime::ArrayRegistry* registry() override { return &registry_; }

 private:
  static runtime::ArrayRegistry::Options RegistryOptionsFor(const Scenario& scenario) {
    runtime::ArrayRegistry::Options options;
    // Multi-slot scenarios spread their slots over a genuinely sharded
    // control plane; single-slot ones keep the seed's one-domain shape.
    options.num_shards = scenario.num_slots > 1 ? 4 : 1;
    return options;
  }

  TestContext* ctx_;
  bool c_abi_;
  runtime::ArrayRegistry registry_;
  std::vector<std::string> names_;
  std::vector<runtime::ArraySlot*> slots_;
  runtime::ArraySlot* slot_ = nullptr;
  size_t active_ = 0;
};

}  // namespace

std::unique_ptr<Harness> MakeHarness(const Scenario& scenario, TestContext& ctx) {
  switch (scenario.variant) {
    case Variant::kPlain:
      if (scenario.via_c_abi) {
        return std::make_unique<CAbiPlainHarness>(scenario, ctx);
      }
      return std::make_unique<PlainHarness>(scenario, ctx);
    case Variant::kSynchronized:
      return std::make_unique<SynchronizedHarness>(scenario, ctx);
    case Variant::kRegistry:
      return std::make_unique<RegistryHarness>(scenario, ctx);
  }
  SA_CHECK_MSG(false, "unknown variant");
  return nullptr;
}

}  // namespace sa::testkit
