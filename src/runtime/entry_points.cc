#include "runtime/entry_points.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <utility>

#include "adapt/decision_record.h"
#include "common/macros.h"
#include "rts/worker_pool.h"
#include "runtime/audit.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "sim/machine_spec.h"

namespace {

using sa::runtime::AdaptationDaemon;
using sa::runtime::ArrayRegistry;
using sa::runtime::ArraySlot;
using sa::runtime::ArraySnapshot;

// Everything a foreign client needs behind one handle: the topology and
// worker pool the registry's rebuilds run on, plus the optional daemon.
struct RegistryHandle {
  std::unique_ptr<sa::platform::Topology> topology;
  std::unique_ptr<sa::rts::WorkerPool> pool;
  std::unique_ptr<ArrayRegistry> registry;
  std::unique_ptr<AdaptationDaemon> daemon;
  // Machine caps default to the paper's 18-core box; overridable via
  // saRegistryConfigureMachine before the daemon first exists.
  sa::adapt::MachineCaps machine =
      sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core());

  AdaptationDaemon& Daemon(sa::runtime::DaemonOptions options) {
    if (daemon == nullptr) {
      daemon = std::make_unique<AdaptationDaemon>(
          *registry, *pool, machine,
          sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default()), options);
    }
    return *daemon;
  }
};

RegistryHandle* Reg(void* reg) { return static_cast<RegistryHandle*>(reg); }
ArraySlot* Slot(void* slot) { return static_cast<ArraySlot*>(slot); }
const ArraySlot* Slot(const void* slot) { return static_cast<const ArraySlot*>(slot); }
ArraySnapshot* Snap(void* snap) { return static_cast<ArraySnapshot*>(snap); }
const ArraySnapshot* Snap(const void* snap) { return static_cast<const ArraySnapshot*>(snap); }

}  // namespace

extern "C" {

void* saRegistryCreate(int sockets, int cpus_per_socket) {
  return saRegistryCreateSharded(sockets, cpus_per_socket, 1);
}

void* saRegistryCreateSharded(int sockets, int cpus_per_socket, int shards) {
  if (sockets > 0 && cpus_per_socket < 1) {
    return nullptr;  // a synthetic topology with no CPU
  }
  auto* handle = new RegistryHandle;
  handle->topology = std::make_unique<sa::platform::Topology>(
      sockets <= 0 ? sa::platform::Topology::Host()
                   : sa::platform::Topology::Synthetic(sockets, cpus_per_socket));
  handle->pool = std::make_unique<sa::rts::WorkerPool>(
      *handle->topology,
      sa::rts::WorkerPool::Options{.num_threads = 0,
                                   .pin_threads = handle->topology->is_host()});
  ArrayRegistry::Options options;
  options.num_shards = shards < 1 ? 1 : shards;
  handle->registry = std::make_unique<ArrayRegistry>(*handle->topology, options);
  return handle;
}

void saRegistryFree(void* reg) {
  RegistryHandle* handle = Reg(reg);
  if (handle == nullptr) {
    return;
  }
  if (handle->daemon != nullptr) {
    handle->daemon->Stop();
  }
  delete handle;
}

void* saRegistryDefine(void* reg, const char* name, uint64_t length, int replicated,
                       int interleaved, int pinned, uint32_t bits) {
  ArrayRegistry& registry = *Reg(reg)->registry;
  const bool combined =
      (replicated && interleaved) || ((replicated || interleaved) && pinned >= 0);
  if (name == nullptr || length == 0 || bits < 1 || bits > 64 || combined ||
      pinned >= registry.topology().num_sockets()) {
    return nullptr;
  }
  sa::smart::PlacementSpec placement = sa::smart::PlacementSpec::OsDefault();
  if (replicated) {
    placement = sa::smart::PlacementSpec::Replicated();
  } else if (interleaved) {
    placement = sa::smart::PlacementSpec::Interleaved();
  } else if (pinned >= 0) {
    placement = sa::smart::PlacementSpec::SingleSocket(pinned);
  }
  return registry.TryCreate(name, length, placement, bits);
}

void* saRegistryOpen(void* reg, const char* name) {
  return name == nullptr ? nullptr : Reg(reg)->registry->Open(name);
}

int saRegistryCount(void* reg) { return static_cast<int>(Reg(reg)->registry->size()); }

uint64_t saRegistryReclaim(void* reg) { return Reg(reg)->registry->Reclaim(); }

uint64_t saRegistryEpoch(void* reg) { return Reg(reg)->registry->min_epoch(); }

int saRegistryShards(void* reg) { return Reg(reg)->registry->num_shards(); }

int64_t saRegistryShardQueueDepth(void* reg, int shard) {
  ArrayRegistry& registry = *Reg(reg)->registry;
  if (shard < 0 || shard >= registry.num_shards()) {
    return -1;
  }
  return registry.shard_queue_depth(shard);
}

int64_t saRegistryShardRetired(void* reg, int shard) {
  ArrayRegistry& registry = *Reg(reg)->registry;
  if (shard < 0 || shard >= registry.num_shards()) {
    return -1;
  }
  return static_cast<int64_t>(registry.shard_retired(shard));
}

void* saRegistryAcquire(void* reg, const char* name) {
  if (name == nullptr) {
    return nullptr;
  }
  ArraySnapshot snapshot = Reg(reg)->registry->AcquireByName(name);
  if (!snapshot.valid()) {
    return nullptr;
  }
  return new ArraySnapshot(std::move(snapshot));
}

void saRegistryConfigureMachine(void* reg, double mem_bytes_per_socket,
                                double exec_cycles_per_socket, double bw_memory,
                                double bw_interconnect) {
  RegistryHandle* handle = Reg(reg);
  SA_CHECK_MSG(handle->daemon == nullptr,
               "configure the machine before the daemon first runs");
  if (mem_bytes_per_socket > 0.0) {
    handle->machine.mem_bytes_per_socket = mem_bytes_per_socket;
  }
  if (exec_cycles_per_socket > 0.0) {
    handle->machine.exec_max_per_socket = exec_cycles_per_socket;
  }
  if (bw_memory > 0.0) {
    handle->machine.bw_max_memory = bw_memory;
  }
  if (bw_interconnect > 0.0) {
    handle->machine.bw_max_interconnect = bw_interconnect;
  }
}

void saRegistryDaemonStart(void* reg, double interval_ms, double min_predicted_win) {
  saRegistryDaemonStartWorkers(reg, interval_ms, min_predicted_win, 1);
}

void saRegistryDaemonStartWorkers(void* reg, double interval_ms, double min_predicted_win,
                                  int workers) {
  sa::runtime::DaemonOptions options;
  if (interval_ms > 0.0) {
    options.interval = std::chrono::milliseconds(static_cast<int64_t>(interval_ms));
  }
  if (min_predicted_win >= 0.0) {
    options.min_predicted_win = min_predicted_win;
  }
  options.num_workers = workers < 1 ? 1 : workers;
  Reg(reg)->Daemon(options).Start();
}

void saRegistryDaemonStop(void* reg) {
  RegistryHandle* handle = Reg(reg);
  if (handle->daemon != nullptr) {
    handle->daemon->Stop();
  }
}

int saRegistryAdaptOnce(void* reg) { return Reg(reg)->Daemon({}).RunOnce(); }

uint64_t saRegistryAdaptations(void* reg) {
  RegistryHandle* handle = Reg(reg);
  return handle->daemon == nullptr ? 0 : handle->daemon->adaptations();
}

uint64_t saSlotLength(const void* slot) { return Slot(slot)->length(); }
uint32_t saSlotBits(const void* slot) { return Slot(slot)->bits(); }
int saSlotIsReplicated(const void* slot) {
  return Slot(slot)->placement().kind == sa::smart::Placement::kReplicated ? 1 : 0;
}
uint64_t saSlotSequence(const void* slot) { return Slot(slot)->sequence(); }

void saSlotWrite(void* slot, uint64_t index, uint64_t value) {
  Slot(slot)->Write(index, value);
}

uint64_t saSlotFetchAdd(void* slot, uint64_t index, uint64_t delta) {
  return Slot(slot)->FetchAdd(index, delta);
}

namespace {

void FlattenDecision(const sa::adapt::DecisionRecord& r, SaSlotDecision* out) {
  SaSlotDecision& d = *out;
  d = SaSlotDecision{};
  d.trace_id = r.trace_id;
  d.ns = r.ns;
  d.reason = static_cast<uint32_t>(r.reason);
  d.published = r.published ? 1 : 0;
  d.published_sequence = r.published_sequence;
  d.packed_current = sa::adapt::PackConfigWord(r.current, r.current_bits);
  d.packed_chosen = sa::adapt::PackConfigWord(r.chosen, r.chosen_bits);
  d.current_speedup = r.current_speedup;
  d.chosen_speedup = r.chosen_speedup;
  d.margin = r.margin;
  d.predicted_win = r.predicted_win;
  d.num_candidates = static_cast<uint32_t>(
      std::min(r.num_candidates, sa::adapt::DecisionRecord::kMaxCandidates));
  for (uint32_t c = 0; c < d.num_candidates; ++c) {
    d.candidate_config[c] =
        sa::adapt::PackConfigWord(r.candidates[c].config, r.candidates[c].bits);
    d.candidate_speedup[c] = r.candidates[c].estimated_speedup;
    std::snprintf(d.candidate_role[c], sizeof(d.candidate_role[c]), "%s",
                  r.candidates[c].role);
  }
  d.in_accesses_per_second = r.inputs.counters.accesses_per_second;
  d.in_random_fraction = r.inputs.counters.random_fraction;
  d.in_mem_utilization = r.inputs.counters.max_mem_utilization;
  d.in_ic_utilization = r.inputs.counters.max_ic_utilization;
  d.in_compression_ratio = r.inputs.compression_ratio;
  d.in_for_delta_ratio = r.inputs.for_delta_ratio;
  d.in_read_only = r.inputs.hints.read_only ? 1 : 0;
  d.in_mostly_reads = r.inputs.hints.mostly_reads ? 1 : 0;
  d.scored = r.scored ? 1 : 0;
  d.pre_rate = r.pre_rate;
  d.post_rate = r.post_rate;
  d.predicted_ratio = r.predicted_ratio;
  d.realized_ratio = r.realized_ratio;
  d.calibration_error = r.calibration_error;
}

}  // namespace

uint64_t saSlotExplain(void* slot, SaSlotDecision* out, uint64_t cap) {
  sa::runtime::SlotAuditState* audit = Slot(slot)->audit();
  if (audit == nullptr) {
    return 0;
  }
  sa::adapt::DecisionRecord records[sa::runtime::SlotAuditState::kRingSize];
  uint64_t total = 0;
  int copied = 0;
  {
    std::lock_guard<std::mutex> lock(audit->mu);
    total = audit->decisions;
    copied = audit->Copy(records, sa::runtime::SlotAuditState::kRingSize);
  }
  const uint64_t n = std::min<uint64_t>(cap, static_cast<uint64_t>(copied));
  for (uint64_t i = 0; i < n; ++i) {
    FlattenDecision(records[i], &out[i]);
  }
  return total;
}

uint32_t saSlotExplainPublished(void* slot, SaSlotDecision* out) {
  sa::runtime::SlotAuditState* audit = Slot(slot)->audit();
  if (audit == nullptr) {
    return 0;
  }
  sa::adapt::DecisionRecord record;
  {
    std::lock_guard<std::mutex> lock(audit->mu);
    if (!audit->has_last_published) {
      return 0;
    }
    record = audit->last_published;
  }
  if (out != nullptr) {
    FlattenDecision(record, out);
  }
  return 1;
}

void* saSlotPin(void* slot) { return new ArraySnapshot(Slot(slot)->Acquire()); }

void* saSlotTryPin(void* slot) {
  ArraySnapshot snapshot = Slot(slot)->TryAcquire();
  if (!snapshot.valid()) {
    return nullptr;
  }
  return new ArraySnapshot(std::move(snapshot));
}

void saSnapshotUnpin(void* snap) { delete Snap(snap); }

uint64_t saSnapshotRead(void* snap, uint64_t index) {
  ArraySnapshot* snapshot = Snap(snap);
  SA_CHECK_MSG(index < snapshot->length(), "index out of range");
  return snapshot->Get(index);
}

uint64_t saSnapshotSumRange(void* snap, uint64_t begin, uint64_t end) {
  return Snap(snap)->SumRange(begin, end);
}

uint64_t saSnapshotCountIf(void* snap, uint64_t begin, uint64_t end, int op,
                           uint64_t constant) {
  SA_CHECK_MSG(op >= 0 && op < 6, "unknown comparison operator");
  return Snap(snap)->CountIf(begin, end, {static_cast<sa::smart::CmpOp>(op), constant});
}

uint64_t saSnapshotSelectIf(void* snap, uint64_t begin, uint64_t end, int op,
                            uint64_t constant, uint64_t* bitmap, uint64_t bitmap_words) {
  SA_CHECK_MSG(op >= 0 && op < 6, "unknown comparison operator");
  SA_CHECK_MSG(begin <= end, "scan range out of bounds");
  const uint64_t n = end - begin;
  if (n == 0) {
    return 0;
  }
  SA_CHECK_MSG(bitmap != nullptr, "selection bitmap must not be null");
  SA_CHECK_MSG(bitmap_words >= (n + sa::kWordBits - 1) / sa::kWordBits,
               "selection bitmap too small for the range");
  return Snap(snap)->SelectIf(begin, end, {static_cast<sa::smart::CmpOp>(op), constant},
                              bitmap);
}

uint64_t saSnapshotFilteredSum(void* snap, uint64_t begin, uint64_t end, int op,
                               uint64_t constant) {
  SA_CHECK_MSG(op >= 0 && op < 6, "unknown comparison operator");
  return Snap(snap)->FilteredSum(begin, end, {static_cast<sa::smart::CmpOp>(op), constant});
}

uint64_t saSnapshotLength(const void* snap) { return Snap(snap)->length(); }
uint32_t saSnapshotBits(const void* snap) { return Snap(snap)->bits(); }
uint64_t saSnapshotSequence(const void* snap) { return Snap(snap)->sequence(); }

}  // extern "C"
