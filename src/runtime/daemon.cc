#include "runtime/daemon.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>

#include "adapt/decision_record.h"
#include "adapt/estimator.h"
#include "common/bits.h"
#include "common/log.h"
#include "common/macros.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "rts/claim_set.h"
#include "runtime/audit.h"
#include "smart/for_delta.h"
#include "smart/restructure.h"

namespace sa::runtime {

namespace {

// EWMA weight of the newest drain in the per-slot sampled access rate the
// calibration scorer uses as a decision's pre-restructure baseline.
constexpr double kRateEwmaAlpha = 0.5;

// Predicted-win ratio as parts-per-million above break-even (clamped at 0).
uint64_t WinPpm(double chosen_speedup, double current_speedup) {
  if (current_speedup <= 0.0) {
    return 0;
  }
  const double ratio = chosen_speedup / current_speedup - 1.0;
  return ratio <= 0.0 ? 0 : static_cast<uint64_t>(ratio * 1e6);
}

}  // namespace

AdaptationDaemon::AdaptationDaemon(ArrayRegistry& registry, rts::WorkerPool& pool,
                                   adapt::MachineCaps machine, adapt::ArrayCosts costs,
                                   DaemonOptions options)
    : registry_(&registry),
      pool_(&pool),
      machine_(machine),
      costs_(costs),
      options_(options) {
  options_.num_workers = std::max(1, options_.num_workers);
}

AdaptationDaemon::~AdaptationDaemon() { Stop(); }

void AdaptationDaemon::Start() {
  if (!workers_.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = false;
  }
  workers_.reserve(static_cast<size_t>(options_.num_workers));
  for (int w = 0; w < options_.num_workers; ++w) {
    workers_.emplace_back([this, w] { WorkerMain(w); });
  }
  SA_OBS_GAUGE_ADD(kDaemonRunning, 1);
  SA_LOG(kInfo, "daemon", "started (interval=%lld ms, workers=%d, shards=%d)",
         static_cast<long long>(options_.interval.count()), options_.num_workers,
         registry_->num_shards());
}

void AdaptationDaemon::Stop() {
  if (workers_.empty()) {
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
  SA_OBS_GAUGE_ADD(kDaemonRunning, -1);
  SA_LOG(kInfo, "daemon", "stopped after %" PRIu64 " shard passes",
         passes_.load(std::memory_order_relaxed));
}

void AdaptationDaemon::WorkerMain(int worker) {
  const uint64_t interval_ns = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(options_.interval).count());
  std::unique_lock<std::mutex> lock(mu_);
  while (!stop_) {
    if (cv_.wait_for(lock, options_.interval, [this] { return stop_; })) {
      break;
    }
    lock.unlock();
    SweepShards(worker, obs::NowNs(), interval_ns);
    lock.lock();
  }
}

void AdaptationDaemon::SweepShards(int worker, uint64_t now_ns, uint64_t interval_ns) {
  const int num_shards = registry_->num_shards();
  const int stride = options_.num_workers;
  // Own shards first: the common case is every worker servicing its own
  // residue class and the CASes never colliding.
  for (int shard = worker % stride; shard < num_shards; shard += stride) {
    if (rts::TryClaimDue(registry_->shard_next_due(shard), now_ns, now_ns + interval_ns)) {
      SA_OBS_COUNT(kDaemonShardClaims);
      ProcessShard(shard);
    }
  }
  // Then everyone else's: a claim that succeeds here means the owner is
  // behind (busy restructuring, or descheduled) and this worker steals the
  // pass.
  for (int shard = 0; shard < num_shards; ++shard) {
    if (shard % stride == worker % stride) {
      continue;
    }
    if (rts::TryClaimDue(registry_->shard_next_due(shard), now_ns, now_ns + interval_ns)) {
      SA_OBS_COUNT(kDaemonShardSteals);
      ProcessShard(shard);
    }
  }
}

int AdaptationDaemon::RunOnce() {
  int restructured = 0;
  for (int shard = 0; shard < registry_->num_shards(); ++shard) {
    restructured += ProcessShard(shard);
  }
  return restructured;
}

int AdaptationDaemon::ProcessShard(int shard) {
  SA_OBS_SCOPED_NS(kDaemonPassNs);
  SA_OBS_COUNT(kDaemonPasses);
  // Admission control: restructures create retired versions; when the
  // shard's reclamation is behind (a pinned reader, or simply too many
  // rebuilds in flight), stop adding debt and let reclaim catch up.
  const bool backpressure = registry_->shard_retired(shard) > kMaxRetiredDebt;
  int restructured = 0;
  for (ArraySlot* slot : registry_->DrainSampleQueue(shard)) {
    restructured += ProcessSlot(*slot, backpressure) ? 1 : 0;
  }
  // Retired versions from this pass (and stragglers from earlier ones)
  // become reclaimable as reader pins drain; two passes advance the epoch
  // far enough for the previous pass's garbage.
  registry_->ReclaimShard(shard);
  passes_.fetch_add(1, std::memory_order_relaxed);
  return restructured;
}

bool AdaptationDaemon::ProcessSlot(ArraySlot& slot, bool backpressure) {
  // A worker that stole this slot's shard can reach the slot while the
  // shard's owner is still draining it (the queue re-arms the slot before
  // the drain runs); the loser of the drain claim leaves the slot alone.
  SlotSample sample;
  if (!slot.TryDrainSample(&sample)) {
    return false;
  }
  const uint64_t accesses = sample.reads() + sample.writes;
  if (accesses == 0) {
    // Idle slot: nothing was sampled, nothing is dropped.
    return false;
  }
  const uint64_t trace_id = NextTraceId();
  const bool thin = accesses < options_.min_sampled_accesses || sample.seconds <= 0.0;
  if (options_.audit && !thin) {
    // Calibration rides the drain the daemon already does: score the
    // pending published decision (if any) against this interval's rate,
    // then fold the rate into the slot's EWMA. No hot-path atomics — the
    // sampled counters were flushed by readers regardless.
    ObserveRate(slot, static_cast<double>(accesses) / sample.seconds);
  }
  SA_OBS_TRACE(kTraceSampleDrain, slot.name().c_str(), sample.reads(), sample.writes,
               static_cast<uint64_t>(sample.seconds * 1e6),
               (thin ? 1 : 0) | (trace_id << 1));
  if (thin) {
    // The drained counters are consumed but lead to no decision — the
    // sample is dropped, and before the telemetry layer that happened
    // silently. See also the race drops counted in AdaptSlot.
    SA_OBS_COUNT(kDaemonSampleDrops);
    SA_LOG(kDebug, "daemon",
           "slot=%s sample dropped (thin): accesses=%" PRIu64 " min=%" PRIu64
           " seconds=%.4f",
           slot.name().c_str(), accesses, options_.min_sampled_accesses, sample.seconds);
    return false;
  }
  if (backpressure) {
    SA_OBS_COUNT(kDaemonBackpressureDrops);
    SA_LOG(kDebug, "daemon", "slot=%s sample dropped (backpressure: retired debt)",
           slot.name().c_str());
    return false;
  }
  const adapt::WorkloadCounters counters =
      SynthesizeCounters(sample, slot.length(), machine_, DaemonOptions::cycles_per_access);
  return AdaptSlotTraced(slot, counters, trace_id);
}

void AdaptationDaemon::ObserveRate(ArraySlot& slot, double rate) {
  // Allocate on the first drain (not the first decision): the EWMA must be
  // warm before the first accepted decision snapshots it as the
  // pre-restructure baseline.
  SlotAuditState* state = &slot.EnsureAudit();
  std::lock_guard<std::mutex> lock(state->mu);
  if (state->pending_score) {
    state->pending_score = false;
    const double pre = state->pending_pre_rate;
    const double predicted = state->pending_predicted;
    if (pre > 0.0 && predicted > 0.0) {
      const double realized = rate / pre;
      const double error = std::abs(realized - predicted) / predicted;
      if (adapt::DecisionRecord* record = state->Find(state->pending_index)) {
        record->scored = true;
        record->pre_rate = pre;
        record->post_rate = rate;
        record->realized_ratio = realized;
        record->calibration_error = error;
      }
      // Score the surviving copy too — reject-heavy traffic may already
      // have evicted the accepted record from the ring.
      if (state->has_last_published &&
          state->last_published_index == state->pending_index) {
        state->last_published.scored = true;
        state->last_published.pre_rate = pre;
        state->last_published.post_rate = rate;
        state->last_published.realized_ratio = realized;
        state->last_published.calibration_error = error;
      }
      SA_OBS_COUNT(kDaemonDecisionsScored);
      SA_OBS_HIST(kDaemonCalibrationErrPpm, error * 1e6);
      SA_OBS_HIST(kDaemonRealizedSpeedupPpm, realized * 1e6);
      SA_LOG(kDebug, "daemon",
             "slot=%s score: predicted=%.3f realized=%.3f err=%.3f",
             slot.name().c_str(), predicted, realized, error);
    }
  }
  state->rate_ewma = state->has_rate
                         ? kRateEwmaAlpha * rate + (1.0 - kRateEwmaAlpha) * state->rate_ewma
                         : rate;
  state->has_rate = true;
}

bool AdaptationDaemon::AdaptSlot(ArraySlot& slot, const adapt::WorkloadCounters& counters) {
  return AdaptSlotTraced(slot, counters, NextTraceId());
}

bool AdaptationDaemon::AdaptSlotTraced(ArraySlot& slot, const adapt::WorkloadCounters& counters,
                                       uint64_t trace_id) {
  // The shared pool's RunOnAll does not nest: one rebuild at a time across
  // every worker and direct caller.
  std::lock_guard<std::mutex> rebuild_lock(rebuild_mu_);
  // Pin while reading the source: only this daemon publishes today, but the
  // pin keeps the rebuild correct even with other publishers around. The
  // pin lives in the slot's own shard domain.
  const EpochManager::PinHandle pin = slot.epoch_->Pin();
  const uint64_t writes_before = slot.write_count();
  const ArrayVersion* version = slot.Current();
  // A successful publish retires `version`, after which it may be reclaimed
  // at any epoch advance — snapshot the sequence while the pin holds it.
  const uint64_t source_sequence = version->sequence;
  const smart::SmartArray& source = *version->storage;

  // Data width: the narrowest width holding every current element, floored
  // by the widest value ever written so a racing writer cannot overflow a
  // narrowed rebuild (TryRestructure still catches the residual race).
  const uint32_t data_bits =
      std::max(smart::MinimalBits(*pool_, source), slot.max_written_bits());

  adapt::SelectorInputs inputs;
  inputs.machine = machine_;
  inputs.hints = HintsFor(slot);
  inputs.counters = counters;
  inputs.costs = costs_;
  inputs.compression_ratio = static_cast<double>(data_bits) / 64.0;
  // Encoding axis input: how much narrower a frame-of-reference+delta
  // re-encoding would pack the current contents (estimated from the zone
  // maps the scan engine already maintains — no extra pass over the data).
  inputs.for_delta_ratio = smart::ForDeltaArray::EstimateDeltaRatio(source);
  adapt::DecisionRecord record;
  const adapt::SelectorResult result =
      adapt::ChooseConfiguration(inputs, options_.audit ? &record : nullptr);

  const adapt::Configuration current{
      source.placement(),
      source.bits() < 64 || source.encoding() != smart::Encoding::kBitPacked,
      source.encoding()};
  const uint32_t new_bits = result.chosen.compressed ? data_bits : 64;
  const uint64_t packed_current = adapt::PackConfigWord(current, source.bits());
  const uint64_t packed_chosen = adapt::PackConfigWord(result.chosen, new_bits);
  const char* slot_name = slot.name().c_str();

  // Margin math runs for every outcome, not just past the same-config test:
  // the audit record always carries the full comparison. estimator_bias is a
  // test hook (1.0 in production) applied on the same path the calibration
  // scorer later checks, so a planted misprediction surfaces as calibration
  // error.
  const double current_speedup = adapt::EstimateConfigSpeedup(machine_, counters, costs_,
                                                              current, inputs.compression_ratio);
  const double chosen_speedup =
      adapt::EstimateConfigSpeedup(machine_, counters, costs_, result.chosen,
                                   inputs.compression_ratio) *
      options_.estimator_bias;
  const uint64_t win_ppm = WinPpm(chosen_speedup, current_speedup);

  record.trace_id = trace_id;
  record.ns = obs::NowNs();
  record.AddCandidate("current", current, source.bits(), current_speedup);
  record.current = current;
  record.current_bits = source.bits();
  record.current_speedup = current_speedup;
  record.chosen_speedup = chosen_speedup;
  record.margin = options_.min_predicted_win;
  record.predicted_ratio = current_speedup > 0.0 ? chosen_speedup / current_speedup : 0.0;
  record.predicted_win = record.predicted_ratio > 0.0 ? record.predicted_ratio - 1.0 : 0.0;

  adapt::DecisionReason reason = adapt::DecisionReason::kAccepted;
  if (result.chosen == current) {
    reason = adapt::DecisionReason::kRejectSameConfig;
  } else if (chosen_speedup < current_speedup * (1.0 + options_.min_predicted_win)) {
    // Hysteresis: the estimated win over the *current* configuration must
    // clear the margin.
    reason = adapt::DecisionReason::kRejectMargin;
  }

  // Record the decision — refusals included, explain must show those too —
  // and run the flap detector before acting on the outcome.
  SlotAuditState* audit = nullptr;
  uint64_t record_index = 0;
  int hold_remaining = 0;
  if (options_.audit) {
    audit = &slot.EnsureAudit();
    std::lock_guard<std::mutex> lock(audit->mu);
    if (reason == adapt::DecisionReason::kAccepted) {
      if (audit->hold_remaining > 0) {
        --audit->hold_remaining;
        reason = adapt::DecisionReason::kFlapHold;
      } else if (audit->has_prev_config && result.chosen == audit->prev_config &&
                 audit->decisions - audit->last_accept_index <=
                     static_cast<uint64_t>(kFlapWindow)) {
        // A -> B -> A within the window: the slot is oscillating on workload
        // noise. Refuse, and hold further config changes down.
        audit->hold_remaining = kFlapHoldDecisions;
        reason = adapt::DecisionReason::kFlapHold;
      }
      hold_remaining = audit->hold_remaining;
    }
    record.reason = reason;
    record_index = audit->decisions;
    audit->Push(record);
  }

  const uint64_t decision_word = static_cast<uint64_t>(reason) | (trace_id << 8);
  if (reason == adapt::DecisionReason::kRejectSameConfig) {
    SA_OBS_COUNT(kDaemonRejectSame);
    SA_OBS_TRACE(kTraceDecision, slot_name, packed_current, packed_chosen, decision_word);
    slot.epoch_->Unpin(pin);
    return false;
  }
  if (reason == adapt::DecisionReason::kRejectMargin) {
    SA_OBS_COUNT(kDaemonRejectMargin);
    SA_OBS_TRACE(kTraceDecision, slot_name, packed_current, packed_chosen, decision_word,
                 win_ppm);
    SA_LOG(kDebug, "daemon",
           "slot=%s decision=reject-margin %s/%ub -> %s/%ub win=%.4f margin=%.4f",
           slot_name, smart::ToString(source.placement().kind), source.bits(),
           smart::ToString(result.chosen.placement.kind), new_bits,
           chosen_speedup / std::max(current_speedup, 1e-12) - 1.0,
           options_.min_predicted_win);
    slot.epoch_->Unpin(pin);
    return false;
  }
  if (reason == adapt::DecisionReason::kFlapHold) {
    SA_OBS_COUNT(kDaemonFlapHolds);
    SA_OBS_TRACE(kTraceFlapHold, slot_name, packed_current, packed_chosen, trace_id,
                 static_cast<uint64_t>(hold_remaining));
    SA_LOG(kInfo, "daemon", "slot=%s decision=flap-hold %s/%ub -> %s/%ub hold=%d",
           slot_name, smart::ToString(source.placement().kind), source.bits(),
           smart::ToString(result.chosen.placement.kind), new_bits, hold_remaining);
    slot.epoch_->Unpin(pin);
    return false;
  }

  SA_OBS_TRACE(kTraceDecision, slot_name, packed_current, packed_chosen, decision_word,
               win_ppm);
  SA_LOG(kInfo, "daemon",
         "slot=%s decision=accept %s/%ub -> %s/%ub win=%.4f reads=%.0f/s "
         "random=%.3f",
         slot_name, smart::ToString(source.placement().kind), source.bits(),
         smart::ToString(result.chosen.placement.kind), new_bits,
         chosen_speedup / std::max(current_speedup, 1e-12) - 1.0,
         counters.accesses_per_second, counters.random_fraction);

  SA_OBS_TRACE(kTraceRestructureBegin, slot_name, packed_current, packed_chosen, trace_id);
  smart::RestructureStats stats;
  auto rebuilt =
      smart::TryRestructure(*pool_, source, result.chosen.placement, new_bits,
                            registry_->topology(), &stats, result.chosen.encoding);
  SA_OBS_TRACE(kTraceRestructureEnd, slot_name, stats.wall_ns, stats.unpack_ns,
               stats.pack_ns, (rebuilt != nullptr ? 1 : 0) | (trace_id << 1));
  slot.epoch_->Unpin(pin);
  if (rebuilt == nullptr) {
    // A racing write stored a value wider than the target width mid-scan;
    // the sampled interval produced no adaptation, so its sample is lost.
    // The next cycle re-measures and retries.
    SA_OBS_COUNT(kDaemonSampleDrops);
    SA_LOG(kWarn, "daemon", "slot=%s restructure aborted (width overflow race)",
           slot_name);
    return false;
  }
  uint64_t new_sequence = source_sequence + 1;
  if (!registry_->Publish(slot, std::move(rebuilt), writes_before, trace_id, &new_sequence)) {
    // Writes raced the rebuild; drop it (and the sample) and retry next
    // cycle.
    SA_OBS_COUNT(kDaemonSampleDrops);
    SA_LOG(kWarn, "daemon", "slot=%s publish refused (lost-write race)", slot_name);
    return false;
  }
  adaptations_.fetch_add(1, std::memory_order_relaxed);
  SA_OBS_COUNT(kDaemonRestructures);
  if (audit != nullptr) {
    // Close the books on the accepted decision: mark it published, remember
    // the configuration the slot moved away from (flap detection), and arm
    // the calibration score the next drain settles.
    std::lock_guard<std::mutex> lock(audit->mu);
    if (adapt::DecisionRecord* published = audit->Find(record_index)) {
      published->published = true;
      published->published_sequence = new_sequence;
      // Ring-eviction-proof copy: this is the decision behind the slot's
      // live configuration until the next publish.
      audit->has_last_published = true;
      audit->last_published_index = record_index;
      audit->last_published = *published;
    }
    audit->has_prev_config = true;
    audit->prev_config = current;
    audit->last_accept_index = record_index;
    audit->pending_score = true;
    audit->pending_index = record_index;
    audit->pending_pre_rate = audit->has_rate ? audit->rate_ewma : 0.0;
    audit->pending_predicted = record.predicted_ratio;
  }
  return true;
}

adapt::WorkloadCounters AdaptationDaemon::SynthesizeCounters(const SlotSample& sample,
                                                             uint64_t length,
                                                             const adapt::MachineCaps& machine,
                                                             double cycles_per_access) {
  adapt::WorkloadCounters c;
  const double accesses =
      static_cast<double>(sample.reads() + sample.writes) / std::max(sample.seconds, 1e-9);
  c.accesses_per_second = accesses;
  c.elem_bytes = 8.0;
  c.dataset_bytes = static_cast<double>(length) * 8.0;
  c.random_fraction =
      sample.reads() == 0
          ? 0.0
          : static_cast<double>(sample.random_reads) / static_cast<double>(sample.reads());

  const double sockets = std::max(1, machine.sockets);
  const double demand_per_socket = accesses * c.elem_bytes / sockets;
  c.bw_current_memory = std::max(1.0, demand_per_socket);
  c.exec_current_per_socket = std::max(1.0, accesses / sockets * cycles_per_access);
  // Interleaved profiling shape: each socket's team pulls half its bytes
  // across the interconnect.
  c.max_mem_utilization =
      machine.bw_max_memory > 0.0 ? std::min(1.0, demand_per_socket / machine.bw_max_memory)
                                  : 0.0;
  c.max_ic_utilization = machine.bw_max_interconnect > 0.0
                             ? std::min(1.0, demand_per_socket * 0.5 / machine.bw_max_interconnect)
                             : 0.0;
  return c;
}

adapt::SoftwareHints AdaptationDaemon::HintsFor(const ArraySlot& slot) {
  const SlotSample lifetime = slot.LifetimeSample();
  // Post-seal writes only: SealWrites() lets an uploader exclude its bulk
  // population traffic from the read-only / mostly-reads judgment.
  const uint64_t writes = slot.unsealed_write_count();
  adapt::SoftwareHints hints;
  hints.read_only = writes == 0;
  hints.mostly_reads = writes * 20 < std::max<uint64_t>(lifetime.reads(), 1);
  const double length = static_cast<double>(std::max<uint64_t>(slot.length(), 1));
  hints.linear_passes = static_cast<double>(lifetime.sequential_reads) / length;
  hints.random_passes = static_cast<double>(lifetime.random_reads) / length;
  hints.predicate_selectivity = lifetime.predicate_selectivity();
  return hints;
}

}  // namespace sa::runtime
