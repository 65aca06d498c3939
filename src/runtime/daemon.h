// AdaptationDaemon: the one online-adaptation loop of the runtime (§6/§7:
// profile the workload, run the two-step selector, "restructure the array
// on the fly", and "re-apply its adaptivity workflow" when the workload
// changes). Three kinds of caller reach the same decision path:
//   * background passes (Start/Stop) for service workloads nobody drives;
//   * RunOnce, one synchronous pass for tests and the CLI;
//   * AdaptSlot(slot, counters) for callers that measure their own profile.
// A pass drains each slot's sampled workload counters, synthesizes the §6
// PCM-style WorkloadCounters from them, re-runs the selector with
// hysteresis (the predicted win must beat min_predicted_win, by default
// adapt::kDefaultAdaptationMargin), audits the decision, rebuilds the
// storage via smart::TryRestructure on the worker pool, and publishes the
// new representation with a single pointer swap; the old one goes to the
// epoch garbage list.
//
// At multi-tenant scale the daemon is a worker *set* over the registry's
// shards rather than one thread over all slots:
//   * Each shard keeps an intrusive queue of slots with undrained samples;
//     a pass drains the queue in one batch instead of scanning every slot.
//   * Shards are claimed through a due-time CAS (rts/claim_set.h). A worker
//     services the shards it owns (shard % num_workers == worker) first,
//     then steals any other shard whose owner is behind — idle workers
//     absorb load imbalance without a handoff protocol.
//   * Backpressure: when a shard's retired-version debt exceeds
//     kMaxRetiredDebt, the pass drains samples and reclaims but skips
//     restructures (kDaemonBackpressureDrops), so a stalled reader cannot
//     make the daemon amplify memory pressure.
#ifndef SA_RUNTIME_DAEMON_H_
#define SA_RUNTIME_DAEMON_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "adapt/selector.h"
#include "rts/worker_pool.h"
#include "runtime/registry.h"

namespace sa::runtime {

// Admission control: a shard whose epoch domain holds more retired versions
// than this gets sample drains and reclamation but no new restructures
// until the debt drains.
inline constexpr size_t kMaxRetiredDebt = 64;

// Flap detector: an accepted decision that returns to the configuration
// the slot moved away from within the last kFlapWindow recorded decisions
// is a flap; the slot is then held down (decisions that would change its
// configuration are refused with DecisionReason::kFlapHold) for the next
// kFlapHoldDecisions such decisions.
inline constexpr int kFlapWindow = 4;
inline constexpr int kFlapHoldDecisions = 8;

struct DaemonOptions {
  // Wall time between adaptation passes over a given shard.
  std::chrono::milliseconds interval{200};
  // Hysteresis: restructure only when the chosen configuration's estimated
  // speedup exceeds the current one's by this margin (a rebuild is not free,
  // and a borderline decision flip-flops with the workload's noise).
  double min_predicted_win = adapt::kDefaultAdaptationMargin;
  // Slots with fewer sampled accesses than this in an interval are left
  // alone — the counters are too thin to trust.
  uint64_t min_sampled_accesses = 4096;
  // Crude execution-demand model for synthesized counters: core cycles
  // consumed per element access (the real system measures this with PCM).
  static constexpr double cycles_per_access = 4.0;
  // Background worker threads servicing the shard set.
  int num_workers = 1;

  // ---- decision audit + calibration (runtime/audit.h) ----
  // Record a DecisionRecord per selector run in the slot's audit ring,
  // score published decisions realized-vs-predicted, and run the flap
  // detector. Off only to measure the audit layer's own overhead
  // (bench/micro_runtime.cc) — explain/flap/score all need it.
  bool audit = true;
  // Test hook: scales the chosen configuration's estimated speedup before
  // the margin test and the calibration score (1.0 = trust the estimator).
  // Lets tests plant a misprediction and assert the calibration loop
  // surfaces it as nonzero calibration error.
  double estimator_bias = 1.0;
};

class AdaptationDaemon {
 public:
  AdaptationDaemon(ArrayRegistry& registry, rts::WorkerPool& pool, adapt::MachineCaps machine,
                   adapt::ArrayCosts costs, DaemonOptions options = {});
  ~AdaptationDaemon();

  AdaptationDaemon(const AdaptationDaemon&) = delete;
  AdaptationDaemon& operator=(const AdaptationDaemon&) = delete;

  // Background worker control. Start/Stop are idempotent.
  void Start();
  void Stop();
  bool running() const { return !workers_.empty(); }

  // One synchronous adaptation pass over every shard, ignoring due times
  // (what tests and the CLI use to drive the daemon deterministically).
  // Returns the number of slots restructured.
  int RunOnce();

  // Decision + rebuild + publish for one slot under explicit counters — the
  // deterministic core of a pass, and the entry for callers that measure
  // their own profile (the hints still come from HintsFor). Serialized
  // across workers (the shared WorkerPool does not nest). Returns true when
  // a new representation was published. Allocates a fresh trace id for the
  // attempt; every decision (including rejects and flap holds) lands in the
  // slot's audit ring when options.audit is on.
  bool AdaptSlot(ArraySlot& slot, const adapt::WorkloadCounters& counters);

  // §6-style counters synthesized from an interval sample: access rate and
  // random fraction come straight from the counters; bandwidth demand and
  // utilization are modeled as rate × element size against the machine
  // caps, in the interleaved profiling shape (half the traffic remote).
  static adapt::WorkloadCounters SynthesizeCounters(const SlotSample& sample, uint64_t length,
                                                    const adapt::MachineCaps& machine,
                                                    double cycles_per_access);

  // §6.1 software hints derived from a slot's lifetime counters.
  static adapt::SoftwareHints HintsFor(const ArraySlot& slot);

  uint64_t adaptations() const { return adaptations_.load(std::memory_order_relaxed); }
  // Shard passes completed (one RunOnce over an N-shard registry counts N).
  uint64_t passes() const { return passes_.load(std::memory_order_relaxed); }

 private:
  void WorkerMain(int worker);
  // Claims every due shard visible to `worker` (own shards first, then
  // steals) and services the claimed ones.
  void SweepShards(int worker, uint64_t now_ns, uint64_t interval_ns);
  // Drains one shard's sample queue, adapts eligible slots, reclaims.
  int ProcessShard(int shard);
  bool ProcessSlot(ArraySlot& slot, bool backpressure);
  // AdaptSlot with the caller's trace id (ProcessSlot threads the one it
  // stamped on the sample_drain event).
  bool AdaptSlotTraced(ArraySlot& slot, const adapt::WorkloadCounters& counters,
                       uint64_t trace_id);
  // Calibration: scores the pending published decision against this drain's
  // observed rate, then folds the rate into the slot's EWMA.
  void ObserveRate(ArraySlot& slot, double rate);
  uint64_t NextTraceId() { return next_trace_id_.fetch_add(1, std::memory_order_relaxed); }

  ArrayRegistry* registry_;
  rts::WorkerPool* pool_;
  adapt::MachineCaps machine_;
  adapt::ArrayCosts costs_;
  DaemonOptions options_;

  std::atomic<uint64_t> adaptations_{0};
  std::atomic<uint64_t> passes_{0};
  // Per-adaptation trace ids start at 1: id 0 means "untracked" everywhere.
  std::atomic<uint64_t> next_trace_id_{1};

  // The shared WorkerPool's RunOnAll is not reentrant, so rebuild work
  // (MinimalBits + TryRestructure) is serialized across daemon workers and
  // direct AdaptSlot callers.
  std::mutex rebuild_mu_;

  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace sa::runtime

#endif  // SA_RUNTIME_DAEMON_H_
