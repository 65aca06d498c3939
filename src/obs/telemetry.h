#ifndef SA_OBS_TELEMETRY_H_
#define SA_OBS_TELEMETRY_H_

// Sharded, lock-free telemetry primitives: monotonic counters, additive
// gauges, and power-of-two-bucketed histograms.
//
// Writers touch exactly one cache-line-padded shard chosen per thread with
// the same thread-slot-hint scheme runtime/epoch uses, so the hot path is a
// single relaxed fetch_add with no sharing between threads. Readers
// aggregate across shards on demand; per-shard relaxed atomics are
// coherence-ordered, so every aggregated counter is monotonic even while
// writers race the read.
//
// All instrumentation goes through the SA_OBS_* macros at the bottom of this
// header and is always compiled in. Its one switch is the process-wide
// runtime kill switch (SetEnabled), checked with one relaxed load, which
// lets a single binary measure instrumented-vs-uninstrumented overhead.

#include <atomic>
#include <bit>
#include <chrono>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace sa::obs {

// Exported names key off these ids (telemetry.cc's name table is indexed by
// them; the C ABI and the Prometheus export go by name, so removing an id
// removes its name too). Add new ids immediately before the *Count sentinel.
enum CounterId : int {
  kSnapshotAcquires = 0,
  kSnapshotReads,
  kSnapshotScannedElems,
  kSlotWrites,
  kPublishes,
  kPublishLostWrite,
  kEpochAdvances,
  kEpochReclaimed,
  kDaemonPasses,
  kDaemonSampleDrops,
  kDaemonRestructures,
  kDaemonRejectSame,
  kDaemonRejectMargin,
  kRestructures,
  kRestructureOverflowAborts,
  kUnpackRangeCalls,
  kUnpackRangeBytes,
  kPackRangeCalls,
  kPackRangeBytes,
  kKernelSelectBlock,
  kKernelSelectV2,
  kParallelForLoops,
  kParallelForBatches,
  kParallelForSteals,
  kFfiTransitions,
  kEpochPinRejects,
  kRegistryAcquireByName,
  kSnapshotAcquireRejects,
  kSlotFetchAdds,
  kDaemonShardClaims,
  kDaemonShardSteals,
  kDaemonBackpressureDrops,
  kGraphBfsRounds,
  kGraphCcIterations,
  kGraphFrontierPushes,
  kGraphEdgesStreamed,
  kGraphRandomGathers,
  kGraphTriIntersections,
  kScanChunksScanned,
  kScanChunksSkipped,
  // Decision audit + calibration loop (PR 10).
  kDaemonFlapHolds,        // accepted-worthy decisions suppressed by hold-down
  kDaemonDecisionsScored,  // published decisions scored realized-vs-predicted
  kKernelSelectAvx512,     // widths whose sum kernels calibrated to AVX-512
  kCounterIdCount,
};

enum GaugeId : int {
  kLiveSnapshots = 0,
  kRetiredVersions,
  kRegistrySlots,
  kDaemonRunning,
  kDaemonQueueDepth,
  kGaugeIdCount,
};

enum HistogramId : int {
  kEpochReclaimNs = 0,
  kRestructureUnpackNs,
  kRestructurePackNs,
  kRestructureWallNs,
  kDaemonPassNs,
  // Estimator calibration: per scored decision, |realized - predicted| /
  // predicted and the realized post/pre access-rate ratio, both in ppm
  // (1e6 = perfectly calibrated / rate unchanged).
  kDaemonCalibrationErrPpm,
  kDaemonRealizedSpeedupPpm,
  kHistogramIdCount,
};

inline constexpr int kShards = 64;
// Bucket 0 holds value 0; bucket i (1..64) holds values with bit_width i,
// i.e. the half-open power-of-two range [2^(i-1), 2^i).
inline constexpr int kHistBuckets = 65;

// Always true: instrumentation has no build-time switch. Kept only for the
// benchmark harness's host record; library, test and tool code do not read it.
inline constexpr bool kCompiledIn = true;

namespace internal {

struct alignas(64) Shard {
  std::atomic<uint64_t> counters[kCounterIdCount];
  std::atomic<int64_t> gauges[kGaugeIdCount];
  std::atomic<uint64_t> hist_buckets[kHistogramIdCount][kHistBuckets];
  std::atomic<uint64_t> hist_sums[kHistogramIdCount];
};

extern Shard g_shards[kShards];
extern std::atomic<bool> g_enabled;

// Out of line: assigns this thread a starting shard round-robin, exactly like
// EpochManager::Pin spreads its slot hints.
int RegisterThreadShard();

inline int ThreadShard() {
  thread_local int shard = -1;
  if (SA_UNLIKELY(shard < 0)) {
    shard = RegisterThreadShard();
  }
  return shard;
}

}  // namespace internal

// Runtime kill switch.
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}
void SetEnabled(bool enabled);

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline void Count(CounterId id, uint64_t n) {
  if (!Enabled()) {
    return;
  }
  internal::g_shards[internal::ThreadShard()].counters[id].fetch_add(
      n, std::memory_order_relaxed);
}

// Gauges pair +delta/-delta across calls (e.g. snapshot acquire/release), so
// they ignore the runtime kill switch: toggling mid-pair must not leave the
// aggregate permanently skewed.
inline void GaugeAdd(GaugeId id, int64_t delta) {
  internal::g_shards[internal::ThreadShard()].gauges[id].fetch_add(
      delta, std::memory_order_relaxed);
}

inline int HistogramBucketIndex(uint64_t value) {
  return value == 0 ? 0 : std::bit_width(value);
}

inline void Record(HistogramId id, uint64_t value) {
  if (!Enabled()) {
    return;
  }
  internal::Shard& shard = internal::g_shards[internal::ThreadShard()];
  shard.hist_buckets[id][HistogramBucketIndex(value)].fetch_add(
      1, std::memory_order_relaxed);
  shard.hist_sums[id].fetch_add(value, std::memory_order_relaxed);
}

// Aggregate-on-read views.
uint64_t CounterValue(CounterId id);
int64_t GaugeValue(GaugeId id);

struct HistogramSnapshot {
  uint64_t buckets[kHistBuckets];
  uint64_t count;
  uint64_t sum;
};
HistogramSnapshot HistogramValue(HistogramId id);

// Prometheus-legal snake_case family names (counters end in _total).
const char* CounterName(CounterId id);
const char* GaugeName(GaugeId id);
const char* HistogramName(HistogramId id);

// Zeroes every shard. Testing only: racing writers may leave residue.
void ResetForTesting();

#define SA_OBS_COUNT(id) ::sa::obs::Count(::sa::obs::id, 1)
#define SA_OBS_COUNT_N(id, n) \
  ::sa::obs::Count(::sa::obs::id, static_cast<uint64_t>(n))
#define SA_OBS_GAUGE_ADD(id, delta) \
  ::sa::obs::GaugeAdd(::sa::obs::id, static_cast<int64_t>(delta))
#define SA_OBS_HIST(id, value) \
  ::sa::obs::Record(::sa::obs::id, static_cast<uint64_t>(value))

// Records wall nanoseconds from construction to scope exit.
class ScopedNsTimer {
 public:
  explicit ScopedNsTimer(HistogramId id) : id_(id), start_(NowNs()) {}
  ~ScopedNsTimer() { Record(id_, NowNs() - start_); }
  ScopedNsTimer(const ScopedNsTimer&) = delete;
  ScopedNsTimer& operator=(const ScopedNsTimer&) = delete;

 private:
  HistogramId id_;
  uint64_t start_;
};

#define SA_OBS_SCOPED_NS_CAT2(a, b) a##b
#define SA_OBS_SCOPED_NS_CAT(a, b) SA_OBS_SCOPED_NS_CAT2(a, b)
#define SA_OBS_SCOPED_NS(id)                                      \
  ::sa::obs::ScopedNsTimer SA_OBS_SCOPED_NS_CAT(sa_obs_timer_,    \
                                                __LINE__)(::sa::obs::id)

}  // namespace sa::obs

#endif  // SA_OBS_TELEMETRY_H_
