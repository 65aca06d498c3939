// sa_loadgen: traffic harness for the sharded multi-tenant registry.
//
// Drives the online-adaptation runtime the way a service would: many client
// threads, Zipfian slot popularity over 10⁴+ named slots, a mixed op stream
// (by-name snapshot acquires, cached-handle scan windows, fetch-adds,
// writes, occasional client-initiated restructures), with the adaptation
// daemon live and restructuring throughout. Latency is recorded per op into
// HDR-style log-linear histograms (p50/p99/p999 — tails, not means).
//
// Each invocation runs two phases over identical traffic and emits both
// series into BENCH_service.json:
//   * "sharded"      — N-shard registry, lock-free AcquireByName hot path.
//   * "single-shard" — 1 shard, by-name acquisition through the seed's
//                      control path (registry mutex + std::map lookup, then
//                      Acquire), i.e. the pre-sharding cost model.
// The ratio of the two acquire-throughput numbers is the headline that
// tools/bench_diff.py gates.
//
// By default the generator is closed-loop (each thread issues the next op
// as soon as the previous completes; latency == service time). --rate runs
// open-loop with scheduled arrivals: latency then includes queueing delay,
// which is what a tail-latency SLO actually measures.
#ifndef SA_TOOLS_LOADGEN_H_
#define SA_TOOLS_LOADGEN_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sa::tools {

// Log-linear latency histogram: 16 linear sub-buckets per power-of-two
// major, exact below 16 ns. Covers the full uint64 ns range in 1024
// buckets with <= 6.25% relative bucket width — plenty for p999 reporting.
class LatencyHistogram {
 public:
  static constexpr int kBuckets = 1024;

  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);

  uint64_t count() const { return count_; }
  uint64_t max() const { return max_; }
  // Value at quantile q in [0,1] (bucket upper bound; 0 when empty).
  uint64_t Quantile(double q) const;

 private:
  static int BucketFor(uint64_t ns);
  static uint64_t BucketUpperBound(int bucket);

  uint64_t buckets_[kBuckets] = {};
  uint64_t count_ = 0;
  uint64_t max_ = 0;
};

struct LoadgenOptions {
  int threads = 64;
  int slots = 10000;
  int shards = 64;          // sharded phase; the baseline phase always uses 1
  int pin_slots_per_shard = 256;
  double duration_sec = 3.0;
  double zipf_s = 0.99;     // slot-popularity skew
  uint64_t length = 64;     // elements per slot
  uint32_t bits = 16;       // declared value width
  double rate = 0.0;        // total target ops/sec; 0 = closed loop
  uint64_t seed = 42;
  bool daemon = true;
  double daemon_interval_ms = 20.0;
  int daemon_workers = 2;
  // Registry counter_flush_sample_shift for both phases (0 = exact flush).
  uint32_t flush_sample_shift = 3;
  std::string output_path = "BENCH_service.json";
};

struct PhaseResult {
  std::string series;
  int shards = 0;
  uint64_t ops = 0;
  uint64_t acquires = 0;
  uint64_t acquire_rejects = 0;
  uint64_t reads = 0;
  uint64_t fetch_adds = 0;
  uint64_t writes = 0;
  uint64_t write_rejects = 0;
  uint64_t client_restructures = 0;
  double duration_sec = 0.0;
  LatencyHistogram acquire_ns;
  LatencyHistogram read_ns;
  // Daemon-side activity during the phase.
  uint64_t daemon_passes = 0;
  uint64_t daemon_adaptations = 0;
  uint64_t daemon_shard_claims = 0;   // 0 while telemetry is off
  uint64_t daemon_shard_steals = 0;   // 0 while telemetry is off
  uint64_t daemon_backpressure_drops = 0;
  int64_t max_shard_queue_depth = 0;

  double throughput() const { return duration_sec > 0 ? ops / duration_sec : 0.0; }
  double acquire_throughput() const {
    return duration_sec > 0 ? acquires / duration_sec : 0.0;
  }
};

// Runs one phase. `shards` == 1 with `legacy_by_name` uses the seed control
// path (Open + Acquire) for by-name ops; otherwise AcquireByName.
PhaseResult RunPhase(const LoadgenOptions& options, int shards, bool legacy_by_name,
                     const std::string& series_name);

// Full harness: both phases, then BENCH_service.json through
// report::BenchWriter (tools/bench_diff.py holds the gates). Returns a
// process exit code.
int RunLoadgen(const LoadgenOptions& options);

// argv front-end shared by the sa_loadgen binary and `sa_cli loadgen`.
// argv[0] is skipped.
int LoadgenMain(int argc, char** argv);

}  // namespace sa::tools

#endif  // SA_TOOLS_LOADGEN_H_
