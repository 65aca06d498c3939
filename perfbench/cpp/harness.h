// Shared pieces of the benchmark: clocks, the closed-loop window, latency
// statistics, counter deltas and the result/context report.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "adapt/specs.h"
#include "common/random.h"
#include "platform/topology.h"
#include "obs/telemetry.h"
#include "smart/smart_array.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".bench_out";
  std::string git_sha = "unknown";
};

uint64_t NowNs();
// User + system CPU time of the whole process.
double ProcessCpuSeconds();
// CPU time of the calling thread.
double ThreadCpuSeconds();
// Peak resident set of the process.
double PeakRssMb();
int Nproc();
// Caps of the paper's 36-core reference machine scaled to this host's
// cores (as bench_graph's live-daemon phase does), for the daemon's §6
// selector.
sa::adapt::MachineCaps HostCaps(const sa::platform::Topology& topo);
// Share of all CPU time the hypervisor gave to other guests since the
// previous call (the first call measures from boot).
double HostStealShare();
// Nanoseconds per step of a fixed chain of dependent integer operations on
// the calling thread (median of 5 probes of ~10 ms): a gauge of how fast a
// core of this host runs scalar code at the moment, which other tenants of
// a shared host can move.
double HostProbeNsPerStep();

// The input generator: a pure function of (seed, stream, index), so
// references can be recomputed without staging the values.
inline uint64_t Hash(uint64_t seed, uint64_t stream, uint64_t index) {
  return sa::SplitMix64(sa::SplitMix64(seed * 0x9e3779b97f4a7c15ULL + stream) ^ index);
}

// Nearest-rank quantile: the smallest sample with at least a fraction q of
// all samples at or below it.
double Quantile(std::vector<double> values, double q);
// Samples that lie strictly beyond the nearest-rank q quantile of n.
uint64_t SamplesBeyond(uint64_t n, double q);
// Fewest samples for which SamplesBeyond(n, q) >= 10.
uint64_t MinSamplesForTail(double q);

// Log-linear latency histogram (128 sub-buckets per power of two, <1%
// relative width) whose quantiles interpolate inside the bucket. For
// workloads with millions of requests per run.
class LatencyHistogram {
 public:
  void Record(uint64_t ns);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  double QuantileNs(double q) const;

 private:
  static constexpr int kSubBits = 7;
  static constexpr int kBuckets = (64 - kSubBits + 1) << kSubBits;
  static int BucketFor(uint64_t ns);
  static uint64_t BucketLow(int bucket);

  std::vector<uint64_t> buckets_ = std::vector<uint64_t>(kBuckets, 0);
  uint64_t count_ = 0;
};

// One closed-loop window: a single client issues ops back to back.
struct Window {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  double client_cpu_s = 0.0;  // the client thread's share of cpu_s
  std::vector<double> latency_us;

  double ops_per_s() const { return wall_s > 0 ? static_cast<double>(ops) / wall_s : 0.0; }
};

// Runs op() (returning whether its answer was right) until `seconds` have
// passed and at least `min_ops` ops completed.
template <typename Op>
Window RunWindow(double seconds, uint64_t min_ops, Op&& op) {
  Window w;
  const double cpu0 = ProcessCpuSeconds();
  const double client_cpu0 = ThreadCpuSeconds();
  const uint64_t t0 = NowNs();
  const uint64_t deadline = t0 + static_cast<uint64_t>(seconds * 1e9);
  uint64_t now = t0;
  while (now < deadline || w.ops < min_ops) {
    const uint64_t start = now;
    const bool ok = op();
    now = NowNs();
    w.latency_us.push_back(static_cast<double>(now - start) / 1e3);
    ++w.ops;
    w.failed += ok ? 0 : 1;
  }
  w.wall_s = static_cast<double>(now - t0) / 1e9;
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.client_cpu_s = ThreadCpuSeconds() - client_cpu0;
  return w;
}

// Values of every public obs counter at one instant.
struct Counters {
  uint64_t value[sa::obs::kCounterIdCount] = {};
  static Counters Now();
  uint64_t Since(const Counters& before, sa::obs::CounterId id) const {
    return value[id] - before.value[id];
  }
};

// Durations (in ns) of the collected spans called `name`, and their works.
std::vector<double> SpanDurationsNs(const std::vector<Span>& spans, const char* name);
double SpanWork(const std::vector<Span>& spans, const char* name);
double SpanTotalNs(const std::vector<Span>& spans, const char* name);

class Report {
 public:
  explicit Report(const Options& options)
      : options_(options), probe_start_ns_(HostProbeNsPerStep()) {}

  const Options& options() const { return options_; }

  // Per-layer metric; any per-layer metric a workload does not set is
  // printed as 0 (the layer is not on that workload's path).
  void Layer(const std::string& name, double value) { layer_[name] = value; }
  // Raw JSON value recorded in the run context.
  void Context(const std::string& key, const std::string& json) { context_[key] = json; }
  // Raw JSON value that must be identical across runs of one seed.
  void Determinism(const std::string& key, const std::string& json) {
    determinism_[key] = json;
  }
  void Ops(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void Incorrect(const std::string& why);

  // The closed-loop end-to-end metrics every workload prints.
  void EndToEnd(const std::vector<double>& setup_s, uint64_t ops, uint64_t failed, double wall_s,
                double cpu_s, double p50_us, double tail_us, double tail_q, uint64_t samples,
                double bytes_per_value);
  void EndToEnd(const std::vector<double>& setup_s, const Window& w, double tail_q,
                double bytes_per_value);

  // Per-layer self time per op, from the collected spans.
  void SelfTimeBreakdown(const std::vector<Span>& spans, uint64_t ops);

  // Writes the span trace and the run details under out_dir, and prints
  // the result line (the last line of stdout). Returns the exit code.
  int Finish(const std::vector<Span>& spans);

 private:
  void Metric(const std::string& name, double value, const char* unit);

  Options options_;
  double probe_start_ns_;
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::map<std::string, double> layer_;
  std::map<std::string, std::string> context_;
  std::map<std::string, std::string> determinism_;
};

std::string JsonString(const std::string& s);
std::string JsonNumber(double v);
// "encoding/bits/storage bits/placement" of one array.
std::string DescribeArray(const sa::smart::SmartArray& array);

// Shape shared by the single-client workloads: an untraced window for the
// end-to-end metrics, or (traced run) an untraced half followed by a
// traced half whose spans and counter deltas give the per-layer metrics.
struct Measured {
  Window window;  // the window the metrics describe
  Window plain;   // traced run only: the untraced half before it
  Counters before;
  Counters after;
  std::vector<Span> spans;
};

template <typename Op>
Measured Measure(const Options& options, uint64_t min_ops, Op&& op) {
  Measured m;
  if (!options.trace) {
    m.before = Counters::Now();
    m.window = RunWindow(options.seconds, min_ops, op);
    m.after = Counters::Now();
    return m;
  }
  m.plain = RunWindow(options.seconds / 2, 1, op);
  tracer::Clear();
  tracer::Enable(true);
  m.before = Counters::Now();
  m.window = RunWindow(options.seconds / 2, 1, op);
  m.after = Counters::Now();
  tracer::Enable(false);
  m.spans = tracer::Collect();
  return m;
}

// Reports a single-client measurement: the end-to-end metrics of the
// untraced run, or the per-layer metrics every such workload shares (rts
// loop counts, self time, tracing overhead) of the traced run. Workloads
// add their own layer metrics.
void ReportMeasured(Report& report, const std::vector<double>& setup_s, const Measured& m,
                    double tail_q, double bytes_per_value);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
