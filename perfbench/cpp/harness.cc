#include "harness.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/machine_spec.h"
#include "smart/kernel_table.h"

namespace perfbench {
namespace {

// Every per-layer metric, in print order. A traced run prints all of them;
// a layer that is not on a workload's path reads 0 there.
struct LayerMetric {
  const char* name;
  const char* unit;
};
constexpr LayerMetric kLayerMetrics[] = {
    {"smart.scan_ns_per_value", "ns"},
    {"smart.sum2_ns_per_value", "ns"},
    {"smart.chunks_skipped_ratio", "ratio"},
    {"smart.restructure_ms", "ms"},
    {"rts.loops_per_op", "count"},
    {"rts.batches_per_op", "count"},
    {"rts.idle_ratio", "ratio"},
    {"runtime.acquire_by_name_ns_p50", "ns"},
    {"runtime.acquire_by_name_ns_p99", "ns"},
    {"runtime.acquire_cached_ns_p50", "ns"},
    {"runtime.snapshot_sum_ns_p50", "ns"},
    {"runtime.release_ns_p50", "ns"},
    {"runtime.fetch_add_ns_p50", "ns"},
    {"runtime.fetch_add_ns_p99", "ns"},
    {"runtime.write_ns_p50", "ns"},
    {"runtime.write_ns_p99", "ns"},
    {"runtime.acquire_reject_ratio", "ratio"},
    {"runtime.write_reject_ratio", "ratio"},
    {"runtime.daemon_passes_per_s", "1/s"},
    {"runtime.epoch_reclaimed_per_s", "1/s"},
    {"runtime.pin_us_p50", "us"},
    {"adapt.decisions", "count"},
    {"adapt.adaptations", "count"},
    {"adapt.setup_ms", "ms"},
    {"graph.bfs_ms", "ms"},
    {"graph.cc_ms", "ms"},
    {"graph.pagerank_ms", "ms"},
    {"graph.degree_ms", "ms"},
    {"graph.triangles_ms", "ms"},
    {"graph.edges_streamed_per_op", "count"},
    {"graph.random_gathers_per_op", "count"},
    {"table.count_where_ms", "ms"},
    {"table.sum_where_ms", "ms"},
    {"table.group_by_sum_ms", "ms"},
    {"table.min_max_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

std::string ReadFirstLine(const char* path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

std::string KernelSelectionJson() {
  // One letter per width 1..64: B = scalar block kernel, V = AVX2 v2.
  std::string sum;
  std::string predicate;
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    const sa::smart::KernelOps& ops = sa::smart::KernelsFor(bits);
    sum.push_back(ops.kind == sa::smart::KernelKind::kBlock ? 'B' : 'V');
    predicate.push_back(ops.predicate_kind == sa::smart::KernelKind::kBlock ? 'B' : 'V');
  }
  return "{\"sum\":" + JsonString(sum) + ",\"predicate\":" + JsonString(predicate) + "}";
}

}  // namespace

uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

int Nproc() { return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)); }

sa::adapt::MachineCaps HostCaps(const sa::platform::Topology& topo) {
  sa::adapt::MachineCaps caps =
      sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core());
  const double core_ratio = std::min(1.0, static_cast<double>(topo.num_cpus()) / 36.0);
  caps.exec_max_per_socket *= core_ratio;
  caps.bw_max_memory *= core_ratio;
  caps.bw_max_interconnect *= core_ratio;
  return caps;
}

double HostStealShare() {
  // /proc/stat "cpu" line: user nice system idle iowait irq softirq steal ...
  static uint64_t last_steal = 0;
  static uint64_t last_total = 0;
  std::istringstream fields(ReadFirstLine("/proc/stat"));
  std::string label;
  fields >> label;
  uint64_t total = 0;
  uint64_t steal = 0;
  uint64_t value = 0;
  for (int i = 0; i < 8 && fields >> value; ++i) {
    total += value;
    steal = i == 7 ? value : steal;
  }
  const double share = total > last_total ? static_cast<double>(steal - last_steal) /
                                                static_cast<double>(total - last_total)
                                          : 0.0;
  last_steal = steal;
  last_total = total;
  return share;
}

double HostProbeNsPerStep() {
  constexpr uint64_t kSteps = uint64_t{1} << 22;
  std::vector<double> probes;
  uint64_t x = 1;
  for (int i = 0; i < 5; ++i) {
    const uint64_t t0 = NowNs();
    for (uint64_t step = 0; step < kSteps; ++step) {
      x = sa::SplitMix64(x + step);
    }
    probes.push_back(static_cast<double>(NowNs() - t0) / static_cast<double>(kSteps));
  }
  volatile uint64_t sink = x;
  (void)sink;
  return Quantile(probes, 0.5);
}

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const uint64_t n = values.size();
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  std::nth_element(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   values.end());
  return values[rank - 1];
}

uint64_t SamplesBeyond(uint64_t n, double q) {
  if (n == 0) {
    return 0;
  }
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(n))), 1, n);
  return n - rank;
}

uint64_t MinSamplesForTail(double q) {
  uint64_t n = 10;
  while (SamplesBeyond(n, q) < 10) {
    ++n;
  }
  return n;
}

int LatencyHistogram::BucketFor(uint64_t ns) {
  if (ns < (uint64_t{1} << kSubBits)) {
    return static_cast<int>(ns);
  }
  const int width = std::bit_width(ns);
  const int shift = width - kSubBits - 1;
  const int sub = static_cast<int>((ns >> shift) & ((1 << kSubBits) - 1));
  return ((shift + 1) << kSubBits) + sub;
}

uint64_t LatencyHistogram::BucketLow(int bucket) {
  if (bucket < (1 << kSubBits)) {
    return static_cast<uint64_t>(bucket);
  }
  const int shift = (bucket >> kSubBits) - 1;
  const uint64_t sub = static_cast<uint64_t>(bucket & ((1 << kSubBits) - 1));
  return ((uint64_t{1} << kSubBits) | sub) << shift;
}

void LatencyHistogram::Record(uint64_t ns) {
  ++buckets_[static_cast<size_t>(BucketFor(ns))];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::QuantileNs(double q) const {
  if (count_ == 0) {
    return 0.0;
  }
  // Nearest rank, placed linearly inside its bucket.
  const uint64_t rank = std::clamp<uint64_t>(
      static_cast<uint64_t>(std::ceil(q * static_cast<double>(count_))), 1, count_);
  uint64_t seen = 0;
  for (int b = 0; b < kBuckets; ++b) {
    const uint64_t in_bucket = buckets_[static_cast<size_t>(b)];
    if (seen + in_bucket >= rank) {
      const double low = static_cast<double>(BucketLow(b));
      const double width = static_cast<double>(BucketLow(b + 1)) - low;
      const double frac =
          (static_cast<double>(rank - seen) - 0.5) / static_cast<double>(in_bucket);
      return low + width * frac;
    }
    seen += in_bucket;
  }
  return static_cast<double>(BucketLow(kBuckets - 1));
}

Counters Counters::Now() {
  Counters c;
  for (int i = 0; i < sa::obs::kCounterIdCount; ++i) {
    c.value[i] = sa::obs::CounterValue(static_cast<sa::obs::CounterId>(i));
  }
  return c;
}

std::vector<double> SpanDurationsNs(const std::vector<Span>& spans, const char* name) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns));
    }
  }
  return out;
}

double SpanWork(const std::vector<Span>& spans, const char* name) {
  double work = 0.0;
  for (const Span& s : spans) {
    if (std::string_view(s.name) == name) {
      work += static_cast<double>(s.work);
    }
  }
  return work;
}

double SpanTotalNs(const std::vector<Span>& spans, const char* name) {
  double total = 0.0;
  for (const double d : SpanDurationsNs(spans, name)) {
    total += d;
  }
  return total;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string DescribeArray(const sa::smart::SmartArray& array) {
  return std::string(sa::smart::ToString(array.encoding())) + "/" +
         std::to_string(array.bits()) + "b/" + std::to_string(array.storage_bits()) + "b/" +
         sa::smart::ToString(array.placement().kind);
}

void Report::Metric(const std::string& name, double value, const char* unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Incorrect(const std::string& why) {
  if (correct_) {
    std::fprintf(stderr, "perfbench: wrong answer: %s\n", why.c_str());
  }
  correct_ = false;
}

void Report::EndToEnd(const std::vector<double>& setup_s, uint64_t ops, uint64_t failed,
                      double wall_s, double cpu_s, double p50_us, double tail_us, double tail_q,
                      uint64_t samples, double bytes_per_value) {
  Ops(ops, failed);
  const double n = static_cast<double>(std::max<uint64_t>(ops, 1));
  Metric("setup_s", Quantile(setup_s, 0.5), "s");
  Metric("ops_per_s", static_cast<double>(ops) / wall_s, "1/s");
  Metric("latency_p50_us", p50_us, "us");
  Metric("latency_tail_us", tail_us, "us");
  Metric("cpu_us_per_op", cpu_s * 1e6 / n, "us");
  Metric("bytes_per_value", bytes_per_value, "bytes");
  Metric("peak_rss_mb", PeakRssMb(), "MB");
  Metric("ok_ratio", static_cast<double>(ops - failed) / n, "ratio");
  std::string setups = "[";
  for (size_t i = 0; i < setup_s.size(); ++i) {
    setups += i == 0 ? "" : ",";
    setups += JsonNumber(setup_s[i]);
  }
  Context("setup_s_samples", setups + "]");
  Context("tail", "{\"percentile\":" + JsonNumber(tail_q * 100) +
                      ",\"samples\":" + std::to_string(samples) +
                      ",\"beyond\":" + std::to_string(SamplesBeyond(samples, tail_q)) + "}");
}

void Report::EndToEnd(const std::vector<double>& setup_s, const Window& w, double tail_q,
                      double bytes_per_value) {
  EndToEnd(setup_s, w.ops, w.failed, w.wall_s, w.cpu_s, Quantile(w.latency_us, 0.5),
           Quantile(w.latency_us, tail_q), tail_q, w.latency_us.size(), bytes_per_value);
}

void Report::SelfTimeBreakdown(const std::vector<Span>& spans, uint64_t ops) {
  const std::vector<uint64_t> self = SelfTimes(spans);
  double per_layer[kNumLayers] = {};
  for (size_t i = 0; i < spans.size(); ++i) {
    per_layer[static_cast<int>(spans[i].layer)] += static_cast<double>(self[i]);
  }
  std::string json = "{";
  for (int l = 0; l < kNumLayers; ++l) {
    json += std::string(l == 0 ? "" : ",") + JsonString(LayerName(static_cast<enum Layer>(l))) +
            ":" + JsonNumber(per_layer[l] / 1e6 / static_cast<double>(std::max<uint64_t>(ops, 1)));
  }
  Context("self_ms_per_op", json + "}");
  Context("spans", "{\"stored\":" + std::to_string(spans.size()) +
                       ",\"dropped\":" + std::to_string(tracer::Dropped()) + "}");
}

int Report::Finish(const std::vector<Span>& spans) {
  const Options& o = options_;
  Context("nproc", std::to_string(Nproc()));
  Context("llc", JsonString(ReadFirstLine("/sys/devices/system/cpu/cpu0/cache/index3/size")));
  Context("build_type", JsonString(PERFBENCH_BUILD_TYPE));
  Context("sa_obs", sa::obs::kCompiledIn ? "true" : "false");
  Context("git_sha", JsonString(o.git_sha));
  Context("host_steal_share", JsonNumber(HostStealShare()));
  Context("host_probe_ns_per_step", "{\"start\":" + JsonNumber(probe_start_ns_) +
                                        ",\"end\":" + JsonNumber(HostProbeNsPerStep()) + "}");
  const std::string kernels = KernelSelectionJson();
  Context("kernels", kernels);
  Determinism("kernels", kernels);

  if (o.trace) {
    for (const LayerMetric& lm : kLayerMetrics) {
      const auto it = layer_.find(lm.name);
      Metric(lm.name, it == layer_.end() ? 0.0 : it->second, lm.unit);
    }
  }

  std::string metrics = "{";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    metrics += (i == 0 ? "" : ", ") + JsonString(metrics_[i].first) +
               ": {\"value\": " + JsonNumber(metrics_[i].second.first) +
               ", \"unit\": " + JsonString(metrics_[i].second.second) + "}";
  }
  metrics += "}";
  const std::string result = std::string("{\"correct\": ") + (correct_ ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(attempted_) +
                             ", \"failed\": " + std::to_string(failed_) +
                             ", \"metrics\": " + metrics + "}";

  auto render = [](const std::map<std::string, std::string>& m) {
    std::string out = "{";
    for (const auto& [key, value] : m) {
      out += out.size() == 1 ? "" : ",";
      out += JsonString(key) + ":" + value;
    }
    return out + "}";
  };
  const std::string stem =
      o.workload + "-seed" + std::to_string(o.seed) + (o.trace ? "-traced" : "");
  std::error_code ec;
  std::filesystem::create_directories(o.out_dir, ec);
  {
    std::ofstream details(o.out_dir + "/run-" + stem + ".json");
    details << "{\"workload\":" << JsonString(o.workload) << ",\"seed\":" << o.seed
            << ",\"seconds\":" << JsonNumber(o.seconds) << ",\"trace\":" << (o.trace ? 1 : 0)
            << ",\"result\":" << result << ",\"context\":" << render(context_)
            << ",\"determinism\":" << render(determinism_) << "}\n";
  }
  if (o.trace) {
    std::ofstream trace(o.out_dir + "/trace-" + stem + ".json");
    trace << ChromeTraceJson(spans, 50000) << "\n";
  }
  std::fprintf(stderr, "perfbench context: %s\n", render(context_).c_str());
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

void ReportMeasured(Report& report, const std::vector<double>& setup_s, const Measured& m,
                    double tail_q, double bytes_per_value) {
  if (!report.options().trace) {
    report.EndToEnd(setup_s, m.window, tail_q, bytes_per_value);
    return;
  }
  report.Ops(m.plain.ops + m.window.ops, m.plain.failed + m.window.failed);
  const double ops = static_cast<double>(std::max<uint64_t>(m.window.ops, 1));
  const double loops =
      static_cast<double>(m.after.Since(m.before, sa::obs::kParallelForLoops)) / ops;
  report.Layer("rts.loops_per_op", loops);
  report.Determinism("rts.loops_per_op", JsonNumber(loops));
  report.Layer("rts.batches_per_op",
               static_cast<double>(m.after.Since(m.before, sa::obs::kParallelForBatches)) / ops);
  report.Layer("trace.overhead_ratio", m.window.ops_per_s() / m.plain.ops_per_s());
  report.SelfTimeBreakdown(m.spans, m.window.ops);
}

}  // namespace perfbench
