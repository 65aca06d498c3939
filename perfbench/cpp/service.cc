// service: multi-tenant request traffic over tens of thousands of small
// registry slots with Zipf tenant popularity, while the adaptation daemon
// runs live. The registry's acquire, release, epoch and write paths and the
// daemon do nearly all the work; kernels and parallel loops do almost none.
// The request mix is sa_loadgen's without client-initiated restructures.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/specs.h"
#include "platform/topology.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sa::runtime::AdaptationDaemon;
using sa::runtime::ArrayRegistry;
using sa::runtime::ArraySlot;
using sa::runtime::ArraySnapshot;

constexpr int kSlots = 50'000;
constexpr uint64_t kLength = 64;
constexpr uint32_t kBits = 16;
constexpr uint64_t kWindow = 16;
constexpr double kZipfS = 0.99;
constexpr double kTailQ = 0.99;
constexpr int kSetups = 3;
// Two client threads, one daemon worker and one rebuild worker.
constexpr int kClients = 2;
// One request in this many records its spans in the traced run.
constexpr uint64_t kSpanSample = 64;

uint64_t InitialValue(uint64_t seed, int tenant, uint64_t j) {
  return Hash(seed, 20, static_cast<uint64_t>(tenant) * kLength + j) % 200;
}

// Even tenants are sealed read-only after upload; odd tenants take writes.
bool Sealed(int tenant) { return tenant % 2 == 0; }

std::string TenantName(int i) {
  // Hierarchical keys past the small-string limit, as sa_loadgen uses.
  char buf[48];
  std::snprintf(buf, sizeof buf, "tenant-%04d/ds-%02d/array-%06d", i % 1024, (i / 1024) % 16, i);
  return buf;
}

struct State {
  std::unique_ptr<sa::rts::WorkerPool> rebuild_pool;
  std::unique_ptr<ArrayRegistry> registry;
  std::unique_ptr<AdaptationDaemon> daemon;  // stopped before the registry goes
  std::vector<std::string> names;
  std::vector<ArraySlot*> handles;
};

double Setup(const sa::platform::Topology& topo, uint64_t seed, State& state) {
  const uint64_t t0 = NowNs();
  state.rebuild_pool = std::make_unique<sa::rts::WorkerPool>(
      topo, sa::rts::WorkerPool::Options{.num_threads = 1, .pin_threads = false});
  ArrayRegistry::Options reg;
  reg.num_shards = 64;
  reg.pin_slots_per_shard = 256;
  reg.counter_flush_sample_shift = 3;
  state.registry = std::make_unique<ArrayRegistry>(topo, reg);
  state.names.reserve(kSlots);
  state.handles.reserve(kSlots);
  for (int i = 0; i < kSlots; ++i) {
    state.names.push_back(TenantName(i));
    ArraySlot* slot = state.registry->Create(state.names.back(), kLength,
                                             sa::smart::PlacementSpec::OsDefault(), kBits);
    if (!Sealed(i)) {
      // A write of the declared maximum keeps the daemon from narrowing a
      // writable tenant below its declared width, so no later write is
      // refused.
      slot->Write(0, sa::LowMask(kBits));
    }
    for (uint64_t j = 0; j < kLength; ++j) {
      slot->Write(j, InitialValue(seed, i, j));
    }
    if (Sealed(i)) {
      slot->SealWrites();
    }
    state.handles.push_back(slot);
  }
  // The daemon as shipped (default interval, thresholds and margin; one
  // worker), with machine caps describing this host.
  state.daemon = std::make_unique<AdaptationDaemon>(
      *state.registry, *state.rebuild_pool, HostCaps(topo),
      sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default()));
  state.daemon->Start();
  return static_cast<double>(NowNs() - t0) / 1e9;
}

// Zipf(kZipfS) tenant ranks drawn once per run; a ring lookup per request.
std::vector<int> ZipfRing(uint64_t seed) {
  std::vector<double> cdf(kSlots);
  double total = 0.0;
  for (int i = 0; i < kSlots; ++i) {
    total += 1.0 / std::pow(static_cast<double>(i + 1), kZipfS);
    cdf[static_cast<size_t>(i)] = total;
  }
  sa::Xoshiro256 rng(Hash(seed, 21, 0));
  std::vector<int> ring(size_t{1} << 20);
  for (int& r : ring) {
    const double u = rng.NextDouble() * total;
    r = static_cast<int>(std::lower_bound(cdf.begin(), cdf.end(), u) - cdf.begin());
  }
  return ring;
}

struct ClientResult {
  uint64_t ops = 0;
  uint64_t failed = 0;
  uint64_t acquires = 0;
  uint64_t acquire_rejects = 0;
  uint64_t writes = 0;
  uint64_t write_rejects = 0;
  uint64_t wrong = 0;
  LatencyHistogram latency;

  void Merge(const ClientResult& o) {
    ops += o.ops;
    failed += o.failed;
    acquires += o.acquires;
    acquire_rejects += o.acquire_rejects;
    writes += o.writes;
    write_rejects += o.write_rejects;
    wrong += o.wrong;
    latency.Merge(o.latency);
  }
};

struct Traffic {
  State* state = nullptr;
  const std::vector<int>* ring = nullptr;
  // prefix[t / 2][j]: sum of sealed tenant t's first j values.
  const std::vector<std::vector<uint16_t>>* prefix = nullptr;
  uint64_t seed = 0;
  uint64_t deadline_ns = 0;  // client 0 ends the window when it passes
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
};

void Client(Traffic& traffic, int id, uint64_t round, ClientResult* out) {
  ArrayRegistry& registry = *traffic.state->registry;
  const std::vector<std::string>& names = traffic.state->names;
  const std::vector<ArraySlot*>& handles = traffic.state->handles;
  const std::vector<int>& ring = *traffic.ring;
  const auto& prefix = *traffic.prefix;
  sa::Xoshiro256 rng(Hash(traffic.seed, 22 + round, static_cast<uint64_t>(id)));
  size_t pos = (static_cast<size_t>(id) * (ring.size() / kClients)) & (ring.size() - 1);
  ClientResult r;

  // Window sum under a pinned snapshot, checked for sealed tenants.
  auto window_sum = [&](ArraySnapshot& snap, int tenant, bool sample) {
    const uint64_t begin = rng.Below(kLength - kWindow + 1);
    uint64_t sum = 0;
    {
      ScopedSpan span(Layer::kRuntime, "snapshot_sum", kWindow, sample);
      sum = snap.SumRange(begin, begin + kWindow);
    }
    if (Sealed(tenant)) {
      const auto& p = prefix[static_cast<size_t>(tenant / 2)];
      return sum == static_cast<uint64_t>(p[begin + kWindow] - p[begin]);
    }
    return true;
  };
  auto release = [&](ArraySnapshot& snap, bool sample) {
    ScopedSpan span(Layer::kRuntime, "release", 0, sample);
    snap.Release();
  };
  auto by_name = [&](int tenant, bool sample) {
    ScopedSpan span(Layer::kRuntime, "acquire_by_name", 0, sample);
    ++r.acquires;
    return registry.AcquireByName(names[static_cast<size_t>(tenant)]);
  };

  while (!traffic.start.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  while (!traffic.stop.load(std::memory_order_relaxed)) {
    const int k = ring[pos];
    pos = (pos + 1) & (ring.size() - 1);
    const uint64_t roll = rng.Below(998);
    const bool sample = r.ops % kSpanSample == 0;
    const uint64_t t0 = NowNs();
    bool ok = true;
    {
      ScopedSpan op(Layer::kBench, "request", 0, sample);
      if (roll < 420) {
        ArraySnapshot snap = by_name(k, sample);
        ok = snap.valid() && window_sum(snap, k, sample);
        r.acquire_rejects += snap.valid() ? 0 : 1;
        r.wrong += snap.valid() && !ok ? 1 : 0;
        release(snap, sample);
      } else if (roll < 840) {
        // Join probe: two tenants pinned together.
        const int k2 = ring[pos];
        pos = (pos + 1) & (ring.size() - 1);
        ArraySnapshot first = by_name(k, sample);
        ArraySnapshot second = by_name(k2, sample);
        const bool valid = first.valid() && second.valid();
        r.acquire_rejects += (first.valid() ? 0 : 1) + (second.valid() ? 0 : 1);
        ok = valid && window_sum(first, k, sample) && window_sum(second, k2, sample);
        r.wrong += valid && !ok ? 1 : 0;
        release(second, sample);
        release(first, sample);
      } else if (roll < 880) {
        ArraySnapshot snap;
        {
          ScopedSpan span(Layer::kRuntime, "acquire_cached", 0, sample);
          ++r.acquires;
          snap = handles[static_cast<size_t>(k)]->TryAcquire();
        }
        ok = snap.valid() && window_sum(snap, k, sample);
        r.acquire_rejects += snap.valid() ? 0 : 1;
        r.wrong += snap.valid() && !ok ? 1 : 0;
        release(snap, sample);
      } else if (roll < 950) {
        ArraySlot* slot = handles[static_cast<size_t>(k | 1)];
        uint64_t old = 0;
        ScopedSpan span(Layer::kRuntime, "fetch_add", 0, sample);
        ++r.writes;
        ok = slot->TryFetchAdd(rng.Below(kLength), 1 + rng.Below(4), &old);
        r.write_rejects += ok ? 0 : 1;
      } else {
        ArraySlot* slot = handles[static_cast<size_t>(k | 1)];
        // Mostly narrow values, now and then a full-width one.
        const uint64_t value =
            rng.Below(100) < 95 ? rng.Below(256) : (rng() & sa::LowMask(kBits));
        ScopedSpan span(Layer::kRuntime, "write", 0, sample);
        ++r.writes;
        ok = slot->TryWrite(rng.Below(kLength), value);
        r.write_rejects += ok ? 0 : 1;
      }
    }
    const uint64_t t1 = NowNs();
    r.latency.Record(t1 - t0);
    if (id == 0 && t1 >= traffic.deadline_ns) {
      traffic.stop.store(true, std::memory_order_relaxed);
    }
    ++r.ops;
    r.failed += ok ? 0 : 1;
  }
  *out = std::move(r);
}

struct ServiceWindow {
  ClientResult result;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  Counters before;
  Counters after;
  uint64_t daemon_passes = 0;
  uint64_t daemon_adaptations = 0;
};

ServiceWindow RunTraffic(Traffic& traffic, double seconds, uint64_t round) {
  ServiceWindow w;
  traffic.start.store(false);
  traffic.stop.store(false);
  std::vector<ClientResult> results(kClients);
  std::thread other(Client, std::ref(traffic), 1, round, &results[1]);
  const uint64_t passes0 = traffic.state->daemon->passes();
  const uint64_t adaptations0 = traffic.state->daemon->adaptations();
  w.before = Counters::Now();
  const double cpu0 = ProcessCpuSeconds();
  const uint64_t t0 = NowNs();
  traffic.deadline_ns = t0 + static_cast<uint64_t>(seconds * 1e9);
  traffic.start.store(true, std::memory_order_release);
  Client(traffic, 0, round, &results[0]);
  other.join();
  w.wall_s = static_cast<double>(NowNs() - t0) / 1e9;
  w.cpu_s = ProcessCpuSeconds() - cpu0;
  w.after = Counters::Now();
  w.daemon_passes = traffic.state->daemon->passes() - passes0;
  w.daemon_adaptations = traffic.state->daemon->adaptations() - adaptations0;
  for (const ClientResult& r : results) {
    w.result.Merge(r);
  }
  return w;
}

double SpanQuantileNs(const std::vector<Span>& spans, const char* name, double q) {
  return Quantile(SpanDurationsNs(spans, name), q);
}

}  // namespace

int RunService(const Options& options) {
  Report report(options);
  const sa::platform::Topology topo = sa::platform::Topology::Host();

  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  for (int i = 0; i < kSetups; ++i) {
    state.reset();
    state = std::make_unique<State>();
    setup_s.push_back(Setup(topo, options.seed, *state));
  }
  std::vector<std::vector<uint16_t>> prefix(kSlots / 2, std::vector<uint16_t>(kLength + 1, 0));
  uint64_t answers = 0;
  for (int t = 0; t < kSlots; t += 2) {
    auto& p = prefix[static_cast<size_t>(t / 2)];
    for (uint64_t j = 0; j < kLength; ++j) {
      p[j + 1] = static_cast<uint16_t>(p[j] + InitialValue(options.seed, t, j));
    }
    answers = sa::SplitMix64(answers ^ p[kLength]);
  }
  const std::vector<int> ring = ZipfRing(options.seed);

  Traffic traffic;
  traffic.state = state.get();
  traffic.ring = &ring;
  traffic.prefix = &prefix;
  traffic.seed = options.seed;

  auto footprint = [&] {
    uint64_t bytes = 0;
    for (ArraySlot* slot : state->handles) {
      ArraySnapshot snap = slot->Acquire();
      bytes += snap.array().footprint_bytes();
    }
    return static_cast<double>(bytes) / (static_cast<double>(kSlots) * kLength);
  };
  const double setup_bytes_per_value = footprint();

  RunTraffic(traffic, 1.0, 0);  // warm-up with the daemon live
  const uint64_t min_samples = MinSamplesForTail(kTailQ);
  ServiceWindow plain;
  ServiceWindow w;
  std::vector<Span> spans;
  if (!options.trace) {
    w = RunTraffic(traffic, options.seconds, 1);
  } else {
    plain = RunTraffic(traffic, options.seconds / 2, 1);
    tracer::Clear();
    tracer::Enable(true);
    w = RunTraffic(traffic, options.seconds / 2, 2);
    tracer::Enable(false);
    spans = tracer::Collect();
  }
  const double bytes_per_value = footprint();
  state->daemon->Stop();
  const ClientResult& r = w.result;
  if (r.wrong + plain.result.wrong > 0) {
    report.Incorrect("sealed tenant window sums differ from the upload prefix sums");
  }
  if (r.latency.count() < min_samples) {
    report.Incorrect("too few requests for the tail percentile");
  }

  if (!options.trace) {
    report.EndToEnd(setup_s, r.ops, r.failed, w.wall_s, w.cpu_s, r.latency.QuantileNs(0.5) / 1e3,
                    r.latency.QuantileNs(kTailQ) / 1e3, kTailQ, r.latency.count(),
                    bytes_per_value);
  } else {
    report.Ops(plain.result.ops + r.ops, plain.result.failed + r.failed);
    const double secs = w.wall_s;
    report.Layer("runtime.acquire_by_name_ns_p50", SpanQuantileNs(spans, "acquire_by_name", 0.5));
    report.Layer("runtime.acquire_by_name_ns_p99",
                 SpanQuantileNs(spans, "acquire_by_name", 0.99));
    report.Layer("runtime.acquire_cached_ns_p50", SpanQuantileNs(spans, "acquire_cached", 0.5));
    report.Layer("runtime.snapshot_sum_ns_p50", SpanQuantileNs(spans, "snapshot_sum", 0.5));
    report.Layer("runtime.release_ns_p50", SpanQuantileNs(spans, "release", 0.5));
    report.Layer("runtime.fetch_add_ns_p50", SpanQuantileNs(spans, "fetch_add", 0.5));
    report.Layer("runtime.fetch_add_ns_p99", SpanQuantileNs(spans, "fetch_add", 0.99));
    report.Layer("runtime.write_ns_p50", SpanQuantileNs(spans, "write", 0.5));
    report.Layer("runtime.write_ns_p99", SpanQuantileNs(spans, "write", 0.99));
    report.Layer("runtime.acquire_reject_ratio",
                 static_cast<double>(r.acquire_rejects) / static_cast<double>(r.acquires));
    report.Layer("runtime.write_reject_ratio",
                 static_cast<double>(r.write_rejects) / static_cast<double>(r.writes));
    report.Layer("runtime.daemon_passes_per_s", static_cast<double>(w.daemon_passes) / secs);
    report.Layer("runtime.epoch_reclaimed_per_s",
                 static_cast<double>(w.after.Since(w.before, sa::obs::kEpochReclaimed)) / secs);
    report.Layer("adapt.decisions",
                 static_cast<double>(w.after.Since(w.before, sa::obs::kDaemonRejectSame) +
                                     w.after.Since(w.before, sa::obs::kDaemonRejectMargin) +
                                     w.after.Since(w.before, sa::obs::kDaemonFlapHolds) +
                                     w.after.Since(w.before, sa::obs::kDaemonRestructures)));
    report.Layer("adapt.adaptations", static_cast<double>(w.daemon_adaptations));
    report.Layer("rts.loops_per_op",
                 static_cast<double>(w.after.Since(w.before, sa::obs::kParallelForLoops)) /
                     static_cast<double>(r.ops));
    report.Layer("rts.batches_per_op",
                 static_cast<double>(w.after.Since(w.before, sa::obs::kParallelForBatches)) /
                     static_cast<double>(r.ops));
    const double traced_rate = static_cast<double>(r.ops) / w.wall_s;
    const double plain_rate = static_cast<double>(plain.result.ops) / plain.wall_s;
    report.Layer("trace.overhead_ratio", traced_rate / plain_rate);
    report.SelfTimeBreakdown(spans, r.ops / kSpanSample);
  }

  std::string representations;
  for (int i = 0; i < kSlots; i += kSlots / 8) {
    ArraySnapshot snap = state->handles[static_cast<size_t>(i)]->Acquire();
    representations += std::string(representations.empty() ? "" : " ") +
                       state->names[static_cast<size_t>(i)] + "=" + DescribeArray(snap.array());
  }
  report.Context("threads", "{\"clients\":" + std::to_string(kClients) +
                                ",\"pool_workers\":0,\"daemon\":1,\"rebuild_workers\":1}");
  report.Context("tenants", "{\"slots\":" + std::to_string(kSlots) +
                                ",\"length\":" + std::to_string(kLength) +
                                ",\"sealed\":" + std::to_string(kSlots / 2) + "}");
  report.Context("setup_bytes_per_value", JsonNumber(setup_bytes_per_value));
  report.Context("daemon", "{\"passes\":" + std::to_string(w.daemon_passes) +
                               ",\"adaptations\":" + std::to_string(w.daemon_adaptations) + "}");
  report.Context("representations_after", JsonString(representations));
  report.Determinism("setup_bytes_per_value", JsonNumber(setup_bytes_per_value));
  report.Determinism("answers", std::to_string(answers));
  return report.Finish(spans);
}

}  // namespace perfbench
