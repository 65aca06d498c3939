#include "loadgen.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <thread>

#include "adapt/selector.h"
#include "common/random.h"
#include "obs/telemetry.h"
#include "platform/topology.h"
#include "report/bench_record.h"
#include "rts/worker_pool.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "sim/machine_spec.h"
#include "smart/restructure.h"

namespace sa::tools {

namespace {

using runtime::AdaptationDaemon;
using runtime::ArrayRegistry;
using runtime::ArraySlot;
using runtime::ArraySnapshot;

uint64_t NowNs() { return obs::NowNs(); }

// Zipfian popularity via an explicit CDF table + binary search: exact, and
// the ~log2(slots) probe cost sits in the client think path, not inside a
// timed op.
class ZipfSampler {
 public:
  ZipfSampler(int n, double s) : cdf_(static_cast<size_t>(n)) {
    double total = 0.0;
    for (int i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[static_cast<size_t>(i)] = total;
    }
    for (double& c : cdf_) {
      c /= total;
    }
  }

  int Sample(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<int>(std::min<size_t>(
        static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

struct ThreadResult {
  uint64_t ops = 0;
  uint64_t acquires = 0;
  uint64_t acquire_rejects = 0;
  uint64_t reads = 0;
  uint64_t fetch_adds = 0;
  uint64_t writes = 0;
  uint64_t write_rejects = 0;
  uint64_t client_restructures = 0;
  LatencyHistogram acquire_ns;
  LatencyHistogram read_ns;
};

struct PhaseEnv {
  ArrayRegistry* registry = nullptr;
  const std::vector<std::string>* names = nullptr;
  const std::vector<ArraySlot*>* handles = nullptr;
  // Pre-drawn Zipf slot ranks (power-of-two ring). Drawing at setup keeps
  // the per-op popularity lookup O(1) and identical across phases; a
  // binary search per op would otherwise dominate the measured loop.
  const std::vector<int>* sample_ring = nullptr;
  rts::WorkerPool* client_pool = nullptr;
  const platform::Topology* topology = nullptr;
  std::mutex restructure_mu;
  std::atomic<bool> start{false};
  std::atomic<bool> stop{false};
};

// One client-initiated restructure: rebuild the slot's storage at its
// current width with the alternate placement and publish. try_lock keeps at
// most one client rebuild in flight (the dedicated pool does not nest);
// refusals from racing writes are the expected outcome, not errors.
bool ClientRestructure(PhaseEnv& env, ArraySlot* slot) {
  if (!env.restructure_mu.try_lock()) {
    return false;
  }
  bool published = false;
  {
    const uint64_t writes_before = slot->write_count();
    ArraySnapshot snap = slot->TryAcquire();
    if (snap.valid()) {
      const smart::SmartArray& source = snap.array();
      const smart::PlacementSpec target =
          source.placement().kind == smart::Placement::kInterleaved
              ? smart::PlacementSpec::OsDefault()
              : smart::PlacementSpec::Interleaved();
      smart::RestructureStats stats;
      auto rebuilt = smart::TryRestructure(*env.client_pool, source, target,
                                           source.bits(), *env.topology, &stats);
      snap.Release();
      if (rebuilt != nullptr &&
          env.registry->Publish(*slot, std::move(rebuilt), writes_before)) {
        published = true;
      }
    }
  }
  env.restructure_mu.unlock();
  return published;
}

void ClientThread(PhaseEnv& env, const LoadgenOptions& options, bool legacy_by_name,
                  int thread_id, ThreadResult* out) {
  Xoshiro256 rng(SplitMix64(options.seed ^ static_cast<uint64_t>(thread_id) * 0x9e37));
  ThreadResult local;
  const std::vector<ArraySlot*>& handles = *env.handles;
  const std::vector<std::string>& names = *env.names;
  const uint64_t length = handles[0]->length();
  const uint64_t window = std::min<uint64_t>(16, length);
  const uint64_t agg_window = std::min<uint64_t>(16, std::max<uint64_t>(8, length / 4));
  const uint64_t value_mask =
      options.bits >= 64 ? ~uint64_t{0} : (uint64_t{1} << options.bits) - 1;

  while (!env.start.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }

  // Open-loop arrival schedule: each thread owns every threads-th arrival
  // of the aggregate Poisson-ish stream (deterministic spacing — the tail
  // we measure comes from service-time variance and queueing, not from
  // synthetic arrival jitter).
  const bool open_loop = options.rate > 0.0;
  const uint64_t interarrival_ns =
      open_loop ? static_cast<uint64_t>(options.threads * 1e9 / options.rate) : 0;
  const uint64_t t_start = NowNs();
  uint64_t arrival = t_start;
  // Read latency is timed on a 1-in-8 sample of read ops; the timestamp
  // syscalls otherwise become a measurable fraction of the op itself.
  // Acquire latency stays exact (it feeds the CI percentile gate).
  uint64_t read_tick = 0;
  const std::vector<int>& ring = *env.sample_ring;
  const size_t ring_mask = ring.size() - 1;
  size_t ring_pos = (static_cast<size_t>(thread_id) *
                     (ring.size() / static_cast<size_t>(options.threads))) &
                    ring_mask;

  while (!env.stop.load(std::memory_order_relaxed)) {
    if (open_loop) {
      arrival += interarrival_ns;
      uint64_t now = NowNs();
      if (now < arrival) {
        if (arrival - now > 100000) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(arrival - now - 50000));
        }
        while ((now = NowNs()) < arrival) {
        }
      }
    }
    const int k = ring[ring_pos];
    ring_pos = (ring_pos + 1) & ring_mask;
    const uint64_t roll = rng.Below(1000);
    ++local.ops;

    auto acquire_by_name = [&](int slot_rank) {
      return legacy_by_name
                 ? env.registry->Open(names[static_cast<size_t>(slot_rank)])->TryAcquire()
                 : env.registry->AcquireByName(names[static_cast<size_t>(slot_rank)]);
    };

    if (roll < 420) {
      // By-name acquire + windowed aggregate under the pin: the
      // multi-tenant analytics hot path (a tenant query routes by name,
      // then scans its slice of the array).
      const uint64_t t0 = open_loop ? arrival : NowNs();
      ArraySnapshot snap = acquire_by_name(k);
      const uint64_t t1 = NowNs();
      if (!snap.valid()) {
        ++local.acquire_rejects;
        continue;
      }
      ++local.acquires;
      local.acquire_ns.Record(t1 - t0);
      const uint64_t begin = rng.Below(length - agg_window + 1);
      snap.SumRange(begin, begin + agg_window);
      if ((++read_tick & 7) == 0) {
        local.read_ns.Record(NowNs() - t1);
      }
      local.reads += agg_window;
    } else if (roll < 840) {
      // Two-array join probe: route to two tenants by name and aggregate
      // across both under simultaneous pins (fact x dimension lookup).
      // The "pin A, then resolve B by name" ordering is the load pattern
      // that couples a global name lock to a global pin budget: every
      // thread parked on the lock keeps its first pin alive the whole
      // wait, so control-plane contention consumes reader admission.
      const int k2 = ring[ring_pos];
      ring_pos = (ring_pos + 1) & ring_mask;
      const uint64_t t0 = open_loop ? arrival : NowNs();
      ArraySnapshot first = acquire_by_name(k);
      const uint64_t t1 = NowNs();
      if (!first.valid()) {
        ++local.acquire_rejects;
        continue;
      }
      ++local.acquires;
      local.acquire_ns.Record(t1 - t0);
      ArraySnapshot second = acquire_by_name(k2);
      const uint64_t t2 = NowNs();
      if (second.valid()) {
        ++local.acquires;
        local.acquire_ns.Record(t2 - t1);
      } else {
        ++local.acquire_rejects;
      }
      const uint64_t begin = rng.Below(length - window + 1);
      uint64_t sum = first.SumRange(begin, begin + window);
      local.reads += window;
      if (second.valid()) {
        sum += second.SumRange(begin, begin + window);
        local.reads += window;
      }
      (void)sum;
      if ((++read_tick & 7) == 0) {
        local.read_ns.Record(NowNs() - t2);
      }
    } else if (roll < 880) {
      // Cached-handle scan window (a client that already opened the slot).
      ArraySlot* slot = handles[static_cast<size_t>(k)];
      const uint64_t t0 = open_loop ? arrival : NowNs();
      ArraySnapshot snap = slot->TryAcquire();
      const uint64_t t1 = NowNs();
      if (!snap.valid()) {
        ++local.acquire_rejects;
        continue;
      }
      ++local.acquires;
      local.acquire_ns.Record(t1 - t0);
      const uint64_t begin = rng.Below(length - window + 1);
      if ((++read_tick & 7) == 0) {
        const uint64_t t2 = NowNs();
        snap.SumRange(begin, begin + window);
        local.read_ns.Record(NowNs() - t2);
      } else {
        snap.SumRange(begin, begin + window);
      }
      local.reads += window;
    } else if (roll < 950) {
      ArraySlot* slot = handles[static_cast<size_t>(k)];
      uint64_t old = 0;
      if (slot->TryFetchAdd(rng.Below(length), 1 + rng.Below(4), &old)) {
        ++local.fetch_adds;
      } else {
        ++local.write_rejects;
      }
    } else if (roll < 998) {
      ArraySlot* slot = handles[static_cast<size_t>(k)];
      // Mostly-narrow values keep the daemon interested in compressing;
      // the occasional full-width value forces it back out.
      const uint64_t value =
          rng.Below(100) < 95 ? rng.Below(256) : (rng() & value_mask);
      if (slot->TryWrite(rng.Below(length), value)) {
        ++local.writes;
      } else {
        ++local.write_rejects;
      }
    } else {
      if (ClientRestructure(env, handles[static_cast<size_t>(k)])) {
        ++local.client_restructures;
      }
    }
  }
  *out = local;
}

// One record per number of a phase; bench_diff.py derives the
// sharded/single-shard acquire speedup from the two phases' records.
void AddPhase(report::BenchWriter& out, const PhaseResult& r, const LoadgenOptions& o) {
  const auto add = [&](const char* op, const char* metric, double value, const char* unit) {
    out.Add({.series = r.series, .op = op, .metric = metric, .threads = o.threads}, value, unit);
  };
  add("registry", "slots", o.slots, "count");
  add("registry", "shards", r.shards, "count");
  add("all", "count", r.ops, "count");
  add("all", "throughput", r.throughput(), "1/s");
  add("acquire", "count", r.acquires, "count");
  add("acquire", "throughput", r.acquire_throughput(), "1/s");
  add("acquire", "rejects", r.acquire_rejects, "count");
  add("read", "elements", r.reads, "count");
  add("fetch_add", "count", r.fetch_adds, "count");
  add("write", "count", r.writes, "count");
  add("write", "rejects", r.write_rejects, "count");
  add("client_restructure", "count", r.client_restructures, "count");
  for (const auto& [op, hist] :
       {std::pair{"acquire", &r.acquire_ns}, std::pair{"read", &r.read_ns}}) {
    add(op, "p50", hist->Quantile(0.50), "ns");
    add(op, "p99", hist->Quantile(0.99), "ns");
    add(op, "p999", hist->Quantile(0.999), "ns");
    add(op, "max", hist->max(), "ns");
    add(op, "samples", hist->count(), "count");
  }
  add("daemon", "passes", r.daemon_passes, "count");
  add("daemon", "adaptations", r.daemon_adaptations, "count");
  add("daemon", "shard_claims", r.daemon_shard_claims, "count");
  add("daemon", "shard_steals", r.daemon_shard_steals, "count");
  add("daemon", "backpressure_drops", r.daemon_backpressure_drops, "count");
  add("daemon", "max_queue_depth", r.max_shard_queue_depth, "count");
}

}  // namespace

// ---- LatencyHistogram ----

int LatencyHistogram::BucketFor(uint64_t ns) {
  const int width = ns == 0 ? 1 : std::bit_width(ns);
  if (width <= 4) {
    return static_cast<int>(ns);  // exact below 16 ns
  }
  const int sub = static_cast<int>((ns >> (width - 5)) & 15);
  return (width - 4) * 16 + sub;
}

uint64_t LatencyHistogram::BucketUpperBound(int bucket) {
  if (bucket < 16) {
    return static_cast<uint64_t>(bucket);
  }
  const int width = bucket / 16 + 4;
  const uint64_t sub = static_cast<uint64_t>(bucket % 16);
  const uint64_t lower = (uint64_t{1} << (width - 1)) | (sub << (width - 5));
  return lower + (uint64_t{1} << (width - 5)) - 1;
}

void LatencyHistogram::Record(uint64_t ns) {
  ++buckets_[BucketFor(ns)];
  ++count_;
  max_ = std::max(max_, ns);
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  for (int i = 0; i < kBuckets; ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
  max_ = std::max(max_, other.max_);
}

uint64_t LatencyHistogram::Quantile(double q) const {
  if (count_ == 0) {
    return 0;
  }
  const uint64_t target = static_cast<uint64_t>(q * static_cast<double>(count_ - 1)) + 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += buckets_[i];
    if (seen >= target) {
      return std::min(BucketUpperBound(i), max_);
    }
  }
  return max_;
}

// ---- phases ----

PhaseResult RunPhase(const LoadgenOptions& options, int shards, bool legacy_by_name,
                     const std::string& series_name) {
  const platform::Topology topology = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool daemon_pool(topology,
                              rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});
  rts::WorkerPool client_pool(topology,
                              rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});

  ArrayRegistry::Options reg_options;
  reg_options.num_shards = shards;
  reg_options.pin_slots_per_shard = options.pin_slots_per_shard;
  reg_options.counter_flush_sample_shift = options.flush_sample_shift;
  ArrayRegistry registry(topology, reg_options);

  std::vector<std::string> names;
  std::vector<ArraySlot*> handles;
  names.reserve(static_cast<size_t>(options.slots));
  handles.reserve(static_cast<size_t>(options.slots));
  Xoshiro256 init_rng(options.seed);
  for (int i = 0; i < options.slots; ++i) {
    // Realistic multi-tenant keys: hierarchical and past the SSO limit, the
    // shape a service actually routes on.
    char buf[48];
    std::snprintf(buf, sizeof buf, "tenant-%04d/ds-%02d/array-%06d", i % 1024,
                  (i / 1024) % 16, i);
    names.emplace_back(buf);
    ArraySlot* slot = registry.Create(names.back(), options.length,
                                      smart::PlacementSpec::OsDefault(), options.bits);
    // Narrow initial contents give the daemon something worth compressing.
    for (uint64_t j = 0; j < options.length; ++j) {
      slot->Write(j, init_rng.Below(200));
    }
    handles.push_back(slot);
  }

  std::unique_ptr<AdaptationDaemon> daemon;
  if (options.daemon) {
    runtime::DaemonOptions daemon_options;
    daemon_options.interval = std::chrono::milliseconds(
        std::max<int64_t>(1, static_cast<int64_t>(options.daemon_interval_ms)));
    daemon_options.min_sampled_accesses = 256;
    daemon_options.min_predicted_win = 0.0;  // adapt on any predicted win
    daemon_options.num_workers = options.daemon_workers;
    daemon = std::make_unique<AdaptationDaemon>(
        registry, daemon_pool,
        adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core()),
        adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()), daemon_options);
    daemon->Start();
  }

  const ZipfSampler zipf(options.slots, options.zipf_s);
  std::vector<int> sample_ring(size_t{1} << 20);
  for (int& r : sample_ring) {
    r = zipf.Sample(init_rng.NextDouble());
  }
  PhaseEnv env;
  env.registry = &registry;
  env.names = &names;
  env.handles = &handles;
  env.sample_ring = &sample_ring;
  env.client_pool = &client_pool;
  env.topology = &topology;

  const uint64_t claims_before = obs::CounterValue(obs::kDaemonShardClaims);
  const uint64_t steals_before = obs::CounterValue(obs::kDaemonShardSteals);
  const uint64_t drops_before = obs::CounterValue(obs::kDaemonBackpressureDrops);

  std::vector<ThreadResult> results(static_cast<size_t>(options.threads));
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(options.threads));
  for (int t = 0; t < options.threads; ++t) {
    clients.emplace_back(ClientThread, std::ref(env), std::cref(options), legacy_by_name, t,
                         &results[static_cast<size_t>(t)]);
  }

  const uint64_t t_start = NowNs();
  env.start.store(true, std::memory_order_release);
  // Sample shard queue depths while traffic runs (saturation visibility).
  int64_t max_depth = 0;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(static_cast<int64_t>(options.duration_sec * 1e3));
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    for (int s = 0; s < registry.num_shards(); ++s) {
      max_depth = std::max(max_depth, registry.shard_queue_depth(s));
    }
  }
  env.stop.store(true, std::memory_order_release);
  for (std::thread& client : clients) {
    client.join();
  }
  const uint64_t t_end = NowNs();

  PhaseResult result;
  result.series = series_name;
  result.shards = registry.num_shards();
  result.duration_sec = static_cast<double>(t_end - t_start) / 1e9;
  for (const ThreadResult& r : results) {
    result.ops += r.ops;
    result.acquires += r.acquires;
    result.acquire_rejects += r.acquire_rejects;
    result.reads += r.reads;
    result.fetch_adds += r.fetch_adds;
    result.writes += r.writes;
    result.write_rejects += r.write_rejects;
    result.client_restructures += r.client_restructures;
    result.acquire_ns.Merge(r.acquire_ns);
    result.read_ns.Merge(r.read_ns);
  }
  result.max_shard_queue_depth = max_depth;
  if (daemon != nullptr) {
    result.daemon_passes = daemon->passes();
    result.daemon_adaptations = daemon->adaptations();
    daemon->Stop();
  }
  result.daemon_shard_claims = obs::CounterValue(obs::kDaemonShardClaims) - claims_before;
  result.daemon_shard_steals = obs::CounterValue(obs::kDaemonShardSteals) - steals_before;
  result.daemon_backpressure_drops =
      obs::CounterValue(obs::kDaemonBackpressureDrops) - drops_before;
  return result;
}

int RunLoadgen(const LoadgenOptions& options) {
  std::fprintf(stderr,
               "sa_loadgen: %d threads, %d slots, %.1fs per phase, zipf %.2f, "
               "daemon %s (interval %.0f ms, %d workers), %s\n",
               options.threads, options.slots, options.duration_sec, options.zipf_s,
               options.daemon ? "on" : "off", options.daemon_interval_ms,
               options.daemon_workers,
               options.rate > 0 ? "open-loop" : "closed-loop");

  const PhaseResult sharded = RunPhase(options, options.shards, false, "sharded");
  std::fprintf(stderr,
               "sa_loadgen: sharded    %8.0f acq/s  p50 %6llu ns  p99 %7llu ns  "
               "p999 %8llu ns  (%llu rejects, %llu adaptations)\n",
               sharded.acquire_throughput(),
               static_cast<unsigned long long>(sharded.acquire_ns.Quantile(0.5)),
               static_cast<unsigned long long>(sharded.acquire_ns.Quantile(0.99)),
               static_cast<unsigned long long>(sharded.acquire_ns.Quantile(0.999)),
               static_cast<unsigned long long>(sharded.acquire_rejects),
               static_cast<unsigned long long>(sharded.daemon_adaptations));

  const PhaseResult single = RunPhase(options, 1, true, "single-shard");
  std::fprintf(stderr,
               "sa_loadgen: one-shard  %8.0f acq/s  p50 %6llu ns  p99 %7llu ns  "
               "p999 %8llu ns  (%llu rejects, %llu adaptations)\n",
               single.acquire_throughput(),
               static_cast<unsigned long long>(single.acquire_ns.Quantile(0.5)),
               static_cast<unsigned long long>(single.acquire_ns.Quantile(0.99)),
               static_cast<unsigned long long>(single.acquire_ns.Quantile(0.999)),
               static_cast<unsigned long long>(single.acquire_rejects),
               static_cast<unsigned long long>(single.daemon_adaptations));

  report::BenchWriter out("service");
  AddPhase(out, sharded, options);
  AddPhase(out, single, options);
  if (!out.Write(options.output_path)) {
    return 1;
  }
  std::fprintf(stderr, "sa_loadgen: sharded/single acquire speedup %.2fx\n",
               single.acquire_throughput() > 0
                   ? sharded.acquire_throughput() / single.acquire_throughput()
                   : 0.0);
  return 0;
}

int LoadgenMain(int argc, char** argv) {
  LoadgenOptions options;
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    auto value = [&](const char* prefix) {
      const size_t n = std::strlen(prefix);
      if (std::strncmp(arg, prefix, n) != 0) {
        return false;
      }
      v = arg + n;
      return true;
    };
    if (value("--threads=")) {
      options.threads = std::atoi(v);
    } else if (value("--slots=")) {
      options.slots = std::atoi(v);
    } else if (value("--shards=")) {
      options.shards = std::atoi(v);
    } else if (value("--pin-slots=")) {
      options.pin_slots_per_shard = std::atoi(v);
    } else if (value("--duration=")) {
      options.duration_sec = std::atof(v);
    } else if (value("--zipf=")) {
      options.zipf_s = std::atof(v);
    } else if (value("--length=")) {
      options.length = static_cast<uint64_t>(std::atoll(v));
    } else if (value("--bits=")) {
      options.bits = static_cast<uint32_t>(std::atoi(v));
    } else if (value("--rate=")) {
      options.rate = std::atof(v);
    } else if (value("--seed=")) {
      options.seed = static_cast<uint64_t>(std::atoll(v));
    } else if (std::strcmp(arg, "--no-daemon") == 0) {
      options.daemon = false;
    } else if (value("--daemon-interval-ms=")) {
      options.daemon_interval_ms = std::atof(v);
    } else if (value("--daemon-workers=")) {
      options.daemon_workers = std::atoi(v);
    } else if (value("--flush-sample-shift=")) {
      options.flush_sample_shift = static_cast<uint32_t>(std::atoi(v) & 15);
    } else if (value("--out=")) {
      options.output_path = v;
    } else {
      std::fprintf(stderr,
                   "sa_loadgen: unknown argument '%s'\n"
                   "usage: sa_loadgen [--threads=N] [--slots=N] [--shards=N] "
                   "[--pin-slots=N] [--duration=SEC] [--zipf=S] [--length=N] [--bits=N] "
                   "[--rate=OPS] [--seed=N] [--no-daemon] [--daemon-interval-ms=MS] "
                   "[--daemon-workers=N] [--flush-sample-shift=N] [--out=PATH]\n",
                   arg);
      return 2;
    }
  }
  options.threads = std::max(1, options.threads);
  options.slots = std::max(1, options.slots);
  options.shards = std::max(1, options.shards);
  options.length = std::max<uint64_t>(32, options.length);
  options.bits = std::min<uint32_t>(64, std::max<uint32_t>(9, options.bits));
  return RunLoadgen(options);
}

}  // namespace sa::tools
