// Microbenchmarks of the concurrent runtime (src/runtime): what does the
// snapshot discipline cost a reader, and does a forced restructure ever
// make the array unreadable?
//
// Custom main: before the google-benchmark run it measures
//   * a full scan through ArraySnapshot::SumRange vs the same scan on the
//     raw SmartArray words (the acceptance bar is <= 5% overhead),
//   * time-to-readable — the latency of Acquire + one element read while a
//     publisher restructures the slot as fast as it can, and
//   * restructure (daemon rebuild) wall time: the vectorized
//     UnpackRange/PackRange repack vs a per-value decode->Init reference
//     (the pre-codec-v2 path), plus the same-width word-copy fast path —
// and writes BENCH_runtime.json through report::BenchWriter.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "obs/entry_points.h"
#include "report/bench_record.h"
#include "rts/parallel_for.h"
#include "runtime/daemon.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "sim/machine_spec.h"
#include "smart/dispatch.h"
#include "smart/map_api.h"
#include "smart/parallel_ops.h"
#include "smart/restructure.h"

namespace {

using sa::runtime::ArrayRegistry;
using sa::runtime::ArraySlot;
using sa::runtime::ArraySnapshot;

constexpr uint64_t kScanElems = 1 << 20;
constexpr uint32_t kBits = 13;

// Fast mode shrinks the measurement windows (CI smoke; timing is
// structural there, not gated).
int MeasureMs(int full_ms) { return sa::report::FastMode() ? 30 : full_ms; }

std::vector<uint64_t> MakeOracle(uint64_t n, uint32_t bits) {
  std::vector<uint64_t> oracle(n);
  sa::Xoshiro256 rng(bits);
  for (auto& v : oracle) {
    v = rng() & sa::LowMask(bits);
  }
  return oracle;
}

std::unique_ptr<sa::smart::SmartArray> BuildStorage(const std::vector<uint64_t>& oracle,
                                                    sa::smart::PlacementSpec placement,
                                                    uint32_t bits,
                                                    const sa::platform::Topology& topo) {
  auto storage = sa::smart::SmartArray::Allocate(oracle.size(), placement, bits, topo);
  for (uint64_t i = 0; i < oracle.size(); ++i) {
    storage->Init(i, oracle[i]);
  }
  return storage;
}

// Environment shared by the gbench benchmarks: one registry, one populated
// slot, and a raw SmartArray with identical contents for the baseline.
struct Env {
  Env()
      : topo(sa::platform::Topology::Host()),
        registry(topo),
        pool(topo, sa::rts::WorkerPool::Options{}),
        oracle(MakeOracle(kScanElems, kBits)) {
    slot = registry.Create("bench", kScanElems, sa::smart::PlacementSpec::Interleaved(), kBits);
    registry.Publish(*slot, BuildStorage(oracle, sa::smart::PlacementSpec::Interleaved(), kBits, topo),
                     0);
    raw = BuildStorage(oracle, sa::smart::PlacementSpec::Interleaved(), kBits, topo);
  }

  static Env& Get() {
    static Env env;
    return env;
  }

  sa::platform::Topology topo;
  ArrayRegistry registry;
  sa::rts::WorkerPool pool;
  std::vector<uint64_t> oracle;
  ArraySlot* slot = nullptr;
  std::unique_ptr<sa::smart::SmartArray> raw;
};

uint64_t RawScan(const sa::smart::SmartArray& array) {
  const auto& codec = sa::smart::CodecFor(array.bits());
  return codec.sum_range(array.GetReplica(0), 0, array.length());
}

void BM_RawArrayScan(benchmark::State& state) {
  Env& env = Env::Get();
  for (auto _ : state) {
    benchmark::DoNotOptimize(RawScan(*env.raw));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kScanElems * kBits / 8));
}
BENCHMARK(BM_RawArrayScan);

void BM_SnapshotScan(benchmark::State& state) {
  Env& env = Env::Get();
  for (auto _ : state) {
    ArraySnapshot snap = env.slot->Acquire();
    benchmark::DoNotOptimize(snap.SumRange(0, kScanElems));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kScanElems * kBits / 8));
}
BENCHMARK(BM_SnapshotScan);

void BM_SnapshotAcquireRelease(benchmark::State& state) {
  Env& env = Env::Get();
  for (auto _ : state) {
    ArraySnapshot snap = env.slot->Acquire();
    benchmark::DoNotOptimize(snap.sequence());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SnapshotAcquireRelease);

// ---------------------------------------------------------------------------
// BENCH_runtime.json
// ---------------------------------------------------------------------------

template <typename Fn>
double MeasureSecondsPerCall(const Fn& fn, int min_ms) {
  using Clock = std::chrono::steady_clock;
  benchmark::DoNotOptimize(fn());  // warm-up + page-in
  uint64_t calls = 0;
  const auto start = Clock::now();
  Clock::duration elapsed{};
  do {
    benchmark::DoNotOptimize(fn());
    ++calls;
    elapsed = Clock::now() - start;
  } while (elapsed < std::chrono::milliseconds(min_ms));
  return std::chrono::duration<double>(elapsed).count() / static_cast<double>(calls);
}

// Latency of Acquire + one element read + Release, sampled while a
// publisher thread restructures the slot back-to-back. The max over the
// samples is the worst "time to readable" a reader ever saw: with the
// single-pointer-swap publish there is no window where the slot blocks.
struct ReadableStats {
  double mean_ns = 0.0;
  double max_ns = 0.0;
};

ReadableStats MeasureTimeToReadable(Env& env) {
  using Clock = std::chrono::steady_clock;
  constexpr int kPublishes = 40;
  std::atomic<bool> done{false};
  std::thread publisher([&] {
    // Alternate shapes so every publish really swaps the representation.
    for (int p = 0; p < kPublishes; ++p) {
      const bool wide = (p % 2) != 0;
      env.registry.Publish(
          *env.slot,
          BuildStorage(env.oracle,
                       wide ? sa::smart::PlacementSpec::Interleaved()
                            : sa::smart::PlacementSpec::Replicated(),
                       wide ? 64 : kBits, env.topo),
          0);
      env.registry.Reclaim();
    }
    done.store(true, std::memory_order_release);
  });

  ReadableStats stats;
  double total_ns = 0.0;
  uint64_t samples = 0;
  sa::Xoshiro256 rng(7);
  while (!done.load(std::memory_order_acquire)) {
    const uint64_t index = rng.Below(kScanElems);
    const auto t0 = Clock::now();
    ArraySnapshot snap = env.slot->Acquire();
    benchmark::DoNotOptimize(snap.Get(index));
    snap.Release();
    const double ns = std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
    total_ns += ns;
    stats.max_ns = std::max(stats.max_ns, ns);
    ++samples;
  }
  publisher.join();
  // Drain the retired versions the run left behind.
  for (int i = 0; i < 10 && env.registry.epoch().retired_count() != 0; ++i) {
    env.registry.Reclaim();
  }
  stats.mean_ns = samples == 0 ? 0.0 : total_ns / static_cast<double>(samples);
  return stats;
}

// The pre-codec-v2 rebuild loop, replicated verbatim from the old
// TryRestructure body: block-kernel chunk decode (what ForEachRangeImpl ran
// before the measured dispatch table existed), a per-value width check, and
// a per-element InitImpl read-modify-write into every target replica. This
// is the reference the vectorized unpack_range -> pack_range repack is
// measured against.
template <uint32_t kSrcBits, uint32_t kDstBits>
std::unique_ptr<sa::smart::SmartArray> RestructureReference(Env& env,
                                                            const sa::smart::SmartArray& source,
                                                            sa::smart::PlacementSpec placement) {
  auto target = sa::smart::SmartArray::Allocate(source.length(), placement, kDstBits, env.topo);
  constexpr uint64_t kWidthCheckMask = ~sa::LowMask(kDstBits);
  std::atomic<bool> overflow{false};
  sa::rts::ParallelFor(
      env.pool, 0, source.length(), sa::smart::kChunkAlignedGrain,
      [&](int worker, uint64_t b, uint64_t e) {
        const uint64_t* src = source.GetReplica(env.pool.worker_socket(worker));
        uint64_t buffer[sa::kChunkElems];
        for (uint64_t i = b; i < e; i += sa::kChunkElems) {
          sa::smart::BitCompressedArray<kSrcBits>::UnpackUnrolledImpl(src, i / sa::kChunkElems,
                                                                      buffer);
          for (uint64_t j = 0; j < sa::kChunkElems; ++j) {
            const uint64_t value = buffer[j];
            if (SA_UNLIKELY((value & kWidthCheckMask) != 0)) {
              overflow.store(true, std::memory_order_relaxed);
              return;
            }
            for (int r = 0; r < target->num_replicas(); ++r) {
              sa::smart::BitCompressedArray<kDstBits>::InitImpl(target->MutableReplica(r), i + j,
                                                                value);
            }
          }
        }
      });
  SA_CHECK(!overflow.load());
  return target;
}

struct RestructureStats {
  double bulk_sec = 0.0;       // TryRestructure via UnpackRange/PackRange
  double reference_sec = 0.0;  // per-value decode -> Init (pre-v2 path)
  double same_width_sec = 0.0; // width->width word-copy fast path
};

// The daemon's common width tweak: re-pack a 13-bit array at 17 bits (a
// widening write landed). Both widths are "odd", so the reference pays a
// straddling read-modify-write per element while the bulk path runs the
// word-centric pack network.
constexpr uint32_t kRestructureBits = 17;

RestructureStats MeasureRestructure(Env& env) {
  RestructureStats stats;
  stats.bulk_sec = MeasureSecondsPerCall(
      [&] {
        return sa::smart::Restructure(env.pool, *env.raw,
                                      sa::smart::PlacementSpec::Interleaved(), kRestructureBits,
                                      env.topo)
            ->length();
      },
      MeasureMs(200));
  stats.reference_sec = MeasureSecondsPerCall(
      [&] {
        return RestructureReference<kBits, kRestructureBits>(
                   env, *env.raw, sa::smart::PlacementSpec::Interleaved())
            ->length();
      },
      MeasureMs(200));
  // Placement-only rebuild (13 -> 13): the word-copy fast path.
  stats.same_width_sec = MeasureSecondsPerCall(
      [&] {
        return sa::smart::Restructure(env.pool, *env.raw,
                                      sa::smart::PlacementSpec::Interleaved(), kBits, env.topo)
            ->length();
      },
      MeasureMs(200));
  return stats;
}

// Telemetry tax on the hottest read path: the same snapshot scan with the
// obs layer live vs runtime-disabled via saObsSetEnabled (one binary, so
// the comparison isolates the instrumentation, not a recompile). The
// acceptance bar is <= 2% — the scan counters are batched per Release, so
// the per-element loop is untouched either way.
struct ObsOverheadStats {
  double enabled_sec = 0.0;
  double disabled_sec = 0.0;
};

ObsOverheadStats MeasureObsOverhead(Env& env) {
  ObsOverheadStats stats;
  const auto scan = [&] {
    ArraySnapshot snap = env.slot->Acquire();
    return snap.SumRange(0, kScanElems);
  };
  const int prev = saObsGetEnabled();
  saObsSetEnabled(1);
  stats.enabled_sec = MeasureSecondsPerCall(scan, MeasureMs(200));
  saObsSetEnabled(0);
  stats.disabled_sec = MeasureSecondsPerCall(scan, MeasureMs(200));
  saObsSetEnabled(prev);
  return stats;
}

// Per-decision cost of the daemon's decision path (AdaptSlot: width scan +
// selector + estimator + margin test) with the audit layer recording every
// decision vs switched off. Counters are CPU-bound, so the selector keeps
// the current configuration and no rebuild/publish pollutes the number —
// this isolates what a DecisionRecord + ring push + flap/score bookkeeping
// adds to every decision, accepted or not.
struct AuditOverheadStats {
  double audit_on_sec = 0.0;
  double audit_off_sec = 0.0;
};

AuditOverheadStats MeasureAuditOverhead(Env& env) {
  const auto machine =
      sa::adapt::MachineCaps::FromSpec(sa::sim::MachineSpec::OracleX5_18Core());
  const auto costs = sa::adapt::ArrayCosts::FromCostModel(sa::sim::CostModel::Default());
  sa::adapt::WorkloadCounters counters;
  counters.exec_current_per_socket = machine.exec_max_per_socket * 0.6;
  counters.bw_current_memory = machine.bw_max_memory * 0.2;
  counters.max_mem_utilization = 0.2;
  counters.max_ic_utilization = 0.2;
  counters.accesses_per_second = 1e8;
  counters.dataset_bytes = static_cast<double>(kScanElems) * 8.0;

  AuditOverheadStats stats;
  const auto measure = [&](bool audit) {
    sa::runtime::DaemonOptions options;
    options.audit = audit;
    sa::runtime::AdaptationDaemon daemon(env.registry, env.pool, machine, costs, options);
    return MeasureSecondsPerCall(
        [&] { return daemon.AdaptSlot(*env.slot, counters) ? 1 : 0; }, MeasureMs(200));
  };
  stats.audit_off_sec = measure(false);
  stats.audit_on_sec = measure(true);
  return stats;
}

void WriteBenchJson(const char* path) {
  Env& env = Env::Get();

  const double raw_sec =
      MeasureSecondsPerCall([&] { return RawScan(*env.raw); }, MeasureMs(200));
  const double snap_sec = MeasureSecondsPerCall(
      [&] {
        ArraySnapshot snap = env.slot->Acquire();
        return snap.SumRange(0, kScanElems);
      },
      MeasureMs(200));
  const double acquire_sec = MeasureSecondsPerCall(
      [&] {
        ArraySnapshot snap = env.slot->Acquire();
        return snap.sequence();
      },
      MeasureMs(100));
  const ObsOverheadStats obs = MeasureObsOverhead(env);
  const AuditOverheadStats audit = MeasureAuditOverhead(env);
  const ReadableStats readable = MeasureTimeToReadable(env);
  const RestructureStats rebuild = MeasureRestructure(env);

  // One record per timing; each overhead is the ratio of a pair of them.
  sa::report::BenchWriter out("runtime");
  const auto add = [&](const char* series, const char* op, uint32_t width, double value,
                       const char* unit) {
    out.Add({.series = series, .op = op, .width = width}, value, unit);
  };
  add("snapshot_scan_overhead", "raw_scan", kBits, raw_sec, "s");
  add("snapshot_scan_overhead", "snapshot_scan", kBits, snap_sec, "s");
  add("snapshot_acquire", "acquire_release", 0, acquire_sec * 1e9, "ns");
  out.Add({.series = "time_to_readable_during_restructure", .op = "acquire_read", .metric = "mean"},
          readable.mean_ns, "ns");
  out.Add({.series = "time_to_readable_during_restructure", .op = "acquire_read", .metric = "max"},
          readable.max_ns, "ns");
  add("restructure_wall", "bulk", kRestructureBits, rebuild.bulk_sec, "s");
  add("restructure_wall", "per_value_reference", kRestructureBits, rebuild.reference_sec, "s");
  add("restructure_same_width", "word_copy", kBits, rebuild.same_width_sec, "s");
  add("obs_scan_overhead", "enabled_scan", kBits, obs.enabled_sec, "s");
  add("obs_scan_overhead", "disabled_scan", kBits, obs.disabled_sec, "s");
  add("audit_decision_overhead", "audit_on", 0, audit.audit_on_sec, "s");
  add("audit_decision_overhead", "audit_off", 0, audit.audit_off_sec, "s");
  out.Write(path);
  std::fprintf(stderr,
               "scan overhead %.2f%%, acquire %.0f ns, worst time-to-readable %.0f ns, "
               "rebuild %.1f ms bulk vs %.1f ms per-value, obs tax %.2f%%\n",
               (snap_sec - raw_sec) / raw_sec * 100.0, acquire_sec * 1e9, readable.max_ns,
               rebuild.bulk_sec * 1e3, rebuild.reference_sec * 1e3,
               (obs.enabled_sec - obs.disabled_sec) / obs.disabled_sec * 100.0);
}

}  // namespace

// Custom main: emit BENCH_runtime.json, then run google-benchmark as usual.
int main(int argc, char** argv) {
  WriteBenchJson("BENCH_runtime.json");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
