// Microbenchmarks of the bit-compression codec (Functions 1-3): getter,
// initializer, and chunk unpack across representative widths, plus the
// 32/64-bit specializations, and the chunk-granular aggregation kernels
// (scalar-iterator vs block kernel vs the SIMD kinds).
//
// The binary has a custom main: before running google-benchmark it times
// the sum kernels (scalar iterator, block, the AVX2 v2 shift network and
// the AVX-512 lane decode where the host runs them, and the measured
// selection) plus both streaming-seam
// directions (unpack-range / pack-range) at every width 1..64, and writes
// BENCH_codec.json through report::BenchWriter (one record per {kernel
// series, width} with bytes/s of compressed data processed, plus the scan
// grid). SA_BENCH_FAST=1 shrinks the per-series window for smoke runs;
// tools/bench_diff.py checks the file's gates and diffs two such files.
#include <benchmark/benchmark.h>

#include <array>
#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/bits.h"
#include "common/random.h"
#include "platform/topology.h"
#include "report/bench_record.h"
#include "smart/dispatch.h"
#include "smart/kernel_table.h"
#include "smart/iterator.h"
#include "smart/predicate.h"
#include "smart/smart_array.h"

namespace {

std::vector<uint64_t> MakeWords(uint64_t elems, uint32_t bits) {
  const uint64_t chunks = (elems + sa::kChunkElems - 1) / sa::kChunkElems;
  std::vector<uint64_t> words(chunks * sa::WordsPerChunk(bits));
  const auto& codec = sa::smart::CodecFor(bits);
  sa::Xoshiro256 rng(bits);
  for (uint64_t i = 0; i < elems; ++i) {
    codec.init(words.data(), i, rng() & sa::LowMask(bits));
  }
  return words;
}

void BM_CodecGetSequential(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kN = 1 << 16;
  const auto words = MakeWords(kN, bits);
  const auto& codec = sa::smart::CodecFor(bits);
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kN; ++i) {
      sum += codec.get(words.data(), i);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_CodecGetSequential)->Arg(7)->Arg(10)->Arg(32)->Arg(33)->Arg(50)->Arg(64);

void BM_CodecGetRandom(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kN = 1 << 16;
  const auto words = MakeWords(kN, bits);
  const auto& codec = sa::smart::CodecFor(bits);
  // Pre-generated random index stream (excluded from the timed region).
  std::vector<uint32_t> indices(1 << 14);
  sa::Xoshiro256 rng(99);
  for (auto& idx : indices) {
    idx = static_cast<uint32_t>(rng.Below(kN));
  }
  for (auto _ : state) {
    uint64_t sum = 0;
    for (const uint32_t idx : indices) {
      sum += codec.get(words.data(), idx);
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * indices.size()));
}
BENCHMARK(BM_CodecGetRandom)->Arg(10)->Arg(32)->Arg(33)->Arg(64);

void BM_CodecInit(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kN = 1 << 16;
  auto words = MakeWords(kN, bits);
  const auto& codec = sa::smart::CodecFor(bits);
  const uint64_t mask = sa::LowMask(bits);
  for (auto _ : state) {
    for (uint64_t i = 0; i < kN; ++i) {
      codec.init(words.data(), i, i & mask);
    }
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_CodecInit)->Arg(10)->Arg(32)->Arg(33)->Arg(64);

void BM_CodecInitAtomic(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kN = 1 << 16;
  auto words = MakeWords(kN, bits);
  const auto& codec = sa::smart::CodecFor(bits);
  const uint64_t mask = sa::LowMask(bits);
  for (auto _ : state) {
    for (uint64_t i = 0; i < kN; ++i) {
      codec.init_atomic(words.data(), i, i & mask);
    }
    benchmark::DoNotOptimize(words.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_CodecInitAtomic)->Arg(10)->Arg(33)->Arg(64);

void BM_CodecUnpack(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  constexpr uint64_t kN = 1 << 16;
  const auto words = MakeWords(kN, bits);
  const auto& codec = sa::smart::CodecFor(bits);
  uint64_t out[sa::kChunkElems];
  for (auto _ : state) {
    uint64_t sum = 0;
    for (uint64_t chunk = 0; chunk < kN / sa::kChunkElems; ++chunk) {
      codec.unpack(words.data(), chunk, out);
      sum += out[0] + out[63];
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations() * kN));
}
BENCHMARK(BM_CodecUnpack)->Arg(7)->Arg(10)->Arg(32)->Arg(33)->Arg(50)->Arg(64);

// ---------------------------------------------------------------------------
// Aggregation kernels: scalar buffered iterator vs chunk-granular block
// kernel vs the SIMD kinds, over the same packed words.
// ---------------------------------------------------------------------------

constexpr uint64_t kSumElems = 1 << 20;

uint64_t IteratorSum(const std::vector<uint64_t>& words, uint32_t bits) {
  return sa::smart::WithBits(bits, [&](auto bits_const) -> uint64_t {
    sa::smart::TypedIterator<bits_const()> it(words.data(), 0);
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kSumElems; ++i, it.Next()) {
      sum += it.Get();
    }
    return sum;
  });
}

uint64_t BlockSum(const std::vector<uint64_t>& words, uint32_t bits) {
  return sa::smart::WithBits(bits, [&](auto bits_const) -> uint64_t {
    return sa::smart::BitCompressedArray<bits_const()>::SumRangeImpl(words.data(), 0, kSumElems);
  });
}

uint64_t UnpackRangeSum(const std::vector<uint64_t>& words, uint32_t bits, uint64_t* buffer) {
  sa::smart::CodecFor(bits).unpack_range(words.data(), 0, kSumElems, buffer);
  return buffer[0] + buffer[kSumElems - 1];
}

uint64_t PackRangeRun(std::vector<uint64_t>& words, uint32_t bits, const uint64_t* values) {
  sa::smart::CodecFor(bits).pack_range(words.data(), 0, kSumElems, values);
  return words[0];
}

// Sum through one kernel kind's range walker, whether or not the table
// selected it. Only call where KindRunnable(bits, kind).
uint64_t KindSum(const std::vector<uint64_t>& words, uint32_t bits, sa::smart::KernelKind kind) {
  return sa::smart::CandidateKernels(bits, kind)->sum_range(words.data(), 0, kSumElems);
}

bool KindRunnable(uint32_t bits, sa::smart::KernelKind kind) {
  return sa::smart::CandidateKernels(bits, kind) != nullptr;
}

void BM_SumScalarIterator(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  const auto words = MakeWords(kSumElems, bits);
  for (auto _ : state) {
    uint64_t sum = IteratorSum(words, bits);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kSumElems * bits / 8));
}
BENCHMARK(BM_SumScalarIterator)->Arg(7)->Arg(13)->Arg(17)->Arg(33)->Arg(50)->Arg(64);

void BM_SumBlockKernel(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  const auto words = MakeWords(kSumElems, bits);
  for (auto _ : state) {
    uint64_t sum = BlockSum(words, bits);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kSumElems * bits / 8));
}
BENCHMARK(BM_SumBlockKernel)->Arg(7)->Arg(13)->Arg(17)->Arg(33)->Arg(50)->Arg(64);

void BM_SumV2(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  if (!KindRunnable(bits, sa::smart::KernelKind::kAvx2V2)) {
    state.SkipWithError("no v2 kernel on this host/width");
    return;
  }
  const auto words = MakeWords(kSumElems, bits);
  for (auto _ : state) {
    uint64_t sum = KindSum(words, bits, sa::smart::KernelKind::kAvx2V2);
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kSumElems * bits / 8));
}
BENCHMARK(BM_SumV2)->Arg(7)->Arg(13)->Arg(17)->Arg(33)->Arg(50);

void BM_UnpackRange(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  const auto words = MakeWords(kSumElems, bits);
  std::vector<uint64_t> buffer(kSumElems);
  for (auto _ : state) {
    uint64_t sink = UnpackRangeSum(words, bits, buffer.data());
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kSumElems * bits / 8));
}
BENCHMARK(BM_UnpackRange)->Arg(7)->Arg(13)->Arg(17)->Arg(33)->Arg(50)->Arg(64);

void BM_PackRange(benchmark::State& state) {
  const auto bits = static_cast<uint32_t>(state.range(0));
  auto words = MakeWords(kSumElems, bits);
  std::vector<uint64_t> values(kSumElems);
  sa::Xoshiro256 rng(bits + 1);
  for (auto& v : values) {
    v = rng() & sa::LowMask(bits);
  }
  for (auto _ : state) {
    uint64_t sink = PackRangeRun(words, bits, values.data());
    benchmark::DoNotOptimize(sink);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations() * kSumElems * bits / 8));
}
BENCHMARK(BM_PackRange)->Arg(7)->Arg(13)->Arg(17)->Arg(33)->Arg(50)->Arg(64);

// ---------------------------------------------------------------------------
// BENCH_codec.json emission (machine-readable kernel comparison).
// ---------------------------------------------------------------------------

// Per-series measurement window. Fast mode shrinks it so smoke runs (CI)
// finish in seconds; committed JSON is always regenerated with the full
// window.
std::chrono::milliseconds MeasureWindow() {
  return std::chrono::milliseconds(sa::report::FastMode() ? 5 : 80);
}

// Measures every series of one width together, round-robin at call
// granularity: call series 0, then 1, ... then back to 0, timing each call
// and accumulating per-series wall time until the shared budget is spent.
// The host's speed swings by ~1.5x on multi-second timescales (shared
// machine); because the series alternate within milliseconds, every series
// sees the same regime mix and the *ratios* between kernels stay stable
// even when the absolute numbers wobble. Returns bytes/s per series.
std::vector<double> MeasureInterleaved(
    uint32_t bits, const std::vector<std::pair<const char*, std::function<uint64_t()>>>& series) {
  using Clock = std::chrono::steady_clock;
  uint64_t sink = 0;
  for (const auto& [name, fn] : series) {
    sink += fn();  // warm-up + page-in
    benchmark::DoNotOptimize(sink);
  }
  std::vector<double> total_sec(series.size(), 0.0);
  std::vector<uint64_t> calls(series.size(), 0);
  const auto budget = MeasureWindow() * (5 * series.size());
  const auto begin = Clock::now();
  while (Clock::now() - begin < budget) {
    for (size_t i = 0; i < series.size(); ++i) {
      const auto t0 = Clock::now();
      sink += series[i].second();
      benchmark::DoNotOptimize(sink);
      total_sec[i] += std::chrono::duration<double>(Clock::now() - t0).count();
      ++calls[i];
    }
  }
  std::vector<double> bps(series.size());
  for (size_t i = 0; i < series.size(); ++i) {
    bps[i] = static_cast<double>(calls[i]) * kSumElems * bits / 8.0 / total_sec[i];
  }
  return bps;
}

// ---------------------------------------------------------------------------
// Predicate-pushdown scan series: pushdown CountIf (zone maps + packed-word
// match kernels) vs unpack-then-filter (full decode through the streaming
// seam, then a scalar filter over the materialized values) at four
// selectivities and three value distributions. Runs over a real SmartArray
// so the zone-map skip path is measured, not just the kernels: the sorted
// distribution is where zones shine (a selective scan touches one chunk in
// a hundred), uniform is where they are useless and the packed-word kernels
// must win on their own.
// ---------------------------------------------------------------------------

constexpr uint32_t kScanBits = 13;  // the paper's mid-width sweet spot

std::vector<uint64_t> ScanValues(const char* distribution) {
  const uint64_t max = sa::LowMask(kScanBits);
  std::vector<uint64_t> values(kSumElems);
  sa::Xoshiro256 rng(0x5ca9);
  if (std::strcmp(distribution, "power-law") == 0) {
    // u^4-skew: most mass near zero, a thin heavy tail — the shape column
    // stores and degree arrays actually have.
    for (auto& v : values) {
      const double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
      v = static_cast<uint64_t>(static_cast<double>(max) * u * u * u * u);
    }
    return values;
  }
  for (auto& v : values) {
    v = rng() & max;
  }
  if (std::strcmp(distribution, "sorted") == 0) {
    std::sort(values.begin(), values.end());
  }
  return values;
}

// Bulk-loads `values` into a fresh bit-packed SmartArray with *exact* zone
// maps (whole-chunk ownership), the state PackRange leaves behind.
std::unique_ptr<sa::smart::SmartArray> MakeScanArray(const std::vector<uint64_t>& values,
                                                     const sa::platform::Topology& topology) {
  auto array = sa::smart::SmartArray::Allocate(kSumElems, sa::smart::PlacementSpec::OsDefault(),
                                               kScanBits, topology);
  const auto& codec = sa::smart::CodecFor(kScanBits);
  for (int r = 0; r < array->num_replicas(); ++r) {
    codec.pack_range(array->MutableReplica(r), 0, kSumElems, values.data());
  }
  for (uint64_t chunk = 0; chunk < array->num_chunks(); ++chunk) {
    uint64_t lo = ~uint64_t{0};
    uint64_t hi = 0;
    for (uint64_t k = chunk * sa::kChunkElems; k < (chunk + 1) * sa::kChunkElems; ++k) {
      lo = std::min(lo, values[k]);
      hi = std::max(hi, values[k]);
    }
    array->SetZoneBounds(chunk, lo, hi);
  }
  return array;
}

// The predicate whose true selectivity is closest to `target` for this data:
// a quantile threshold — `v < q(s)` for low-heavy shapes, `v > q(1-s)` for
// the power-law tail (its mass piles up at zero, so only the tail can be
// rare).
sa::smart::Predicate ScanPredicateFor(const std::vector<uint64_t>& values, double target,
                                      bool tail) {
  std::vector<uint64_t> sorted = values;
  std::sort(sorted.begin(), sorted.end());
  const auto n = static_cast<double>(sorted.size() - 1);
  if (tail) {
    return {sa::smart::CmpOp::kGt, sorted[static_cast<size_t>((1.0 - target) * n)]};
  }
  return {sa::smart::CmpOp::kLt, sorted[static_cast<size_t>(target * n)]};
}

struct ScanPoint {
  const char* distribution;
  double selectivity;
  double pushdown_bps;
  double unpack_filter_bps;
};

std::vector<ScanPoint> MeasureScanSeries() {
  const sa::platform::Topology topology = sa::platform::Topology::Host();
  std::vector<ScanPoint> points;
  std::vector<uint64_t> buffer(kSumElems);
  for (const char* distribution : {"uniform", "power-law", "sorted"}) {
    const std::vector<uint64_t> values = ScanValues(distribution);
    const auto array = MakeScanArray(values, topology);
    const uint64_t* replica = array->GetReplica(0);
    const auto& codec = sa::smart::CodecFor(kScanBits);
    for (const double selectivity : {0.001, 0.01, 0.1, 1.0}) {
      const sa::smart::Predicate p =
          selectivity >= 1.0
              ? sa::smart::Predicate{sa::smart::CmpOp::kGe, 0}
              : ScanPredicateFor(values, selectivity,
                                 std::strcmp(distribution, "power-law") == 0);
      std::vector<std::pair<const char*, std::function<uint64_t()>>> series;
      series.emplace_back("pushdown",
                          [&] { return array->CountIf(replica, 0, kSumElems, p); });
      series.emplace_back("unpack-filter", [&] {
        codec.unpack_range(replica, 0, kSumElems, buffer.data());
        uint64_t count = 0;
        for (const uint64_t v : buffer) {
          count += sa::smart::Matches(p, v) ? 1 : 0;
        }
        return count;
      });
      const std::vector<double> bps = MeasureInterleaved(kScanBits, series);
      points.push_back({distribution, selectivity, bps[0], bps[1]});
    }
  }
  return points;
}

void WriteBenchJson(const char* path) {
  sa::report::BenchWriter out("codec");
  std::vector<uint64_t> buffer(kSumElems);
  for (uint32_t bits = 1; bits <= 64; ++bits) {
    auto words = MakeWords(kSumElems, bits);
    // Pre-fill the value buffer the pack direction encodes (unpack-range
    // overwrites `buffer`, which is fine: pack timing is data-independent).
    for (uint64_t i = 0; i < kSumElems; ++i) {
      buffer[i] = sa::SplitMix64(i) & sa::LowMask(bits);
    }
    // Every series for this width: the scalar baselines, each SIMD kernel
    // kind the host can run at this width, and the streaming seam in both
    // directions.
    std::vector<std::pair<const char*, std::function<uint64_t()>>> series;
    series.emplace_back("scalar-iterator", [&] { return IteratorSum(words, bits); });
    series.emplace_back("block", [&] { return BlockSum(words, bits); });
    for (const auto kind : {sa::smart::KernelKind::kAvx2V2, sa::smart::KernelKind::kAvx512}) {
      if (KindRunnable(bits, kind)) {
        series.emplace_back(sa::smart::ToString(kind),
                            [&words, bits, kind] { return KindSum(words, bits, kind); });
      }
    }
    series.emplace_back("unpack-range", [&] { return UnpackRangeSum(words, bits, buffer.data()); });
    series.emplace_back("pack-range", [&] { return PackRangeRun(words, bits, buffer.data()); });

    const std::vector<double> bps = MeasureInterleaved(bits, series);
    // "selected" is whatever the measured table bound for this width — the
    // same function pointer as one of the series above, so reuse that
    // series' number rather than manufacturing a noise gap between two
    // timings of identical code.
    const char* selected_series = sa::smart::ToString(sa::smart::CodecFor(bits).kind);
    double selected_bps = 0.0;
    for (size_t i = 0; i < series.size(); ++i) {
      const std::string name = series[i].first;
      const char* op = name == "unpack-range" ? "unpack" : name == "pack-range" ? "pack" : "sum";
      out.Add({.series = name, .op = op, .width = bits}, bps[i], "B/s");
      if (name == selected_series) {
        selected_bps = bps[i];
      }
    }
    out.Add({.series = "selected", .op = "sum", .width = bits}, selected_bps, "B/s");
  }

  // Scan series: one pushdown and one unpack-then-filter record per
  // {distribution, selectivity} point; bench_diff.py derives the
  // pushdown speedup at 1% selectivity from them.
  for (const ScanPoint& point : MeasureScanSeries()) {
    sa::report::Key key{.op = "count_if",
                        .width = kScanBits,
                        .distribution = point.distribution,
                        .selectivity = point.selectivity};
    key.series = "scan-pushdown";
    out.Add(key, point.pushdown_bps, "B/s");
    key.series = "scan-unpack-filter";
    out.Add(key, point.unpack_filter_bps, "B/s");
  }
  out.Write(path);
}

}  // namespace

// Custom main: emit the kernel-comparison JSON, then run google-benchmark
// as usual (so `micro_codec` keeps working as a regular gbench binary).
int main(int argc, char** argv) {
  WriteBenchJson("BENCH_codec.json");
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  return 0;
}
