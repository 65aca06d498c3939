// scan: analytic query batches over registry-held compressed columns whose
// packed footprint exceeds the last-level cache. Codec and pushdown
// kernels, zone maps and one long parallel loop per batch do nearly all the
// work; the registry is touched once per batch (one pin of every column).
#include <memory>
#include <string>
#include <vector>

#include "common/bits.h"
#include "platform/topology.h"
#include "rts/parallel_for.h"
#include "rts/worker_pool.h"
#include "runtime/registry.h"
#include "smart/dispatch.h"
#include "smart/parallel_ops.h"
#include "smart/restructure.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sa::runtime::ArrayRegistry;
using sa::runtime::ArraySnapshot;
using sa::smart::CmpOp;
using sa::smart::PlacementSpec;
using sa::smart::SmartArray;

// Two uniform 17-bit columns of 80M values pack into 2 x 170 MB, beyond the
// 300 MB last-level cache, so compression's bandwidth saving shows.
constexpr uint64_t kRows = uint64_t{80} << 20;
constexpr uint32_t kUniformBits = 17;
// The clustered column rises by 3 per 64-value chunk with 10 bits of noise:
// 22 bits absolute, about 11 bits once frame-of-reference encoded.
constexpr uint64_t kClusteredMax = (kRows / 64 - 1) * 3 + 1023;
constexpr uint32_t kClusteredBits = 22;
static_assert(kClusteredMax < (uint64_t{1} << kClusteredBits));

constexpr uint64_t kRareBound = 1311;     // v < bound holds for ~1% of 17-bit values
constexpr uint64_t kFilterBound = 13107;  // ~10%
constexpr uint64_t kRangeLo = kClusteredMax / 5 * 2;
constexpr uint64_t kRangeHi = kRangeLo + kClusteredMax / 100;
constexpr uint64_t kSelectBound = kClusteredMax / 20;

constexpr double kTailQ = 0.90;
constexpr int kSetups = 3;
constexpr int kWorkers = kThreadBudget - 1;  // plus the client thread

const char* const kColumns[] = {"scan.u0", "scan.u1", "scan.c"};

uint64_t UniformValue(uint64_t seed, uint64_t column, uint64_t i) {
  return Hash(seed, column, i) & sa::LowMask(kUniformBits);
}

uint64_t ClusteredValue(uint64_t seed, uint64_t i) {
  return (i / 64) * 3 + (Hash(seed, 2, i) & 1023);
}

struct Answers {
  uint64_t sum2 = 0;
  uint64_t rare = 0;
  uint64_t filtered_sum = 0;
  uint64_t range = 0;
  uint64_t selected = 0;

  Answers& operator+=(const Answers& o) {
    sum2 += o.sum2;
    rare += o.rare;
    filtered_sum += o.filtered_sum;
    range += o.range;
    selected += o.selected;
    return *this;
  }
  bool operator==(const Answers&) const = default;
  uint64_t Checksum() const {
    return sa::SplitMix64(sum2 ^ sa::SplitMix64(rare ^ sa::SplitMix64(filtered_sum ^ sa::SplitMix64(
                                                           range ^ sa::SplitMix64(selected)))));
  }
};

struct State {
  std::unique_ptr<ArrayRegistry> registry;
  double restructure_ms = 0.0;
};

// Packs generator(i) into `array` grain by grain through the word-centric
// pack kernels; only one grain of values is ever staged per worker.
template <typename Generator>
void Pack(sa::rts::WorkerPool& pool, SmartArray& array, const Generator& generator) {
  std::vector<std::vector<uint64_t>> staging(
      static_cast<size_t>(pool.num_workers()),
      std::vector<uint64_t>(sa::smart::kChunkAlignedGrain));
  sa::rts::ParallelFor(pool, 0, array.length(), sa::smart::kChunkAlignedGrain,
                       [&](int worker, uint64_t begin, uint64_t end) {
                         uint64_t* values = staging[static_cast<size_t>(worker)].data();
                         for (uint64_t i = begin; i < end; ++i) {
                           values[i - begin] = generator(i);
                         }
                         sa::smart::PackRange(array, begin, end, values);
                       });
}

double Setup(sa::rts::WorkerPool& pool, const sa::platform::Topology& topo, uint64_t seed,
             State& state) {
  const uint64_t t0 = NowNs();
  state.registry = std::make_unique<ArrayRegistry>(topo);
  auto upload = [&](const char* name, uint32_t bits, std::unique_ptr<SmartArray> array) {
    sa::runtime::ArraySlot* slot =
        state.registry->Create(name, kRows, PlacementSpec::OsDefault(), bits);
    SA_CHECK(state.registry->Publish(*slot, std::move(array), 0));
    slot->SealWrites();
    state.registry->Reclaim();
  };
  for (uint64_t column = 0; column < 2; ++column) {
    auto array = SmartArray::Allocate(kRows, PlacementSpec::OsDefault(), kUniformBits, topo);
    Pack(pool, *array, [&](uint64_t i) { return UniformValue(seed, column, i); });
    upload(kColumns[column], kUniformBits, std::move(array));
  }
  auto clustered = SmartArray::Allocate(kRows, PlacementSpec::OsDefault(), kClusteredBits, topo);
  Pack(pool, *clustered, [&](uint64_t i) { return ClusteredValue(seed, i); });
  const uint64_t r0 = NowNs();
  auto encoded = sa::smart::TryRestructure(pool, *clustered, PlacementSpec::OsDefault(), 0, topo,
                                           nullptr, sa::smart::Encoding::kForDelta);
  state.restructure_ms = static_cast<double>(NowNs() - r0) / 1e6;
  SA_CHECK(encoded != nullptr);
  clustered.reset();
  upload(kColumns[2], kClusteredBits, std::move(encoded));
  return static_cast<double>(NowNs() - t0) / 1e9;
}

Answers References(sa::rts::WorkerPool& pool, uint64_t seed) {
  return sa::rts::ParallelReduce<Answers>(
      pool, 0, kRows, uint64_t{1} << 16, [&](int, uint64_t begin, uint64_t end) {
        Answers a;
        for (uint64_t i = begin; i < end; ++i) {
          const uint64_t u0 = UniformValue(seed, 0, i);
          const uint64_t u1 = UniformValue(seed, 1, i);
          const uint64_t c = ClusteredValue(seed, i);
          a.sum2 += u0 + u1;
          a.rare += u0 < kRareBound;
          a.filtered_sum += u1 < kFilterBound ? u1 : 0;
          a.range += c >= kRangeLo && c < kRangeHi;
          a.selected += c < kSelectBound;
        }
        return a;
      });
}

// One span around a pinned SmartArray range call made inside a grain (the
// smart layer), parented to the loop that handed out the grain.
template <typename Call>
auto RangeCall(const char* kernel, uint32_t loop, uint32_t op, uint64_t values,
               const Call& call) {
  ScopedSpan span(Layer::kSmart, kernel, loop, op, values);
  return call();
}

bool Batch(sa::rts::WorkerPool& pool, ArrayRegistry& registry, const Answers& expected,
           std::vector<uint64_t>& bitmap) {
  ScopedSpan op(Layer::kBench, "scan.batch");
  ArraySnapshot pins[3];
  {
    ScopedSpan pin(Layer::kRuntime, "pin");
    for (int c = 0; c < 3; ++c) {
      ScopedSpan acquire(Layer::kRuntime, "acquire_by_name");
      pins[c] = registry.AcquireByName(kColumns[c]);
    }
  }
  if (!pins[0].valid() || !pins[1].valid() || !pins[2].valid()) {
    return false;
  }
  const SmartArray& u0 = pins[0].array();
  const SmartArray& u1 = pins[1].array();
  const SmartArray& c = pins[2].array();
  SA_CHECK(u0.encoding() == sa::smart::Encoding::kBitPacked && u0.bits() == u1.bits());
  const sa::smart::CodecOps& codec = sa::smart::CodecFor(u0.bits());

  // The five queries share one ParallelReduce (a shared scan): every grain
  // makes each query's pinned SmartArray range call over its rows, the
  // calls smart::ParallelCountIf makes. One loop per batch instead of five
  // keeps batches from waiting at four extra loop barriers, where a
  // descheduled vCPU stalls every worker (NOTES.md, Steadiness).
  Answers got;
  {
    ScopedSpan loop(Layer::kRts, "ParallelReduce");
    const uint32_t loop_id = loop.id();
    const uint32_t op_id = loop.op();
    got = sa::rts::ParallelReduce<Answers>(
        pool, 0, kRows, sa::smart::kChunkAlignedGrain, [&](int worker, uint64_t b, uint64_t e) {
          const int socket = pool.worker_socket(worker);
          const uint64_t n = e - b;
          const uint64_t* r0 = u0.GetReplica(socket);
          const uint64_t* r1 = u1.GetReplica(socket);
          const uint64_t* rc = c.GetReplica(socket);
          Answers a;
          a.sum2 = RangeCall("Sum2Range", loop_id, op_id, 2 * n,
                             [&] { return codec.sum2_range(r0, r1, b, e); });
          a.rare = RangeCall("CountIf", loop_id, op_id, n, [&] {
            return u0.CountIf(r0, b, e, {CmpOp::kLt, kRareBound});
          });
          a.filtered_sum = RangeCall("FilteredSum", loop_id, op_id, n, [&] {
            return u1.FilteredSum(r1, b, e, {CmpOp::kLt, kFilterBound});
          });
          a.range = RangeCall("CountIf", loop_id, op_id, 2 * n, [&] {
            return c.CountIf(rc, b, e, {CmpOp::kLt, kRangeHi}) -
                   c.CountIf(rc, b, e, {CmpOp::kLt, kRangeLo});
          });
          a.selected = RangeCall("SelectIf", loop_id, op_id, n, [&] {
            return c.SelectIf(rc, b, e, {CmpOp::kLt, kSelectBound}, bitmap.data() + b / 64);
          });
          return a;
        });
  }
  {
    ScopedSpan release(Layer::kRuntime, "release");
    for (ArraySnapshot& p : pins) {
      p.Release();
    }
  }
  return got == expected;
}

}  // namespace

int RunScan(const Options& options) {
  Report report(options);
  const sa::platform::Topology topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo, sa::rts::WorkerPool::Options{.num_threads = kWorkers});
  sa::smart::KernelsFor(1);  // one-time kernel calibration stays out of set-up

  State state;
  std::vector<double> setup_s;
  std::vector<double> restructure_ms;
  for (int i = 0; i < kSetups; ++i) {
    state = State{};
    setup_s.push_back(Setup(pool, topo, options.seed, state));
    restructure_ms.push_back(state.restructure_ms);
  }
  const Answers expected = References(pool, options.seed);
  std::vector<uint64_t> bitmap((kRows + 63) / 64);

  uint64_t footprint = 0;
  std::string representations;
  for (const char* name : kColumns) {
    ArraySnapshot snap = state.registry->AcquireByName(name);
    footprint += snap.array().footprint_bytes();
    representations += std::string(representations.empty() ? "" : " ") + name + "=" +
                       DescribeArray(snap.array());
  }
  const double bytes_per_value = static_cast<double>(footprint) / (3.0 * kRows);

  auto op = [&] { return Batch(pool, *state.registry, expected, bitmap); };
  for (int i = 0; i < 2; ++i) {
    if (!op()) {
      report.Incorrect("scan warm-up batch");
    }
  }
  const Measured m = Measure(options, MinSamplesForTail(kTailQ), op);
  if (m.window.failed + m.plain.failed > 0) {
    report.Incorrect("scan batch answers differ from the generator references");
  }
  ReportMeasured(report, setup_s, m, kTailQ, bytes_per_value);

  if (options.trace) {
    const auto& s = m.spans;
    const double scan_ns =
        SpanTotalNs(s, "CountIf") + SpanTotalNs(s, "FilteredSum") + SpanTotalNs(s, "SelectIf");
    const double scan_values =
        SpanWork(s, "CountIf") + SpanWork(s, "FilteredSum") + SpanWork(s, "SelectIf");
    report.Layer("smart.scan_ns_per_value", scan_ns / scan_values);
    report.Layer("smart.sum2_ns_per_value",
                 SpanTotalNs(s, "Sum2Range") / SpanWork(s, "Sum2Range"));
    const double scanned =
        static_cast<double>(m.after.Since(m.before, sa::obs::kScanChunksScanned));
    const double skipped =
        static_cast<double>(m.after.Since(m.before, sa::obs::kScanChunksSkipped));
    report.Layer("smart.chunks_skipped_ratio", skipped / (scanned + skipped));
    report.Layer("smart.restructure_ms", Quantile(restructure_ms, 0.5));
    const double grain_ns = SpanTotalNs(s, "Sum2Range") + scan_ns;
    report.Layer("rts.idle_ratio",
                 1.0 - grain_ns / (kWorkers * SpanTotalNs(s, "ParallelReduce")));
    report.Layer("runtime.acquire_by_name_ns_p50",
                 Quantile(SpanDurationsNs(s, "acquire_by_name"), 0.5));
    report.Layer("runtime.acquire_by_name_ns_p99",
                 Quantile(SpanDurationsNs(s, "acquire_by_name"), 0.99));
    report.Layer("runtime.release_ns_p50", Quantile(SpanDurationsNs(s, "release"), 0.5) / 3);
    report.Layer("runtime.pin_us_p50", Quantile(SpanDurationsNs(s, "pin"), 0.5) / 1e3);
  }

  report.Context("threads", "{\"clients\":1,\"pool_workers\":" + std::to_string(kWorkers) +
                                ",\"daemon\":0}");
  report.Context("representations", JsonString(representations));
  report.Context("rows_per_column", std::to_string(kRows));
  report.Context("packed_mb", JsonNumber(static_cast<double>(footprint) / 1e6));
  report.Determinism("representations", JsonString(representations));
  report.Determinism("bytes_per_value", JsonNumber(bytes_per_value));
  report.Determinism("answers", std::to_string(expected.Checksum()));
  return report.Finish(m.spans);
}

}  // namespace perfbench
