// table: column-store query batches through table::Table. The data is
// chosen so automatic technique selection lands one column on each
// encoding (bit-packed, dictionary, run-length, frame-of-reference), and
// the whole table fits in the last-level cache. This is the only workload
// that runs `table` and `encodings`; their decode-then-filter path does the
// work, while smart pushdown and the registry do none.
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "encodings/encoding.h"
#include "platform/topology.h"
#include "rts/worker_pool.h"
#include "table/table.h"
#include "workloads.h"

namespace perfbench {
namespace {

using sa::table::Predicate;
using sa::table::Table;

constexpr uint64_t kRows = uint64_t{4} << 20;
constexpr uint64_t kRegions = 64;
constexpr uint64_t kStatusRun = 4096;  // mean run length of the status column
constexpr uint64_t kTsBase = uint64_t{1} << 40;
constexpr double kTailQ = 0.75;
constexpr int kSetups = 3;
constexpr int kWorkers = kThreadBudget - 1;  // plus the client thread
// GroupBySum costs several times the other queries; running those more
// often per batch keeps any one query under half the batch.
constexpr int kRepeats = 3;

struct Columns {
  std::vector<uint64_t> amount;  // uniform 20-bit: bit-packed
  std::vector<uint64_t> region;  // 64 sparse 48-bit ids: dictionary
  std::vector<uint64_t> status;  // long runs of 0..7: run-length
  std::vector<uint64_t> ts;      // rising timestamps with local noise: frame-of-reference
};

Columns Generate(uint64_t seed) {
  Columns c;
  c.amount.resize(kRows);
  c.region.resize(kRows);
  c.status.resize(kRows);
  c.ts.resize(kRows);
  uint64_t regions[kRegions];
  for (uint64_t r = 0; r < kRegions; ++r) {
    regions[r] = Hash(seed, 10, r) & ((uint64_t{1} << 48) - 1);
  }
  uint64_t status = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    const uint64_t h = Hash(seed, 11, i);
    c.amount[i] = h & ((1 << 20) - 1);
    c.region[i] = regions[(h >> 20) % kRegions];
    if ((h >> 32) % kStatusRun == 0) {
      status = (h >> 48) % 8;
    }
    c.status[i] = status;
    c.ts[i] = kTsBase + i * 16 + ((h >> 40) & 255);
  }
  return c;
}

// The batch's predicates.
const std::vector<Predicate> kCountPredicates = {
    {"amount", Predicate::Op::kLt, 10486, 0},  // ~1% of 20-bit values
    {"status", Predicate::Op::kEq, 3, 0},
};
std::vector<Predicate> SumPredicates() {
  return {{"ts", Predicate::Op::kBetween, kTsBase + kRows * 4, kTsBase + kRows * 6}};
}

struct Answers {
  uint64_t count = 0;
  uint64_t sum = 0;
  std::vector<std::pair<uint64_t, uint64_t>> groups;
  uint64_t min = 0;
  uint64_t max = 0;

  bool operator==(const Answers&) const = default;
  uint64_t Checksum() const {
    uint64_t h = sa::SplitMix64(count ^ sa::SplitMix64(sum ^ sa::SplitMix64(min ^ max)));
    for (const auto& [key, value] : groups) {
      h = sa::SplitMix64(h ^ key ^ sa::SplitMix64(value));
    }
    return h;
  }
};

// Serial references over the raw column vectors.
Answers References(const Columns& c) {
  Answers a;
  std::map<uint64_t, uint64_t> groups;
  const std::vector<Predicate> sum_predicates = SumPredicates();
  a.min = ~uint64_t{0};
  for (uint64_t i = 0; i < kRows; ++i) {
    a.count += kCountPredicates[0].Matches(c.amount[i]) && kCountPredicates[1].Matches(c.status[i]);
    a.sum += sum_predicates[0].Matches(c.ts[i]) ? c.amount[i] : 0;
    groups[c.region[i]] += c.amount[i];
    a.min = std::min(a.min, c.ts[i]);
    a.max = std::max(a.max, c.ts[i]);
  }
  a.groups.assign(groups.begin(), groups.end());
  return a;
}

struct Built {
  Table table;
  double seconds;
};

Built Setup(const sa::platform::Topology& topo, uint64_t seed) {
  const uint64_t t0 = NowNs();
  Columns c = Generate(seed);
  Table::Builder builder;
  builder.AddColumn("amount", std::move(c.amount));
  builder.AddColumn("region", std::move(c.region));
  builder.AddColumn("status", std::move(c.status));
  builder.AddColumn("ts", std::move(c.ts));
  Table table = builder.Build(sa::smart::PlacementSpec::OsDefault(), topo);
  return {std::move(table), static_cast<double>(NowNs() - t0) / 1e9};
}

bool Batch(sa::rts::WorkerPool& pool, const Table& table, const Answers& expected) {
  ScopedSpan op(Layer::kBench, "table.batch");
  const std::vector<Predicate> sum_predicates = SumPredicates();
  bool ok = true;
  for (int r = 0; r < kRepeats; ++r) {
    {
      ScopedSpan span(Layer::kTable, "CountWhere");
      ok &= sa::table::CountWhere(pool, table, kCountPredicates) == expected.count;
    }
    {
      ScopedSpan span(Layer::kTable, "SumWhere");
      ok &= sa::table::SumWhere(pool, table, "amount", sum_predicates) == expected.sum;
    }
    {
      ScopedSpan span(Layer::kTable, "MinMaxOf");
      const sa::table::MinMax mm = sa::table::MinMaxOf(pool, table, "ts");
      ok &= mm.min == expected.min && mm.max == expected.max;
    }
  }
  ScopedSpan span(Layer::kTable, "GroupBySum");
  ok &= sa::table::GroupBySum(pool, table, "region", "amount") == expected.groups;
  return ok;
}

}  // namespace

int RunTable(const Options& options) {
  Report report(options);
  const sa::platform::Topology topo = sa::platform::Topology::Host();
  sa::rts::WorkerPool pool(topo, sa::rts::WorkerPool::Options{.num_threads = kWorkers});

  std::vector<double> setup_s;
  std::unique_ptr<Table> table;
  for (int i = 0; i < kSetups; ++i) {
    table.reset();
    Built built = Setup(topo, options.seed);
    setup_s.push_back(built.seconds);
    table = std::make_unique<Table>(std::move(built.table));
  }
  const Answers expected = References(Generate(options.seed));

  std::string representations;
  for (const std::string& name : table->column_names()) {
    representations += std::string(representations.empty() ? "" : " ") + name + "=" +
                       sa::encodings::ToString(table->column(name).encoding());
  }
  const double bytes_per_value =
      static_cast<double>(table->footprint_bytes()) /
      static_cast<double>(kRows * table->num_columns());

  auto op = [&] { return Batch(pool, *table, expected); };
  for (int i = 0; i < 2; ++i) {
    if (!op()) {
      report.Incorrect("table warm-up batch");
    }
  }
  const Measured m = Measure(options, MinSamplesForTail(kTailQ), op);
  if (m.window.failed + m.plain.failed > 0) {
    report.Incorrect("table query answers differ from the raw-column references");
  }
  ReportMeasured(report, setup_s, m, kTailQ, bytes_per_value);

  if (options.trace) {
    const auto& s = m.spans;
    report.Layer("table.count_where_ms", Quantile(SpanDurationsNs(s, "CountWhere"), 0.5) / 1e6);
    report.Layer("table.sum_where_ms", Quantile(SpanDurationsNs(s, "SumWhere"), 0.5) / 1e6);
    report.Layer("table.group_by_sum_ms",
                 Quantile(SpanDurationsNs(s, "GroupBySum"), 0.5) / 1e6);
    report.Layer("table.min_max_ms", Quantile(SpanDurationsNs(s, "MinMaxOf"), 0.5) / 1e6);
    // The loops run inside the library, so the pool workers' CPU time
    // stands in for the summed grain time.
    const Window& w = m.window;
    report.Layer("rts.idle_ratio", 1.0 - (w.cpu_s - w.client_cpu_s) / (kWorkers * w.wall_s));
  }

  report.Context("threads", "{\"clients\":1,\"pool_workers\":" + std::to_string(kWorkers) +
                                ",\"daemon\":0}");
  report.Context("representations", JsonString(representations));
  report.Context("rows", std::to_string(kRows));
  report.Context("table_mb", JsonNumber(static_cast<double>(table->footprint_bytes()) / 1e6));
  report.Determinism("representations", JsonString(representations));
  report.Determinism("bytes_per_value", JsonNumber(bytes_per_value));
  report.Determinism("answers", std::to_string(expected.Checksum()));
  return report.Finish(m.spans);
}

}  // namespace perfbench
