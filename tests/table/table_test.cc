// Column-store substrate: schema handling, operator correctness against
// brute-force references, encodings/placements composition.
#include <map>

#include <gtest/gtest.h>

#include "common/random.h"
#include "encodings/encoding.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "table/table.h"

namespace sa::table {
namespace {

class TableTest : public ::testing::Test {
 protected:
  TableTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {
    Xoshiro256 rng(5);
    quantity_.resize(kRows);
    price_.resize(kRows);
    region_.resize(kRows);
    for (uint64_t i = 0; i < kRows; ++i) {
      quantity_[i] = 1 + rng.Below(50);
      price_[i] = 100 + rng.Below(10'000);
      region_[i] = rng.Below(8);
    }
  }

  Table Build(const smart::PlacementSpec& placement = smart::PlacementSpec::Interleaved()) {
    Table::Builder builder;
    builder.AddColumn("quantity", quantity_)
        .AddColumn("price", price_)
        .AddColumn("region", region_);
    return builder.Build(placement, topo_);
  }

  static constexpr uint64_t kRows = 50'000;
  platform::Topology topo_;
  rts::WorkerPool pool_;
  std::vector<uint64_t> quantity_;
  std::vector<uint64_t> price_;
  std::vector<uint64_t> region_;
};

TEST_F(TableTest, SchemaBasics) {
  const Table t = Build();
  EXPECT_EQ(t.num_rows(), kRows);
  EXPECT_EQ(t.num_columns(), 3u);
  EXPECT_EQ(t.column("price").length(), kRows);
  EXPECT_GT(t.footprint_bytes(), 0u);
  // Columns are compressed: far below 3 x 8 bytes/row.
  EXPECT_LT(t.footprint_bytes(), kRows * 24 / 2);
}

TEST_F(TableTest, CountWhereMatchesBruteForce) {
  const Table t = Build();
  const std::vector<Predicate> predicates = {
      {"region", Predicate::Op::kEq, 3, 0},
      {"quantity", Predicate::Op::kGe, 25, 0},
  };
  uint64_t want = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    want += region_[i] == 3 && quantity_[i] >= 25;
  }
  EXPECT_EQ(CountWhere(pool_, t, predicates), want);
}

TEST_F(TableTest, SumWhereMatchesBruteForce) {
  const Table t = Build();
  const std::vector<Predicate> predicates = {
      {"price", Predicate::Op::kBetween, 1000, 5000},
  };
  uint64_t want = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    if (price_[i] >= 1000 && price_[i] <= 5000) {
      want += quantity_[i];
    }
  }
  EXPECT_EQ(SumWhere(pool_, t, "quantity", predicates), want);
}

TEST_F(TableTest, EmptyPredicateListSelectsEverything) {
  const Table t = Build();
  EXPECT_EQ(CountWhere(pool_, t, {}), kRows);
  uint64_t want = 0;
  for (const uint64_t q : quantity_) {
    want += q;
  }
  EXPECT_EQ(SumWhere(pool_, t, "quantity", {}), want);
}

TEST_F(TableTest, AllPredicateOpsBehave) {
  const Table t = Build();
  auto count = [&](Predicate::Op op, uint64_t v, uint64_t v2 = 0) {
    return CountWhere(pool_, t, {{"region", op, v, v2}});
  };
  std::map<uint64_t, uint64_t> histogram;
  for (const uint64_t r : region_) {
    ++histogram[r];
  }
  EXPECT_EQ(count(Predicate::Op::kEq, 2), histogram[2]);
  EXPECT_EQ(count(Predicate::Op::kNe, 2), kRows - histogram[2]);
  EXPECT_EQ(count(Predicate::Op::kLt, 2), histogram[0] + histogram[1]);
  EXPECT_EQ(count(Predicate::Op::kLe, 1), histogram[0] + histogram[1]);
  EXPECT_EQ(count(Predicate::Op::kGt, 5), histogram[6] + histogram[7]);
  EXPECT_EQ(count(Predicate::Op::kGe, 6), histogram[6] + histogram[7]);
  EXPECT_EQ(count(Predicate::Op::kBetween, 2, 4),
            histogram[2] + histogram[3] + histogram[4]);
}

TEST_F(TableTest, GroupBySumMatchesBruteForce) {
  const Table t = Build();
  std::map<uint64_t, uint64_t> want;
  for (uint64_t i = 0; i < kRows; ++i) {
    want[region_[i]] += price_[i];
  }
  const auto got = GroupBySum(pool_, t, "region", "price");
  ASSERT_EQ(got.size(), want.size());
  for (const auto& [key, sum] : got) {
    EXPECT_EQ(sum, want[key]) << "region " << key;
  }
  // Sorted by key.
  for (size_t i = 1; i < got.size(); ++i) {
    EXPECT_LT(got[i - 1].first, got[i].first);
  }
}

TEST_F(TableTest, MinMaxMatchesBruteForce) {
  const Table t = Build();
  const auto mm = MinMaxOf(pool_, t, "price");
  EXPECT_EQ(mm.min, *std::min_element(price_.begin(), price_.end()));
  EXPECT_EQ(mm.max, *std::max_element(price_.begin(), price_.end()));
}

TEST_F(TableTest, ForcedEncodingsStillAnswerCorrectly) {
  Table::Builder builder;
  builder.AddColumn("quantity", quantity_, smart::Encoding::kForDelta)
      .AddColumn("price", price_, smart::Encoding::kBitPacked)
      .AddColumn("region", region_, smart::Encoding::kDictionary);
  const Table t = builder.Build(smart::PlacementSpec::Replicated(), topo_);
  EXPECT_EQ(t.column("region").encoding(), smart::Encoding::kDictionary);
  uint64_t want = 0;
  for (uint64_t i = 0; i < kRows; ++i) {
    if (region_[i] == 1) {
      want += price_[i];
    }
  }
  EXPECT_EQ(SumWhere(pool_, t, "price", {{"region", Predicate::Op::kEq, 1, 0}}), want);
}

// Conjunctions run smallest column first: with a wide bit-packed term listed
// first and a run-length term that matches no row, every grain empties on the
// run-length term and the bit-packed column is never scanned (its zone walk
// would move the chunk counters).
TEST_F(TableTest, ConjunctionScansSmallestColumnFirst) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out (SA_OBS=OFF)";
  }
  Xoshiro256 rng(6);
  std::vector<uint64_t> wide(kRows);
  std::vector<uint64_t> status(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    wide[i] = rng.Below(uint64_t{1} << 40);
    status[i] = (i / 5'000) % 4;
  }
  Table::Builder builder;
  builder.AddColumn("wide", wide, smart::Encoding::kBitPacked)
      .AddColumn("status", status, smart::Encoding::kRunLength);
  const Table t = builder.Build(smart::PlacementSpec::Interleaved(), topo_);
  ASSERT_LT(t.column("status").footprint_bytes(), t.column("wide").footprint_bytes());
  const std::vector<Predicate> predicates = {{"wide", Predicate::Op::kLt, uint64_t{1} << 39, 0},
                                             {"status", Predicate::Op::kEq, 7, 0}};
  const uint64_t chunks = obs::CounterValue(obs::kScanChunksScanned) +
                          obs::CounterValue(obs::kScanChunksSkipped);
  EXPECT_EQ(CountWhere(pool_, t, predicates), 0u);
  EXPECT_EQ(SumWhere(pool_, t, "wide", predicates), 0u);
  EXPECT_EQ(obs::CounterValue(obs::kScanChunksScanned) +
                obs::CounterValue(obs::kScanChunksSkipped),
            chunks);
}

// Columns added without an encoding take the one the §7 chooser picks.
TEST(EncodedArrayAutoTest, AutoSelectionMatchesChooser) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  std::vector<uint64_t> runs(50'000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = i / 1000;
  }
  Table::Builder builder;
  builder.AddColumn("runs", runs);
  const Table t = builder.Build(smart::PlacementSpec::OsDefault(), topo);
  const smart::SmartArray& column = t.column("runs");
  EXPECT_EQ(column.encoding(), encodings::ChooseEncoding(encodings::AnalyzeValues(runs)));
  EXPECT_EQ(column.encoding(), smart::Encoding::kRunLength);
  EXPECT_EQ(column.Get(12'345, column.GetReplica(0)), runs[12'345]);
}

// MIN/MAX reads chunk metadata only: over every encoding, MinMaxOf decodes
// no range.
TEST(MinMaxTelemetryTest, MinMaxOfDecodesNoRows) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out (SA_OBS=OFF)";
  }
  const auto topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  std::vector<uint64_t> values(3 * rts::kDefaultGrain + 100);
  Xoshiro256 rng(7);
  uint64_t current = 1 << 20;
  for (uint64_t& v : values) {
    if (rng.Below(10) == 0) {
      current = (1 << 20) + rng.Below(1 << 10);
    }
    v = current;
  }
  Table::Builder builder;
  for (const smart::Encoding e : {smart::Encoding::kBitPacked, smart::Encoding::kForDelta,
                                  smart::Encoding::kDictionary, smart::Encoding::kRunLength}) {
    builder.AddColumn(smart::ToString(e), values, e);
  }
  const Table t = builder.Build(smart::PlacementSpec::Interleaved(), topo);
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  for (const std::string& column : t.column_names()) {
    const uint64_t unpacks = obs::CounterValue(obs::kUnpackRangeCalls);
    const MinMax got = MinMaxOf(pool, t, column);
    EXPECT_EQ(obs::CounterValue(obs::kUnpackRangeCalls), unpacks) << column;
    EXPECT_EQ(got.min, *min) << column;
    EXPECT_EQ(got.max, *max) << column;
  }
}

TEST_F(TableTest, BuilderRejectsSchemaErrors) {
  Table::Builder builder;
  builder.AddColumn("a", {1, 2, 3});
  EXPECT_DEATH(builder.AddColumn("a", {4, 5, 6}), "duplicate");
  EXPECT_DEATH(builder.AddColumn("b", {1, 2}), "row count");
  const Table t = Build();
  EXPECT_DEATH(t.column("nope"), "unknown column");
}

}  // namespace
}  // namespace sa::table
