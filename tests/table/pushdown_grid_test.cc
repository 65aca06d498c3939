// Differential grid for the pushdown table scans: every encoding forced on
// the predicate column, every operator at boundary constants, ragged row
// counts around the chunk and grain sizes, conjunctions and group-bys,
// all against brute force over the raw columns.
#include <algorithm>
#include <map>
#include <numeric>
#include <tuple>

#include <gtest/gtest.h>

#include "common/random.h"
#include "rts/parallel_for.h"
#include "table/table.h"

namespace sa::table {
namespace {

using smart::Encoding;
using Op = Predicate::Op;

// The grid's four key-column encodings, under the labels and in the order
// its instances are named by.
enum class KeyEncoding { kBitPacked, kDictionary, kRunLength, kFrameOfReference };

Encoding ToEncoding(KeyEncoding key) {
  switch (key) {
    case KeyEncoding::kBitPacked:
      return Encoding::kBitPacked;
    case KeyEncoding::kDictionary:
      return Encoding::kDictionary;
    case KeyEncoding::kRunLength:
      return Encoding::kRunLength;
    case KeyEncoding::kFrameOfReference:
      break;
  }
  return Encoding::kForDelta;
}

const char* Label(KeyEncoding key) {
  constexpr const char* kLabels[] = {"bit_packed", "dictionary", "run_length",
                                     "frame_of_reference"};
  return kLabels[static_cast<int>(key)];
}

// Independent of Predicate::Matches, which the library implements itself.
bool Holds(const Predicate& p, uint64_t v) {
  switch (p.op) {
    case Op::kEq:
      return v == p.value;
    case Op::kNe:
      return v != p.value;
    case Op::kLt:
      return v < p.value;
    case Op::kLe:
      return v <= p.value;
    case Op::kGt:
      return v > p.value;
    case Op::kGe:
      return v >= p.value;
    case Op::kBetween:
      return v >= p.value && v <= p.value2;
  }
  return false;
}

class PushdownGridTest : public ::testing::TestWithParam<std::tuple<KeyEncoding, uint64_t>> {
 protected:
  // Runs of repeated values on a large base with only even offsets, so the
  // data suits every encoding and odd offsets are absent from the dictionary.
  static constexpr uint64_t kBase = uint64_t{1} << 40;
  static constexpr uint64_t kDistinct = 300;

  PushdownGridTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}) {
    const uint64_t rows = std::get<1>(GetParam());
    Xoshiro256 rng(rows);
    key_.resize(rows);
    other_.resize(rows);
    amount_.resize(rows);
    uint64_t current = kBase + 2 * rng.Below(kDistinct);
    for (uint64_t i = 0; i < rows; ++i) {
      if (rng.Below(8) == 0) {
        current = kBase + 2 * rng.Below(kDistinct);
      }
      key_[i] = current;
      other_[i] = rng.Below(16);
      amount_[i] = rng.Below(uint64_t{1} << 20);
    }
    Table::Builder builder;
    builder.AddColumn("key", key_, ToEncoding(std::get<0>(GetParam())))
        .AddColumn("other", other_)
        .AddColumn("amount", amount_);
    table_ = std::make_unique<Table>(builder.Build(smart::PlacementSpec::Replicated(), topo_));
    min_ = *std::min_element(key_.begin(), key_.end());
    max_ = *std::max_element(key_.begin(), key_.end());
  }

  const std::vector<uint64_t>& Column(const std::string& name) const {
    return name == "key" ? key_ : name == "other" ? other_ : amount_;
  }

  // Brute-force COUNT and SUM(amount) of the rows where all predicates hold.
  std::pair<uint64_t, uint64_t> Expected(const std::vector<Predicate>& predicates) const {
    uint64_t count = 0;
    uint64_t sum = 0;
    for (uint64_t i = 0; i < key_.size(); ++i) {
      bool all = true;
      for (const Predicate& p : predicates) {
        all = all && Holds(p, Column(p.column)[i]);
      }
      count += all;
      sum += all ? amount_[i] : 0;
    }
    return {count, sum};
  }

  void ExpectMatches(const std::vector<Predicate>& predicates, const std::string& what) {
    const auto [count, sum] = Expected(predicates);
    EXPECT_EQ(CountWhere(pool_, *table_, predicates), count) << what;
    EXPECT_EQ(SumWhere(pool_, *table_, "amount", predicates), sum) << what;
  }

  // ExpectMatches on every order of `predicates`: the operators reorder the
  // terms themselves, and no order may change an answer.
  void ExpectMatchesInEveryOrder(const std::vector<Predicate>& predicates,
                                 const std::string& what) {
    std::vector<size_t> order(predicates.size());
    std::iota(order.begin(), order.end(), size_t{0});
    do {
      std::vector<Predicate> permuted;
      std::string label = what + ", order";
      for (const size_t i : order) {
        permuted.push_back(predicates[i]);
        label += ' ';  // piecewise: gcc 12 at -O3 reports " " + std::to_string(i) as -Wrestrict
        label += std::to_string(i);
      }
      ExpectMatches(permuted, label);
    } while (std::next_permutation(order.begin(), order.end()));
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  std::vector<uint64_t> key_;
  std::vector<uint64_t> other_;
  std::vector<uint64_t> amount_;
  std::unique_ptr<Table> table_;
  uint64_t min_ = 0;
  uint64_t max_ = 0;
};

TEST_P(PushdownGridTest, EveryOperatorAtBoundaryConstants) {
  ASSERT_EQ(table_->column("key").encoding(), ToEncoding(std::get<0>(GetParam())));
  const uint64_t absent = min_ + 1;  // odd offset: never stored
  for (const uint64_t c : {uint64_t{0}, min_ - 1, min_, absent, max_, max_ + 1, ~uint64_t{0}}) {
    for (const Op op : {Op::kEq, Op::kNe, Op::kLt, Op::kLe, Op::kGt, Op::kGe}) {
      ExpectMatches({{"key", op, c, 0}},
                    "op " + std::to_string(static_cast<int>(op)) + " c " + std::to_string(c));
    }
  }
}

TEST_P(PushdownGridTest, BetweenRanges) {
  const uint64_t mid = min_ + (max_ - min_) / 2;
  const uint64_t bounds[][2] = {
      {min_, max_}, {0, ~uint64_t{0}}, {min_ + 1, mid}, {mid, mid}, {max_, min_},  // lo > hi
      {~uint64_t{0}, 0},                                                           // lo > hi
      {max_ + 1, ~uint64_t{0}}, {0, min_ - 1}};
  for (const auto& [lo, hi] : bounds) {
    ExpectMatches({{"key", Op::kBetween, lo, hi}},
                  "between " + std::to_string(lo) + " " + std::to_string(hi));
  }
}

TEST_P(PushdownGridTest, Conjunctions) {
  // Three columns, kNe on the encoded one.
  ExpectMatchesInEveryOrder({{"key", Op::kNe, key_[key_.size() / 2], 0},
                             {"other", Op::kGe, 4, 0},
                             {"amount", Op::kLt, uint64_t{1} << 19, 0}},
                            "kNe conjunction");
  // Empty result: key != min and key <= min cannot both hold.
  const std::vector<Predicate> empty = {
      {"key", Op::kNe, min_, 0}, {"amount", Op::kGe, 0, 0}, {"key", Op::kLe, min_, 0}};
  EXPECT_EQ(Expected(empty).first, 0u);
  ExpectMatchesInEveryOrder(empty, "empty conjunction");
  // A range on the encoded column and a selective term on a narrow one.
  ExpectMatchesInEveryOrder({{"other", Op::kEq, 3, 0},
                             {"key", Op::kBetween, min_ + 2, max_ - 2},
                             {"amount", Op::kGe, uint64_t{1} << 18, 0}},
                            "between conjunction");
  ExpectMatches({}, "no predicates");
}

TEST_P(PushdownGridTest, GroupByTheEncodedColumn) {
  std::map<uint64_t, uint64_t> want;
  for (uint64_t i = 0; i < key_.size(); ++i) {
    want[key_[i]] += amount_[i];
  }
  const std::vector<std::pair<uint64_t, uint64_t>> expected(want.begin(), want.end());
  EXPECT_EQ(GroupBySum(pool_, *table_, "key", "amount"), expected);

  const MinMax mm = MinMaxOf(pool_, *table_, "key");
  EXPECT_EQ(mm.min, min_);
  EXPECT_EQ(mm.max, max_);
}

// Enough grains that every worker takes part, so the per-worker partials
// (counts, sums, dense code sums, group maps) really are merged.
TEST(PushdownMergeTest, ManyGrainsAcrossWorkers) {
  const platform::Topology topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  const uint64_t rows = 64 * rts::kDefaultGrain + 3;
  Xoshiro256 rng(9);
  std::vector<uint64_t> key(rows);
  std::vector<uint64_t> amount(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    key[i] = 1'000 + 7 * rng.Below(1'000);
    amount[i] = rng.Below(1'000'000);
  }
  std::map<uint64_t, uint64_t> groups;
  uint64_t count = 0;
  uint64_t sum = 0;
  for (uint64_t i = 0; i < rows; ++i) {
    groups[key[i]] += amount[i];
    count += key[i] >= 3'000;
    sum += key[i] >= 3'000 ? amount[i] : 0;
  }
  const std::vector<std::pair<uint64_t, uint64_t>> expected(groups.begin(), groups.end());
  for (const Encoding e : {Encoding::kDictionary, Encoding::kBitPacked}) {
    Table::Builder builder;
    builder.AddColumn("key", key, e).AddColumn("amount", amount);
    const Table t = builder.Build(smart::PlacementSpec::Interleaved(), topo);
    EXPECT_EQ(GroupBySum(pool, t, "key", "amount"), expected) << smart::ToString(e);
    EXPECT_EQ(CountWhere(pool, t, {{"key", Op::kGe, 3'000, 0}}), count) << smart::ToString(e);
    EXPECT_EQ(SumWhere(pool, t, "amount", {{"key", Op::kGe, 3'000, 0}}), sum)
        << smart::ToString(e);
  }
}

// MinMaxOf merges every grain's answer: a minimum and a maximum placed alone
// in the first, a middle or the last (partial) grain are found, whatever the
// column's encoding.
TEST(PushdownMergeTest, MinMaxFindsExtremesInAnyGrain) {
  const platform::Topology topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  const uint64_t rows = 5 * rts::kDefaultGrain + 70;
  const uint64_t middle = 2 * rts::kDefaultGrain + 7;
  std::vector<uint64_t> base(rows);
  for (uint64_t i = 0; i < rows; ++i) {
    base[i] = 1'000 + (i / 100) % 7 * 100;  // runs of 100 over 7 values
  }
  const uint64_t placements[][2] = {{0, rows - 1}, {rows - 1, middle}, {middle, 0}};
  for (const auto& [min_at, max_at] : placements) {
    std::vector<uint64_t> values = base;
    values[min_at] = 3;
    values[max_at] = uint64_t{1} << 45;
    for (const Encoding e : {Encoding::kBitPacked, Encoding::kDictionary, Encoding::kRunLength,
                             Encoding::kForDelta}) {
      Table::Builder builder;
      builder.AddColumn("v", values, e);
      const Table t = builder.Build(smart::PlacementSpec::Interleaved(), topo);
      const MinMax mm = MinMaxOf(pool, t, "v");
      EXPECT_EQ(mm.min, 3u) << smart::ToString(e) << " min at " << min_at;
      EXPECT_EQ(mm.max, uint64_t{1} << 45) << smart::ToString(e) << " max at " << max_at;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllEncodings, PushdownGridTest,
    ::testing::Combine(::testing::Values(KeyEncoding::kBitPacked, KeyEncoding::kDictionary,
                                         KeyEncoding::kRunLength, KeyEncoding::kFrameOfReference),
                       ::testing::Values(uint64_t{1}, uint64_t{64}, uint64_t{65},
                                         rts::kDefaultGrain - 1, rts::kDefaultGrain + 1,
                                         uint64_t{50'017})),
    [](const auto& param_info) {
      return std::string(Label(std::get<0>(param_info.param))) + "_" +
             std::to_string(std::get<1>(param_info.param)) + "_rows";
    });

}  // namespace
}  // namespace sa::table
