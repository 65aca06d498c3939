// Statistics and technique selection (§7's "dynamically select the correct
// technique").
#include <algorithm>
#include <utility>

#include <gtest/gtest.h>

#include "common/random.h"
#include "encodings/encoding.h"
#include "smart/restructure.h"

namespace sa::encodings {
namespace {

std::vector<uint64_t> LowCardinality(size_t n) {
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(1);
  for (auto& x : v) {
    x = 1'000'000 + rng.Below(8);  // 8 distinct large values
  }
  return v;
}

std::vector<uint64_t> LongRuns(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (i / 1000) % 5;  // runs of 1000
  }
  return v;
}

std::vector<uint64_t> ClusteredTimestamps(size_t n) {
  // Large base with small local jitter: classic frame-of-reference case.
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(2);
  for (size_t i = 0; i < n; ++i) {
    v[i] = (uint64_t{1} << 60) + i * 16 + rng.Below(16);
  }
  return v;
}

std::vector<uint64_t> SmallUniform(size_t n) {
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(3);
  for (auto& x : v) {
    x = rng.Below(1 << 10);  // dense 10-bit values
  }
  return v;
}

std::vector<uint64_t> RunsOf(size_t n, size_t run) {
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(run);
  uint64_t current = 0;
  for (size_t i = 0; i < n; ++i) {
    if (i % run == 0) {
      current = rng.Below(1 << 20);  // 20-bit run values
    }
    v[i] = current;
  }
  return v;
}

TEST(AnalyzeValuesTest, ComputesBasicStats) {
  const std::vector<uint64_t> v = {5, 5, 5, 9, 9, 2};
  const DataStats stats = AnalyzeValues(v);
  EXPECT_EQ(stats.count, 6u);
  EXPECT_EQ(stats.min_value, 2u);
  EXPECT_EQ(stats.max_value, 9u);
  EXPECT_EQ(stats.distinct_values, 3u);
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_DOUBLE_EQ(stats.avg_run_length(), 2.0);
}

TEST(AnalyzeValuesTest, EmptyInput) {
  const DataStats stats = AnalyzeValues({});
  EXPECT_EQ(stats.count, 0u);
  EXPECT_EQ(stats.runs, 0u);
}

TEST(AnalyzeValuesTest, DistinctCountCaps) {
  std::vector<uint64_t> v(DataStats::kDistinctCap + 100);
  for (size_t i = 0; i < v.size(); ++i) {
    v[i] = i;
  }
  const DataStats stats = AnalyzeValues(v);
  EXPECT_GT(stats.distinct_values, DataStats::kDistinctCap);
}

TEST(ChooseEncodingTest, PicksDictionaryForLowCardinalityLargeValues) {
  EXPECT_EQ(ChooseEncoding(AnalyzeValues(LowCardinality(50'000))), Encoding::kDictionary);
}

TEST(ChooseEncodingTest, PicksRunLengthForLongRuns) {
  EXPECT_EQ(ChooseEncoding(AnalyzeValues(LongRuns(50'000))), Encoding::kRunLength);
}

TEST(ChooseEncodingTest, PicksFrameOfReferenceForClusteredLargeValues) {
  EXPECT_EQ(ChooseEncoding(AnalyzeValues(ClusteredTimestamps(50'000))), Encoding::kForDelta);
}

TEST(ChooseEncodingTest, KeepsBitPackingForDenseSmallValues) {
  EXPECT_EQ(ChooseEncoding(AnalyzeValues(SmallUniform(50'000))), Encoding::kBitPacked);
}

// The estimates price what each encoding really stores: on every column
// shape, the chosen encoding's real footprint is within the chooser's own 5%
// margin of the smallest of the four. Short runs are where a run-length
// estimate that priced each start at 64 bits lost to bit packing.
TEST(ChooseEncodingTest, ChosenFootprintIsWithinMarginOfSmallest) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  constexpr size_t kRows = size_t{1} << 17;
  const std::pair<const char*, std::vector<uint64_t>> columns[] = {
      {"runs of 2", RunsOf(kRows, 2)},
      {"runs of 3", RunsOf(kRows, 3)},
      {"runs of 4", RunsOf(kRows, 4)},
      {"runs of 8", RunsOf(kRows, 8)},
      {"low cardinality", LowCardinality(kRows)},
      {"clustered", ClusteredTimestamps(kRows)},
      {"uniform", SmallUniform(kRows)},
  };
  for (const auto& [name, values] : columns) {
    const Encoding chosen = ChooseEncoding(AnalyzeValues(values));
    uint64_t chosen_bytes = 0;
    uint64_t smallest = ~uint64_t{0};
    for (const Encoding e : {Encoding::kBitPacked, Encoding::kDictionary, Encoding::kRunLength,
                             Encoding::kForDelta}) {
      const uint64_t bytes =
          smart::Encode(values, e, smart::PlacementSpec::OsDefault(), topo)->footprint_bytes();
      smallest = std::min(smallest, bytes);
      if (e == chosen) {
        chosen_bytes = bytes;
      }
    }
    EXPECT_LE(static_cast<double>(chosen_bytes) * 0.95, static_cast<double>(smallest))
        << name << ": chose " << ToString(chosen) << " at " << chosen_bytes
        << " bytes, smallest is " << smallest;
  }
}

TEST(EstimateBitsTest, EstimatesAreOrderedSanely) {
  const DataStats runs = AnalyzeValues(LongRuns(10'000));
  EXPECT_LT(EstimateBitsPerElement(Encoding::kRunLength, runs),
            EstimateBitsPerElement(Encoding::kBitPacked, runs));
  const DataStats cluster = AnalyzeValues(ClusteredTimestamps(10'000));
  EXPECT_LT(EstimateBitsPerElement(Encoding::kForDelta, cluster),
            EstimateBitsPerElement(Encoding::kBitPacked, cluster));
}

}  // namespace
}  // namespace sa::encodings
