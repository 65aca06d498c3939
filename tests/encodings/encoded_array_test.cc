// Round-trip, footprint, zone-map, pushdown and metadata-only MIN/MAX
// properties of every encoding x placement.
#include <algorithm>

#include <gtest/gtest.h>

#include "common/random.h"
#include "encodings/encoded_array.h"
#include "obs/telemetry.h"
#include "rts/parallel_for.h"
#include "table/table.h"

namespace sa::encodings {
namespace {

class EncodedArrayTest : public ::testing::TestWithParam<Encoding> {
 protected:
  EncodedArrayTest() : topo_(platform::Topology::Synthetic(2, 2)) {}

  void VerifyRoundTrip(const std::vector<uint64_t>& values,
                       const smart::PlacementSpec& placement) {
    const auto array = EncodedArray::Encode(values, GetParam(), placement, topo_);
    ASSERT_EQ(array->encoding(), GetParam());
    ASSERT_EQ(array->length(), values.size());
    // Random access.
    for (uint64_t i = 0; i < values.size(); i += 7) {
      ASSERT_EQ(array->Get(i, 0), values[i]) << "index " << i;
    }
    // Scan decode, with odd boundaries (degenerating gracefully for tiny
    // inputs).
    const uint64_t begin = values.size() > 6 ? values.size() / 3 + 1 : 0;
    const uint64_t end = values.size() > 6 ? values.size() - 2 : values.size();
    std::vector<uint64_t> out(end - begin);
    array->Decode(begin, end, 0, out.data());
    for (uint64_t i = begin; i < end; ++i) {
      ASSERT_EQ(out[i - begin], values[i]) << "decode index " << i;
    }
  }

  platform::Topology topo_;
};

std::vector<uint64_t> MixedData(size_t n) {
  // Runs + jitter + a large base: exercises every encoding non-trivially.
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(7);
  uint64_t current = 1 << 20;
  for (size_t i = 0; i < n; ++i) {
    if (rng.Below(10) == 0) {
      current = (1 << 20) + rng.Below(1 << 10);
    }
    v[i] = current;
  }
  return v;
}

TEST_P(EncodedArrayTest, RoundTripInterleaved) {
  VerifyRoundTrip(MixedData(10'000), smart::PlacementSpec::Interleaved());
}

TEST_P(EncodedArrayTest, RoundTripReplicated) {
  VerifyRoundTrip(MixedData(5'000), smart::PlacementSpec::Replicated());
}

TEST_P(EncodedArrayTest, RoundTripSingleElement) {
  VerifyRoundTrip({42}, smart::PlacementSpec::OsDefault());
}

TEST_P(EncodedArrayTest, RoundTripConstantData) {
  VerifyRoundTrip(std::vector<uint64_t>(1000, 7), smart::PlacementSpec::OsDefault());
}

TEST_P(EncodedArrayTest, RoundTripNonChunkAlignedLength) {
  auto values = MixedData(777);
  VerifyRoundTrip(values, smart::PlacementSpec::Interleaved());
}

// Values spread over the whole 64-bit range, both extremes included.
std::vector<uint64_t> WideData(size_t n) {
  std::vector<uint64_t> v(n);
  Xoshiro256 rng(11);
  for (size_t i = 0; i < n; ++i) {
    v[i] = rng();
  }
  v[n / 2] = ~uint64_t{0};
  v[n - 1] = 0;
  return v;
}

// Every payload chunk's zone is exactly its [min, max] after Encode: the
// precondition for the zone-pruned pushdown scans over the payloads.
TEST_P(EncodedArrayTest, PayloadZonesAreExact) {
  for (const size_t n : {size_t{1}, size_t{63}, size_t{64}, size_t{65}, size_t{50'017}}) {
    for (const auto& values : {MixedData(n), WideData(n)}) {
      const auto array =
          EncodedArray::Encode(values, GetParam(), smart::PlacementSpec::Replicated(), topo_);
      for (const smart::SmartArray* payload : array->payloads()) {
        for (int r = 0; r < payload->num_replicas(); ++r) {
          uint64_t chunk_values[kChunkElems];
          for (uint64_t chunk = 0; chunk < payload->num_chunks(); ++chunk) {
            const uint64_t lo = chunk * kChunkElems;
            const uint64_t hi = std::min<uint64_t>(payload->length(), lo + kChunkElems);
            payload->RangeUnpack(payload->GetReplica(r), lo, hi, chunk_values);
            const auto [min, max] = std::minmax_element(chunk_values, chunk_values + (hi - lo));
            ASSERT_EQ(payload->ZoneMin(chunk), *min) << "n=" << n << " chunk " << chunk;
            ASSERT_EQ(payload->ZoneMax(chunk), *max) << "n=" << n << " chunk " << chunk;
          }
        }
      }
    }
  }
}

// SelectIf on the encoded payload agrees with the scalar oracle bit for bit,
// on ranges that start and end mid-chunk, for every operator at the
// boundary constants; bits past the range stay zero.
TEST_P(EncodedArrayTest, SelectIfMatchesScalarOracle) {
  const auto values = MixedData(5'000);
  const auto array =
      EncodedArray::Encode(values, GetParam(), smart::PlacementSpec::Replicated(), topo_);
  const uint64_t min = *std::min_element(values.begin(), values.end());
  const uint64_t max = *std::max_element(values.begin(), values.end());
  const uint64_t ranges[][2] = {{0, 5'000}, {37, 4'001}, {64, 128}, {100, 101}, {4'999, 5'000},
                                {10, 10}};
  for (const uint64_t c : {uint64_t{0}, min - 1, min, min + 1, (min + max) / 2, max, max + 1,
                           ~uint64_t{0}}) {
    for (const smart::CmpOp op : {smart::CmpOp::kEq, smart::CmpOp::kNe, smart::CmpOp::kLt,
                                  smart::CmpOp::kLe, smart::CmpOp::kGt, smart::CmpOp::kGe}) {
      const smart::Predicate p{op, c};
      for (const auto& [begin, end] : ranges) {
        const uint64_t words = (end - begin + kWordBits - 1) / kWordBits;
        std::vector<uint64_t> bitmap(words, ~uint64_t{0});  // the callee zeroes it
        const uint64_t count = array->SelectIf(begin, end, /*socket=*/1, p, bitmap.data());
        uint64_t want = 0;
        for (uint64_t j = 0; j < words * kWordBits; ++j) {
          const bool match = begin + j < end && smart::Matches(p, values[begin + j]);
          want += match;
          ASSERT_EQ((bitmap[j / kWordBits] >> (j % kWordBits)) & 1, match ? 1u : 0u)
              << smart::ToString(op) << " " << c << " [" << begin << ", " << end << ") bit " << j;
        }
        ASSERT_EQ(count, want) << smart::ToString(op) << " " << c;
      }
    }
  }
}

// Values falling in runs of 150 across chunk boundaries, descending.
std::vector<uint64_t> LongRunData(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 5'000 - i / 150;
  }
  return v;
}

// MinMax answers from metadata exactly what brute force over the raw values
// gives, on every replica: each chunk alone (the first and the last partial
// one included), a middle run of chunks, the tail from a middle chunk and the
// whole array; on full-64-bit data with 0 and UINT64_MAX present, one-row and
// constant columns.
TEST_P(EncodedArrayTest, MinMaxMatchesBruteForce) {
  const std::vector<uint64_t> columns[] = {
      MixedData(5'000),  WideData(5'000),
      WideData(777),     LongRunData(5'000),
      {42},              {~uint64_t{0}},
      std::vector<uint64_t>(1'000, 7),
      std::vector<uint64_t>(130, ~uint64_t{0})};
  for (const auto& values : columns) {
    const uint64_t n = values.size();
    const auto array =
        EncodedArray::Encode(values, GetParam(), smart::PlacementSpec::Replicated(), topo_);
    std::vector<std::pair<uint64_t, uint64_t>> ranges = {{0, n}};
    const uint64_t chunks = (n + kChunkElems - 1) / kChunkElems;
    for (uint64_t chunk = 0; chunk < chunks; ++chunk) {
      ranges.emplace_back(chunk * kChunkElems, std::min(n, (chunk + 1) * kChunkElems));
    }
    if (chunks > 4) {
      ranges.emplace_back(kChunkElems, (chunks - 2) * kChunkElems);
      ranges.emplace_back(chunks / 2 * kChunkElems, n);
    }
    for (const auto& [begin, end] : ranges) {
      const auto [min, max] = std::minmax_element(values.begin() + begin, values.begin() + end);
      for (const int socket : {0, 1}) {
        const MinMax got = array->MinMax(begin, end, socket);
        ASSERT_EQ(got.min, *min) << "n=" << n << " [" << begin << ", " << end << ")";
        ASSERT_EQ(got.max, *max) << "n=" << n << " [" << begin << ", " << end << ")";
      }
    }
  }
}

// Ranges a chunk zone cannot answer exactly abort rather than answer
// approximately.
TEST_P(EncodedArrayTest, MinMaxRejectsRangesOffTheChunkGrid) {
  const auto values = MixedData(1'000);
  const auto array =
      EncodedArray::Encode(values, GetParam(), smart::PlacementSpec::OsDefault(), topo_);
  EXPECT_DEATH(array->MinMax(1, 2 * kChunkElems, 0), "MinMax ranges");
  EXPECT_DEATH(array->MinMax(0, kChunkElems + 1, 0), "MinMax ranges");
  EXPECT_DEATH(array->MinMax(kChunkElems, kChunkElems, 0), "MinMax ranges");
  EXPECT_DEATH(array->MinMax(0, 1'001, 0), "MinMax ranges");
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodedArrayTest,
                         ::testing::Values(Encoding::kBitPacked, Encoding::kDictionary,
                                           Encoding::kRunLength, Encoding::kFrameOfReference),
                         [](const auto& param_info) {
                           std::string name = ToString(param_info.param);
                           for (char& c : name) {
                             if (c == '-') {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(EncodedArrayFootprintTest, EachTechniqueWinsOnItsData) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  const auto placement = smart::PlacementSpec::Interleaved();
  auto footprint = [&](const std::vector<uint64_t>& values, Encoding e) {
    return EncodedArray::Encode(values, e, placement, topo)->footprint_bytes();
  };

  // Long runs: RLE beats bit packing by orders of magnitude.
  std::vector<uint64_t> runs(100'000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = i / 5000;
  }
  EXPECT_LT(footprint(runs, Encoding::kRunLength) * 10,
            footprint(runs, Encoding::kBitPacked));

  // Few distinct huge values: dictionary wins.
  std::vector<uint64_t> lowcard(100'000);
  Xoshiro256 rng(4);
  for (auto& v : lowcard) {
    v = (uint64_t{1} << 50) + rng.Below(16);
  }
  EXPECT_LT(footprint(lowcard, Encoding::kDictionary) * 2,
            footprint(lowcard, Encoding::kBitPacked));

  // Clustered large values: frame-of-reference wins.
  std::vector<uint64_t> clustered(100'000);
  for (size_t i = 0; i < clustered.size(); ++i) {
    clustered[i] = (uint64_t{1} << 40) + i + rng.Below(32);
  }
  EXPECT_LT(footprint(clustered, Encoding::kFrameOfReference) * 2,
            footprint(clustered, Encoding::kBitPacked));
}

TEST(EncodedArrayFootprintTest, ReplicationDoublesEveryEncoding) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  const auto values = MixedData(20'000);
  for (const Encoding e : {Encoding::kBitPacked, Encoding::kDictionary, Encoding::kRunLength,
                           Encoding::kFrameOfReference}) {
    const auto single =
        EncodedArray::Encode(values, e, smart::PlacementSpec::Interleaved(), topo);
    const auto repl = EncodedArray::Encode(values, e, smart::PlacementSpec::Replicated(), topo);
    EXPECT_EQ(repl->footprint_bytes(), 2 * single->footprint_bytes()) << ToString(e);
    // Replica 1 serves the same data.
    for (uint64_t i = 0; i < values.size(); i += 1111) {
      EXPECT_EQ(repl->Get(i, 1), values[i]);
    }
  }
}

TEST(EncodedArrayAutoTest, AutoSelectionMatchesChooser) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  std::vector<uint64_t> runs(50'000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = i / 1000;
  }
  const auto array =
      EncodedArray::Encode(runs, std::nullopt, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(array->encoding(), ChooseEncoding(AnalyzeValues(runs)));
  EXPECT_EQ(array->encoding(), Encoding::kRunLength);
  EXPECT_EQ(array->Get(12'345, 0), runs[12'345]);
}

// MIN/MAX reads chunk metadata only: over bit-packed, dictionary and
// frame-of-reference columns, MinMaxOf decodes no payload range.
TEST(MinMaxTelemetryTest, MinMaxOfDecodesNoRows) {
  if (!obs::kCompiledIn) {
    GTEST_SKIP() << "telemetry compiled out (SA_OBS=OFF)";
  }
  const auto topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false});
  const auto values = MixedData(3 * rts::kDefaultGrain + 100);
  table::Table::Builder builder;
  builder.AddColumn("bit-packed", values, Encoding::kBitPacked)
      .AddColumn("dictionary", values, Encoding::kDictionary)
      .AddColumn("frame-of-reference", values, Encoding::kFrameOfReference);
  const table::Table t = builder.Build(smart::PlacementSpec::Interleaved(), topo);
  const auto [min, max] = std::minmax_element(values.begin(), values.end());
  for (const std::string& column : t.column_names()) {
    const uint64_t unpacks = obs::CounterValue(obs::kUnpackRangeCalls);
    const table::MinMax got = table::MinMaxOf(pool, t, column);
    EXPECT_EQ(obs::CounterValue(obs::kUnpackRangeCalls), unpacks) << column;
    EXPECT_EQ(got.min, *min) << column;
    EXPECT_EQ(got.max, *max) << column;
  }
}

TEST(RunLengthArrayTest, RunBoundaryAccess) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  std::vector<uint64_t> values;
  for (uint64_t run = 0; run < 50; ++run) {
    for (uint64_t i = 0; i < run + 1; ++i) {
      values.push_back(run * 3);
    }
  }
  RunLengthArray array(values, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(array.num_runs(), 50u);
  for (uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(array.Get(i, 0), values[i]) << "index " << i;
  }
}

TEST(DictionaryArrayTest, CodesAreOrderPreserving) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  const std::vector<uint64_t> values = {100, 5, 100, 42, 5, 99};
  DictionaryArray array(values, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(array.dictionary_size(), 4u);  // {5, 42, 99, 100}
  EXPECT_EQ(array.code_bits(), 2u);
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(array.Get(i, 0), values[i]);
  }
}

TEST(FrameOfReferenceTest, DeltaBitsAreChunkLocal) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  // Values huge, chunk-local spread tiny: deltas must be narrow.
  std::vector<uint64_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (uint64_t{1} << 55) + (i / kChunkElems) * 1'000'000 + (i % 7);
  }
  FrameOfReferenceArray array(values, smart::PlacementSpec::OsDefault(), topo);
  EXPECT_LE(array.delta_bits(), 3u);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(array.Get(i, 0), values[i]);
  }
}

TEST(FrameOfReferenceTest, SelectIfAtFrameEdges) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  // Deltas 0..7 in every chunk, so each frame is exactly [base, base + 7]
  // and the delta width is 3 bits: constants at base - 1, base, base + 7
  // and base + 8 sit on the edges of the frame translation.
  std::vector<uint64_t> values(4 * kChunkElems + 9);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = 5 + (i / kChunkElems) * 1'000 + (i * 5) % 8;
  }
  FrameOfReferenceArray array(values, smart::PlacementSpec::OsDefault(), topo);
  ASSERT_EQ(array.delta_bits(), 3u);
  std::vector<uint64_t> bitmap((values.size() + kWordBits - 1) / kWordBits);
  for (uint64_t chunk = 0; chunk * kChunkElems < values.size(); ++chunk) {
    const uint64_t base = 5 + chunk * 1'000;
    for (const uint64_t c : {base - 1, base, base + 1, base + 6, base + 7, base + 8}) {
      for (const smart::CmpOp op : {smart::CmpOp::kEq, smart::CmpOp::kNe, smart::CmpOp::kLt,
                                    smart::CmpOp::kLe, smart::CmpOp::kGt, smart::CmpOp::kGe}) {
        const smart::Predicate p{op, c};
        const uint64_t count = array.SelectIf(0, values.size(), 0, p, bitmap.data());
        uint64_t want = 0;
        for (size_t i = 0; i < values.size(); ++i) {
          const bool match = smart::Matches(p, values[i]);
          want += match;
          ASSERT_EQ((bitmap[i / kWordBits] >> (i % kWordBits)) & 1, match ? 1u : 0u)
              << smart::ToString(op) << " " << c << " row " << i;
        }
        ASSERT_EQ(count, want) << smart::ToString(op) << " " << c;
      }
    }
  }
}

}  // namespace
}  // namespace sa::encodings
