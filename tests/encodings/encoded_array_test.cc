// Every smart::Encoding behind the one SmartArray seam, under OS-default,
// interleaved and replicated placement on a 2-socket topology: reads, range
// ops and pushdown scans over ragged ranges against a scalar oracle, exact
// value zones after the build and MIN/MAX answered from them, every word in
// the replicas, the Admits/Init write contract, and rebuilds from every other
// encoding.
#include <algorithm>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "rts/worker_pool.h"
#include "smart/dictionary.h"
#include "smart/for_delta.h"
#include "smart/restructure.h"
#include "smart/run_length.h"
#include "table/table.h"

namespace sa::smart {
namespace {

constexpr Encoding kEncodings[] = {Encoding::kBitPacked, Encoding::kForDelta,
                                   Encoding::kDictionary, Encoding::kRunLength};
constexpr Placement kPlacements[] = {Placement::kOsDefault, Placement::kInterleaved,
                                     Placement::kReplicated};
constexpr CmpOp kOps[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};

// The suite's four techniques, under the labels and in the order its
// instances are named by.
enum class Technique { kBitPacked, kDictionary, kRunLength, kFrameOfReference };

Encoding ToEncoding(Technique technique) {
  switch (technique) {
    case Technique::kBitPacked:
      return Encoding::kBitPacked;
    case Technique::kDictionary:
      return Encoding::kDictionary;
    case Technique::kRunLength:
      return Encoding::kRunLength;
    case Technique::kFrameOfReference:
      break;
  }
  return Encoding::kForDelta;
}

const char* Label(Technique technique) {
  constexpr const char* kLabels[] = {"bit_packed", "dictionary", "run_length",
                                     "frame_of_reference"};
  return kLabels[static_cast<int>(technique)];
}

PlacementSpec SpecFor(Placement kind) {
  switch (kind) {
    case Placement::kInterleaved:
      return PlacementSpec::Interleaved();
    case Placement::kReplicated:
      return PlacementSpec::Replicated();
    default:
      return PlacementSpec::OsDefault();
  }
}

// Runs + jitter + a large base: exercises every encoding non-trivially.
std::vector<uint64_t> MixedData(size_t n) {
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

// Values falling in runs of 150 across chunk boundaries, descending.
std::vector<uint64_t> LongRunData(size_t n) {
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = 5'000 - i / 150;
  }
  return v;
}

using ColumnSet = std::vector<std::vector<uint64_t>>;

// Ragged lengths around and off the chunk grid (64, on it, is the control),
// the full 64-bit range, long runs.
ColumnSet RaggedColumns() {
  return {MixedData(5'000), MixedData(777),   MixedData(64),
          MixedData(65),    WideData(1'000), LongRunData(5'000)};
}

ColumnSet SingleElementColumns() { return {{42}, {~uint64_t{0}}}; }

ColumnSet ConstantColumns() {
  return {std::vector<uint64_t>(1'000, 7), std::vector<uint64_t>(130, ~uint64_t{0})};
}

// Columns of every shape above.
ColumnSet AllColumns() {
  ColumnSet all = RaggedColumns();
  for (const ColumnSet& more : {SingleElementColumns(), ConstantColumns()}) {
    all.insert(all.end(), more.begin(), more.end());
  }
  return all;
}

// Ragged [begin, end) ranges over n elements: whole, mid-chunk ends, one
// element, empty.
std::vector<std::pair<uint64_t, uint64_t>> Ranges(uint64_t n) {
  std::vector<std::pair<uint64_t, uint64_t>> ranges = {{0, n}, {n / 3, n - n / 5}, {n - 1, n},
                                                       {n / 2, n / 2}};
  if (n > 200) {
    ranges.insert(ranges.end(), {{37, n - 2}, {64, 128}, {100, 101}, {63, 65}});
  }
  return ranges;
}

class EncodedArrayTest : public ::testing::TestWithParam<Technique> {
 protected:
  EncodedArrayTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false}) {}

  Encoding encoding() const { return ToEncoding(GetParam()); }

  std::unique_ptr<SmartArray> Build(const std::vector<uint64_t>& values,
                                    Placement placement) const {
    auto array = Encode(values, encoding(), SpecFor(placement), topo_);
    EXPECT_EQ(array->encoding(), encoding());
    EXPECT_EQ(array->length(), values.size());
    return array;
  }

  // Get, Unpack, RangeUnpack and RangeSum over ragged ranges agree with
  // every column of `columns` built under `placement`, on both sockets'
  // replicas; RangeUnpack writes nothing past its range.
  void ExpectReadsMatch(const ColumnSet& columns, Placement placement) const {
    SCOPED_TRACE(ToString(placement));
    for (const auto& values : columns) {
      const uint64_t n = values.size();
      const auto array = Build(values, placement);
      for (const int socket : {0, 1}) {
        const uint64_t* replica = array->GetReplica(socket);
        for (uint64_t i = 0; i < n; ++i) {
          ASSERT_EQ(array->Get(i, replica), values[i]) << "n=" << n << " index " << i;
        }
        uint64_t chunk_values[kChunkElems];
        for (uint64_t chunk = 0; chunk < array->num_chunks(); ++chunk) {
          array->Unpack(chunk, replica, chunk_values);
          for (uint64_t i = chunk * kChunkElems; i < std::min(n, (chunk + 1) * kChunkElems); ++i) {
            ASSERT_EQ(chunk_values[i % kChunkElems], values[i]) << "n=" << n << " unpack " << i;
          }
        }
        for (const auto& [begin, end] : Ranges(n)) {
          std::vector<uint64_t> out(end - begin + 1, 0xdead);
          array->RangeUnpack(replica, begin, end, out.data());
          uint64_t sum = 0;
          for (uint64_t i = begin; i < end; ++i) {
            ASSERT_EQ(out[i - begin], values[i]) << "n=" << n << " decode " << i;
            sum += values[i];
          }
          ASSERT_EQ(out[end - begin], 0xdeadu) << "decode past [" << begin << ", " << end << ")";
          ASSERT_EQ(array->RangeSum(replica, begin, end), sum)
              << "n=" << n << " [" << begin << ", " << end << ")";
        }
      }
    }
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
};

// Every column shape, interleaved across the two sockets.
TEST_P(EncodedArrayTest, RoundTripInterleaved) {
  ExpectReadsMatch(AllColumns(), Placement::kInterleaved);
}

// Every column shape with one replica per socket, each replica read.
TEST_P(EncodedArrayTest, RoundTripReplicated) {
  ExpectReadsMatch(AllColumns(), Placement::kReplicated);
}

// The three shape cases run under OS-default placement; with the two cases
// above, every shape meets every placement.
TEST_P(EncodedArrayTest, RoundTripSingleElement) {
  ExpectReadsMatch(SingleElementColumns(), Placement::kOsDefault);
}

TEST_P(EncodedArrayTest, RoundTripConstantData) {
  ExpectReadsMatch(ConstantColumns(), Placement::kOsDefault);
}

TEST_P(EncodedArrayTest, RoundTripNonChunkAlignedLength) {
  ExpectReadsMatch(RaggedColumns(), Placement::kOsDefault);
}

// SelectIf, CountIf and FilteredSum agree with the scalar oracle bit for
// bit, for every operator at the boundary constants, under every placement
// and on every replica; SelectIf zeroes its bitmap and leaves bits past the
// range clear.
TEST_P(EncodedArrayTest, SelectIfMatchesScalarOracle) {
  for (const Placement placement : kPlacements) {
    SCOPED_TRACE(ToString(placement));
    for (const auto& values : {MixedData(2'000), WideData(300), LongRunData(1'000)}) {
      const uint64_t n = values.size();
      const auto array = Build(values, placement);
      const uint64_t min = *std::min_element(values.begin(), values.end());
      const uint64_t max = *std::max_element(values.begin(), values.end());
      for (const int socket : {0, 1}) {
        const uint64_t* replica = array->GetReplica(socket);
        for (const uint64_t c : {uint64_t{0}, min - 1, min, min + 1, (min + max) / 2, max,
                                 max + 1, ~uint64_t{0}}) {
          for (const CmpOp op : kOps) {
            const Predicate p{op, c};
            for (const auto& [begin, end] : Ranges(n)) {
              const uint64_t words = (end - begin + kWordBits - 1) / kWordBits;
              std::vector<uint64_t> bitmap(words, ~uint64_t{0});
              const uint64_t selected = array->SelectIf(replica, begin, end, p, bitmap.data());
              uint64_t count = 0;
              uint64_t sum = 0;
              for (uint64_t j = 0; j < words * kWordBits; ++j) {
                const bool match = begin + j < end && Matches(p, values[begin + j]);
                count += match;
                sum += match ? values[begin + j] : 0;
                ASSERT_EQ((bitmap[j / kWordBits] >> (j % kWordBits)) & 1, match ? 1u : 0u)
                    << ToString(op) << " " << c << " [" << begin << ", " << end << ") bit " << j;
              }
              ASSERT_EQ(selected, count) << ToString(op) << " " << c;
              ASSERT_EQ(array->CountIf(replica, begin, end, p), count)
                  << ToString(op) << " " << c;
              ASSERT_EQ(array->FilteredSum(replica, begin, end, p), sum)
                  << ToString(op) << " " << c << " [" << begin << ", " << end << ")";
            }
          }
        }
      }
    }
  }
}

// Every chunk's zone is exactly its [min, max] right after the build, under
// every placement: the precondition for zone-pruned scans and for MIN/MAX
// from metadata.
TEST_P(EncodedArrayTest, PayloadZonesAreExact) {
  ColumnSet columns = AllColumns();
  columns.push_back(MixedData(50'017));
  columns.push_back(WideData(50'017));
  for (const Placement placement : kPlacements) {
    SCOPED_TRACE(ToString(placement));
    for (const auto& values : columns) {
      const auto array = Build(values, placement);
      for (uint64_t chunk = 0; chunk < array->num_chunks(); ++chunk) {
        const uint64_t lo = chunk * kChunkElems;
        const uint64_t hi = std::min<uint64_t>(values.size(), lo + kChunkElems);
        const auto [min, max] = std::minmax_element(values.begin() + lo, values.begin() + hi);
        ASSERT_EQ(array->ZoneMin(chunk), *min) << "n=" << values.size() << " chunk " << chunk;
        ASSERT_EQ(array->ZoneMax(chunk), *max) << "n=" << values.size() << " chunk " << chunk;
      }
    }
  }
}

// MIN/MAX of a table column in this encoding, folded from the chunk zones
// without decoding a row, is exactly what brute force over the raw values
// gives, under every placement: one-row, constant and full-64-bit columns
// (0 and UINT64_MAX present), and columns spanning several scheduling grains,
// so per-grain answers are merged.
TEST_P(EncodedArrayTest, MinMaxMatchesBruteForce) {
  ColumnSet columns = AllColumns();
  columns.push_back(MixedData(50'017));
  columns.push_back(WideData(50'017));
  for (const Placement placement : kPlacements) {
    SCOPED_TRACE(ToString(placement));
    for (const auto& values : columns) {
      table::Table::Builder builder;
      builder.AddColumn("v", values, encoding());
      const table::Table t = builder.Build(SpecFor(placement), topo_);
      ASSERT_EQ(t.column("v").encoding(), encoding());
      const table::MinMax got = table::MinMaxOf(pool_, t, "v");
      const auto [min, max] = std::minmax_element(values.begin(), values.end());
      ASSERT_EQ(got.min, *min) << "n=" << values.size();
      ASSERT_EQ(got.max, *max) << "n=" << values.size();
    }
  }
}

// Admits says exactly which writes Init takes: the current value always; any
// value that fits the width for bit-packed; only the chunk frame for
// frame-of-reference; only stored values for dictionary; only the run's own
// value for run-length. An admitted write lands on every replica and stays
// inside the chunk's zone; a refused one aborts Init.
TEST_P(EncodedArrayTest, AdmitsMatchesWhatInitStores) {
  for (const Placement placement : kPlacements) {
    SCOPED_TRACE(ToString(placement));
    std::vector<uint64_t> values = MixedData(2'000);
    auto array = Build(values, placement);
    const uint64_t stored = *std::max_element(values.begin(), values.end());
    const uint64_t absent = stored + 1;  // fits the width, stored nowhere
    ASSERT_LE(absent, array->max_value());
    for (uint64_t i = 0; i < values.size(); i += 97) {
      const uint64_t chunk = i / kChunkElems;
      EXPECT_TRUE(array->Admits(i, values[i])) << "index " << i;
      bool admits_stored = true;
      bool admits_absent = true;
      switch (encoding()) {
        case Encoding::kBitPacked:
          break;
        case Encoding::kForDelta: {
          const auto& fd = static_cast<const ForDeltaArray&>(*array);
          const uint64_t top = fd.base(chunk) + LowMask(fd.delta_bits());
          admits_stored = stored <= top;
          admits_absent = absent <= top;
          break;
        }
        case Encoding::kDictionary:
          admits_absent = false;
          break;
        case Encoding::kRunLength:
          admits_stored = stored == values[i];
          admits_absent = false;
          break;
      }
      EXPECT_EQ(array->Admits(i, stored), admits_stored) << "index " << i;
      EXPECT_EQ(array->Admits(i, absent), admits_absent) << "index " << i;
      EXPECT_FALSE(array->Admits(i, array->max_value() + 1)) << "index " << i;

      const uint64_t next = admits_stored ? stored : values[i];
      if (i % 2 == 0) {
        array->Init(i, next);
      } else {
        array->InitAtomic(i, next);
      }
      values[i] = next;
      for (int r = 0; r < array->num_replicas(); ++r) {
        ASSERT_EQ(array->Get(i, array->GetReplica(r)), next) << "index " << i << " replica " << r;
      }
      EXPECT_LE(array->ZoneMin(chunk), next);
      EXPECT_GE(array->ZoneMax(chunk), next);
    }
    // The untouched elements are unchanged.
    for (uint64_t i = 0; i < values.size(); ++i) {
      ASSERT_EQ(array->Get(i, array->GetReplica(0)), values[i]) << "index " << i;
    }
    // 0 lies below every frame, outside the dictionary and off every run.
    if (encoding() != Encoding::kBitPacked) {
      EXPECT_FALSE(array->Admits(5, 0));
      EXPECT_DEATH(array->Init(5, 0), "restructure to bit-packed first");
    }
  }
}

// TryRestructure (and through it the TryEncode factory) rebuilds this
// encoding under every placement from a source in every encoding, contents
// and zones intact.
TEST_P(EncodedArrayTest, RebuildsFromEveryEncoding) {
  const auto values = MixedData(3'000);
  for (const Encoding from : kEncodings) {
    const auto source = Encode(values, from, PlacementSpec::OsDefault(), topo_);
    for (const Placement placement : kPlacements) {
      SCOPED_TRACE(ToString(placement));
      const auto rebuilt =
          TryRestructure(pool_, *source, SpecFor(placement), 0, topo_, nullptr, encoding());
      ASSERT_NE(rebuilt, nullptr) << ToString(from);
      ASSERT_EQ(rebuilt->encoding(), encoding());
      ASSERT_EQ(rebuilt->bits(), source->bits());
      std::vector<uint64_t> out(values.size());
      rebuilt->RangeUnpack(rebuilt->GetReplica(rebuilt->num_replicas() - 1), 0, values.size(),
                           out.data());
      ASSERT_EQ(out, values) << ToString(from);
      for (uint64_t chunk = 0; chunk < rebuilt->num_chunks(); ++chunk) {
        ASSERT_EQ(rebuilt->ZoneMin(chunk), source->ZoneMin(chunk)) << ToString(from);
        ASSERT_EQ(rebuilt->ZoneMax(chunk), source->ZoneMax(chunk)) << ToString(from);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllEncodings, EncodedArrayTest,
                         ::testing::Values(Technique::kBitPacked, Technique::kDictionary,
                                           Technique::kRunLength, Technique::kFrameOfReference),
                         [](const auto& param_info) {
                           return std::string(Label(param_info.param));
                         });

TEST(EncodedArrayFootprintTest, EachTechniqueWinsOnItsData) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  const auto placement = PlacementSpec::Interleaved();
  auto footprint = [&](const std::vector<uint64_t>& values, Encoding e) {
    return Encode(values, e, placement, topo)->footprint_bytes();
  };

  // Long runs: RLE beats bit packing by orders of magnitude.
  std::vector<uint64_t> runs(100'000);
  for (size_t i = 0; i < runs.size(); ++i) {
    runs[i] = i / 5000;
  }
  EXPECT_LT(footprint(runs, Encoding::kRunLength) * 10, footprint(runs, Encoding::kBitPacked));

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
  EXPECT_LT(footprint(clustered, Encoding::kForDelta) * 2,
            footprint(clustered, Encoding::kBitPacked));
}

// Every word of the representation lives in the replica regions: under each
// placement footprint_bytes() is the replica count times both the words per
// replica and the OS-default footprint, so two-socket replication doubles
// it, and replica 1 alone serves the data.
TEST(EncodedArrayFootprintTest, ReplicationDoublesEveryEncoding) {
  const auto topo = platform::Topology::Synthetic(2, 2);
  const auto values = MixedData(20'000);
  for (const Encoding e : kEncodings) {
    SCOPED_TRACE(ToString(e));
    const uint64_t single = Encode(values, e, PlacementSpec::OsDefault(), topo)->footprint_bytes();
    for (const Placement placement : kPlacements) {
      const auto array = Encode(values, e, SpecFor(placement), topo);
      EXPECT_EQ(array->footprint_bytes(), array->num_replicas() * single) << ToString(placement);
      EXPECT_EQ(array->footprint_bytes(),
                array->num_replicas() * array->words_per_replica() * sizeof(uint64_t))
          << ToString(placement);
    }
    const auto replicated = Encode(values, e, PlacementSpec::Replicated(), topo);
    ASSERT_EQ(replicated->num_replicas(), 2);
    EXPECT_EQ(replicated->footprint_bytes(), 2 * single);
    for (uint64_t i = 0; i < values.size(); i += 111) {
      ASSERT_EQ(replicated->Get(i, replicated->GetReplica(1)), values[i]) << "index " << i;
    }
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
  const auto array = Encode(values, Encoding::kRunLength, PlacementSpec::OsDefault(), topo);
  EXPECT_EQ(static_cast<const RunLengthArray&>(*array).num_runs(), 50u);
  for (uint64_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(array->Get(i, array->GetReplica(0)), values[i]) << "index " << i;
  }
}

TEST(DictionaryArrayTest, CodesAreOrderPreserving) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  const std::vector<uint64_t> values = {100, 5, 100, 42, 5, 99};
  const auto array = Encode(values, Encoding::kDictionary, PlacementSpec::OsDefault(), topo);
  const auto& dictionary = static_cast<const DictionaryArray&>(*array);
  EXPECT_EQ(dictionary.dictionary_size(), 4u);  // {5, 42, 99, 100}
  EXPECT_EQ(dictionary.code_bits(), 2u);
  const uint64_t* replica = array->GetReplica(0);
  std::vector<uint64_t> codes(values.size());
  dictionary.RangeUnpackCodes(replica, 0, values.size(), codes.data());
  EXPECT_EQ(codes, (std::vector<uint64_t>{3, 0, 3, 1, 0, 2}));
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(dictionary.dictionary(replica)[codes[i]], values[i]);
    EXPECT_EQ(array->Get(i, replica), values[i]);
  }
}

TEST(FrameOfReferenceTest, DeltaBitsAreChunkLocal) {
  const auto topo = platform::Topology::Synthetic(1, 2);
  // Values huge, chunk-local spread tiny: deltas must be narrow.
  std::vector<uint64_t> values(256);
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] = (uint64_t{1} << 55) + (i / kChunkElems) * 1'000'000 + (i % 7);
  }
  const auto array = Encode(values, Encoding::kForDelta, PlacementSpec::OsDefault(), topo);
  EXPECT_LE(static_cast<const ForDeltaArray&>(*array).delta_bits(), 3u);
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(array->Get(i, array->GetReplica(0)), values[i]);
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
  const auto array = Encode(values, Encoding::kForDelta, PlacementSpec::OsDefault(), topo);
  ASSERT_EQ(static_cast<const ForDeltaArray&>(*array).delta_bits(), 3u);
  const uint64_t* replica = array->GetReplica(0);
  std::vector<uint64_t> bitmap((values.size() + kWordBits - 1) / kWordBits);
  for (uint64_t chunk = 0; chunk * kChunkElems < values.size(); ++chunk) {
    const uint64_t base = 5 + chunk * 1'000;
    for (const uint64_t c : {base - 1, base, base + 1, base + 6, base + 7, base + 8}) {
      for (const CmpOp op : kOps) {
        const Predicate p{op, c};
        const uint64_t count = array->SelectIf(replica, 0, values.size(), p, bitmap.data());
        uint64_t want = 0;
        for (size_t i = 0; i < values.size(); ++i) {
          const bool match = Matches(p, values[i]);
          want += match;
          ASSERT_EQ((bitmap[i / kWordBits] >> (i % kWordBits)) & 1, match ? 1u : 0u)
              << ToString(op) << " " << c << " row " << i;
        }
        ASSERT_EQ(count, want) << ToString(op) << " " << c;
      }
    }
  }
}

}  // namespace
}  // namespace sa::smart
