// Frame-of-reference + delta encoding: build from a bit-packed source,
// round-trip every accessor, run the pushdown scans against an oracle, and
// restructure in and out of the encoding. FoR stores per-chunk minima as
// frames and packs only the deltas, so clustered data (per-chunk locality)
// compresses well below its global width.
#include <gtest/gtest.h>

#include <vector>

#include "common/random.h"
#include "rts/worker_pool.h"
#include "smart/for_delta.h"
#include "smart/parallel_ops.h"
#include "smart/restructure.h"
#include "smart/smart_array.h"

namespace sa::smart {
namespace {

class ForDeltaTest : public ::testing::Test {
 protected:
  ForDeltaTest()
      : topo_(platform::Topology::Synthetic(1, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false}) {}

  // Clustered data: chunk c holds values in [c * 1000, c * 1000 + 255], so
  // frames grow with the chunk index while deltas stay 8-bit.
  std::unique_ptr<SmartArray> ClusteredSource(uint64_t n, std::vector<uint64_t>* oracle) {
    auto array = SmartArray::Allocate(n, PlacementSpec::OsDefault(), 32, topo_);
    Xoshiro256 rng(n);
    oracle->resize(n);
    for (uint64_t i = 0; i < n; ++i) {
      (*oracle)[i] = (i / kChunkElems) * 1000 + (rng() & 255);
    }
    PackRange(*array, 0, n, oracle->data());
    return array;
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
};

TEST_F(ForDeltaTest, BuildRoundTripsEveryAccessor) {
  const uint64_t n = 10'000;
  std::vector<uint64_t> oracle;
  auto source = ClusteredSource(n, &oracle);
  auto fd = ForDeltaArray::TryBuild(*source, PlacementSpec::OsDefault(), source->bits(), topo_);
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(fd->encoding(), Encoding::kForDelta);
  EXPECT_EQ(fd->bits(), 32u);
  // 255-wide deltas pack in 8 bits regardless of the frame magnitude.
  EXPECT_LE(static_cast<const ForDeltaArray&>(*fd).delta_bits(), 8u);
  EXPECT_LT(fd->footprint_bytes(), source->footprint_bytes());

  const uint64_t* replica = fd->GetReplica(0);
  for (uint64_t i = 0; i < n; i = (i < 200 ? i + 1 : i + 137)) {
    ASSERT_EQ(fd->Get(i, replica), oracle[i]) << "index " << i;
  }

  uint64_t want = 0;
  for (uint64_t i = 100; i < 9000; ++i) want += oracle[i];
  EXPECT_EQ(fd->RangeSum(replica, 100, 9000), want);

  std::vector<uint64_t> decoded(500);
  fd->RangeUnpack(replica, 700, 1200, decoded.data());
  for (uint64_t i = 0; i < 500; ++i) {
    ASSERT_EQ(decoded[i], oracle[700 + i]) << "index " << 700 + i;
  }
}

TEST_F(ForDeltaTest, ScansMatchOracleAcrossChunkFrames) {
  const uint64_t n = 10'000;
  std::vector<uint64_t> oracle;
  auto source = ClusteredSource(n, &oracle);
  auto fd = ForDeltaArray::TryBuild(*source, PlacementSpec::OsDefault(), source->bits(), topo_);
  ASSERT_NE(fd, nullptr);
  const uint64_t* replica = fd->GetReplica(0);

  // Bounds at frame seams: inside chunk 0's range, between chunks, above
  // every frame — each chunk translates the predicate into its own delta
  // domain, so these exercise kNone/kAll collapses and genuine scans.
  const uint64_t test_bounds[] = {0, 100, 1000, 50'000, 200'000, ~uint64_t{0}};
  const CmpOp ops[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt, CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
  for (const CmpOp op : ops) {
    for (const uint64_t c : test_bounds) {
      const Predicate p{op, c};
      uint64_t want_count = 0, want_sum = 0;
      for (uint64_t i = 0; i < n; ++i) {
        if (Matches(p, oracle[i])) {
          ++want_count;
          want_sum += oracle[i];
        }
      }
      ASSERT_EQ(fd->CountIf(replica, 0, n, p), want_count)
          << "op=" << ToString(op) << " c=" << c;
      ASSERT_EQ(fd->FilteredSum(replica, 0, n, p), want_sum)
          << "op=" << ToString(op) << " c=" << c;
      std::vector<uint64_t> bitmap((n + kWordBits - 1) / kWordBits);
      ASSERT_EQ(fd->SelectIf(replica, 0, n, p, bitmap.data()), want_count);
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ((bitmap[i / kWordBits] >> (i % kWordBits)) & 1,
                  Matches(p, oracle[i]) ? 1u : 0u)
            << "op=" << ToString(op) << " c=" << c << " index=" << i;
      }
    }
  }

  // Selective scans skip chunks through the (absolute) zone maps.
  ScanStats stats;
  fd->CountIf(replica, 0, n, {CmpOp::kLt, 500}, &stats);
  EXPECT_GT(stats.chunks_skipped, 0u);
}

TEST_F(ForDeltaTest, EstimateDeltaRatioRewardsClusteredData) {
  const uint64_t n = 10'000;
  std::vector<uint64_t> oracle;
  auto source = ClusteredSource(n, &oracle);
  // Chunk spans are ~255 out of 32-bit values: the ratio must be far below 1.
  EXPECT_LT(ForDeltaArray::EstimateDeltaRatio(*source), 0.5);

  // Uniform random data spans the whole width per chunk: no FoR win.
  auto uniform = SmartArray::Allocate(n, PlacementSpec::OsDefault(), 32, topo_);
  std::vector<uint64_t> values(n);
  Xoshiro256 rng(99);
  for (uint64_t i = 0; i < n; ++i) values[i] = rng() & LowMask(32);
  PackRange(*uniform, 0, n, values.data());
  EXPECT_GT(ForDeltaArray::EstimateDeltaRatio(*uniform), 0.8);
}

TEST_F(ForDeltaTest, WritesInsideTheFrameUpdateScans) {
  const uint64_t n = 1000;
  std::vector<uint64_t> oracle;
  auto source = ClusteredSource(n, &oracle);
  auto fd = ForDeltaArray::TryBuild(*source, PlacementSpec::OsDefault(), source->bits(), topo_);
  ASSERT_NE(fd, nullptr);
  const uint64_t* replica = fd->GetReplica(0);

  // Rewrite an element within its chunk's frame: value must round-trip and
  // the zone map must widen before the write lands (scan finds it).
  const uint64_t chunk = 5;
  const uint64_t base = static_cast<const ForDeltaArray*>(fd.get())->base(chunk);
  const uint64_t index = chunk * kChunkElems + 17;
  fd->Init(index, base);  // the frame itself is always in range
  EXPECT_EQ(fd->Get(index, replica), base);
  EXPECT_GE(fd->CountIf(replica, 0, n, {CmpOp::kEq, base}), 1u);
}

TEST_F(ForDeltaTest, WriteOutsideTheFrameAborts) {
  const uint64_t n = 1000;
  std::vector<uint64_t> oracle;
  auto source = ClusteredSource(n, &oracle);
  auto fd = ForDeltaArray::TryBuild(*source, PlacementSpec::OsDefault(), source->bits(), topo_);
  ASSERT_NE(fd, nullptr);
  // Chunk 5's frame starts at ~5000; zero is far below it.
  EXPECT_DEATH(fd->Init(5 * kChunkElems, 0), "chunk frame");
}

TEST_F(ForDeltaTest, RestructureRoundTripsBothDirections) {
  const uint64_t n = 5000;
  std::vector<uint64_t> oracle;
  auto source = ClusteredSource(n, &oracle);

  auto fd = TryRestructure(pool_, *source, PlacementSpec::OsDefault(), source->bits(), topo_,
                           nullptr, Encoding::kForDelta);
  ASSERT_NE(fd, nullptr);
  EXPECT_EQ(fd->encoding(), Encoding::kForDelta);

  // And back out to bit-packed at the minimal width.
  const uint32_t data_bits = MinimalBits(pool_, *fd);
  auto packed = TryRestructure(pool_, *fd, PlacementSpec::OsDefault(), data_bits, topo_,
                               nullptr, Encoding::kBitPacked);
  ASSERT_NE(packed, nullptr);
  EXPECT_EQ(packed->encoding(), Encoding::kBitPacked);

  const uint64_t* fr = fd->GetReplica(0);
  const uint64_t* pr = packed->GetReplica(0);
  for (uint64_t i = 0; i < n; i += 61) {
    ASSERT_EQ(fd->Get(i, fr), oracle[i]) << "index " << i;
    ASSERT_EQ(packed->Get(i, pr), oracle[i]) << "index " << i;
  }
  // The restructure paths rebuild zone maps: scans on both replicas agree
  // with the oracle after the round trip.
  uint64_t want = 0;
  for (uint64_t i = 0; i < n; ++i) want += oracle[i] < 2000 ? 1 : 0;
  EXPECT_EQ(fd->CountIf(fr, 0, n, {CmpOp::kLt, 2000}), want);
  EXPECT_EQ(packed->CountIf(pr, 0, n, {CmpOp::kLt, 2000}), want);
}

}  // namespace
}  // namespace sa::smart
