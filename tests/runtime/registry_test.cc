// ArrayRegistry: snapshot consistency under concurrent restructures
// (differential vs a single-threaded oracle, no torn reads), write/publish
// serialization, and retire-only-after-pins-drain reclamation.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/bits.h"
#include "runtime/registry.h"
#include "smart/for_delta.h"
#include "smart/restructure.h"
#include "smart/smart_array.h"

namespace sa::runtime {
namespace {

class ArrayRegistryTest : public ::testing::Test {
 protected:
  ArrayRegistryTest() : topo_(platform::Topology::Synthetic(2, 2)), registry_(topo_) {}

  // Builds storage holding oracle[i] in the given shape, ready to Publish.
  std::unique_ptr<smart::SmartArray> Build(const std::vector<uint64_t>& oracle,
                                           smart::PlacementSpec placement, uint32_t bits) {
    auto storage = smart::SmartArray::Allocate(oracle.size(), placement, bits, topo_);
    for (uint64_t i = 0; i < oracle.size(); ++i) {
      storage->Init(i, oracle[i]);
    }
    return storage;
  }

  platform::Topology topo_;
  ArrayRegistry registry_;
};

TEST_F(ArrayRegistryTest, CreateOpenAndInitialState) {
  ArraySlot* slot =
      registry_.Create("ranks", 1000, smart::PlacementSpec::Interleaved(), 64);
  ASSERT_NE(slot, nullptr);
  EXPECT_EQ(registry_.Open("ranks"), slot);
  EXPECT_EQ(registry_.Open("absent"), nullptr);
  EXPECT_EQ(registry_.size(), 1u);
  EXPECT_EQ(slot->length(), 1000u);
  EXPECT_EQ(slot->bits(), 64u);
  EXPECT_EQ(slot->sequence(), 0u);
  EXPECT_EQ(slot->placement().kind, smart::Placement::kInterleaved);
}

TEST_F(ArrayRegistryTest, WritesReadBackAndTrackWidth) {
  ArraySlot* slot = registry_.Create("w", 64, smart::PlacementSpec::Interleaved(), 64);
  slot->Write(3, uint64_t{1} << 40);
  slot->Write(3, 5);  // narrower overwrite must not shrink the tracked width
  slot->Write(7, 123);
  ArraySnapshot snap = slot->Acquire();
  EXPECT_EQ(snap.Get(3), 5u);
  EXPECT_EQ(snap.Get(7), 123u);
  EXPECT_EQ(slot->write_count(), 3u);
  EXPECT_EQ(slot->max_written_bits(), 41u);
}

TEST_F(ArrayRegistryTest, WriteWiderThanStorageDies) {
  ArraySlot* slot = registry_.Create("narrow", 64, smart::PlacementSpec::Interleaved(), 8);
  slot->Write(0, 255);
  EXPECT_DEATH(slot->Write(0, 256), "width");
}

TEST_F(ArrayRegistryTest, SnapshotClassifiesSequentialVersusRandom) {
  ArraySlot* slot = registry_.Create("c", 256, smart::PlacementSpec::Interleaved(), 64);
  {
    ArraySnapshot snap = slot->Acquire();
    for (uint64_t i = 0; i < 10; ++i) {
      snap.Get(i);  // first access counts as random, the next 9 as sequential
    }
    snap.Get(100);          // jump: random
    snap.Get(101);          // sequential
    snap.SumRange(0, 256);  // 256 sequential
  }
  const SlotSample sample = slot->DrainSample();
  EXPECT_EQ(sample.sequential_reads, 9u + 1u + 256u);
  EXPECT_EQ(sample.random_reads, 2u);
  EXPECT_EQ(sample.pins, 1u);
  EXPECT_GT(sample.seconds, 0.0);
  // A second drain only sees what happened since.
  EXPECT_EQ(slot->DrainSample().reads(), 0u);
}

TEST_F(ArrayRegistryTest, PublishSwapsVersionWhileOldSnapshotStaysConsistent) {
  const uint64_t n = 500;
  std::vector<uint64_t> oracle(n);
  for (uint64_t i = 0; i < n; ++i) {
    oracle[i] = (i * 37) & LowMask(12);
  }
  ArraySlot* slot = registry_.Create("p", n, smart::PlacementSpec::Interleaved(), 64);
  ASSERT_TRUE(
      registry_.Publish(*slot, Build(oracle, smart::PlacementSpec::Interleaved(), 64), 0));

  ArraySnapshot old_snap = slot->Acquire();
  EXPECT_EQ(old_snap.sequence(), 1u);

  ASSERT_TRUE(
      registry_.Publish(*slot, Build(oracle, smart::PlacementSpec::Replicated(), 12), 0));
  EXPECT_EQ(slot->sequence(), 2u);
  EXPECT_EQ(slot->bits(), 12u);

  // The old snapshot still reads its own version...
  EXPECT_EQ(old_snap.sequence(), 1u);
  EXPECT_EQ(old_snap.bits(), 64u);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(old_snap.Get(i), oracle[i]);
  }
  // ...while a fresh acquire sees the new one.
  ArraySnapshot fresh = slot->Acquire();
  EXPECT_EQ(fresh.sequence(), 2u);
  for (uint64_t i = 0; i < n; ++i) {
    ASSERT_EQ(fresh.Get(i), oracle[i]);
  }
}

TEST_F(ArrayRegistryTest, PublishRefusedWhenWritesRacedTheRebuild) {
  const uint64_t n = 100;
  ArraySlot* slot = registry_.Create("r", n, smart::PlacementSpec::Interleaved(), 64);
  const uint64_t writes_before = slot->write_count();  // "rebuild starts here"
  slot->Write(0, 42);                                  // ...then a write lands
  std::vector<uint64_t> stale(n, 0);
  EXPECT_FALSE(registry_.Publish(
      *slot, Build(stale, smart::PlacementSpec::Interleaved(), 64), writes_before));
  EXPECT_EQ(slot->sequence(), 0u);  // refused publishes leave the slot alone
  ArraySnapshot snap = slot->Acquire();
  EXPECT_EQ(snap.Get(0), 42u);  // the racing write was not lost

  // With the current write count the publish goes through.
  std::vector<uint64_t> fresh(n, 0);
  fresh[0] = 42;
  EXPECT_TRUE(registry_.Publish(*slot, Build(fresh, smart::PlacementSpec::Interleaved(), 64),
                                slot->write_count()));
  EXPECT_EQ(slot->sequence(), 1u);
}

TEST_F(ArrayRegistryTest, RetiredStorageOutlivesEveryPinTakenBeforeTheSwap) {
  const uint64_t n = 100;
  std::vector<uint64_t> oracle(n, 7);
  ArraySlot* slot = registry_.Create("e", n, smart::PlacementSpec::Interleaved(), 64);

  ArraySnapshot pinned = slot->Acquire();  // pins the initial version
  ASSERT_TRUE(
      registry_.Publish(*slot, Build(oracle, smart::PlacementSpec::Replicated(), 8), 0));
  ASSERT_EQ(registry_.epoch().retired_count(), 1u);

  // While the snapshot is pinned the retired version must survive any number
  // of reclaim attempts — and must stay fully readable.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(registry_.Reclaim(), 0u);
  }
  EXPECT_EQ(registry_.epoch().retired_count(), 1u);
  EXPECT_EQ(pinned.sequence(), 0u);
  pinned.Get(n / 2);

  pinned.Release();
  size_t reclaimed = 0;
  for (int i = 0; i < 5 && reclaimed == 0; ++i) {
    reclaimed += registry_.Reclaim();
  }
  EXPECT_EQ(reclaimed, 1u);
  EXPECT_EQ(registry_.epoch().retired_count(), 0u);
}

// The tentpole guarantee: concurrent readers differentially checked against
// a single-threaded oracle while the storage is restructured underneath them
// — every element of every snapshot matches, including cross-word 33-bit
// layouts where a torn read would surface as a corrupt value.
TEST_F(ArrayRegistryTest, ConcurrentReadersSeeOracleContentsAcrossRestructures) {
  const uint64_t n = 8192;
  std::vector<uint64_t> oracle(n);
  uint64_t oracle_sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    oracle[i] = (i * 2654435761u) & LowMask(12);
    oracle_sum += oracle[i];
  }
  ArraySlot* slot = registry_.Create("hot", n, smart::PlacementSpec::Interleaved(), 64);
  ASSERT_TRUE(
      registry_.Publish(*slot, Build(oracle, smart::PlacementSpec::Interleaved(), 64), 0));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> snapshots_checked{0};
  std::vector<std::thread> readers;
  const int kReaders = 4;
  readers.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      uint64_t stride = 97 + t;
      while (!stop.load(std::memory_order_acquire)) {
        ArraySnapshot snap = slot->Acquire();
        // Point reads against the oracle...
        for (uint64_t i = t; i < n; i += stride) {
          if (snap.Get(i) != oracle[i]) {
            ADD_FAILURE() << "torn/corrupt read at " << i << " seq " << snap.sequence();
            stop.store(true, std::memory_order_release);
            return;
          }
        }
        // ...and a block-kernel scan of the full range.
        if (snap.SumRange(0, n) != oracle_sum) {
          ADD_FAILURE() << "inconsistent sum at seq " << snap.sequence();
          stop.store(true, std::memory_order_release);
          return;
        }
        snapshots_checked.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  // Publisher: rotate through layouts (including the cross-word 33-bit one)
  // while readers hammer the slot, reclaiming as pins drain.
  const struct {
    smart::PlacementSpec placement;
    uint32_t bits;
  } configs[] = {
      {smart::PlacementSpec::Replicated(), 12},
      {smart::PlacementSpec::Interleaved(), 33},
      {smart::PlacementSpec::SingleSocket(1), 64},
      {smart::PlacementSpec::Interleaved(), 12},
  };
  const int kPublishes = 24;
  for (int p = 0; p < kPublishes; ++p) {
    const auto& config = configs[p % 4];
    ASSERT_TRUE(registry_.Publish(*slot, Build(oracle, config.placement, config.bits), 0));
    registry_.Reclaim();
  }
  // Let readers observe the final version too, then stop them.
  while (snapshots_checked.load(std::memory_order_relaxed) < 8 * kReaders &&
         !stop.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : readers) {
    t.join();
  }

  EXPECT_EQ(slot->sequence(), 1u + kPublishes);
  EXPECT_GT(snapshots_checked.load(), 0u);
  // All pins are gone: bounded reclaim passes drain every retired version.
  for (int i = 0; i < 10 && registry_.epoch().retired_count() != 0; ++i) {
    registry_.Reclaim();
  }
  EXPECT_EQ(registry_.epoch().retired_count(), 0u);
  EXPECT_EQ(registry_.epoch().pinned_count(), 0);
}

TEST_F(ArrayRegistryTest, SnapshotScansMatchOracleAndSampleSelectivity) {
  const uint64_t n = 2000;
  std::vector<uint64_t> oracle(n);
  for (uint64_t i = 0; i < n; ++i) {
    oracle[i] = (i * 131) & LowMask(14);
  }
  ArraySlot* slot = registry_.Create("scan", n, smart::PlacementSpec::Interleaved(), 14);
  ASSERT_TRUE(registry_.Publish(*slot, Build(oracle, smart::PlacementSpec::Interleaved(), 14), 0));

  const smart::Predicate p{smart::CmpOp::kLt, 1000};
  uint64_t want_count = 0, want_sum = 0;
  for (uint64_t i = 0; i < n; ++i) {
    if (oracle[i] < 1000) {
      ++want_count;
      want_sum += oracle[i];
    }
  }
  {
    ArraySnapshot snap = slot->Acquire();
    EXPECT_EQ(snap.CountIf(0, n, p), want_count);
    EXPECT_EQ(snap.FilteredSum(0, n, p), want_sum);
    std::vector<uint64_t> bitmap((n + 63) / 64);
    EXPECT_EQ(snap.SelectIf(0, n, p, bitmap.data()), want_count);
  }
  // Two match-reporting scans over n elements each drive the selectivity
  // sample the daemon feeds the §6 encoding decision.
  const SlotSample sample = slot->DrainSample();
  EXPECT_EQ(sample.predicate_elems, 2 * n);
  EXPECT_EQ(sample.predicate_matches, 2 * want_count);
  const double selectivity = sample.predicate_selectivity();
  EXPECT_NEAR(selectivity, static_cast<double>(want_count) / n, 1e-9);
  // A slot that never scanned reports "no sample", not zero selectivity.
  ArraySlot* idle = registry_.Create("idle", 64, smart::PlacementSpec::Interleaved(), 8);
  EXPECT_LT(idle->DrainSample().predicate_selectivity(), 0.0);
}

TEST_F(ArrayRegistryTest, ForDeltaVersionServesReadsWritesAndScans) {
  const uint64_t n = 1500;
  std::vector<uint64_t> oracle(n);
  for (uint64_t i = 0; i < n; ++i) {
    oracle[i] = (i / sa::kChunkElems) * 500 + (i % 37);
  }
  ArraySlot* slot = registry_.Create("fd", n, smart::PlacementSpec::OsDefault(), 32);
  // Publish a frame-of-reference version, as the daemon would after the
  // selector picks the encoding.
  auto packed = Build(oracle, smart::PlacementSpec::OsDefault(), 32);
  auto fd = smart::ForDeltaArray::TryBuild(*packed, smart::PlacementSpec::OsDefault(), 32, topo_);
  ASSERT_NE(fd, nullptr);
  ASSERT_TRUE(registry_.Publish(*slot, std::move(fd), 0));

  ArraySnapshot snap = slot->Acquire();
  // Get and SumRange route through the virtual fallback (no codec shortcut
  // for non-bit-packed versions).
  EXPECT_EQ(snap.Get(1234), oracle[1234]);
  uint64_t want = 0;
  for (uint64_t i = 64; i < 1400; ++i) want += oracle[i];
  EXPECT_EQ(snap.SumRange(64, 1400), want);
  uint64_t want_count = 0;
  for (uint64_t i = 0; i < n; ++i) want_count += oracle[i] < 3000 ? 1 : 0;
  EXPECT_EQ(snap.CountIf(0, n, {smart::CmpOp::kLt, 3000}), want_count);
  snap.Release();

  // FetchAdd reads through the virtual interface and writes back through
  // InitAtomic; the delta stays inside the chunk frame.
  const uint64_t old = slot->FetchAdd(10, 3);
  EXPECT_EQ(old, oracle[10]);
  ArraySnapshot after = slot->Acquire();
  EXPECT_EQ(after.Get(10), oracle[10] + 3);
}


// A read-optimised version holds values only in place: a kForDelta chunk
// to its frame, a kDictionary version to its dictionary, a kRunLength
// version to each run's value. A value that fits the slot's width can still
// fall outside, and the failable writes refuse it instead of aborting (the
// checked Write and FetchAdd still abort); admitted values still land.
TEST_F(ArrayRegistryTest, TryWritesRefuseValuesOutsideForDeltaFrames) {
  const uint64_t n = 1024;
  const uint64_t base = uint64_t{1} << 39;
  for (const smart::Encoding encoding :
       {smart::Encoding::kForDelta, smart::Encoding::kDictionary, smart::Encoding::kRunLength}) {
    SCOPED_TRACE(smart::ToString(encoding));
    ArraySlot* slot = registry_.Create(std::string("frames.") + smart::ToString(encoding), n,
                                       smart::PlacementSpec::Interleaved(), 40);
    std::vector<uint64_t> oracle(n);
    for (uint64_t i = 0; i < n; ++i) {
      oracle[i] = base + i % sa::kChunkElems;
      slot->Write(i, oracle[i]);
    }
    slot->SealWrites();
    {
      ArraySnapshot snap = slot->Acquire();
      auto version = smart::TryEncode(snap.array(), encoding,
                                      smart::PlacementSpec::Interleaved(), 0, topo_);
      ASSERT_NE(version, nullptr);
      snap.Release();
      ASSERT_TRUE(registry_.Publish(*slot, std::move(version), slot->write_count()));
    }
    {
      ArraySnapshot snap = slot->Acquire();
      ASSERT_EQ(snap.array().encoding(), encoding);
      // Reads and scans of the published version match the oracle.
      uint64_t sum = 0;
      uint64_t below = 0;
      for (uint64_t i = 0; i < n; ++i) {
        ASSERT_EQ(snap.Get(i), oracle[i]) << "index " << i;
        sum += oracle[i];
        below += oracle[i] < base + 20;
      }
      EXPECT_EQ(snap.SumRange(0, n), sum);
      EXPECT_EQ(snap.CountIf(0, n, {smart::CmpOp::kLt, base + 20}), below);
    }

    const uint64_t writes = slot->write_count();
    EXPECT_FALSE(slot->TryWrite(5, 7));
    uint64_t old = 0;
    EXPECT_FALSE(slot->TryFetchAdd(5, uint64_t{1} << 38, &old));
    EXPECT_EQ(slot->write_count(), writes);
    EXPECT_EQ(slot->Acquire().Get(5), base + 5);

    // In place: inside the frame, in the dictionary, or the run's own value.
    const uint64_t admitted = encoding == smart::Encoding::kRunLength ? base + 5 : base + 9;
    const uint64_t step = encoding == smart::Encoding::kRunLength ? 0 : 1;
    EXPECT_TRUE(slot->TryWrite(5, admitted));
    ASSERT_TRUE(slot->TryFetchAdd(5, step, &old));
    EXPECT_EQ(old, admitted);
    EXPECT_EQ(slot->Acquire().Get(5), admitted + step);
  }
}

}  // namespace
}  // namespace sa::runtime
