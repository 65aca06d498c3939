// Sharded telemetry primitives: exact sums under thread fan-out, gauge
// pairing, power-of-two histogram bucketing, the runtime kill switch, and
// monotonicity of aggregate-on-read while writers race (the torture test
// doubles as the TSan witness for the relaxed-atomic shard protocol).
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <thread>
#include <vector>

#include "obs/telemetry.h"

namespace sa::obs {
namespace {

class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetEnabled(true);
    ResetForTesting();
  }
  void TearDown() override {
    SetEnabled(true);
    ResetForTesting();
  }
};

TEST_F(TelemetryTest, ConcurrentIncrementsSumExactly) {
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 100'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (uint64_t i = 0; i < kPerThread; ++i) {
        Count(kFfiTransitions, 1);
      }
      Count(kSlotWrites, kPerThread);  // one bulk add per thread
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  // Relaxed per-shard adds lose nothing: the aggregate is exact.
  EXPECT_EQ(CounterValue(kFfiTransitions), kThreads * kPerThread);
  EXPECT_EQ(CounterValue(kSlotWrites), kThreads * kPerThread);
}

TEST_F(TelemetryTest, GaugePairsCancelAcrossThreads) {
  constexpr int kThreads = 6;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < 10'000; ++i) {
        GaugeAdd(kLiveSnapshots, 1);
        GaugeAdd(kLiveSnapshots, -1);
      }
      GaugeAdd(kRetiredVersions, 3);
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(GaugeValue(kLiveSnapshots), 0);
  EXPECT_EQ(GaugeValue(kRetiredVersions), 3 * kThreads);
}

TEST_F(TelemetryTest, HistogramBucketsSplitAtPowersOfTwo) {
  // Bucket 0 is the value 0; bucket i (1..64) covers [2^(i-1), 2^i).
  EXPECT_EQ(HistogramBucketIndex(0), 0);
  EXPECT_EQ(HistogramBucketIndex(1), 1);
  EXPECT_EQ(HistogramBucketIndex(2), 2);
  EXPECT_EQ(HistogramBucketIndex(3), 2);
  EXPECT_EQ(HistogramBucketIndex(4), 3);
  EXPECT_EQ(HistogramBucketIndex(7), 3);
  EXPECT_EQ(HistogramBucketIndex(8), 4);
  EXPECT_EQ(HistogramBucketIndex((uint64_t{1} << 10) - 1), 10);
  EXPECT_EQ(HistogramBucketIndex(uint64_t{1} << 10), 11);
  EXPECT_EQ(HistogramBucketIndex(~uint64_t{0}), 64);

  Record(kEpochReclaimNs, 0);
  Record(kEpochReclaimNs, 1);
  Record(kEpochReclaimNs, 1023);
  Record(kEpochReclaimNs, 1024);
  Record(kEpochReclaimNs, 1025);
  const HistogramSnapshot snap = HistogramValue(kEpochReclaimNs);
  EXPECT_EQ(snap.count, 5u);
  EXPECT_EQ(snap.sum, 0u + 1 + 1023 + 1024 + 1025);
  EXPECT_EQ(snap.buckets[0], 1u);   // 0
  EXPECT_EQ(snap.buckets[1], 1u);   // 1
  EXPECT_EQ(snap.buckets[10], 1u);  // 1023 = 2^10 - 1
  EXPECT_EQ(snap.buckets[11], 2u);  // 1024, 1025
}

TEST_F(TelemetryTest, RecordsFromManyThreadsLandInDistinctShards) {
  // Each thread gets its own shard hint; the aggregate still sees them all.
  constexpr int kThreads = 16;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] { Record(kDaemonPassNs, uint64_t{1} << (t % 8)); });
  }
  for (auto& t : threads) {
    t.join();
  }
  EXPECT_EQ(HistogramValue(kDaemonPassNs).count, static_cast<uint64_t>(kThreads));
}

TEST_F(TelemetryTest, KillSwitchStopsCountersButNotGauges) {
  SetEnabled(false);
  EXPECT_FALSE(Enabled());
  Count(kPublishes, 5);
  Record(kDaemonPassNs, 42);
  EXPECT_EQ(CounterValue(kPublishes), 0u);
  EXPECT_EQ(HistogramValue(kDaemonPassNs).count, 0u);
  // Gauges ignore the runtime switch: +/- pairs must stay balanced even if
  // the switch flips between the two halves.
  GaugeAdd(kLiveSnapshots, 1);
  SetEnabled(true);
  GaugeAdd(kLiveSnapshots, -1);
  EXPECT_EQ(GaugeValue(kLiveSnapshots), 0);
  Count(kPublishes, 2);
  EXPECT_EQ(CounterValue(kPublishes), 2u);
}

TEST_F(TelemetryTest, ExportedNamesArePrometheusLegal) {
  EXPECT_STREQ(CounterName(kSnapshotAcquires), "sa_snapshot_acquires_total");
  EXPECT_STREQ(CounterName(kDaemonSampleDrops), "sa_daemon_sample_drops_total");
  EXPECT_STREQ(CounterName(kFfiTransitions), "sa_ffi_transitions_total");
  EXPECT_STREQ(GaugeName(kLiveSnapshots), "sa_live_snapshots");
  EXPECT_STREQ(HistogramName(kRestructureWallNs), "sa_restructure_wall_ns");
  for (int i = 0; i < kCounterIdCount; ++i) {
    const char* name = CounterName(static_cast<CounterId>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_EQ(std::strncmp(name, "sa_", 3), 0) << name;
    const size_t len = std::strlen(name);
    EXPECT_EQ(std::strcmp(name + len - 6, "_total"), 0) << name;
  }
}

// Torture: writers hammer one counter while a reader keeps aggregating.
// Every aggregated value must be monotonic (relaxed loads of the same
// atomics are coherence-ordered), and the final sum exact. Under the TSan
// job this is also the data-race witness for the shard protocol.
TEST_F(TelemetryTest, AggregateIsMonotonicWhileWritersRace) {
  constexpr int kWriters = 4;
  constexpr uint64_t kPerWriter = 200'000;
  std::atomic<bool> stop{false};
  std::atomic<bool> failed{false};

  std::thread reader([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const uint64_t now = CounterValue(kSnapshotReads);
      if (now < last) {
        failed.store(true, std::memory_order_relaxed);
        return;
      }
      last = now;
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([] {
      for (uint64_t i = 0; i < kPerWriter; ++i) {
        Count(kSnapshotReads, 1);
        Record(kEpochReclaimNs, i);
        GaugeAdd(kLiveSnapshots, (i & 1) != 0 ? -1 : 1);
      }
    });
  }
  for (auto& w : writers) {
    w.join();
  }
  stop.store(true, std::memory_order_release);
  reader.join();

  EXPECT_FALSE(failed.load()) << "aggregated counter went backwards";
  EXPECT_EQ(CounterValue(kSnapshotReads), kWriters * kPerWriter);
  EXPECT_EQ(HistogramValue(kEpochReclaimNs).count, kWriters * kPerWriter);
}

}  // namespace
}  // namespace sa::obs
