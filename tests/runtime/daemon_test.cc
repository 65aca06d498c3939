// AdaptationDaemon: deterministic decision/rebuild/publish via AdaptSlot
// with crafted §6 counters, counter synthesis from interval samples, hint
// derivation, and the background-thread plumbing.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "obs/telemetry.h"
#include "runtime/daemon.h"
#include "runtime/entry_points.h"
#include "sim/machine_spec.h"

namespace sa::runtime {
namespace {

// The §5.1 memory-bound streaming shape: read-only scans saturating memory
// and interconnect with compute headroom.
adapt::WorkloadCounters MemBoundStreamingCounters(const adapt::MachineCaps& caps) {
  adapt::WorkloadCounters c;
  c.exec_current_per_socket = caps.exec_max_per_socket * 0.2;
  c.bw_current_memory = std::min(caps.bw_max_memory, 2 * caps.bw_max_interconnect) * 0.95;
  c.max_mem_utilization = 0.95;
  c.max_ic_utilization = 0.92;
  c.accesses_per_second = c.bw_current_memory * 2 / 8.0;
  c.elem_bytes = 8.0;
  c.dataset_bytes = 1e9;
  return c;
}

class AdaptationDaemonTest : public ::testing::Test {
 protected:
  AdaptationDaemonTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}),
        registry_(topo_),
        machine_(adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core())),
        costs_(adapt::ArrayCosts::FromCostModel(sim::CostModel::Default())) {}

  AdaptationDaemon MakeDaemon(DaemonOptions options = {}) {
    return AdaptationDaemon(registry_, pool_, machine_, costs_, options);
  }

  // A slot in the profiling shape (interleaved, uncompressed) holding 10-bit
  // values, with a read-only lifetime profile of several linear passes —
  // exactly the §5.1 candidate for replicated + compressed.
  ArraySlot* MakeReadOnlySlot(const std::string& name, uint64_t n) {
    ArraySlot* slot = registry_.Create(name, n, smart::PlacementSpec::Interleaved(), 64);
    auto storage =
        smart::SmartArray::Allocate(n, smart::PlacementSpec::Interleaved(), 64, topo_);
    for (uint64_t i = 0; i < n; ++i) {
      storage->Init(i, i % 1024);
    }
    EXPECT_TRUE(registry_.Publish(*slot, std::move(storage), 0));
    for (int pass = 0; pass < 3; ++pass) {
      ArraySnapshot snap = slot->Acquire();
      snap.SumRange(0, n);
    }
    return slot;
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  ArrayRegistry registry_;
  adapt::MachineCaps machine_;
  adapt::ArrayCosts costs_;
};

TEST_F(AdaptationDaemonTest, AdaptSlotPublishesReplicatedCompressedForMemBoundReadOnly) {
  const uint64_t n = 10'000;
  ArraySlot* slot = MakeReadOnlySlot("ranks", n);
  AdaptationDaemon daemon = MakeDaemon();

  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(daemon.adaptations(), 1u);
  EXPECT_EQ(slot->placement().kind, smart::Placement::kReplicated);
  EXPECT_EQ(slot->bits(), 10u);
  EXPECT_EQ(slot->sequence(), 2u);

  // Contents survived the restructure (read through a fresh snapshot).
  ArraySnapshot snap = slot->Acquire();
  for (uint64_t i = 0; i < n; i += 97) {
    ASSERT_EQ(snap.Get(i), i % 1024);
  }

  // Same counters on the new configuration: the choice is stable, no
  // ping-pong rebuild.
  EXPECT_FALSE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(slot->sequence(), 2u);
}

TEST_F(AdaptationDaemonTest, AdaptSlotLeavesCpuBoundSlotAlone) {
  ArraySlot* slot = MakeReadOnlySlot("cpu", 4096);
  AdaptationDaemon daemon = MakeDaemon();
  adapt::WorkloadCounters counters = MemBoundStreamingCounters(machine_);
  counters.max_mem_utilization = 0.2;  // not memory bound: nothing to buy
  counters.max_ic_utilization = 0.2;
  EXPECT_FALSE(daemon.AdaptSlot(*slot, counters));
  EXPECT_EQ(slot->sequence(), 1u);
  EXPECT_EQ(daemon.adaptations(), 0u);
}

TEST_F(AdaptationDaemonTest, HysteresisMarginBlocksMarginalWins) {
  ArraySlot* slot = MakeReadOnlySlot("stable", 4096);
  DaemonOptions options;
  options.min_predicted_win = 100.0;  // no realistic prediction clears 100x
  AdaptationDaemon daemon = MakeDaemon(options);
  EXPECT_FALSE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(slot->sequence(), 1u);
}

// Every caller of the restructure path honours the retired-debt bound, not
// only the background passes.
using DaemonTest = AdaptationDaemonTest;

TEST_F(DaemonTest, AdaptSlotStopsAtRetiredDebtBound) {
  ArraySlot* slot = MakeReadOnlySlot("debt.direct", 4096);
  // Every call flips the configuration: any change clears the margin, and
  // without the audit there is no flap hold.
  DaemonOptions options;
  options.min_predicted_win = -1.0;
  options.audit = false;
  AdaptationDaemon daemon = MakeDaemon(options);
  adapt::WorkloadCounters cpu_bound = MemBoundStreamingCounters(machine_);
  cpu_bound.max_mem_utilization = 0.2;
  cpu_bound.max_ic_utilization = 0.2;
  // One parked reader: no retired version can be reclaimed.
  ArraySnapshot parked = slot->TryAcquire();
  ASSERT_TRUE(parked.valid());
  for (int call = 0; call < 200; ++call) {
    daemon.AdaptSlot(*slot, call % 2 == 0 ? MemBoundStreamingCounters(machine_) : cpu_bound);
  }
  EXPECT_GE(slot->epoch().retired_count(), kMaxRetiredDebt);
  EXPECT_LE(slot->epoch().retired_count(), kMaxRetiredDebt + 1);
}

// An adaptive array is one registry slot that its owner adapts with
// AdaptSlot on a profile it measured itself (examples/compression_lab.cpp
// §4): the slot keeps the array's identity across rebuilds.
class AdaptiveArrayTest : public AdaptationDaemonTest {
 protected:
  // 10,000 elements of `data_bits`-wide values in the interleaved,
  // uncompressed profiling shape, read by three linear passes.
  ArraySlot* Make(uint32_t data_bits) {
    ArraySlot* slot =
        registry_.Create("adaptive", 10'000, smart::PlacementSpec::Interleaved(), 64);
    for (uint64_t i = 0; i < slot->length(); ++i) {
      slot->Write(i, i % (uint64_t{1} << data_bits));
    }
    slot->SealWrites();
    for (int pass = 0; pass < 3; ++pass) {
      slot->Acquire().SumRange(0, slot->length());
    }
    return slot;
  }
};

TEST_F(AdaptiveArrayTest, MeasuresDataWidthUpFront) {
  ArraySlot* slot = Make(13);
  EXPECT_EQ(slot->bits(), 64u);
  EXPECT_EQ(slot->placement().kind, smart::Placement::kInterleaved);
  AdaptationDaemon daemon = MakeDaemon();
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  // The decision priced the compressed candidate at the measured width,
  // before any rebuild, and the rebuild stored exactly that width.
  SaSlotDecision decision;
  ASSERT_EQ(saSlotExplainPublished(slot, &decision), 1u);
  EXPECT_EQ((decision.packed_chosen >> 16) & 0xff, 13u);
  EXPECT_EQ(slot->bits(), 13u);
}

TEST_F(AdaptiveArrayTest, AdaptsToMemoryBoundProfile) {
  ArraySlot* slot = Make(10);
  AdaptationDaemon daemon = MakeDaemon();
  EXPECT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  // 18-core, read-only, memory-bound, big compute headroom: the §5.1 answer
  // is replicated + compressed, and the storage must now implement it.
  EXPECT_EQ(slot->placement().kind, smart::Placement::kReplicated);
  EXPECT_EQ(slot->bits(), 10u);
  // Contents survived the restructure on every replica.
  ArraySnapshot snap = slot->Acquire();
  for (int s = 0; s < topo_.num_sockets(); ++s) {
    for (uint64_t i = 0; i < snap.length(); i += 97) {
      ASSERT_EQ(snap.array().Get(i, snap.array().GetReplica(s)), i % 1024);
    }
  }
  EXPECT_EQ(daemon.adaptations(), 1u);
}

TEST_F(AdaptiveArrayTest, StableProfileDoesNotThrash) {
  ArraySlot* slot = Make(10);
  AdaptationDaemon daemon = MakeDaemon();
  const adapt::WorkloadCounters counters = MemBoundStreamingCounters(machine_);
  ASSERT_TRUE(daemon.AdaptSlot(*slot, counters));
  const uint64_t sequence = slot->sequence();
  for (int repeat = 0; repeat < 3; ++repeat) {
    EXPECT_FALSE(daemon.AdaptSlot(*slot, counters));  // same decision, no rebuild
  }
  EXPECT_EQ(slot->sequence(), sequence);
  EXPECT_EQ(daemon.adaptations(), 1u);
}

TEST_F(AdaptiveArrayTest, CpuBoundProfileKeepsInterleavedUncompressed) {
  ArraySlot* slot = Make(10);
  AdaptationDaemon daemon = MakeDaemon();
  adapt::WorkloadCounters counters = MemBoundStreamingCounters(machine_);
  counters.max_mem_utilization = 0.2;  // not memory bound at all
  counters.max_ic_utilization = 0.2;
  EXPECT_FALSE(daemon.AdaptSlot(*slot, counters));
  EXPECT_EQ(slot->placement().kind, smart::Placement::kInterleaved);
  EXPECT_EQ(slot->bits(), 64u);
}

TEST_F(AdaptationDaemonTest, SynthesizeCountersMapsSampleToRates) {
  SlotSample sample;
  sample.sequential_reads = 3000;
  sample.random_reads = 1000;
  sample.writes = 0;
  sample.seconds = 2.0;
  const adapt::WorkloadCounters c =
      AdaptationDaemon::SynthesizeCounters(sample, /*length=*/1000, machine_,
                                           /*cycles_per_access=*/4.0);
  EXPECT_DOUBLE_EQ(c.accesses_per_second, 2000.0);
  EXPECT_DOUBLE_EQ(c.random_fraction, 0.25);
  EXPECT_DOUBLE_EQ(c.dataset_bytes, 8000.0);
  // 2000 accesses/s * 8 B / 2 sockets of demand against a real machine's
  // caps: utilizations are tiny but well-formed, and the estimator's
  // preconditions (positive exec and bandwidth) hold.
  EXPECT_GT(c.exec_current_per_socket, 0.0);
  EXPECT_GT(c.bw_current_memory, 0.0);
  EXPECT_GE(c.max_mem_utilization, 0.0);
  EXPECT_LE(c.max_mem_utilization, 1.0);
  EXPECT_GE(c.max_ic_utilization, 0.0);
  EXPECT_LE(c.max_ic_utilization, 1.0);
  EXPECT_FALSE(c.memory_bound());
}

TEST_F(AdaptationDaemonTest, HintsTrackLifetimeReadsAndWrites) {
  const uint64_t n = 2048;
  ArraySlot* slot = MakeReadOnlySlot("hints", n);
  adapt::SoftwareHints hints = AdaptationDaemon::HintsFor(*slot);
  EXPECT_TRUE(hints.read_only);
  EXPECT_TRUE(hints.mostly_reads);
  EXPECT_DOUBLE_EQ(hints.linear_passes, 3.0);
  EXPECT_DOUBLE_EQ(hints.random_passes, 0.0);

  slot->Write(0, 1);
  hints = AdaptationDaemon::HintsFor(*slot);
  EXPECT_FALSE(hints.read_only);
  EXPECT_TRUE(hints.mostly_reads);  // one write vs 3 * 2048 reads
}

TEST_F(AdaptationDaemonTest, RunOnceSkipsThinSamplesAndCountsPasses) {
  ArraySlot* slot = registry_.Create("thin", 256, smart::PlacementSpec::Interleaved(), 64);
  {
    ArraySnapshot snap = slot->Acquire();
    snap.Get(0);
    snap.Get(1);  // far below min_sampled_accesses
  }
  AdaptationDaemon daemon = MakeDaemon();
  EXPECT_EQ(daemon.RunOnce(), 0);
  EXPECT_EQ(daemon.passes(), 1u);
  EXPECT_EQ(slot->sequence(), 0u);
}

TEST_F(AdaptationDaemonTest, BackgroundThreadRunsPassesUntilStopped) {
  DaemonOptions options;
  options.interval = std::chrono::milliseconds(1);
  AdaptationDaemon daemon = MakeDaemon(options);
  EXPECT_FALSE(daemon.running());
  daemon.Start();
  daemon.Start();  // idempotent
  EXPECT_TRUE(daemon.running());
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (daemon.passes() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(daemon.passes(), 2u);
  daemon.Stop();
  daemon.Stop();  // idempotent
  EXPECT_FALSE(daemon.running());
}

// ---- per-shard worker set ----

TEST(DaemonWorkerSetTest, WorkersDrainSampleQueuesAcrossShards) {
  const platform::Topology topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});
  ArrayRegistry::Options reg_options;
  reg_options.num_shards = 8;
  ArrayRegistry registry(topo, reg_options);
  constexpr int kSlots = 64;
  for (int i = 0; i < kSlots; ++i) {
    registry.Create("drain-" + std::to_string(i), 64,
                    smart::PlacementSpec::Interleaved(), 16);
  }
  // Touch every slot so each enqueues itself on its shard's sample queue.
  for (ArraySlot* slot : registry.slots()) {
    ArraySnapshot snap = slot->TryAcquire();
    ASSERT_TRUE(snap.valid());
    snap.SumRange(0, 64);
  }
  int64_t queued = 0;
  for (int s = 0; s < registry.num_shards(); ++s) {
    queued += registry.shard_queue_depth(s);
  }
  EXPECT_EQ(queued, kSlots);

  DaemonOptions options;
  options.interval = std::chrono::milliseconds(1);
  options.num_workers = 3;
  AdaptationDaemon daemon(registry, pool,
                          adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core()),
                          adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()),
                          options);
  daemon.Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  int64_t remaining = queued;
  while (remaining != 0 && std::chrono::steady_clock::now() < deadline) {
    remaining = 0;
    for (int s = 0; s < registry.num_shards(); ++s) {
      remaining += registry.shard_queue_depth(s);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  EXPECT_EQ(remaining, 0) << "worker set left sample queues undrained";
  EXPECT_GT(daemon.passes(), 0u);
}

// One shard, two workers. While one worker drains slot X, held inside the
// drain by the test hook, new traffic re-queues X and the other worker
// steals the due shard. The thief must skip X: without the per-slot drain
// claim both workers drained X at once, racing on its drain bookkeeping
// (TSan reported it in LiveDaemonTraversalsStayConsistent).
TEST(DaemonWorkerSetTest, StolenShardSkipsSlotBeingDrained) {
  const platform::Topology topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});
  ArrayRegistry registry(topo);  // single shard
  ArraySlot* slot = registry.Create("drained", 64, smart::PlacementSpec::Interleaved(), 16);
  slot->Write(0, 1);  // queues the slot for the first pass

  DaemonOptions options;
  options.interval = std::chrono::milliseconds(1);
  options.num_workers = 2;
  AdaptationDaemon daemon(registry, pool,
                          adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core()),
                          adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()),
                          options);
  std::atomic<int> drains{0};
  std::atomic<bool> stolen{false};
  testing::SetDrainHook([&](ArraySlot& s) {
    if (&s != slot || drains.fetch_add(1) != 0) {
      return;
    }
    // First drain: re-queue the slot, then hold the drain until the other
    // worker has finished a pass over the shard.
    s.Write(1, 1);
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (daemon.passes() == 0 && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    stolen = daemon.passes() > 0;
  });
  daemon.Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (daemon.passes() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  daemon.Stop();
  testing::SetDrainHook(nullptr);
  EXPECT_TRUE(stolen) << "no second worker passed over the shard during the drain";
  EXPECT_EQ(drains.load(), 1) << "a second worker drained the slot mid-drain";
  // The skipped worker lost nothing: the held drain read both writes.
  EXPECT_EQ(slot->DrainSample().writes, 0u);
}

TEST(DaemonWorkerSetTest, SpareWorkerStealsTheOnlyShard) {
  // One shard, two workers: every pass the spare worker services is by
  // definition a steal. With continuous traffic and a 1 ms interval the
  // steal counter has to move.
  const platform::Topology topo = platform::Topology::Synthetic(2, 2);
  rts::WorkerPool pool(topo, rts::WorkerPool::Options{.num_threads = 2, .pin_threads = false});
  ArrayRegistry registry(topo);  // single shard
  ArraySlot* slot = registry.Create("stolen", 64, smart::PlacementSpec::Interleaved(), 16);

  const uint64_t claims_before = obs::CounterValue(obs::kDaemonShardClaims);
  const uint64_t steals_before = obs::CounterValue(obs::kDaemonShardSteals);
  DaemonOptions options;
  options.interval = std::chrono::milliseconds(1);
  options.num_workers = 2;
  AdaptationDaemon daemon(registry, pool,
                          adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core()),
                          adapt::ArrayCosts::FromCostModel(sim::CostModel::Default()),
                          options);
  daemon.Start();
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (obs::CounterValue(obs::kDaemonShardSteals) == steals_before &&
         std::chrono::steady_clock::now() < deadline) {
    ArraySnapshot snap = slot->TryAcquire();
    if (snap.valid()) {
      snap.SumRange(0, 64);
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  daemon.Stop();
  EXPECT_GT(obs::CounterValue(obs::kDaemonShardSteals), steals_before);
  EXPECT_GT(obs::CounterValue(obs::kDaemonShardClaims) +
                obs::CounterValue(obs::kDaemonShardSteals),
            claims_before + steals_before);
}

TEST_F(AdaptationDaemonTest, BackpressureDefersRestructuresUnderRetiredDebt) {
  // A parked reader keeps retired versions alive; once they exceed
  // kMaxRetiredDebt the daemon must keep draining samples but refuse new
  // restructures, counting each deferral.
  ArraySlot* slot = MakeReadOnlySlot("debt", 1 << 16);
  // Park a pin, then publish one version more than the debt allows: none of
  // the retired versions can drain.
  ArraySnapshot parked = slot->TryAcquire();
  ASSERT_TRUE(parked.valid());
  for (size_t v = 0; v <= kMaxRetiredDebt; ++v) {
    auto storage = smart::SmartArray::Allocate(slot->length(),
                                               smart::PlacementSpec::Interleaved(), 64, topo_);
    for (uint64_t i = 0; i < slot->length(); ++i) {
      storage->Init(i, i % 1024);
    }
    ASSERT_TRUE(registry_.Publish(*slot, std::move(storage), slot->write_count()));
  }
  ASSERT_GT(registry_.shard_retired(0), kMaxRetiredDebt);
  const uint64_t sequence = slot->sequence();
  // Rebuild the §5.1 adaptation-candidate profile on the new version.
  for (int pass = 0; pass < 3; ++pass) {
    ArraySnapshot snap = slot->Acquire();
    snap.SumRange(0, slot->length());
  }
  const uint64_t drops_before = obs::CounterValue(obs::kDaemonBackpressureDrops);
  DaemonOptions options;
  options.min_sampled_accesses = 16;
  AdaptationDaemon daemon = MakeDaemon(options);
  EXPECT_EQ(daemon.RunOnce(), 0);  // deferred, not adapted
  EXPECT_EQ(slot->sequence(), sequence);
  EXPECT_GT(obs::CounterValue(obs::kDaemonBackpressureDrops), drops_before);

  // Debt drains once the reader leaves; restructures go through again.
  parked.Release();
  while (registry_.Reclaim() == 0) {
  }
  EXPECT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(slot->sequence(), sequence + 1);
}

}  // namespace
}  // namespace sa::runtime
