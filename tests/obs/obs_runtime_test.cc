// Telemetry wired into the adaptation runtime: the silently-dropped-sample
// counters (thin samples, width-overflow aborts, publish refusals), decision
// rejection counters, and the acceptance bar for the trace layer — a full
// adaptation cycle (sample drain -> decision -> restructure -> publish ->
// epoch retire/reclaim) reconstructed end-to-end from saObsTraceDrain.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "obs/entry_points.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/daemon.h"
#include "sim/machine_spec.h"

namespace sa::runtime {
namespace {

using obs::CounterValue;

// Same §5.1 memory-bound streaming shape as daemon_test.cc: the selector
// deterministically picks replicated + compressed for a read-only slot.
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

class ObsRuntimeTest : public ::testing::Test {
 protected:
  ObsRuntimeTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}),
        registry_(topo_),
        machine_(adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core())),
        costs_(adapt::ArrayCosts::FromCostModel(sim::CostModel::Default())) {
    saObsReset();
  }
  ~ObsRuntimeTest() override {
    testing::SetPrePublishHook(nullptr);
    saObsReset();
  }

  AdaptationDaemon MakeDaemon(DaemonOptions options = {}) {
    return AdaptationDaemon(registry_, pool_, machine_, costs_, options);
  }

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

  std::vector<SaObsTraceEvent> DrainAll() {
    std::vector<SaObsTraceEvent> all;
    SaObsTraceEvent buf[256];
    for (;;) {
      const int n = saObsTraceDrain(buf, 256);
      if (n <= 0) {
        break;
      }
      all.insert(all.end(), buf, buf + n);
    }
    return all;
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  ArrayRegistry registry_;
  adapt::MachineCaps machine_;
  adapt::ArrayCosts costs_;
};

// Satellite regression: a drained sample below min_sampled_accesses used to
// vanish without a trace; now it increments sa_daemon_sample_drops_total.
TEST_F(ObsRuntimeTest, ThinSampleIncrementsDropCounter) {
  ArraySlot* slot = registry_.Create("thin", 256, smart::PlacementSpec::Interleaved(), 64);
  {
    ArraySnapshot snap = slot->Acquire();
    snap.Get(0);
    snap.Get(1);  // 2 accesses, far below min_sampled_accesses (4096)
  }
  AdaptationDaemon daemon = MakeDaemon();
  const uint64_t drops_before = CounterValue(obs::kDaemonSampleDrops);
  EXPECT_EQ(daemon.RunOnce(), 0);
  EXPECT_EQ(CounterValue(obs::kDaemonSampleDrops), drops_before + 1);

  // A fully idle slot is not a drop: nothing was sampled.
  EXPECT_EQ(daemon.RunOnce(), 0);
  EXPECT_EQ(CounterValue(obs::kDaemonSampleDrops), drops_before + 1);
  EXPECT_GE(CounterValue(obs::kDaemonPasses), 2u);
}

// Satellite regression, race half: a publish refused by the lost-write check
// also drops the sampled interval, and both counters say so.
TEST_F(ObsRuntimeTest, PublishRefusalIncrementsDropAndLostWriteCounters) {
  ArraySlot* slot = MakeReadOnlySlot("raced", 8192);
  AdaptationDaemon daemon = MakeDaemon();
  testing::SetPrePublishHook([](ArraySlot& s) {
    s.Write(0, 7);  // lands between the rebuild and its publication
  });
  const uint64_t drops_before = CounterValue(obs::kDaemonSampleDrops);
  const uint64_t lost_before = CounterValue(obs::kPublishLostWrite);
  EXPECT_FALSE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  testing::SetPrePublishHook(nullptr);
  EXPECT_EQ(CounterValue(obs::kDaemonSampleDrops), drops_before + 1);
  EXPECT_EQ(CounterValue(obs::kPublishLostWrite), lost_before + 1);
  EXPECT_EQ(slot->sequence(), 1u);  // the refused rebuild never published
}

TEST_F(ObsRuntimeTest, DecisionRejectionsAreCountedByReason) {
  ArraySlot* slot = MakeReadOnlySlot("counted", 4096);
  AdaptationDaemon daemon = MakeDaemon();

  // CPU-bound counters: the chosen configuration equals the current one.
  adapt::WorkloadCounters cpu = MemBoundStreamingCounters(machine_);
  cpu.max_mem_utilization = 0.2;
  cpu.max_ic_utilization = 0.2;
  const uint64_t same_before = CounterValue(obs::kDaemonRejectSame);
  EXPECT_FALSE(daemon.AdaptSlot(*slot, cpu));
  EXPECT_EQ(CounterValue(obs::kDaemonRejectSame), same_before + 1);

  // An unreachable hysteresis margin turns an accept into a margin reject.
  DaemonOptions strict;
  strict.min_predicted_win = 100.0;
  AdaptationDaemon cautious = MakeDaemon(strict);
  const uint64_t margin_before = CounterValue(obs::kDaemonRejectMargin);
  EXPECT_FALSE(cautious.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(CounterValue(obs::kDaemonRejectMargin), margin_before + 1);
}

// An adaptive array (one slot its owner adapts with AdaptSlot) that wants to
// move but cannot clear the margin keeps its configuration, and that keep
// has its own counter, apart from same-config keeps.
TEST_F(ObsRuntimeTest, AdaptiveArrayMarginKeepHasDedicatedCounter) {
  ArraySlot* slot = MakeReadOnlySlot("adaptive", 4096);
  // A margin no prediction can clear: the selector's choice (compressed)
  // differs from the current config, so the keep is by hysteresis alone.
  DaemonOptions strict;
  strict.min_predicted_win = 100.0;
  AdaptationDaemon cautious = MakeDaemon(strict);
  const uint64_t margin_before = CounterValue(obs::kDaemonRejectMargin);
  const uint64_t same_before = CounterValue(obs::kDaemonRejectSame);
  EXPECT_FALSE(cautious.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(CounterValue(obs::kDaemonRejectMargin), margin_before + 1);
  EXPECT_EQ(CounterValue(obs::kDaemonRejectSame), same_before);
  EXPECT_EQ(cautious.adaptations(), 0u);

  // With the default margin the same profile adapts: no keep is counted.
  AdaptationDaemon eager = MakeDaemon();
  EXPECT_TRUE(eager.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(CounterValue(obs::kDaemonRejectMargin), margin_before + 1);
  EXPECT_EQ(CounterValue(obs::kDaemonRejectSame), same_before);
  EXPECT_EQ(eager.adaptations(), 1u);
}

TEST_F(ObsRuntimeTest, SnapshotLifecycleFeedsCountersAndGauges) {
  const uint64_t n = 2048;
  ArraySlot* slot = MakeReadOnlySlot("metered", n);
  const uint64_t acquires_before = CounterValue(obs::kSnapshotAcquires);
  const uint64_t reads_before = CounterValue(obs::kSnapshotReads);
  {
    ArraySnapshot snap = slot->Acquire();
    EXPECT_EQ(obs::GaugeValue(obs::kLiveSnapshots), 1);
    snap.SumRange(0, n);
  }
  EXPECT_EQ(obs::GaugeValue(obs::kLiveSnapshots), 0);
  EXPECT_EQ(CounterValue(obs::kSnapshotAcquires), acquires_before + 1);
  // Reads are batched into the shared counter at Release time.
  EXPECT_EQ(CounterValue(obs::kSnapshotReads), reads_before + n);
}

// The acceptance bar: one adaptation cycle, reconstructed end-to-end from
// the drained trace alone — drain, decision, restructure begin/end with
// per-phase timing, publish with its new sequence, epoch advance + reclaim.
TEST_F(ObsRuntimeTest, FullAdaptationCycleReconstructsFromTrace) {
  const uint64_t n = 10'000;
  ArraySlot* slot = MakeReadOnlySlot("ranks", n);

  // Pass 1 drains the slot's real sample (3 scans = 30k accesses, not thin).
  // The unreachable margin forces a reject decision, so the slot is
  // guaranteed untouched until the crafted-counters accept below.
  DaemonOptions strict;
  strict.min_predicted_win = 1e9;
  AdaptationDaemon observer = MakeDaemon(strict);
  EXPECT_EQ(observer.RunOnce(), 0);

  AdaptationDaemon daemon = MakeDaemon();
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(slot->bits(), 10u);

  // A few reclaim passes age the retired versions out of the epoch list
  // (each pass advances the epoch by at most one).
  size_t freed = 0;
  for (int i = 0; i < 4; ++i) {
    freed += registry_.Reclaim();
  }
  EXPECT_GE(freed, 1u);

  const std::vector<SaObsTraceEvent> events = DrainAll();
  ASSERT_FALSE(events.empty());
  for (size_t i = 1; i < events.size(); ++i) {
    EXPECT_GT(events[i].seq, events[i - 1].seq);  // one totally-ordered stream
  }

  auto find_after = [&](size_t from, uint32_t kind,
                        auto&& pred) -> size_t {
    for (size_t i = from; i < events.size(); ++i) {
      if (events[i].kind == kind && pred(events[i])) {
        return i;
      }
    }
    return events.size();
  };
  const auto on_ranks = [](const SaObsTraceEvent& ev) {
    return std::string(ev.slot) == "ranks";
  };

  // 1. The daemon drained a healthy (non-thin) sample from "ranks".
  const size_t drain = find_after(0, obs::kTraceSampleDrain, [&](const SaObsTraceEvent& ev) {
    return on_ranks(ev) && (ev.d & 1) == 0;  // low bit: thin/dropped flag
  });
  ASSERT_LT(drain, events.size());
  EXPECT_EQ(events[drain].a, 3 * n);  // reads
  EXPECT_EQ(events[drain].b, 0u);     // writes
  EXPECT_GT(events[drain].c, 0u);     // interval microseconds

  // 2. An accepted decision from interleaved/64b to replicated/10b.
  const size_t decision =
      find_after(drain, obs::kTraceDecision, [&](const SaObsTraceEvent& ev) {
        return on_ranks(ev) && (ev.c & 0xff) == obs::kDecisionAccepted;
      });
  ASSERT_LT(decision, events.size());
  EXPECT_EQ((events[decision].a >> 16) & 0xff, 64u);             // old bits
  EXPECT_EQ((events[decision].a >> 8) & 0xff,
            static_cast<uint64_t>(smart::Placement::kInterleaved));
  EXPECT_EQ((events[decision].b >> 16) & 0xff, 10u);             // new bits
  EXPECT_EQ((events[decision].b >> 8) & 0xff,
            static_cast<uint64_t>(smart::Placement::kReplicated));
  EXPECT_GT(events[decision].d, 0u);                             // win ppm

  // 3. The rebuild bracketed by begin/end, with per-phase timings.
  const size_t begin = find_after(decision, obs::kTraceRestructureBegin, on_ranks);
  ASSERT_LT(begin, events.size());
  EXPECT_EQ(events[begin].a, events[decision].a);
  EXPECT_EQ(events[begin].b, events[decision].b);
  const size_t end = find_after(begin, obs::kTraceRestructureEnd, on_ranks);
  ASSERT_LT(end, events.size());
  EXPECT_EQ(events[end].d & 1, 1u);                  // success
  EXPECT_GT(events[end].a, 0u);                      // wall ns
  // Per-phase timings are summed across workers, so they can individually
  // exceed the wall time; they just have to exist for a 64 -> 10 repack.
  EXPECT_GT(events[end].b + events[end].c, 0u);

  // 4. The publish that swapped in sequence 2.
  const size_t publish = find_after(end, obs::kTracePublish, [&](const SaObsTraceEvent& ev) {
    return on_ranks(ev) && ev.b == 1;
  });
  ASSERT_LT(publish, events.size());
  EXPECT_EQ(events[publish].a, 2u);

  // Causality: one trace id threads the accepted decision through the
  // restructure bracket and the publish (trace.h packing).
  const uint64_t trace_id = events[decision].c >> 8;
  EXPECT_GT(trace_id, 0u);
  EXPECT_EQ(events[begin].c, trace_id);
  EXPECT_EQ(events[end].d >> 1, trace_id);
  EXPECT_EQ(events[publish].c, trace_id);

  // 5. The epoch advanced and reclaimed the retired version.
  const size_t advance = find_after(publish, obs::kTraceEpochAdvance,
                                    [](const SaObsTraceEvent&) { return true; });
  ASSERT_LT(advance, events.size());
  const size_t reclaim =
      find_after(advance, obs::kTraceEpochReclaim, [](const SaObsTraceEvent& ev) {
        return ev.a >= 1;  // freed at least the old "ranks" version
      });
  ASSERT_LT(reclaim, events.size());

  // The cycle is consistent with the aggregated counters too.
  EXPECT_GE(CounterValue(obs::kDaemonRestructures), 1u);
  EXPECT_GE(CounterValue(obs::kRestructures), 1u);
  EXPECT_GE(CounterValue(obs::kPublishes), 2u);  // initial fill + adaptation
  EXPECT_GE(CounterValue(obs::kEpochReclaimed), 1u);
  EXPECT_GT(obs::HistogramValue(obs::kRestructureWallNs).count, 0u);
}

}  // namespace
}  // namespace sa::runtime
