// The decision audit + calibration loop (runtime/audit.h): every selector
// run lands a DecisionRecord in the slot's ring, accepted decisions are
// scored realized-vs-predicted on the next drain, a planted estimator
// misprediction surfaces as nonzero calibration error, and the flap
// detector holds an oscillating slot down. All of it is runtime state, so
// the explain ABI answers with telemetry switched off.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "adapt/decision_record.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "runtime/audit.h"
#include "runtime/daemon.h"
#include "runtime/entry_points.h"
#include "runtime/registry.h"
#include "sim/cost_model.h"
#include "sim/machine_spec.h"

namespace sa::runtime {
namespace {

// §5.1 memory-bound streaming shape (same as daemon_test.cc): the selector
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

// CPU-bound shape: not memory bound, so Fig. 13 falls through to the
// uncompressed interleaved default — the profiling configuration itself.
adapt::WorkloadCounters CpuBoundCounters(const adapt::MachineCaps& caps) {
  adapt::WorkloadCounters c = MemBoundStreamingCounters(caps);
  c.max_mem_utilization = 0.2;
  c.max_ic_utilization = 0.2;
  return c;
}

class AuditTest : public ::testing::Test {
 protected:
  AuditTest()
      : topo_(platform::Topology::Synthetic(2, 2)),
        pool_(topo_, rts::WorkerPool::Options{.num_threads = 4, .pin_threads = false}),
        registry_(topo_),
        machine_(adapt::MachineCaps::FromSpec(sim::MachineSpec::OracleX5_18Core())),
        costs_(adapt::ArrayCosts::FromCostModel(sim::CostModel::Default())) {}

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
    Scan(*slot, 3);
    return slot;
  }

  static void Scan(ArraySlot& slot, int passes) {
    for (int pass = 0; pass < passes; ++pass) {
      ArraySnapshot snap = slot.Acquire();
      snap.SumRange(0, snap.length());
    }
  }

  // Newest-first copy of the slot's audit ring.
  static std::vector<adapt::DecisionRecord> Ring(ArraySlot& slot) {
    SlotAuditState* audit = slot.audit();
    if (audit == nullptr) {
      return {};
    }
    std::vector<adapt::DecisionRecord> out(SlotAuditState::kRingSize);
    std::lock_guard<std::mutex> lock(audit->mu);
    out.resize(audit->Copy(out.data(), SlotAuditState::kRingSize));
    return out;
  }

  platform::Topology topo_;
  rts::WorkerPool pool_;
  ArrayRegistry registry_;
  adapt::MachineCaps machine_;
  adapt::ArrayCosts costs_;
};

TEST_F(AuditTest, AcceptedDecisionLandsInRingAndMatchesLiveConfig) {
  ArraySlot* slot = MakeReadOnlySlot("audited", 8192);
  AdaptationDaemon daemon = MakeDaemon();
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));

  const std::vector<adapt::DecisionRecord> ring = Ring(*slot);
  ASSERT_EQ(ring.size(), 1u);
  const adapt::DecisionRecord& rec = ring[0];
  EXPECT_EQ(rec.reason, adapt::DecisionReason::kAccepted);
  EXPECT_GT(rec.trace_id, 0u);
  EXPECT_GT(rec.ns, 0u);
  EXPECT_TRUE(rec.published);
  EXPECT_EQ(rec.published_sequence, slot->sequence());

  // The chosen configuration in the record is the configuration the slot
  // actually runs now.
  EXPECT_EQ(rec.chosen.placement.kind, slot->placement().kind);
  EXPECT_EQ(rec.chosen_bits, slot->bits());
  EXPECT_TRUE(rec.chosen.compressed);

  // Every candidate the selector weighed is recorded with its estimate:
  // Fig. 13a uncompressed, Fig. 13b compressed, plus the incumbent.
  ASSERT_EQ(rec.num_candidates, 3);
  EXPECT_STREQ(rec.candidates[0].role, "uncompressed");
  EXPECT_STREQ(rec.candidates[1].role, "compressed");
  EXPECT_STREQ(rec.candidates[2].role, "current");
  for (int i = 0; i < rec.num_candidates; ++i) {
    EXPECT_GT(rec.candidates[i].estimated_speedup, 0.0) << i;
  }

  // Margin math: the accept means chosen cleared current by the margin.
  EXPECT_GT(rec.chosen_speedup, rec.current_speedup * (1.0 + rec.margin));
  EXPECT_GT(rec.predicted_win, rec.margin);

  // Inputs snapshot is the counters the decision reasoned about.
  EXPECT_DOUBLE_EQ(rec.inputs.counters.max_mem_utilization, 0.95);
  EXPECT_TRUE(rec.inputs.hints.read_only);
}

TEST_F(AuditTest, RejectedDecisionsAreRecordedToo) {
  ArraySlot* slot = MakeReadOnlySlot("rejected", 8192);
  AdaptationDaemon daemon = MakeDaemon();

  // Same-config keep: CPU-bound counters re-choose the incumbent.
  EXPECT_FALSE(daemon.AdaptSlot(*slot, CpuBoundCounters(machine_)));
  // Margin keep: an unreachable margin turns the accept into a reject.
  DaemonOptions strict;
  strict.min_predicted_win = 100.0;
  AdaptationDaemon cautious = MakeDaemon(strict);
  EXPECT_FALSE(cautious.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));

  const std::vector<adapt::DecisionRecord> ring = Ring(*slot);
  ASSERT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring[0].reason, adapt::DecisionReason::kRejectMargin);
  EXPECT_FALSE(ring[0].published);
  EXPECT_DOUBLE_EQ(ring[0].margin, 100.0);
  EXPECT_LT(ring[0].predicted_win, 100.0);
  EXPECT_EQ(ring[1].reason, adapt::DecisionReason::kRejectSameConfig);
  EXPECT_EQ(slot->sequence(), 1u);  // nothing restructured
}

// The tentpole loop closed: an accepted decision is scored against the
// post-restructure access rate on the daemon's next drain, and a planted
// estimator misprediction (estimator_bias) shows up as calibration error.
TEST_F(AuditTest, PlantedMispredictionSurfacesNonzeroCalibrationError) {
  ArraySlot* slot = MakeReadOnlySlot("biased", 8192);

  DaemonOptions options;
  options.estimator_bias = 8.0;  // the estimator now overpredicts 8x
  AdaptationDaemon daemon = MakeDaemon(options);

  // Drain 1 (real sample from the 3 setup scans): warms the rate EWMA the
  // score will use as its pre-restructure baseline.
  daemon.RunOnce();
  {
    SlotAuditState* audit = slot->audit();
    ASSERT_NE(audit, nullptr);
    std::lock_guard<std::mutex> lock(audit->mu);
    EXPECT_TRUE(audit->has_rate);
    EXPECT_GT(audit->rate_ewma, 0.0);
  }

  // Accept under the biased estimator: arms the pending score.
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));

  // Drain 2 settles the score against the realized rate.
  Scan(*slot, 3);
  ASSERT_EQ(daemon.RunOnce(), 0);  // scores; no new restructure

  const std::vector<adapt::DecisionRecord> ring = Ring(*slot);
  const auto scored = std::find_if(ring.begin(), ring.end(),
                                   [](const adapt::DecisionRecord& r) { return r.scored; });
  ASSERT_NE(scored, ring.end());
  EXPECT_TRUE(scored->published);
  EXPECT_GT(scored->pre_rate, 0.0);
  EXPECT_GT(scored->post_rate, 0.0);
  EXPECT_GT(scored->realized_ratio, 0.0);
  // predicted_ratio carries the planted 8x bias on top of the honest ~2x
  // estimate. realized_ratio is a wall-clock rate ratio, so its magnitude is
  // scheduling noise (it can land on either side of the prediction) — the
  // robust claims are that the bias reached the prediction and that the
  // score surfaced a nonzero mismatch.
  EXPECT_GT(scored->predicted_ratio, 4.0);
  EXPECT_GT(scored->calibration_error, 0.0);
}

TEST_F(AuditTest, FlapDetectorHoldsOscillatingSlot) {
  ArraySlot* slot = MakeReadOnlySlot("flappy", 8192);

  DaemonOptions options;
  options.min_predicted_win = -1.0;  // accept any configuration change
  AdaptationDaemon daemon = MakeDaemon(options);

  // A -> B: the memory-bound profile moves the slot off the profiling
  // configuration.
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  const uint64_t sequence_after_accept = slot->sequence();
  const uint32_t bits_after_accept = slot->bits();
  ASSERT_LT(bits_after_accept, 64u);

  // B -> A would complete the oscillation: the CPU-bound profile chooses
  // exactly the configuration the slot just moved away from, inside the
  // flap window — held down instead of accepted.
  EXPECT_FALSE(daemon.AdaptSlot(*slot, CpuBoundCounters(machine_)));
  {
    const std::vector<adapt::DecisionRecord> ring = Ring(*slot);
    ASSERT_GE(ring.size(), 2u);
    EXPECT_EQ(ring[0].reason, adapt::DecisionReason::kFlapHold);
    EXPECT_FALSE(ring[0].published);
  }
  SlotAuditState* audit = slot->audit();
  ASSERT_NE(audit, nullptr);
  {
    std::lock_guard<std::mutex> lock(audit->mu);
    EXPECT_EQ(audit->hold_remaining, kFlapHoldDecisions);
  }

  // The hold-down persists across further would-flip decisions, counting
  // down one per refused decision; the slot's storage never moves.
  for (int i = 1; i <= kFlapHoldDecisions; ++i) {
    EXPECT_FALSE(daemon.AdaptSlot(*slot, CpuBoundCounters(machine_)));
    std::lock_guard<std::mutex> lock(audit->mu);
    EXPECT_EQ(audit->hold_remaining, kFlapHoldDecisions - i);
  }
  EXPECT_EQ(slot->sequence(), sequence_after_accept);
  EXPECT_EQ(slot->bits(), bits_after_accept);

  // Re-choosing the incumbent is a same-config keep, not a flap.
  EXPECT_FALSE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(Ring(*slot)[0].reason, adapt::DecisionReason::kRejectSameConfig);

  // Once the hold has run out and the accept is older than the flap window,
  // the move back is an ordinary accepted decision.
  EXPECT_TRUE(daemon.AdaptSlot(*slot, CpuBoundCounters(machine_)));
  EXPECT_EQ(slot->bits(), 64u);
}

TEST_F(AuditTest, AuditOffRecordsNothing) {
  ArraySlot* slot = MakeReadOnlySlot("unaudited", 8192);
  DaemonOptions options;
  options.audit = false;
  AdaptationDaemon daemon = MakeDaemon(options);
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  EXPECT_EQ(slot->audit(), nullptr);
  EXPECT_EQ(saSlotExplain(slot, nullptr, 0), 0u);
}

// The C-ABI view: newest first, ring-bounded, configs in the shared packed
// encoding, total decision count beyond the ring preserved.
TEST_F(AuditTest, ExplainAbiExposesRingNewestFirst) {
  ArraySlot* slot = MakeReadOnlySlot("explained", 8192);
  AdaptationDaemon daemon = MakeDaemon();
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  // Overflow the ring with same-config keeps.
  for (int i = 0; i < SlotAuditState::kRingSize + 2; ++i) {
    EXPECT_FALSE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));
  }

  SaSlotDecision decisions[SA_EXPLAIN_MAX_DECISIONS];
  const uint64_t total = saSlotExplain(slot, decisions, SA_EXPLAIN_MAX_DECISIONS);
  EXPECT_EQ(total, static_cast<uint64_t>(SlotAuditState::kRingSize) + 3);
  for (int i = 1; i < SA_EXPLAIN_MAX_DECISIONS; ++i) {
    EXPECT_GT(decisions[i - 1].trace_id, decisions[i].trace_id);  // newest first
  }
  // The accept itself has been overwritten; what remains are keeps whose
  // packed current config matches the live storage.
  const SaSlotDecision& newest = decisions[0];
  EXPECT_EQ(newest.reason, 1u);  // reject-same-config
  EXPECT_EQ((newest.packed_current >> 16) & 0xff, slot->bits());
  EXPECT_EQ((newest.packed_current >> 8) & 0xff,
            static_cast<uint64_t>(slot->placement().kind));
  EXPECT_EQ(newest.num_candidates, 3u);
  EXPECT_GT(newest.in_accesses_per_second, 0.0);

  // A cap smaller than the ring still reports the full total.
  SaSlotDecision two[2];
  EXPECT_EQ(saSlotExplain(slot, two, 2), total);
  EXPECT_EQ(two[0].trace_id, decisions[0].trace_id);
  EXPECT_EQ(two[1].trace_id, decisions[1].trace_id);

  // The accepted decision was evicted from the ring above, but the slot's
  // eviction-proof copy still answers "which decision produced the live
  // configuration" — and matches what the storage actually looks like.
  SaSlotDecision published;
  ASSERT_EQ(saSlotExplainPublished(slot, &published), 1u);
  EXPECT_NE(published.published, 0u);
  EXPECT_EQ((published.packed_chosen >> 16) & 0xff, slot->bits());
  EXPECT_EQ((published.packed_chosen >> 8) & 0xff,
            static_cast<uint64_t>(slot->placement().kind));
  for (int i = 0; i < SA_EXPLAIN_MAX_DECISIONS; ++i) {
    EXPECT_NE(decisions[i].trace_id, published.trace_id);  // truly evicted
  }
}

// Switches telemetry off for its scope and restores the prior state.
class TelemetryOff {
 public:
  TelemetryOff() : was_enabled_(obs::Enabled()) { obs::SetEnabled(false); }
  ~TelemetryOff() { obs::SetEnabled(was_enabled_); }
  TelemetryOff(const TelemetryOff&) = delete;
  TelemetryOff& operator=(const TelemetryOff&) = delete;

 private:
  bool was_enabled_;
};

// The audit plane is runtime state, not telemetry: with the kill switch off
// the explain ABI still answers with the accepted, published decision, while
// the counters and the trace ring stand still.
TEST_F(AuditTest, ExplainAnswersWithTelemetryOff) {
  ArraySlot* slot = MakeReadOnlySlot("dark", 8192);
  AdaptationDaemon daemon = MakeDaemon();
  const TelemetryOff off;
  const uint64_t restructures = obs::CounterValue(obs::kDaemonRestructures);
  const uint64_t trace_head = obs::TraceHead();
  ASSERT_TRUE(daemon.AdaptSlot(*slot, MemBoundStreamingCounters(machine_)));

  SaSlotDecision newest;
  ASSERT_EQ(saSlotExplain(slot, &newest, 1), 1u);
  EXPECT_EQ(newest.reason, static_cast<uint32_t>(adapt::DecisionReason::kAccepted));
  EXPECT_NE(newest.published, 0u);
  EXPECT_EQ(newest.published_sequence, slot->sequence());
  SaSlotDecision published;
  ASSERT_EQ(saSlotExplainPublished(slot, &published), 1u);
  EXPECT_EQ(published.trace_id, newest.trace_id);
  EXPECT_EQ(published.reason, newest.reason);
  EXPECT_EQ((published.packed_chosen >> 16) & 0xff, slot->bits());
  EXPECT_EQ((published.packed_chosen >> 8) & 0xff,
            static_cast<uint64_t>(slot->placement().kind));

  EXPECT_EQ(obs::CounterValue(obs::kDaemonRestructures), restructures);
  EXPECT_EQ(obs::TraceHead(), trace_head);
}

TEST_F(AuditTest, ExplainPublishedIsZeroWithoutAnyPublish) {
  ArraySlot* slot = MakeReadOnlySlot("never-published", 8192);
  EXPECT_EQ(saSlotExplainPublished(slot, nullptr), 0u);  // no audit state yet
  AdaptationDaemon daemon = MakeDaemon();
  // Not memory-bound: the selector keeps the current configuration.
  EXPECT_FALSE(daemon.AdaptSlot(*slot, CpuBoundCounters(machine_)));
  EXPECT_GT(saSlotExplain(slot, nullptr, 0), 0u);        // decision recorded
  EXPECT_EQ(saSlotExplainPublished(slot, nullptr), 0u);  // but none published
}

}  // namespace
}  // namespace sa::runtime
