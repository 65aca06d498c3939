// End-to-end adaptivity evaluation (§6.3): the selector must approach the
// paper's accuracy against the simulator's ground truth, for single arrays
// and for the multi-array PageRank extension.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "adapt/cases.h"

namespace sa::adapt {
namespace {

TEST(EvaluationCandidatesTest, ScenariosFilterReplication) {
  const auto plenty = CandidateConfigurations(MemoryScenario::kPlenty);
  EXPECT_EQ(plenty.size(), 6u);  // 3 placements x 2 compression states
  const auto no_uncomp = CandidateConfigurations(MemoryScenario::kNoUncompressedReplication);
  EXPECT_EQ(no_uncomp.size(), 5u);  // uncompressed replication dropped
  for (const auto& c : no_uncomp) {
    EXPECT_FALSE(c.placement.kind == smart::Placement::kReplicated && !c.compressed);
  }
  const auto none = CandidateConfigurations(MemoryScenario::kNoReplicationAtAll);
  EXPECT_EQ(none.size(), 4u);
  for (const auto& c : none) {
    EXPECT_NE(c.placement.kind, smart::Placement::kReplicated);
  }
}

TEST(EvaluationTest, CountersFromProfilingRunLookMemoryBound) {
  const auto cases = BuildAggregationCases(sim::MachineSpec::OracleX5_18Core(),
                                           {{64}, {MemoryScenario::kPlenty}});
  ASSERT_FALSE(cases.empty());
  const auto& counters = cases.front().inputs.counters;
  EXPECT_TRUE(counters.memory_bound());
  EXPECT_GT(counters.accesses_per_second, 1e9);
  EXPECT_GT(counters.bw_current_memory, 10e9);
  EXPECT_LT(counters.exec_current_per_socket,
            cases.front().inputs.machine.exec_max_per_socket);
}

TEST(EvaluationTest, SelectorAccuracyOnFullGrid) {
  CaseGridOptions options;  // defaults: both machines, 4 widths, 3 scenarios
  const auto cases = BuildFullCaseGrid(options);
  const EvalOutcome outcome = EvaluateAdaptivity(cases);

  ASSERT_GT(outcome.overall_cases, 40);  // a real grid, not a toy

  // The paper reports 94% end-to-end correctness, within 0.2% of optimal on
  // average, and 11.7% better than the best static choice. Our simulator
  // and estimator differ in detail, so assert the same *regime*.
  const double overall_accuracy =
      static_cast<double>(outcome.overall_correct) / outcome.overall_cases;
  EXPECT_GT(overall_accuracy, 0.75) << "chosen configs should usually be optimal";

  const double step1_accuracy =
      static_cast<double>(outcome.step1_correct) / std::max(1, outcome.step1_cases);
  EXPECT_GT(step1_accuracy, 0.8);

  const double step2_accuracy =
      static_cast<double>(outcome.step2_correct) / std::max(1, outcome.step2_cases);
  EXPECT_GT(step2_accuracy, 0.8);

  // Wrong picks must be cheap, and adaptivity must beat every static config.
  EXPECT_LT(outcome.avg_pct_from_optimal, 10.0);
  EXPECT_GT(outcome.improvement_over_best_static_pct, 0.0);
}

TEST(EvaluationTest, PerCaseRecordsAreComplete) {
  CaseGridOptions options;
  options.bit_widths = {33};
  options.scenarios = {MemoryScenario::kPlenty};
  const auto cases = BuildAggregationCases(sim::MachineSpec::OracleX5_8Core(), options);
  const EvalOutcome outcome = EvaluateAdaptivity(cases);
  ASSERT_EQ(outcome.cases.size(), cases.size());
  for (const auto& pc : outcome.cases) {
    EXPECT_FALSE(pc.name.empty());
    EXPECT_GT(pc.chosen_seconds, 0.0);
    EXPECT_GT(pc.optimal_seconds, 0.0);
    EXPECT_GE(pc.chosen_seconds, pc.optimal_seconds * (1 - 1e-9));
  }
}

// ---- multi-array (PageRank) extension ----

TEST(PageRankAdaptivityTest, CasesAreWellFormed) {
  CaseGridOptions options;
  options.scenarios = {MemoryScenario::kPlenty};
  const auto cases = BuildPageRankCases(sim::MachineSpec::OracleX5_8Core(), options);
  ASSERT_EQ(cases.size(), 1u);
  const auto& c = cases.front();
  EXPECT_GT(c.inputs.counters.random_fraction, 0.5);
  EXPECT_NEAR(c.inputs.compression_ratio, 0.79, 0.02);  // V+E footprint ratio
  EXPECT_GT(c.inputs.counters.dataset_bytes, 1e10);
}

TEST(PageRankAdaptivityTest, SelectorPicksReplicationOnEightCore) {
  // The Fig. 1 result, reached automatically through the multi-array case.
  CaseGridOptions options;
  options.scenarios = {MemoryScenario::kPlenty};
  const auto cases = BuildPageRankCases(sim::MachineSpec::OracleX5_8Core(), options);
  const auto result = ChooseConfiguration(cases.front().inputs);
  EXPECT_EQ(result.chosen.placement.kind, smart::Placement::kReplicated);
  // And the choice must actually be (near-)optimal per the simulator.
  const auto all = CandidateConfigurations(MemoryScenario::kPlenty);
  double best = 1e300;
  for (const auto& config : all) {
    best = std::min(best, cases.front().run_seconds(config));
  }
  EXPECT_LE(cases.front().run_seconds(result.chosen), best * 1.1);
}

TEST(PageRankAdaptivityTest, EvaluationAccuracyAcrossMachinesAndScenarios) {
  CaseGridOptions options;  // all three scenarios
  std::vector<EvalCase> cases;
  for (const auto& spec :
       {sim::MachineSpec::OracleX5_8Core(), sim::MachineSpec::OracleX5_18Core()}) {
    auto c = BuildPageRankCases(spec, options);
    cases.insert(cases.end(), std::make_move_iterator(c.begin()),
                 std::make_move_iterator(c.end()));
  }
  const EvalOutcome outcome = EvaluateAdaptivity(cases);
  EXPECT_EQ(outcome.overall_cases, 6);
  // The multi-array extension should still be right most of the time and
  // never catastrophically wrong.
  EXPECT_GE(outcome.overall_correct, 4);
  EXPECT_LT(outcome.avg_pct_from_optimal, 15.0);
}

}  // namespace
}  // namespace sa::adapt
