// Exposition surfaces: Prometheus text, JSON, and the C ABI (metric
// snapshot, histograms, by-name lookup, trace drain, text dump truncation,
// reset).
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "obs/entry_points.h"
#include "obs/export.h"
#include "obs/telemetry.h"
#include "obs/trace.h"

namespace sa::obs {
namespace {

class ExportTest : public ::testing::Test {
 protected:
  void SetUp() override { saObsReset(); }
  void TearDown() override { saObsReset(); }
};

TEST_F(ExportTest, PrometheusTextCarriesCountersGaugesAndHistograms) {
  Count(kPublishes, 3);
  GaugeAdd(kRegistrySlots, 2);
  Record(kRestructureWallNs, 1000);
  Record(kRestructureWallNs, 2000);

  const std::string text = PrometheusText();
  EXPECT_NE(text.find("# TYPE sa_publishes_total counter\n"), std::string::npos);
  EXPECT_NE(text.find("\nsa_publishes_total 3\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sa_registry_slots gauge\n"), std::string::npos);
  EXPECT_NE(text.find("\nsa_registry_slots 2\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE sa_restructure_wall_ns histogram\n"), std::string::npos);
  // Cumulative buckets: both samples land below 2048, so le="2047" and +Inf
  // agree with _count.
  EXPECT_NE(text.find("sa_restructure_wall_ns_bucket{le=\"2047\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("sa_restructure_wall_ns_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("sa_restructure_wall_ns_sum 3000\n"), std::string::npos);
  EXPECT_NE(text.find("sa_restructure_wall_ns_count 2\n"), std::string::npos);
  // The trace stream is exported as synthetic counters.
  EXPECT_NE(text.find("# TYPE sa_trace_events_total counter\n"), std::string::npos);
}

TEST_F(ExportTest, JsonTextIsWellFormedEnoughToGrep) {
  Count(kSnapshotAcquires, 7);
  const std::string json = JsonText();
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"sa_snapshot_acquires_total\":7"), std::string::npos);
  EXPECT_NE(json.find("\"enabled\":true"), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
}

TEST_F(ExportTest, CAbiSnapshotSizesAndFills) {
  Count(kEpochAdvances, 11);
  GaugeAdd(kDaemonRunning, 1);

  const int total = saObsSnapshot(nullptr, 0);
  EXPECT_EQ(total, static_cast<int>(kCounterIdCount) + static_cast<int>(kGaugeIdCount));

  std::vector<SaObsMetric> metrics(static_cast<size_t>(total));
  EXPECT_EQ(saObsSnapshot(metrics.data(), total), total);
  bool saw_counter = false;
  bool saw_gauge = false;
  for (const SaObsMetric& m : metrics) {
    if (std::strcmp(m.name, "sa_epoch_advances_total") == 0) {
      EXPECT_EQ(m.kind, SA_OBS_METRIC_COUNTER);
      EXPECT_EQ(m.value, 11u);
      saw_counter = true;
    }
    if (std::strcmp(m.name, "sa_daemon_running") == 0) {
      EXPECT_EQ(m.kind, SA_OBS_METRIC_GAUGE);
      EXPECT_EQ(m.value, 1u);
      saw_gauge = true;
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);

  // A short buffer is filled partially but the total is still reported.
  SaObsMetric two[2];
  EXPECT_EQ(saObsSnapshot(two, 2), total);
  EXPECT_EQ(two[0].kind, SA_OBS_METRIC_COUNTER);
}

TEST_F(ExportTest, CAbiCounterByNameAndHistograms) {
  Count(kRestructures, 4);
  EXPECT_EQ(saObsCounterByName("sa_restructures_total"), 4u);
  EXPECT_EQ(saObsCounterByName("sa_no_such_counter"), 0u);
  EXPECT_EQ(saObsCounterByName(nullptr), 0u);

  Record(kDaemonPassNs, 5);
  const int total = saObsHistograms(nullptr, 0);
  EXPECT_EQ(total, kHistogramIdCount);
  std::vector<SaObsHistogramEntry> hists(static_cast<size_t>(total));
  EXPECT_EQ(saObsHistograms(hists.data(), total), total);
  bool found = false;
  for (const SaObsHistogramEntry& h : hists) {
    if (std::strcmp(h.name, "sa_daemon_pass_ns") == 0) {
      EXPECT_EQ(h.count, 1u);
      EXPECT_EQ(h.sum, 5u);
      EXPECT_EQ(h.buckets[HistogramBucketIndex(5)], 1u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(ExportTest, CAbiPrometheusTextTruncatesSafely) {
  Count(kPublishes, 1);
  const uint64_t full = saObsPrometheusText(nullptr, 0);
  EXPECT_GT(full, 100u);

  char small[16];
  std::memset(small, 'x', sizeof(small));
  EXPECT_EQ(saObsPrometheusText(small, sizeof(small)), full);
  EXPECT_EQ(small[sizeof(small) - 1], '\0');

  std::vector<char> buf(full + 1);
  EXPECT_EQ(saObsPrometheusText(buf.data(), buf.size()), full);
  EXPECT_EQ(std::strlen(buf.data()), full);
}

TEST_F(ExportTest, CAbiResetZeroesEverything) {
  Count(kPublishes, 9);
  EmitTrace(kTracePublish, "r", 1, 1);
  saObsReset();
  EXPECT_EQ(saObsCounterByName("sa_publishes_total"), 0u);
  EXPECT_EQ(saObsCounterByName("sa_trace_events_total"), 0u);
  // The global drain cursor rewound with the ring: a fresh event is seen.
  EmitTrace(kTracePublish, "r2", 2, 1);
  SaObsTraceEvent ev;
  ASSERT_EQ(saObsTraceDrain(&ev, 1), 1);
  EXPECT_EQ(ev.seq, 0u);
  EXPECT_STREQ(ev.slot, "r2");
  EXPECT_STREQ(saObsTraceKindName(ev.kind), "publish");
}

}  // namespace
}  // namespace sa::obs
