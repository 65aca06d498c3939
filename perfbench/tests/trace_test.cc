// Unit tests of the benchmark tracer: self time and the trace-event export.
#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "trace.h"

namespace perfbench {
namespace {

Span MakeSpan(uint32_t id, uint32_t parent, uint64_t start, uint64_t end, uint16_t tid = 1) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.start_ns = start;
  s.end_ns = end;
  s.tid = tid;
  s.name = "span";
  return s;
}

TEST(SelfTimeTest, LeafSpanKeepsItsWholeDuration) {
  const std::vector<uint64_t> self = SelfTimes({MakeSpan(1, 0, 100, 250)});
  ASSERT_EQ(self.size(), 1u);
  EXPECT_EQ(self[0], 150u);
}

TEST(SelfTimeTest, SubtractsUnionOfOverlappingWorkerChildren) {
  // A loop [0, 100) whose grains ran on three workers: [10, 40) and
  // [30, 60) overlap, [90, 120) outlives the loop and is clipped to 90..100.
  // Covered = [10, 60) + [90, 100) = 60, so the loop's self time is 40.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100, 1),
      MakeSpan(2, 1, 10, 40, 2),
      MakeSpan(3, 1, 30, 60, 3),
      MakeSpan(4, 1, 90, 120, 4),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 40u);
  EXPECT_EQ(self[1], 30u);
  EXPECT_EQ(self[2], 30u);
  EXPECT_EQ(self[3], 30u);
}

TEST(SelfTimeTest, GrandchildrenCountOnlyAgainstTheirParent) {
  // op [0, 100) > query [10, 90) > grain [20, 80) and a nested grain that
  // lies inside an earlier one: the op is charged for 100 - 80 = 20, the
  // query for 80 - 60 = 20, each grain for its own length.
  const std::vector<Span> spans = {
      MakeSpan(1, 0, 0, 100),
      MakeSpan(2, 1, 10, 90),
      MakeSpan(3, 2, 20, 80, 2),
      MakeSpan(4, 2, 30, 50, 3),
  };
  const std::vector<uint64_t> self = SelfTimes(spans);
  EXPECT_EQ(self[0], 20u);
  EXPECT_EQ(self[1], 20u);
  EXPECT_EQ(self[2], 60u);
  EXPECT_EQ(self[3], 20u);
}

TEST(SelfTimeTest, FullyCoveredSpanHasNoSelfTime) {
  const std::vector<Span> spans = {
      MakeSpan(7, 0, 50, 60),
      MakeSpan(8, 7, 40, 70, 2),
  };
  EXPECT_EQ(SelfTimes(spans)[0], 0u);
}

TEST(ChromeTraceTest, WritesCompleteEventsInTheLibraryExportShape) {
  std::vector<Span> spans = {MakeSpan(1, 0, 1000, 4000), MakeSpan(2, 1, 2000, 2500, 2)};
  spans[1].layer = Layer::kSmart;
  spans[1].name = "CountIf";
  spans[1].work = 64;
  const std::string json = ChromeTraceJson(spans, 1);
  EXPECT_EQ(json.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"ph\":\"X\",\"ts\":0.000,\"dur\":3.000,\"pid\":1,\"tid\":1"),
            std::string::npos);
  EXPECT_EQ(json.find("CountIf"), std::string::npos);  // cut by max_events
  EXPECT_NE(json.find("\"truncated\":1"), std::string::npos);
  const std::string full = ChromeTraceJson(spans, 10);
  EXPECT_NE(full.find("\"name\":\"CountIf\",\"cat\":\"smart\""), std::string::npos);
  EXPECT_NE(full.find("\"parent\":1,\"op\":0,\"work\":64"), std::string::npos);
}

TEST(TracerTest, RecordsNestingAcrossThreadsOnlyWhileEnabled) {
  tracer::Clear();
  { ScopedSpan ignored(Layer::kBench, "off"); }
  tracer::Enable(true);
  {
    ScopedSpan op(Layer::kBench, "op");
    ScopedSpan loop(Layer::kRts, "loop");
    const uint32_t loop_id = loop.id();
    const uint32_t op_id = loop.op();
    EXPECT_EQ(op_id, op.id());
    std::thread worker([&] { ScopedSpan grain(Layer::kSmart, "grain", loop_id, op_id, 8); });
    worker.join();
    ScopedSpan sampled_out(Layer::kRuntime, "skipped", 0, /*sample=*/false);
  }
  tracer::Enable(false);
  const std::vector<Span> spans = tracer::Collect();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_STREQ(spans[0].name, "op");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_EQ(spans[1].parent, spans[0].id);
  EXPECT_EQ(spans[2].parent, spans[1].id);
  EXPECT_EQ(spans[2].op, spans[0].id);
  EXPECT_NE(spans[2].tid, spans[1].tid);
  tracer::Clear();
  EXPECT_TRUE(tracer::Collect().empty());
}

}  // namespace
}  // namespace perfbench
