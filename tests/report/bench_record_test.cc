#include "report/bench_record.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

namespace sa::report {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

// FastMode() for one value of SA_BENCH_FAST (nullopt = unset), restoring
// the caller's environment afterwards.
bool FastModeWith(std::optional<const char*> value) {
  const char* saved = std::getenv("SA_BENCH_FAST");
  const std::optional<std::string> restore =
      saved == nullptr ? std::nullopt : std::optional<std::string>(saved);
  if (value.has_value()) {
    setenv("SA_BENCH_FAST", *value, 1);
  } else {
    unsetenv("SA_BENCH_FAST");
  }
  const bool fast = FastMode();
  if (restore.has_value()) {
    setenv("SA_BENCH_FAST", restore->c_str(), 1);
  } else {
    unsetenv("SA_BENCH_FAST");
  }
  return fast;
}

TEST(BenchRecordTest, FastModeNeedsAValueOtherThanEmptyOrZero) {
  EXPECT_FALSE(FastModeWith(std::nullopt));
  EXPECT_FALSE(FastModeWith(""));
  EXPECT_FALSE(FastModeWith("0"));
  EXPECT_TRUE(FastModeWith("1"));
  EXPECT_TRUE(FastModeWith("yes"));
}

TEST(BenchRecordTest, WritesTheHostRecordThenOneFlatRecordPerLine) {
  BenchWriter out("codec");
  out.Add({.series = "block", .op = "sum", .width = 7}, 1.5e9, "B/s");
  out.Add({.series = "scan-pushdown",
           .op = "count_if",
           .width = 13,
           .distribution = "sorted",
           .selectivity = 0.01},
          2.25, "B/s");
  out.Add({.series = "sharded", .op = "acquire", .metric = "p99", .threads = 64}, 2815, "ns");
  const std::string path = testing::TempDir() + "bench_record_test.json";
  ASSERT_TRUE(out.Write(path));
  const std::string text = ReadFile(path);

  EXPECT_EQ(text.rfind("[\n  {\"bench\": \"codec\", \"series\": \"host\", \"cores\": ", 0), 0u);
  const size_t kernels = text.find("\"sum_kernels\": \"");
  ASSERT_NE(kernels, std::string::npos);
  const std::string letters = text.substr(kernels + 16, 64);
  EXPECT_EQ(letters.find_first_not_of("BVZ"), std::string::npos) << letters;
  EXPECT_EQ(text[kernels + 16 + 64], '"');
  EXPECT_NE(text.find("\"sa_obs\": "), std::string::npos);
  EXPECT_NE(text.find("\"fast\": "), std::string::npos);

  EXPECT_NE(text.find("\n  {\"bench\": \"codec\", \"series\": \"block\", \"op\": \"sum\", "
                      "\"width\": 7, \"value\": 1500000000, \"unit\": \"B/s\"},\n"),
            std::string::npos);
  EXPECT_NE(text.find("{\"bench\": \"codec\", \"series\": \"scan-pushdown\", \"op\": "
                      "\"count_if\", \"width\": 13, \"distribution\": \"sorted\", "
                      "\"selectivity\": 0.01, \"value\": 2.25, \"unit\": \"B/s\"}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"bench\": \"codec\", \"series\": \"sharded\", \"op\": \"acquire\", "
                      "\"metric\": \"p99\", \"threads\": 64, \"value\": 2815, \"unit\": \"ns\"}"
                      "\n]\n"),
            std::string::npos);
}

TEST(BenchRecordTest, WriteReportsAPathItCannotOpen) {
  BenchWriter out("graph");
  EXPECT_FALSE(out.Write(testing::TempDir() + "no-such-dir/BENCH_graph.json"));
}

}  // namespace
}  // namespace sa::report
