// The one record format every BENCH_*.json harness writes (micro_codec,
// micro_runtime, sa_loadgen, bench_graph), and the one place that decides
// what SA_BENCH_FAST means.
//
// A file is a JSON array of flat records. Each record is a single number
// with its unit and the keys that identify it: `bench`, `series`, `op`, and
// where the harness varies them `metric`, `width`, `encoding`, `placement`,
// `threads`, `distribution` and `selectivity`. The first record describes
// the host instead (`"series": "host"`: cores, sockets, ISA flags, the
// kernel bound at each width, whether telemetry is live, fast mode).
// tools/bench_diff.py checks one file against its gates and diffs two files
// record by record.
#ifndef SA_REPORT_BENCH_RECORD_H_
#define SA_REPORT_BENCH_RECORD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace sa::report {

// True when SA_BENCH_FAST is set to anything but "" or "0". Harnesses then
// shrink their windows or inputs, and the gates that need full-size runs
// skip the file (the host record says which mode it ran in).
bool FastMode();

// The keys of one record. Empty strings and zero numbers are left out of
// the file, so a harness names only what it varies.
struct Key {
  std::string series{};
  std::string op{};
  std::string metric{};  // the statistic, when one op yields several numbers
  uint32_t width = 0;
  std::string encoding{};
  std::string placement{};
  int threads = 0;
  std::string distribution{};
  double selectivity = 0.0;
};

class BenchWriter {
 public:
  // `bench` names the harness: "codec", "runtime", "service" or "graph".
  explicit BenchWriter(std::string bench);

  // Units with a direction ("B/s", "1/s" higher is better; "s", "ns"
  // lower) are diffed; "count" and "ratio" are reported, not diffed.
  void Add(const Key& key, double value, const char* unit);

  // Writes the host record, then every added record, one per line.
  // Returns false, after saying why on stderr, if `path` cannot be written.
  bool Write(const std::string& path) const;

 private:
  std::string bench_;
  std::vector<std::string> records_;
};

}  // namespace sa::report

#endif  // SA_REPORT_BENCH_RECORD_H_
