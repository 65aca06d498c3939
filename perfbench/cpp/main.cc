// sa_perfbench: one run of one benchmark workload.
//
//   sa_perfbench --workload scan|table|graph|service --seed N --seconds S
//                --trace 0|1 [--out-dir DIR] [--git-sha SHA]
//
// The last line of stdout is the result object; run details (context,
// deterministic outputs) and, for traced runs, the span trace are written
// under --out-dir.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: sa_perfbench --workload scan|table|graph|service --seed N "
               "--seconds S --trace 0|1 [--out-dir DIR] [--git-sha SHA]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value != "0";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--git-sha") {
      options.git_sha = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !(options.seconds > 0)) {
    return Usage();
  }
  perfbench::HostStealShare();  // the run context reports steal since here
  if (options.workload == "scan") return perfbench::RunScan(options);
  if (options.workload == "table") return perfbench::RunTable(options);
  if (options.workload == "graph") return perfbench::RunGraph(options);
  if (options.workload == "service") return perfbench::RunService(options);
  return Usage();
}
