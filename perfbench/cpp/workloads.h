// The benchmark's workloads. Each sets up its inputs from options.seed,
// runs its closed loop for options.seconds, checks every answer, and
// reports through Report::Finish. They return the process exit code.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "harness.h"

namespace perfbench {

// Threads a workload may run at once, counting clients, pool workers and
// daemon threads: one per CPU of this host.
inline constexpr int kThreadBudget = 4;

int RunScan(const Options& options);
int RunTable(const Options& options);
int RunGraph(const Options& options);
int RunService(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
