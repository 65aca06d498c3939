// Inputs to the adaptivity mechanism (paper §6).
//
// The selection is based on three inputs: a machine specification, array
// performance characteristics, and workload counters collected from a
// profiling run (the paper collects them with PCM from a previous run or a
// previous iteration; here they come from the machine simulator's
// PCM-style report, or from any caller-provided measurement).
#ifndef SA_ADAPT_SPECS_H_
#define SA_ADAPT_SPECS_H_

#include <optional>

#include "sim/cost_model.h"
#include "sim/machine_model.h"
#include "sim/machine_spec.h"
#include "smart/placement.h"
#include "smart/smart_array.h"

namespace sa::adapt {

// "A specification of the machine containing the size of the system memory,
// the maximum bandwidth between components and the maximum compute available
// on each core" (§6).
struct MachineCaps {
  int sockets = 2;
  double mem_bytes_per_socket = 0.0;
  double exec_max_per_socket = 0.0;    // cycles/s across a socket's cores
  double bw_max_memory = 0.0;          // bytes/s per socket memory channel
  double bw_max_interconnect = 0.0;    // bytes/s per interconnect direction

  static MachineCaps FromSpec(const sim::MachineSpec& spec);
};

// "Software characteristics ... based on information provided by the
// programmer such as numbers of iterations or if the accesses are read-only"
// (§6.1).
struct SoftwareHints {
  bool read_only = true;
  bool mostly_reads = true;
  // Expected accesses per element over the workload's lifetime; replication
  // needs several to amortize replica initialization.
  double linear_passes = 1.0;
  double random_passes = 0.0;
  // Observed predicate-scan selectivity in [0,1] from the slot's workload
  // sample (-1 = no predicate scans observed). Selective scan workloads
  // reward encodings that tighten zone maps and shrink the scanned words.
  double predicate_selectivity = -1.0;
};

// "Runtime characteristics ... based on measurements of the workload" (§6):
// hardware-counter aggregates from the profiling configuration (uncompressed
// interleaved, equal threads per core).
struct WorkloadCounters {
  double exec_current_per_socket = 0.0;  // cycles/s actually consumed
  double bw_current_memory = 0.0;        // bytes/s per socket memory (avg)
  double max_mem_utilization = 0.0;      // most-loaded channel, [0,1]
  double max_ic_utilization = 0.0;       // most-loaded link direction, [0,1]
  double accesses_per_second = 0.0;      // element accesses across the machine
  double elem_bytes = 8.0;               // uncompressed element size
  double dataset_bytes = 0.0;            // uncompressed dataset footprint
  double random_fraction = 0.0;          // share of accesses that are random

  bool memory_bound() const { return max_mem_utilization > 0.85 || max_ic_utilization > 0.85; }
  bool significant_random() const { return random_fraction > 0.25; }
};

// "A specification of performance characteristics of the arrays such as the
// costs of accessing a compressed data item ... specific to the array and
// the machine, but not the workload" (§6).
struct ArrayCosts {
  // Extra core cycles per access for a bit-compressed element.
  double compressed_linear_cycles = 0.0;
  double compressed_random_cycles = 0.0;

  static ArrayCosts FromCostModel(const sim::CostModel& cost) {
    ArrayCosts a;
    a.compressed_linear_cycles =
        cost.elem_compressed.cycles - cost.elem_uncompressed.cycles;
    a.compressed_random_cycles =
        cost.random_get_compressed.cycles - cost.random_get_uncompressed.cycles;
    return a;
  }
};

// Hysteresis margin for online adaptation (the runtime AdaptationDaemon's
// default min_predicted_win): a restructure is only worth its rebuild cost
// (and the risk of ping-ponging on a noisy profile) when the chosen
// configuration's estimated speedup exceeds the current configuration's by
// at least this fraction.
inline constexpr double kDefaultAdaptationMargin = 0.05;

// The outcome: a placement, whether to bit-compress, and — when compressed —
// which encoding to pack with (§6 treats the data representation as a
// selected axis; frame-of-reference+delta is the first alternative encoding).
struct Configuration {
  smart::PlacementSpec placement = smart::PlacementSpec::Interleaved();
  bool compressed = false;
  smart::Encoding encoding = smart::Encoding::kBitPacked;

  bool operator==(const Configuration& o) const {
    return placement == o.placement && compressed == o.compressed && encoding == o.encoding;
  }
};

std::string ToString(const Configuration& config);

}  // namespace sa::adapt

#endif  // SA_ADAPT_SPECS_H_
