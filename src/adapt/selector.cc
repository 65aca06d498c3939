#include "adapt/selector.h"

#include <algorithm>

#include "adapt/decision_record.h"
#include "common/macros.h"

namespace sa::adapt {

WorkloadCounters CountersFromReport(const sim::RunReport& report,
                                    const sim::MachineModel& machine,
                                    double accesses_per_unit, double elem_bytes,
                                    double dataset_bytes, double random_fraction) {
  const sim::MachineSpec& spec = machine.spec();
  WorkloadCounters c;
  SA_CHECK(report.seconds > 0.0);

  double cycles_util = 0.0;
  double mem_util = 0.0;
  double mem_gbps = 0.0;
  for (int s = 0; s < spec.sockets; ++s) {
    cycles_util += report.cycles_utilization[s];
    mem_util = std::max(mem_util, report.mem_utilization[s]);
    mem_gbps += report.mem_gbps[s];
  }
  cycles_util /= spec.sockets;

  c.exec_current_per_socket =
      cycles_util * spec.cores_per_socket * spec.cycles_per_second_per_core();
  c.bw_current_memory = mem_gbps * 1e9 / spec.sockets;
  c.max_mem_utilization = mem_util;
  c.max_ic_utilization = report.max_ic_utilization;
  c.accesses_per_second = report.total_work / report.seconds * accesses_per_unit;
  c.elem_bytes = elem_bytes;
  c.dataset_bytes = dataset_bytes;
  c.random_fraction = random_fraction;
  return c;
}

const char* ToString(DecisionReason reason) {
  switch (reason) {
    case DecisionReason::kAccepted:
      return "accepted";
    case DecisionReason::kRejectSameConfig:
      return "reject-same-config";
    case DecisionReason::kRejectMargin:
      return "reject-margin";
    case DecisionReason::kFlapHold:
      return "flap-hold";
  }
  return "?";
}

std::string DecodeConfigWord(uint64_t word) {
  const auto kind = static_cast<smart::Placement>((word >> 8) & 0xff);
  const auto bits = static_cast<uint32_t>((word >> 16) & 0xff);
  const auto encoding = static_cast<smart::Encoding>((word >> 24) & 0xff);
  std::string s = smart::ToString(kind);
  // Appended piecewise: gcc 12 at -O3 reports `"(" + std::to_string(n)` as -Wrestrict.
  if (kind == smart::Placement::kSingleSocket) {
    s += '(';
    s += std::to_string(word & 0xff);
    s += ')';
  }
  s += '/';
  s += std::to_string(bits);
  s += 'b';
  if (encoding != smart::Encoding::kBitPacked) {
    s += std::string("/") + smart::ToString(encoding);
  }
  return s;
}

SelectorResult ChooseConfiguration(const SelectorInputs& inputs, DecisionRecord* record) {
  const bool space_uncompressed =
      inputs.space_for_uncompressed_replication.value_or(SpaceForReplication(
          inputs.machine, inputs.counters, inputs.compression_ratio, /*compressed=*/false));
  const bool space_compressed =
      inputs.space_for_compressed_replication.value_or(SpaceForReplication(
          inputs.machine, inputs.counters, inputs.compression_ratio, /*compressed=*/true));

  SelectorResult result;
  result.uncompressed_candidate = SelectPlacementUncompressed(
      inputs.machine, inputs.hints, inputs.counters, space_uncompressed);
  result.compressed_candidate =
      SelectPlacementCompressed(inputs.machine, inputs.hints, inputs.counters, space_compressed,
                                inputs.costs, inputs.compression_ratio);
  result.chosen = ChooseBetweenCandidates(inputs.machine, inputs.counters, inputs.costs,
                                          result.uncompressed_candidate,
                                          result.compressed_candidate,
                                          inputs.compression_ratio);

  // Encoding axis (the third §6 decision, after placement and compression):
  // frame-of-reference+delta trades away in-place writes for narrower words
  // and per-chunk zone maps. Eligibility is deliberately evidence-gated: the
  // slot must be programmer-declared read-only AND have *observed* predicate
  // scans (selectivity ≥ 0 means the workload sample actually contained
  // CountIf/SelectIf/FilteredSum traffic; −1 means it never scanned).
  // Without scan evidence there is no workload the re-encoding can win on —
  // and read-only consumers that walk raw packed words (the graph kernels
  // cache replica pointers + a width codec per pin) stay on the bit-packed
  // geometry they assume. Within that gate the encoding must either shrink
  // the packed words materially (ratio ≤ 0.75 ⇒ ≥25% fewer words scanned
  // per pass) or serve a selective workload (selectivity < 10% ⇒ the
  // tighter per-chunk frames convert mixed chunks into zone-map skips).
  if (result.chosen.compressed && inputs.hints.read_only &&
      inputs.hints.predicate_selectivity >= 0.0 && inputs.for_delta_ratio < 1.0) {
    const bool shrinks_words = inputs.for_delta_ratio <= 0.75;
    const bool selective_scans = inputs.hints.predicate_selectivity < 0.10;
    if (shrinks_words || selective_scans) {
      result.chosen.encoding = smart::Encoding::kForDelta;
    }
  }

  if (record != nullptr) {
    record->inputs = inputs;
    record->num_candidates = 0;
    const uint32_t data_bits = static_cast<uint32_t>(inputs.compression_ratio * 64.0 + 0.5);
    const Configuration uncompressed{result.uncompressed_candidate, false,
                                     smart::Encoding::kBitPacked};
    record->AddCandidate("uncompressed", uncompressed, 64,
                         EstimateConfigSpeedup(inputs.machine, inputs.counters, inputs.costs,
                                               uncompressed, inputs.compression_ratio));
    if (result.compressed_candidate.has_value()) {
      const Configuration compressed{*result.compressed_candidate, true,
                                     smart::Encoding::kBitPacked};
      record->AddCandidate("compressed", compressed, data_bits,
                           EstimateConfigSpeedup(inputs.machine, inputs.counters, inputs.costs,
                                                 compressed, inputs.compression_ratio));
    }
    record->chosen = result.chosen;
    record->chosen_bits = result.chosen.compressed ? data_bits : 64;
  }
  return result;
}

}  // namespace sa::adapt
