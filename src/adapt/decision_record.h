// Structured audit record of one §6 selection: the full selector inputs,
// every candidate considered with its Pandia-style estimate, the margin
// math, and a machine-readable outcome. The daemon retains the last K
// records per slot (runtime/audit.h) so `sa_cli explain` can reconstruct
// *why* a slot runs the configuration it runs, and the calibration loop can
// score each accepted prediction against the realized access rate.
#ifndef SA_ADAPT_DECISION_RECORD_H_
#define SA_ADAPT_DECISION_RECORD_H_

#include <cstdint>
#include <string>

#include "adapt/selector.h"
#include "adapt/specs.h"

namespace sa::adapt {

// Why a decision did (not) change the slot's configuration. Values are
// stable: the C-ABI (SaSlotDecision) and the trace ring expose them
// verbatim, and the first three mirror obs::TraceDecisionReason.
enum class DecisionReason : uint8_t {
  kAccepted = 0,
  kRejectSameConfig = 1,
  kRejectMargin = 2,
  // The flap detector held the slot down: the chosen configuration is the
  // one the slot moved away from within the daemon's flap window, so
  // accepting would oscillate A -> B -> A on workload noise.
  kFlapHold = 3,
};

const char* ToString(DecisionReason reason);

// One configuration the selector weighed, with its estimated speedup
// relative to the profiling configuration. `role` is a static string
// ("current" / "uncompressed" / "compressed").
struct CandidateRecord {
  Configuration config;
  uint32_t bits = 64;  // storage width this candidate would run at
  double estimated_speedup = 0.0;
  const char* role = "";
};

// Trace-word encoding of one configuration, shared by the trace ring and
// the explain C-ABI:
//   encoding << 24 | bits << 16 | placement kind << 8 | socket & 0xff.
inline uint64_t PackConfigWord(const Configuration& config, uint32_t bits) {
  return (static_cast<uint64_t>(config.encoding) << 24) | (uint64_t{bits} << 16) |
         (static_cast<uint64_t>(config.placement.kind) << 8) |
         static_cast<uint64_t>(config.placement.socket & 0xff);
}

// Inverse of PackConfigWord, as text: "placement[(socket)]/<bits>b", plus
// "/<encoding>" for anything but bit-packed (e.g. "interleaved/13b").
std::string DecodeConfigWord(uint64_t word);

struct DecisionRecord {
  static constexpr int kMaxCandidates = 4;

  // Causal identity: the per-adaptation trace id threaded through
  // sample_drain -> decision -> restructure -> publish -> version_reclaim.
  uint64_t trace_id = 0;
  uint64_t ns = 0;  // steady-clock nanoseconds at decision time

  // Everything the selector saw, verbatim.
  SelectorInputs inputs;

  // Candidates in consideration order: the selector appends the Fig. 13a/b
  // candidates, the daemon appends the incumbent configuration.
  CandidateRecord candidates[kMaxCandidates];
  int num_candidates = 0;

  // Margin math: chosen must beat current by `margin` to be accepted.
  Configuration current;
  Configuration chosen;
  uint32_t current_bits = 64;
  uint32_t chosen_bits = 64;
  double current_speedup = 0.0;
  double chosen_speedup = 0.0;  // after any estimator bias (test hook)
  double margin = 0.0;          // hysteresis in force (min_predicted_win)
  double predicted_win = 0.0;   // chosen_speedup / current_speedup - 1

  DecisionReason reason = DecisionReason::kRejectSameConfig;

  // Accepted decisions only: whether the rebuilt storage actually published
  // (a lost-write race or width-overflow abort leaves published == false)
  // and the version sequence it published as.
  bool published = false;
  uint64_t published_sequence = 0;

  // Calibration score, filled by the daemon's first sample drain after the
  // publish: realized = post-restructure access rate / pre-restructure EWMA,
  // predicted = chosen_speedup / current_speedup, error = their relative
  // disagreement.
  bool scored = false;
  double pre_rate = 0.0;         // accesses/s EWMA before the restructure
  double post_rate = 0.0;        // first drained accesses/s after it
  double predicted_ratio = 0.0;
  double realized_ratio = 0.0;
  double calibration_error = 0.0;  // |realized - predicted| / predicted

  void AddCandidate(const char* role, const Configuration& config, uint32_t bits,
                    double estimated_speedup) {
    if (num_candidates >= kMaxCandidates) {
      return;
    }
    candidates[num_candidates++] = CandidateRecord{config, bits, estimated_speedup, role};
  }
};

}  // namespace sa::adapt

#endif  // SA_ADAPT_DECISION_RECORD_H_
