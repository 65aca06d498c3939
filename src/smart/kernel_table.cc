// The per-width codec table and its measured kernel selection (see
// kernel_table.h for the policy).
//
// All 64 widths calibrate against the same packed pseudo-random buffer:
// any bit pattern is a valid packed chunk, so one fill serves every width
// and the whole build runs once per process (about 40 ms on a 4-core Xeon
// VM). The build races the candidate entries directly: CodecFor's magic
// static is what it initializes, so reaching CodecFor from here would
// recurse.

#include "smart/kernel_table.h"

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <utility>
#include <vector>

#include "common/cpu_features.h"
#include "common/macros.h"
#include "common/random.h"
#include "obs/telemetry.h"
#include "smart/bit_compressed_array.h"

namespace sa::smart {
namespace {

constexpr KernelKind kKinds[] = {KernelKind::kBlock, KernelKind::kAvx2V2, KernelKind::kAvx512};
constexpr size_t kNumKinds = std::size(kKinds);

// SA_FORCE_KERNEL; nullopt is the measured default (unset, "auto", or an
// unknown value, which falls back rather than aborting).
std::optional<KernelKind> ForcedKindFromEnv() {
  const char* env = std::getenv("SA_FORCE_KERNEL");
  if (env == nullptr) {
    return std::nullopt;
  }
  if (std::strcmp(env, "block") == 0) {
    return KernelKind::kBlock;
  }
  if (std::strcmp(env, "avx2") == 0) {
    return KernelKind::kAvx2V2;
  }
  if (std::strcmp(env, "avx512") == 0) {
    return KernelKind::kAvx512;
  }
  return std::nullopt;
}

// Every kind's entry for one width, indexed by KernelKind, and whether it
// may run: the host can run it and no forced kind comes before it.
struct Candidates {
  CodecOps ops[kNumKinds];
  bool runnable[kNumKinds] = {};
};

template <uint32_t BITS>
Candidates MakeCandidates(std::optional<KernelKind> forced) {
  using Codec = BitCompressedArray<BITS>;
  Candidates c;
  for (const KernelKind kind : kKinds) {
    c.ops[static_cast<size_t>(kind)] = Codec::Ops(kind);
  }
  const CpuFeatures& cpu = HostCpuFeatures();
  const auto allowed = [&](KernelKind kind) { return !forced.has_value() || kind <= *forced; };
  c.runnable[static_cast<size_t>(KernelKind::kBlock)] = true;
  c.runnable[static_cast<size_t>(KernelKind::kAvx2V2)] =
      Codec::kHasV2 && cpu.avx2 && allowed(KernelKind::kAvx2V2);
  c.runnable[static_cast<size_t>(KernelKind::kAvx512)] =
      Codec::kHasAvx512 && cpu.avx512 && allowed(KernelKind::kAvx512);
  return c;
}

// Calibration workload: 512 chunks (32768 elements). That spills the packed
// buffer out of L1 at every width, which matters: the scalar block kernel
// auto-vectorizes well at some even widths and the ranking between it and
// the vector kernels can differ between an L1-resident toy loop and the
// streaming scans the table actually serves.
constexpr uint64_t kCalibChunks = 512;
constexpr uint64_t kCalibElems = kCalibChunks * kChunkElems;

// True when `challenger` strictly beats `incumbent` at `run`: one warm-up
// call each, then best-of-5 sampled interleaved (incumbent, challenger,
// incumbent, ...) so a frequency or preemption swing during calibration
// hits both kernels instead of biasing whichever ran second. A tie (or
// noise within a tie) keeps the incumbent. Results feed `sink` so the calls
// cannot be optimized away.
template <typename Run>
bool ChallengerWins(const CodecOps& incumbent, const CodecOps& challenger, const Run& run,
                    uint64_t* sink) {
  using Clock = std::chrono::steady_clock;
  const CodecOps* sides[2] = {&incumbent, &challenger};
  uint64_t best_ns[2] = {UINT64_MAX, UINT64_MAX};
  for (int rep = -1; rep < 5; ++rep) {
    for (int side = 0; side < 2; ++side) {
      const Clock::time_point start = Clock::now();
      *sink ^= run(*sides[side]);
      const auto ns = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count());
      if (rep >= 0) {
        best_ns[side] = std::min(best_ns[side], ns);
      }
    }
  }
  return best_ns[1] < best_ns[0];
}

struct Table {
  CodecOps ops[65];           // the selection per width
  Candidates candidates[65];  // every kind per width
};

Table BuildTable() {
  Table table;
  Candidates* cand = table.candidates;
  const std::optional<KernelKind> forced = ForcedKindFromEnv();
  [&]<size_t... I>(std::index_sequence<I...>) {
    ((cand[I + 1] = MakeCandidates<I + 1>(forced)), ...);
  }(std::make_index_sequence<64>{});

  constexpr auto kBlockIdx = static_cast<size_t>(KernelKind::kBlock);
  table.ops[0] = cand[1].ops[kBlockIdx];  // never a valid width; defensively block

  // One packed buffer serves every width: sized for the widest chunk, and
  // any bit pattern decodes to *some* valid value sequence.
  std::vector<uint64_t> words(kCalibChunks * WordsPerChunk(64));
  for (size_t i = 0; i < words.size(); ++i) {
    words[i] = SplitMix64(i + 1);
  }
  volatile uint64_t sink = 0;
  uint64_t local_sink = 0;
  const auto run_sum = [&](const CodecOps& k) { return k.sum_range(words.data(), 0, kCalibElems); };

  for (uint32_t bits = 1; bits <= 64; ++bits) {
    // The predicate family races its range walker, because that is what
    // gets bound. `v < mid` is a ~half-selective compare: match cost is
    // selectivity-independent (every element is compared), so any bound
    // ranks the kernels identically, and mid keeps the compare honest
    // against branch-predictor artifacts in the scalar loop.
    const ScanPredicate mid{ScanPredicate::Kind::kLt, std::max<uint64_t>(1, LowMask(bits) >> 1),
                            false};
    const auto run_pred = [&](const CodecOps& k) {
      return k.count_if_range(words.data(), 0, kCalibElems, mid);
    };
    CodecOps sum = cand[bits].ops[kBlockIdx];
    CodecOps pred = sum;
    for (const KernelKind kind : {KernelKind::kAvx2V2, KernelKind::kAvx512}) {
      const auto k = static_cast<size_t>(kind);
      if (!cand[bits].runnable[k]) {
        continue;
      }
      const CodecOps& challenger = cand[bits].ops[k];
      if (forced == kind) {
        sum = pred = challenger;
        continue;
      }
      // The sum and predicate families race separately: the compare
      // shifts the compute/bandwidth balance, so the winner can differ.
      if (ChallengerWins(sum, challenger, run_sum, &local_sink)) {
        sum = challenger;
      }
      if (ChallengerWins(pred, challenger, run_pred, &local_sink)) {
        pred = challenger;
      }
    }
    table.ops[bits] = sum;
    table.ops[bits].count_if_range = pred.count_if_range;
    table.ops[bits].select_if_range = pred.select_if_range;
    table.ops[bits].filtered_sum_range = pred.filtered_sum_range;
    table.ops[bits].predicate_kind = pred.kind;
  }
  sink = local_sink;
  (void)sink;
  return table;
}

}  // namespace

const char* ToString(KernelKind kind) {
  switch (kind) {
    case KernelKind::kBlock:
      return "block";
    case KernelKind::kAvx2V2:
      return "avx2-v2";
    case KernelKind::kAvx512:
      return "avx512";
  }
  return "unknown";
}

namespace {

// Records how calibration resolved each width's sum family, once per
// process: one count per width under its selected kind.
const Table& CalibratedTable() {
  static const Table table = [] {
    Table t = BuildTable();
    for (uint32_t bits = 1; bits <= 64; ++bits) {
      switch (t.ops[bits].kind) {
        case KernelKind::kBlock:
          SA_OBS_COUNT(kKernelSelectBlock);
          break;
        case KernelKind::kAvx2V2:
          SA_OBS_COUNT(kKernelSelectV2);
          break;
        case KernelKind::kAvx512:
          SA_OBS_COUNT(kKernelSelectAvx512);
          break;
      }
    }
    return t;
  }();
  return table;
}

}  // namespace

const CodecOps* internal::CalibratedCodecs() { return CalibratedTable().ops; }

const CodecOps* CandidateKernels(uint32_t bits, KernelKind kind) {
  SA_CHECK_MSG(bits >= 1 && bits <= 64, "bit width must be 1..64");
  const Candidates& c = CalibratedTable().candidates[bits];
  const auto k = static_cast<size_t>(kind);
  return c.runnable[k] ? &c.ops[k] : nullptr;
}

}  // namespace sa::smart
