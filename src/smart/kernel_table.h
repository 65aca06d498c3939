// The per-width codec table: runtime-`bits` dispatch to the compile-time
// BitCompressedArray<BITS> codec, with the measured kernels bound in.
//
// The paper's entry points take the bit width as a runtime argument and
// branch once to that width's specialised code, "avoiding the overhead of
// the virtual dispatch" (§4.3, Fig. 9). CodecFor(bits) is that branch: one
// CodecOps per width, holding the width's codec functions and the range
// kernels this host measured fastest, so a caller pays one table load and
// one indirect call per range, never per chunk.
//
// Kernel choice is measured, not assumed. Selecting the AVX2 sum kernel on
// CPUID alone lost to the scalar block kernel at six widths
// (13/17/24/33/48/50) in BENCH_codec.json, so a width only gets a vector
// kernel if that kernel measured faster than the kernel it would replace on
// this host when the table was built. No width can regress below the block
// kernel, on any machine, without the table refusing the vector path.
//
// The table is built on first use (thread-safe magic static) by a one-time
// calibration, about 40 ms on a 4-core Xeon VM: at every width, block races
// v2 where v2 exists, then the winner races AVX-512 where that exists;
// best-of-N times decide and a challenger must strictly win. The
// calibration calls the candidate kernels directly and never CodecFor.
// Overrides (one variable; a forced kind makes every kind after it
// unrunnable, so CandidateKernels returns nullptr for those too):
//   * SA_FORCE_KERNEL=block       — scalar block kernels everywhere and no
//     SIMD instruction at all: the scalar-host mode CI runs on SIMD hosts.
//   * SA_FORCE_KERNEL=avx2        — v2 kernels wherever they exist, even if
//     they measured slower, and no AVX-512 kernels (benchmarking, tests).
//   * SA_FORCE_KERNEL=avx512      — AVX-512 kernels wherever they exist and
//     the host can run them; every other width keeps its measured choice.
//   * SA_FORCE_KERNEL=auto / unset — measured selection (the default).
#ifndef SA_SMART_KERNEL_TABLE_H_
#define SA_SMART_KERNEL_TABLE_H_

#include <cstdint>

#include "common/macros.h"
#include "smart/predicate.h"

namespace sa::smart {

// Declaration order is the calibration race order (and the order in which
// a forced kind excludes the kinds after it).
enum class KernelKind : uint8_t {
  kBlock,   // scalar block kernels (branch-free unrolled shift/mask decode)
  kAvx2V2,  // AVX2 shift-network v2, 4 values per vector (chunk_kernels_avx2.h)
  kAvx512,  // AVX-512 32-bit lanes, 16 values per vector (chunk_kernels_avx512.h)
};

const char* ToString(KernelKind kind);

// One width's entry: the selected kernels (CodecFor), or one kind's
// (CandidateKernels).
struct CodecOps {
  // Functions 1 and 2, and the chunk-streaming seam (bulk decode into /
  // encode from a caller buffer; whole chunks decode through the selected
  // entry's `unpack`). These are the same for every kind.
  uint64_t (*get)(const uint64_t* replica, uint64_t index) = nullptr;
  void (*init)(uint64_t* replica, uint64_t index, uint64_t value) = nullptr;
  void (*init_atomic)(uint64_t* replica, uint64_t index, uint64_t value) = nullptr;
  void (*unpack_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                       uint64_t* out) = nullptr;
  void (*pack_range)(uint64_t* replica, uint64_t begin, uint64_t end,
                     const uint64_t* in) = nullptr;
  // The kind's range walkers over [begin, end): the sum family races as
  // `kind`, the predicate family as `predicate_kind` (the compare changes
  // the arithmetic density enough that the ranking can differ per width).
  uint64_t (*sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end) = nullptr;
  uint64_t (*sum2_range)(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                         uint64_t end) = nullptr;
  // Function 3 through `kind`'s chunk decoder: one whole chunk into
  // out[0..63] (out may be unaligned).
  void (*unpack)(const uint64_t* replica, uint64_t chunk, uint64_t* out) = nullptr;
  // Pushdown scans over a normalized predicate (predicate.h), on the packed
  // words without materializing decoded values. select_if_range only ORs
  // bits into `bitmap` (bit `bit_offset + i` = element begin+i matches) and
  // returns the match count; callers zero the buffer.
  uint64_t (*count_if_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                             ScanPredicate p) = nullptr;
  uint64_t (*select_if_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                              ScanPredicate p, uint64_t* bitmap, uint64_t bit_offset) = nullptr;
  uint64_t (*filtered_sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 ScanPredicate p) = nullptr;
  KernelKind kind = KernelKind::kBlock;
  KernelKind predicate_kind = KernelKind::kBlock;
};

namespace internal {

// The calibrated entries, indexed by width (entry 0 unused). The first call
// builds the whole table, so selections are stable for the process lifetime.
const CodecOps* CalibratedCodecs();

}  // namespace internal

// The entry for `bits` (1..64).
inline const CodecOps& CodecFor(uint32_t bits) {
  SA_CHECK_MSG(bits >= 1 && bits <= 64, "bit width must be 1..64");
  static const CodecOps* const table = internal::CalibratedCodecs();
  return table[bits];
}

// Older names of CodecOps and CodecFor, kept for the benchmark harness.
using KernelOps = CodecOps;
inline const CodecOps& KernelsFor(uint32_t bits) { return CodecFor(bits); }

// The entry of `kind` at `bits`, or nullptr where the kind has no kernels
// at that width, the host cannot run them (CPUID), or SA_FORCE_KERNEL forces
// a kind before it; kBlock is always there. Candidacy, not selection: the differential tests
// and micro_codec target a kind through this even at widths where the table
// bound another.
const CodecOps* CandidateKernels(uint32_t bits, KernelKind kind);

}  // namespace sa::smart

#endif  // SA_SMART_KERNEL_TABLE_H_
