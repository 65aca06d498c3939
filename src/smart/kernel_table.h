// Measured per-width codec kernel dispatch.
//
// PR 1 selected the AVX2 sum kernel purely on CPUID, and BENCH_codec.json
// showed that losing at six widths (13/17/24/33/48/50): the gather decoder
// was slower than the scalar block kernel there. The fix is structural:
// kernel choice is a per-width table built once per process, and a width
// only gets a vector kernel if that kernel *measured* faster than the
// kernel it would replace on this host at table-build time. No width can
// regress below the block kernel again, on any machine, without the table
// refusing the vector path.
//
// Build happens lazily on first use (thread-safe magic static), a few
// milliseconds of one-time calibration: at every width, block races v2
// where v2 exists, then the winner races AVX-512 where that exists;
// best-of-N times decide and a challenger must strictly win. Overrides:
//   * SA_DISABLE_AVX2 != "0"      — scalar block kernels everywhere
//     (the existing CI lane; checked via sa::HostCpuFeatures()).
//   * SA_FORCE_KERNEL=block       — scalar block kernels everywhere.
//   * SA_FORCE_KERNEL=avx2        — v2 kernels wherever they exist, even if
//     they measured slower, and no AVX-512 kernels (benchmarking, tests).
//   * SA_FORCE_KERNEL=avx512      — AVX-512 kernels wherever they exist and
//     the host can run them; every other width keeps its measured choice.
//   * SA_FORCE_KERNEL=auto / unset — measured selection (the default).
#ifndef SA_SMART_KERNEL_TABLE_H_
#define SA_SMART_KERNEL_TABLE_H_

#include <cstdint>

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

// Selected kernel set for one width. The function pointers bind the winning
// kind's range walkers directly, so dispatching callers pay one table load
// + one indirect call per range, never per chunk.
struct KernelOps {
  uint64_t (*sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end) = nullptr;
  uint64_t (*sum2_range)(const uint64_t* r1, const uint64_t* r2, uint64_t begin,
                         uint64_t end) = nullptr;
  // Decodes one whole chunk into out[0..63] (out may be unaligned).
  void (*unpack_chunk)(const uint64_t* replica, uint64_t chunk, uint64_t* out) = nullptr;
  // Predicate range walkers over a normalized predicate (predicate.h),
  // calibrated separately from the sum kernels: the compare changes the
  // arithmetic density enough that the ranking can differ per width.
  // select_if_range ORs the match bit of element begin+i into bitmap bit
  // bit_offset+i and returns the match count.
  uint64_t (*count_if_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                             ScanPredicate p) = nullptr;
  uint64_t (*select_if_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                              ScanPredicate p, uint64_t* bitmap, uint64_t bit_offset) = nullptr;
  uint64_t (*filtered_sum_range)(const uint64_t* replica, uint64_t begin, uint64_t end,
                                 ScanPredicate p) = nullptr;
  KernelKind kind = KernelKind::kBlock;
  KernelKind predicate_kind = KernelKind::kBlock;
};

// The selected kernels for `bits` (1..64). First call builds the whole
// table (every width) so selections are stable for the process lifetime.
const KernelOps& KernelsFor(uint32_t bits);

// The kernel set of `kind` at `bits`, or nullptr where the kind has no
// kernels at that width or the host cannot run them (CPUID minus
// SA_DISABLE_AVX2); kBlock is always there. Candidacy, not selection: the
// differential tests and micro_codec target a kind through this even at
// widths where the table bound another.
const KernelOps* CandidateKernels(uint32_t bits, KernelKind kind);

}  // namespace sa::smart

#endif  // SA_SMART_KERNEL_TABLE_H_
