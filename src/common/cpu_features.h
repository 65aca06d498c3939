// Runtime CPU feature detection for the kernel dispatch layer.
//
// The chunk-granular codec kernels (smart/bit_compressed_array.h) ship a
// portable scalar block path plus AVX2 and AVX-512 paths compiled with
// per-function target attributes, so the library builds without -mavx2 or
// -mavx512* and still runs on machines without them. Which paths may execute
// is decided once per process from CPUID, here.
#ifndef SA_COMMON_CPU_FEATURES_H_
#define SA_COMMON_CPU_FEATURES_H_

namespace sa {

struct CpuFeatures {
  bool avx2 = false;
  // AVX-512 F + BW + VL + DQ + VBMI: every instruction the 32-bit-lane
  // decode (smart/chunk_kernels_avx512.h) uses, vpermb included.
  bool avx512 = false;
};

// Features of the host CPU from CPUID, probed once (thread-safe, cached).
// SA_FORCE_KERNEL=block (smart/kernel_table.h) keeps SIMD kernels from
// running on a host that has them.
const CpuFeatures& HostCpuFeatures();

}  // namespace sa

#endif  // SA_COMMON_CPU_FEATURES_H_
