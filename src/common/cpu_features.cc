#include "common/cpu_features.h"

namespace sa {
namespace {

CpuFeatures Detect() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(__i386__)
  features.avx2 = __builtin_cpu_supports("avx2") != 0;
  features.avx512 = __builtin_cpu_supports("avx512f") != 0 &&
                    __builtin_cpu_supports("avx512bw") != 0 &&
                    __builtin_cpu_supports("avx512vl") != 0 &&
                    __builtin_cpu_supports("avx512dq") != 0 &&
                    __builtin_cpu_supports("avx512vbmi") != 0;
#endif
  return features;
}

}  // namespace

const CpuFeatures& HostCpuFeatures() {
  static const CpuFeatures features = Detect();
  return features;
}

}  // namespace sa
