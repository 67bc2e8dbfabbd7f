#include "crypto/cpu.h"

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "common/metrics.h"

namespace confide::crypto {

namespace {

CpuFeatures Probe() {
  CpuFeatures features;
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return features;
  const bool ssse3 = ecx & (1u << 9);
  const bool sse41 = ecx & (1u << 19);
  const bool pclmul = ecx & (1u << 1);
  const bool aes = ecx & (1u << 25);
  bool sha = false;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) sha = ebx & (1u << 29);
  features.aes_ni = aes && pclmul && ssse3 && sse41;
  features.sha_ni = sha && ssse3 && sse41;
#endif
  return features;
}

}  // namespace

const CpuFeatures& DetectedCpu() {
  static const CpuFeatures features = [] {
    CpuFeatures probed = Probe();
    // Node snapshots show which path this process runs.
    metrics::GetGauge("crypto.impl.aes_ni")->Set(probed.aes_ni ? 1 : 0);
    metrics::GetGauge("crypto.impl.sha_ni")->Set(probed.sha_ni ? 1 : 0);
    return probed;
  }();
  return features;
}

CryptoImpl DefaultAesImpl() {
  return DetectedCpu().aes_ni ? CryptoImpl::kAccelerated : CryptoImpl::kPortable;
}

CryptoImpl DefaultShaImpl() {
  return DetectedCpu().sha_ni ? CryptoImpl::kAccelerated : CryptoImpl::kPortable;
}

}  // namespace confide::crypto
