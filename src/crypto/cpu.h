/// \file cpu.h
/// \brief Runtime CPU dispatch for the crypto primitives.
///
/// The accelerated AES-GCM and SHA-256 paths use x86 instructions (AES-NI,
/// PCLMULQDQ, SHA-NI) compiled per function with target attributes, so one
/// binary runs everywhere: each process probes the CPU once, at first use,
/// and every default-constructed context takes the fastest path the CPU
/// supports. The portable code stays compiled as the fallback and as the
/// oracle the differential tests and benches compare against.

#pragma once

namespace confide::crypto {

/// \brief Which implementation a context runs.
enum class CryptoImpl {
  kPortable,     ///< Byte-oriented C++ that runs on any CPU.
  kAccelerated,  ///< Hardware instructions; needs the matching ISA.
};

/// \brief Instruction-set extensions the crypto code can use.
struct CpuFeatures {
  bool aes_ni = false;  ///< AES-NI + PCLMULQDQ + SSSE3 + SSE4.1 (AES, GCM).
  bool sha_ni = false;  ///< SHA extensions + SSSE3 + SSE4.1 (SHA-256).
};

/// \brief The features of the CPU this process runs on (probed once).
const CpuFeatures& DetectedCpu();

/// \brief The implementation AES and AES-GCM contexts use by default.
CryptoImpl DefaultAesImpl();

/// \brief The implementation SHA-256 contexts use by default.
CryptoImpl DefaultShaImpl();

}  // namespace confide::crypto
