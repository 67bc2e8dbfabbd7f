/// \file sha256.h
/// \brief SHA-256 (FIPS 180-4), implemented from scratch.
///
/// Used for transaction hashes, enclave measurement, Merkle trees, HMAC and
/// HKDF key derivation throughout CONFIDE.

#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "crypto/cpu.h"

namespace confide::crypto {

/// \brief 32-byte digest type.
using Hash256 = std::array<uint8_t, 32>;

/// \brief Incremental SHA-256 context. Compression runs on SHA-NI when
/// the CPU has it (cpu.h); the portable compression is the fallback.
class Sha256 {
 public:
  Sha256() : Sha256(DefaultShaImpl()) {}

  /// \brief Pins the implementation (differential tests and benches).
  /// kAccelerated on a CPU without SHA-NI runs the portable code.
  explicit Sha256(CryptoImpl impl);

  /// \brief Resets to the initial state.
  void Reset();

  /// \brief Absorbs `data`.
  void Update(ByteView data);

  /// \brief Finalizes and returns the digest. The context must be Reset()
  /// before reuse.
  Hash256 Finish();

  /// \brief One-shot convenience.
  static Hash256 Digest(ByteView data);

  CryptoImpl impl() const { return impl_; }

 private:
  void Compress(const uint8_t* blocks, size_t count);

  CryptoImpl impl_;
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  uint8_t buf_[64];
  size_t buf_len_ = 0;
};

/// \brief Converts a Hash256 to an owning Bytes buffer.
inline Bytes HashToBytes(const Hash256& h) { return Bytes(h.begin(), h.end()); }

/// \brief Views a Hash256 as bytes.
inline ByteView HashView(const Hash256& h) { return ByteView(h.data(), h.size()); }

}  // namespace confide::crypto
