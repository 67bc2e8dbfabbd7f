/// \file aes.h
/// \brief AES-128/192/256 block cipher (FIPS 197) from scratch.
///
/// The portable code derives the S-box at static-init time from the
/// GF(2^8) inverse plus the affine transform, so there is no
/// hand-transcribed table to get wrong. On CPUs with AES-NI (cpu.h) key
/// expansion and the rounds run on the AES instructions instead, as in the
/// paper's SGX testbed; both paths produce the same round keys and blocks.

#pragma once

#include <array>
#include <cstdint>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/cpu.h"

namespace confide::crypto {

/// \brief Expanded-key AES context supporting 128/192/256-bit keys.
class Aes {
 public:
  /// \brief Builds a context from a 16/24/32-byte key.
  static Result<Aes> Create(ByteView key) { return Create(key, DefaultAesImpl()); }

  /// \brief Pins the implementation (differential tests and benches).
  /// kAccelerated on a CPU without AES-NI runs the portable code.
  static Result<Aes> Create(ByteView key, CryptoImpl impl);

  /// \brief Encrypts one 16-byte block. `in` and `out` may alias.
  void EncryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  /// \brief Decrypts one 16-byte block. `in` and `out` may alias.
  void DecryptBlock(const uint8_t in[16], uint8_t out[16]) const;

  int rounds() const { return rounds_; }
  CryptoImpl impl() const { return impl_; }

 private:
  friend class AesGcm;  // runs its CTR keystream on the round keys directly

  Aes() = default;

  // Expanded key: (rounds + 1) * 16 bytes, max 15 * 16 = 240.
  std::array<uint8_t, 240> round_keys_{};
  int rounds_ = 0;
  CryptoImpl impl_ = CryptoImpl::kPortable;
};

}  // namespace confide::crypto
