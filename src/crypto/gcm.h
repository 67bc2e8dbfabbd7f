/// \file gcm.h
/// \brief AES-GCM authenticated encryption (NIST SP 800-38D) from scratch.
///
/// This is the AEAD used by CONFIDE's D-Protocol (state/code encryption
/// with associated data = contract identity, owner, security version), by
/// T-Protocol envelopes, and by the TEE simulator's page sealing.
///
/// On CPUs with AES-NI and PCLMULQDQ (cpu.h) the keystream runs four AES
/// blocks at a time and GHASH folds four blocks per reduction with
/// H, H^2, H^3, H^4 precomputed per key; elsewhere the portable bitwise
/// GHASH runs. Both produce the same ciphertexts and tags.

#pragma once

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/aes.h"

namespace confide::crypto {

/// \brief GCM tag length in bytes.
inline constexpr size_t kGcmTagSize = 16;
/// \brief Recommended IV length in bytes.
inline constexpr size_t kGcmIvSize = 12;

/// \brief AES-GCM context bound to one key.
class AesGcm {
 public:
  /// \brief Builds a context from a 16 or 32-byte AES key.
  static Result<AesGcm> Create(ByteView key) {
    return Create(key, DefaultAesImpl());
  }

  /// \brief Pins the implementation (differential tests and benches).
  /// kAccelerated on a CPU without AES-NI runs the portable code.
  static Result<AesGcm> Create(ByteView key, CryptoImpl impl);

  /// \brief Encrypts `plaintext` with `iv` (12 bytes recommended) and
  /// authenticates `aad`. Returns ciphertext || 16-byte tag.
  Result<Bytes> Seal(ByteView iv, ByteView plaintext, ByteView aad) const;

  /// \brief Decrypts Seal() output; fails with CryptoError when the tag or
  /// AAD does not verify.
  Result<Bytes> Open(ByteView iv, ByteView sealed, ByteView aad) const;

  CryptoImpl impl() const { return aes_.impl(); }

 private:
  explicit AesGcm(Aes aes);

  struct Block {
    uint64_t hi = 0;
    uint64_t lo = 0;
  };

  // GHASH_H(aad, ciphertext) with its length block, as a big-endian block.
  void Ghash(ByteView aad, ByteView ciphertext, uint8_t out[16]) const;
  // J0 from the IV (fails on an empty IV).
  Status CounterBlock(ByteView iv, uint8_t j0[16]) const;
  void Ctr(const uint8_t j0[16], ByteView in, uint8_t* out) const;
  void Tag(const uint8_t j0[16], ByteView aad, ByteView ciphertext,
           uint8_t tag[16]) const;

  Block GhashMul(const Block& x) const;  // portable path only

  Aes aes_;
  Block h_;  // hash subkey E(K, 0^128)
  // Accelerated path: H^1..H^4 in the byte-reflected form PCLMUL works on.
  std::array<uint8_t, 64> h_powers_{};
};

}  // namespace confide::crypto
