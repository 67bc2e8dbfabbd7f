/// \file secp256k1.h
/// \brief secp256k1 elliptic-curve cryptography from scratch.
///
/// Provides ECDSA (transaction signatures, attestation report signatures)
/// and ECDH (T-Protocol envelope key agreement, K-Protocol MAP channels).
/// Field and scalar arithmetic use branch-free 4x64-bit limbs with
/// special-form reduction for p = 2^256 - 2^32 - 977; points use Jacobian
/// coordinates with mixed Jacobian-affine additions.
///
/// - Sign, key generation and DerivePublicKey multiply G through a
///   precomputed table of signed 4-bit windows (65 x 8 affine points,
///   built once per process), reading every entry of a window's row with
///   masks so the memory trace does not depend on the secret scalar.
/// - ECDH splits the secret scalar with the curve's endomorphism
///   (k = k1 + k2*lambda, both halves ~128 bits) and runs a fixed-window
///   ladder over 1..8 x Q and lambda x Q with the same masked lookups.
/// - Verify, which sees public data only, splits u1 and u2 the same way
///   and computes u1*G + u2*Q in one interleaved wNAF (w = 5) pass over
///   G, lambda G, Q and lambda Q, comparing r*Z^2 against X instead of
///   inverting Z.
///
/// `portable::` keeps the previous double-and-add implementation as the
/// oracle for differential tests; both produce identical outputs.

#pragma once

#include <array>
#include <cstdint>
#include <optional>

#include "common/bytes.h"
#include "common/status.h"
#include "crypto/drbg.h"
#include "crypto/sha256.h"

namespace confide::crypto {

/// \brief 32-byte big-endian scalar (private key).
using PrivateKey = std::array<uint8_t, 32>;

/// \brief Uncompressed public key: 32-byte X || 32-byte Y (big-endian).
using PublicKey = std::array<uint8_t, 64>;

/// \brief ECDSA signature: 32-byte r || 32-byte s (big-endian), s normalized
/// to the low half-order.
using Signature = std::array<uint8_t, 64>;

/// \brief Key pair container.
struct KeyPair {
  PrivateKey priv;
  PublicKey pub;
};

/// \brief Derives a valid key pair from a DRBG (rejection-samples until the
/// scalar is in [1, n-1]).
KeyPair GenerateKeyPair(Drbg* rng);

/// \brief Computes the public key for a private key; fails on zero or
/// out-of-range scalars.
Result<PublicKey> DerivePublicKey(const PrivateKey& priv);

/// \brief Returns true iff `pub` encodes a point on the curve.
bool IsValidPublicKey(const PublicKey& pub);

/// \brief ECDSA-signs a 32-byte message digest. Nonces are deterministic
/// (RFC-6979 flavoured: HMAC over key || digest), so signatures are
/// reproducible across runs.
Result<Signature> EcdsaSign(const PrivateKey& priv, const Hash256& digest);

/// \brief Verifies an ECDSA signature over a 32-byte digest.
bool EcdsaVerify(const PublicKey& pub, const Hash256& digest, const Signature& sig);

/// \brief ECDH: SHA-256 of the shared point's X coordinate.
Result<Hash256> EcdhSharedSecret(const PrivateKey& priv, const PublicKey& pub);

/// \brief 20-byte address derived Ethereum-style: last 20 bytes of
/// Keccak-256(pubkey).
std::array<uint8_t, 20> PublicKeyToAddress(const PublicKey& pub);

/// \brief The double-and-add implementation the fast path replaced, kept
/// as the differential oracle (tests, bench_micro_crypto). Same contracts
/// and outputs as the functions above; it does not count metrics.
namespace portable {
Result<PublicKey> DerivePublicKey(const PrivateKey& priv);
Result<Signature> EcdsaSign(const PrivateKey& priv, const Hash256& digest);
bool EcdsaVerify(const PublicKey& pub, const Hash256& digest, const Signature& sig);
Result<Hash256> EcdhSharedSecret(const PrivateKey& priv, const PublicKey& pub);
}  // namespace portable

}  // namespace confide::crypto
