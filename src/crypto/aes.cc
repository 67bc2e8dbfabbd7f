#include "crypto/aes.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace confide::crypto {

namespace {

// GF(2^8) multiply with the AES polynomial x^8 + x^4 + x^3 + x + 1.
uint8_t GfMul(uint8_t a, uint8_t b) {
  uint8_t p = 0;
  for (int i = 0; i < 8; ++i) {
    if (b & 1) p ^= a;
    bool hi = a & 0x80;
    a <<= 1;
    if (hi) a ^= 0x1b;
    b >>= 1;
  }
  return p;
}

struct SboxTables {
  uint8_t sbox[256];
  uint8_t inv_sbox[256];

  SboxTables() {
    // Multiplicative inverses via brute force (startup-only cost).
    uint8_t inv[256] = {0};
    for (int a = 1; a < 256; ++a) {
      for (int b = 1; b < 256; ++b) {
        if (GfMul(uint8_t(a), uint8_t(b)) == 1) {
          inv[a] = uint8_t(b);
          break;
        }
      }
    }
    for (int i = 0; i < 256; ++i) {
      uint8_t x = inv[i];
      // Affine transform: s = x ^ rotl(x,1) ^ rotl(x,2) ^ rotl(x,3) ^ rotl(x,4) ^ 0x63.
      auto rotl8 = [](uint8_t v, int n) -> uint8_t {
        return uint8_t((v << n) | (v >> (8 - n)));
      };
      uint8_t s = x ^ rotl8(x, 1) ^ rotl8(x, 2) ^ rotl8(x, 3) ^ rotl8(x, 4) ^ 0x63;
      sbox[i] = s;
      inv_sbox[s] = uint8_t(i);
    }
  }
};

const SboxTables& Tables() {
  static const SboxTables tables;
  return tables;
}

void SubBytes(uint8_t state[16]) {
  const auto& t = Tables();
  for (int i = 0; i < 16; ++i) state[i] = t.sbox[state[i]];
}

void InvSubBytes(uint8_t state[16]) {
  const auto& t = Tables();
  for (int i = 0; i < 16; ++i) state[i] = t.inv_sbox[state[i]];
}

// State layout: column-major, state[r + 4c].
void ShiftRows(uint8_t s[16]) {
  uint8_t t;
  // Row 1: shift left 1.
  t = s[1]; s[1] = s[5]; s[5] = s[9]; s[9] = s[13]; s[13] = t;
  // Row 2: shift left 2.
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  // Row 3: shift left 3 (== right 1).
  t = s[15]; s[15] = s[11]; s[11] = s[7]; s[7] = s[3]; s[3] = t;
}

void InvShiftRows(uint8_t s[16]) {
  uint8_t t;
  t = s[13]; s[13] = s[9]; s[9] = s[5]; s[5] = s[1]; s[1] = t;
  std::swap(s[2], s[10]);
  std::swap(s[6], s[14]);
  t = s[3]; s[3] = s[7]; s[7] = s[11]; s[11] = s[15]; s[15] = t;
}

void MixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = GfMul(a0, 2) ^ GfMul(a1, 3) ^ a2 ^ a3;
    col[1] = a0 ^ GfMul(a1, 2) ^ GfMul(a2, 3) ^ a3;
    col[2] = a0 ^ a1 ^ GfMul(a2, 2) ^ GfMul(a3, 3);
    col[3] = GfMul(a0, 3) ^ a1 ^ a2 ^ GfMul(a3, 2);
  }
}

void InvMixColumns(uint8_t s[16]) {
  for (int c = 0; c < 4; ++c) {
    uint8_t* col = s + 4 * c;
    uint8_t a0 = col[0], a1 = col[1], a2 = col[2], a3 = col[3];
    col[0] = GfMul(a0, 14) ^ GfMul(a1, 11) ^ GfMul(a2, 13) ^ GfMul(a3, 9);
    col[1] = GfMul(a0, 9) ^ GfMul(a1, 14) ^ GfMul(a2, 11) ^ GfMul(a3, 13);
    col[2] = GfMul(a0, 13) ^ GfMul(a1, 9) ^ GfMul(a2, 14) ^ GfMul(a3, 11);
    col[3] = GfMul(a0, 11) ^ GfMul(a1, 13) ^ GfMul(a2, 9) ^ GfMul(a3, 14);
  }
}

void AddRoundKey(uint8_t s[16], const uint8_t* rk) {
  for (int i = 0; i < 16; ++i) s[i] ^= rk[i];
}

#if defined(__x86_64__)
#define CONFIDE_AESNI __attribute__((target("aes,sse4.1,ssse3")))

// One step of the AES-128 schedule: the previous round key with its words
// prefix-XORed, XOR the broadcast SubWord(RotWord(w3)) ^ rcon.
CONFIDE_AESNI inline __m128i Expand128(__m128i key, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, 0xff);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

CONFIDE_AESNI void ExpandKey128Ni(const uint8_t key[16], uint8_t* out) {
  __m128i rk[11];
  rk[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  rk[1] = Expand128(rk[0], _mm_aeskeygenassist_si128(rk[0], 0x01));
  rk[2] = Expand128(rk[1], _mm_aeskeygenassist_si128(rk[1], 0x02));
  rk[3] = Expand128(rk[2], _mm_aeskeygenassist_si128(rk[2], 0x04));
  rk[4] = Expand128(rk[3], _mm_aeskeygenassist_si128(rk[3], 0x08));
  rk[5] = Expand128(rk[4], _mm_aeskeygenassist_si128(rk[4], 0x10));
  rk[6] = Expand128(rk[5], _mm_aeskeygenassist_si128(rk[5], 0x20));
  rk[7] = Expand128(rk[6], _mm_aeskeygenassist_si128(rk[6], 0x40));
  rk[8] = Expand128(rk[7], _mm_aeskeygenassist_si128(rk[7], 0x80));
  rk[9] = Expand128(rk[8], _mm_aeskeygenassist_si128(rk[8], 0x1b));
  rk[10] = Expand128(rk[9], _mm_aeskeygenassist_si128(rk[9], 0x36));
  for (int i = 0; i < 11; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), rk[i]);
  }
}

// AES-256 alternates two step kinds: even round keys take
// SubWord(RotWord(w7)) ^ rcon (lane 3 of the assist), odd ones SubWord(w3)
// (lane 2, no rcon).
CONFIDE_AESNI inline __m128i Expand256Odd(__m128i key, __m128i assist) {
  assist = _mm_shuffle_epi32(assist, 0xaa);
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  key = _mm_xor_si128(key, _mm_slli_si128(key, 4));
  return _mm_xor_si128(key, assist);
}

CONFIDE_AESNI void ExpandKey256Ni(const uint8_t key[32], uint8_t* out) {
  __m128i rk[15];
  rk[0] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key));
  rk[1] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(key + 16));
#define CONFIDE_AES256_EVEN(i, rcon) \
  rk[i] = Expand128(rk[i - 2], _mm_aeskeygenassist_si128(rk[i - 1], rcon))
#define CONFIDE_AES256_ODD(i) \
  rk[i] = Expand256Odd(rk[i - 2], _mm_aeskeygenassist_si128(rk[i - 1], 0))
  CONFIDE_AES256_EVEN(2, 0x01);
  CONFIDE_AES256_ODD(3);
  CONFIDE_AES256_EVEN(4, 0x02);
  CONFIDE_AES256_ODD(5);
  CONFIDE_AES256_EVEN(6, 0x04);
  CONFIDE_AES256_ODD(7);
  CONFIDE_AES256_EVEN(8, 0x08);
  CONFIDE_AES256_ODD(9);
  CONFIDE_AES256_EVEN(10, 0x10);
  CONFIDE_AES256_ODD(11);
  CONFIDE_AES256_EVEN(12, 0x20);
  CONFIDE_AES256_ODD(13);
  CONFIDE_AES256_EVEN(14, 0x40);
#undef CONFIDE_AES256_EVEN
#undef CONFIDE_AES256_ODD
  for (int i = 0; i < 15; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), rk[i]);
  }
}

CONFIDE_AESNI void EncryptBlockNi(const uint8_t* rk, int rounds,
                                  const uint8_t in[16], uint8_t out[16]) {
  auto key = [rk](int r) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
  };
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)), key(0));
  for (int r = 1; r < rounds; ++r) s = _mm_aesenc_si128(s, key(r));
  s = _mm_aesenclast_si128(s, key(rounds));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}

// Equivalent inverse cipher: the middle round keys go through
// InvMixColumns (aesimc) so aesdec can apply them directly.
CONFIDE_AESNI void DecryptBlockNi(const uint8_t* rk, int rounds,
                                  const uint8_t in[16], uint8_t out[16]) {
  auto key = [rk](int r) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(rk + 16 * r));
  };
  __m128i s = _mm_xor_si128(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(in)), key(rounds));
  for (int r = rounds - 1; r >= 1; --r) {
    s = _mm_aesdec_si128(s, _mm_aesimc_si128(key(r)));
  }
  s = _mm_aesdeclast_si128(s, key(0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), s);
}
#undef CONFIDE_AESNI
#endif

}  // namespace

Result<Aes> Aes::Create(ByteView key, CryptoImpl impl) {
  int nk;  // key length in 32-bit words
  switch (key.size()) {
    case 16: nk = 4; break;
    case 24: nk = 6; break;
    case 32: nk = 8; break;
    default:
      return Status::InvalidArgument("AES key must be 16, 24 or 32 bytes");
  }
  Aes aes;
  aes.rounds_ = nk + 6;
  aes.impl_ = impl == CryptoImpl::kAccelerated && DetectedCpu().aes_ni
                  ? CryptoImpl::kAccelerated
                  : CryptoImpl::kPortable;
#if defined(__x86_64__)
  if (aes.impl_ == CryptoImpl::kAccelerated && nk != 6) {
    if (nk == 4) {
      ExpandKey128Ni(key.data(), aes.round_keys_.data());
    } else {
      ExpandKey256Ni(key.data(), aes.round_keys_.data());
    }
    return aes;
  }
#endif
  const int total_words = 4 * (aes.rounds_ + 1);

  uint8_t* w = aes.round_keys_.data();
  std::memcpy(w, key.data(), key.size());

  const auto& t = Tables();
  uint8_t rcon = 0x01;
  for (int i = nk; i < total_words; ++i) {
    uint8_t temp[4];
    std::memcpy(temp, w + 4 * (i - 1), 4);
    if (i % nk == 0) {
      // RotWord + SubWord + Rcon.
      uint8_t first = temp[0];
      temp[0] = t.sbox[temp[1]] ^ rcon;
      temp[1] = t.sbox[temp[2]];
      temp[2] = t.sbox[temp[3]];
      temp[3] = t.sbox[first];
      rcon = GfMul(rcon, 2);
    } else if (nk > 6 && i % nk == 4) {
      for (int j = 0; j < 4; ++j) temp[j] = t.sbox[temp[j]];
    }
    for (int j = 0; j < 4; ++j) {
      w[4 * i + j] = w[4 * (i - nk) + j] ^ temp[j];
    }
  }
  return aes;
}

void Aes::EncryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#if defined(__x86_64__)
  if (impl_ == CryptoImpl::kAccelerated) {
    EncryptBlockNi(round_keys_.data(), rounds_, in, out);
    return;
  }
#endif
  uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, round_keys_.data());
  for (int r = 1; r < rounds_; ++r) {
    SubBytes(s);
    ShiftRows(s);
    MixColumns(s);
    AddRoundKey(s, round_keys_.data() + 16 * r);
  }
  SubBytes(s);
  ShiftRows(s);
  AddRoundKey(s, round_keys_.data() + 16 * rounds_);
  std::memcpy(out, s, 16);
}

void Aes::DecryptBlock(const uint8_t in[16], uint8_t out[16]) const {
#if defined(__x86_64__)
  if (impl_ == CryptoImpl::kAccelerated) {
    DecryptBlockNi(round_keys_.data(), rounds_, in, out);
    return;
  }
#endif
  uint8_t s[16];
  std::memcpy(s, in, 16);
  AddRoundKey(s, round_keys_.data() + 16 * rounds_);
  for (int r = rounds_ - 1; r >= 1; --r) {
    InvShiftRows(s);
    InvSubBytes(s);
    AddRoundKey(s, round_keys_.data() + 16 * r);
    InvMixColumns(s);
  }
  InvShiftRows(s);
  InvSubBytes(s);
  AddRoundKey(s, round_keys_.data());
  std::memcpy(out, s, 16);
}

}  // namespace confide::crypto
