#include "crypto/gcm.h"

#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/endian.h"
#include "common/metrics.h"

namespace confide::crypto {

namespace {

struct GcmMetrics {
  metrics::Counter* seal_ops = metrics::GetCounter("crypto.gcm.seal.count");
  metrics::Counter* seal_bytes = metrics::GetCounter("crypto.gcm.seal.bytes");
  metrics::Counter* open_ops = metrics::GetCounter("crypto.gcm.open.count");
  metrics::Counter* open_bytes = metrics::GetCounter("crypto.gcm.open.bytes");
  metrics::Counter* auth_failures =
      metrics::GetCounter("crypto.gcm.auth_failure.count");

  static const GcmMetrics& Get() {
    static const GcmMetrics instruments;
    return instruments;
  }
};

void Inc32(uint8_t block[16]) {
  uint32_t ctr = LoadBe32(block + 12);
  StoreBe32(block + 12, ctr + 1);
}

#if defined(__x86_64__)
#define CONFIDE_GCMNI __attribute__((target("aes,pclmul,sse4.1,ssse3")))

// GHASH works on bit-reflected polynomials. Byte-reversing a block puts
// its first bit (the x^0 coefficient) at bit 127, and the Intel CLMUL
// white paper's shift-then-reduce below works in that form.
CONFIDE_GCMNI inline __m128i ByteSwap(__m128i x) {
  return _mm_shuffle_epi8(
      x, _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15));
}

CONFIDE_GCMNI inline __m128i LoadBlock(const uint8_t* p) {
  return ByteSwap(_mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

// Unreduced 256-bit carry-less product, accumulated: lo/mid/hi are the
// schoolbook partial products so several products share one reduction.
struct Wide {
  __m128i lo = _mm_setzero_si128();
  __m128i mid = _mm_setzero_si128();
  __m128i hi = _mm_setzero_si128();
};

CONFIDE_GCMNI inline void MulAcc(__m128i a, __m128i b, Wide* acc) {
  acc->lo = _mm_xor_si128(acc->lo, _mm_clmulepi64_si128(a, b, 0x00));
  acc->hi = _mm_xor_si128(acc->hi, _mm_clmulepi64_si128(a, b, 0x11));
  acc->mid = _mm_xor_si128(acc->mid, _mm_clmulepi64_si128(a, b, 0x10));
  acc->mid = _mm_xor_si128(acc->mid, _mm_clmulepi64_si128(a, b, 0x01));
}

// Shifts the reflected product left by one bit and reduces it modulo
// x^128 + x^7 + x^2 + x + 1.
CONFIDE_GCMNI inline __m128i Reduce(const Wide& w) {
  __m128i lo = _mm_xor_si128(w.lo, _mm_slli_si128(w.mid, 8));
  __m128i hi = _mm_xor_si128(w.hi, _mm_srli_si128(w.mid, 8));

  __m128i carry_lo = _mm_srli_epi32(lo, 31);
  __m128i carry_hi = _mm_srli_epi32(hi, 31);
  lo = _mm_slli_epi32(lo, 1);
  hi = _mm_slli_epi32(hi, 1);
  __m128i cross = _mm_srli_si128(carry_lo, 12);
  carry_hi = _mm_slli_si128(carry_hi, 4);
  carry_lo = _mm_slli_si128(carry_lo, 4);
  lo = _mm_or_si128(lo, carry_lo);
  hi = _mm_or_si128(_mm_or_si128(hi, carry_hi), cross);

  __m128i a = _mm_xor_si128(
      _mm_xor_si128(_mm_slli_epi32(lo, 31), _mm_slli_epi32(lo, 30)),
      _mm_slli_epi32(lo, 25));
  __m128i b = _mm_srli_si128(a, 4);
  lo = _mm_xor_si128(lo, _mm_slli_si128(a, 12));
  __m128i c = _mm_xor_si128(
      _mm_xor_si128(_mm_srli_epi32(lo, 1), _mm_srli_epi32(lo, 2)),
      _mm_xor_si128(_mm_srli_epi32(lo, 7), b));
  return _mm_xor_si128(hi, _mm_xor_si128(lo, c));
}

CONFIDE_GCMNI inline __m128i GfMul(__m128i a, __m128i b) {
  Wide w;
  MulAcc(a, b, &w);
  return Reduce(w);
}

CONFIDE_GCMNI void HashPowersNi(const uint8_t h_be[16], uint8_t out[64]) {
  __m128i h = LoadBlock(h_be);
  __m128i p = h;
  for (int i = 0; i < 4; ++i) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out + 16 * i), p);
    p = GfMul(p, h);
  }
}

// Absorbs `data` zero-padded to whole blocks: four blocks per reduction
// as y' = (y ^ x1)·H^4 ^ x2·H^3 ^ x3·H^2 ^ x4·H, then one block at a time.
CONFIDE_GCMNI __m128i GhashNi(__m128i y, const uint8_t* h_powers,
                              const uint8_t* data, size_t len) {
  auto power = [h_powers](int k) {  // H^k, k in 1..4
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(h_powers + 16 * (k - 1)));
  };
  const __m128i h1 = power(1), h2 = power(2), h3 = power(3), h4 = power(4);
  size_t pos = 0;
  for (; pos + 64 <= len; pos += 64) {
    Wide w;
    MulAcc(_mm_xor_si128(y, LoadBlock(data + pos)), h4, &w);
    MulAcc(LoadBlock(data + pos + 16), h3, &w);
    MulAcc(LoadBlock(data + pos + 32), h2, &w);
    MulAcc(LoadBlock(data + pos + 48), h1, &w);
    y = Reduce(w);
  }
  for (; pos + 16 <= len; pos += 16) {
    y = GfMul(_mm_xor_si128(y, LoadBlock(data + pos)), h1);
  }
  if (pos < len) {
    uint8_t last[16] = {0};
    std::memcpy(last, data + pos, len - pos);
    y = GfMul(_mm_xor_si128(y, LoadBlock(last)), h1);
  }
  return y;
}

CONFIDE_GCMNI void GhashFinishNi(const uint8_t* h_powers, ByteView aad,
                                 ByteView ciphertext, uint8_t out[16]) {
  __m128i y = GhashNi(_mm_setzero_si128(), h_powers, aad.data(), aad.size());
  y = GhashNi(y, h_powers, ciphertext.data(), ciphertext.size());
  uint8_t lengths[16];
  StoreBe64(lengths, uint64_t(aad.size()) * 8);
  StoreBe64(lengths + 8, uint64_t(ciphertext.size()) * 8);
  y = GhashNi(y, h_powers, lengths, 16);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(out), ByteSwap(y));
}

// j0 with its last word replaced by the big-endian counter `value`.
CONFIDE_GCMNI inline __m128i CounterBlockNi(__m128i base, uint32_t value) {
  return _mm_insert_epi32(base, int(__builtin_bswap32(value)), 3);
}

// CTR keystream from inc32(j0) on, four blocks per AES round sweep.
CONFIDE_GCMNI void CtrNi(const uint8_t* round_keys, int rounds,
                         const uint8_t j0[16], const uint8_t* in, uint8_t* out,
                         size_t len) {
  __m128i rk[15];
  for (int r = 0; r <= rounds; ++r) {
    rk[r] = _mm_loadu_si128(reinterpret_cast<const __m128i*>(round_keys + 16 * r));
  }
  const __m128i base = _mm_loadu_si128(reinterpret_cast<const __m128i*>(j0));
  uint32_t ctr = LoadBe32(j0 + 12);
  size_t pos = 0;
  for (; pos + 64 <= len; pos += 64) {
    __m128i b[4];
    for (int i = 0; i < 4; ++i) {
      b[i] = _mm_xor_si128(CounterBlockNi(base, ctr + 1 + uint32_t(i)), rk[0]);
    }
    ctr += 4;
    for (int r = 1; r < rounds; ++r) {
      for (int i = 0; i < 4; ++i) b[i] = _mm_aesenc_si128(b[i], rk[r]);
    }
    for (int i = 0; i < 4; ++i) {
      b[i] = _mm_aesenclast_si128(b[i], rk[rounds]);
      __m128i x = _mm_loadu_si128(reinterpret_cast<const __m128i*>(in + pos + 16 * i));
      _mm_storeu_si128(reinterpret_cast<__m128i*>(out + pos + 16 * i),
                       _mm_xor_si128(x, b[i]));
    }
  }
  for (; pos < len; pos += 16) {
    __m128i b = _mm_xor_si128(CounterBlockNi(base, ++ctr), rk[0]);
    for (int r = 1; r < rounds; ++r) b = _mm_aesenc_si128(b, rk[r]);
    b = _mm_aesenclast_si128(b, rk[rounds]);
    uint8_t keystream[16];
    _mm_storeu_si128(reinterpret_cast<__m128i*>(keystream), b);
    const size_t n = std::min<size_t>(16, len - pos);
    for (size_t i = 0; i < n; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
  }
}
#undef CONFIDE_GCMNI
#endif

}  // namespace

AesGcm::AesGcm(Aes aes) : aes_(std::move(aes)) {
  uint8_t zero[16] = {0};
  uint8_t h[16];
  aes_.EncryptBlock(zero, h);
  h_.hi = LoadBe64(h);
  h_.lo = LoadBe64(h + 8);
#if defined(__x86_64__)
  if (impl() == CryptoImpl::kAccelerated) HashPowersNi(h, h_powers_.data());
#endif
}

Result<AesGcm> AesGcm::Create(ByteView key, CryptoImpl impl) {
  if (key.size() != 16 && key.size() != 32) {
    return Status::InvalidArgument("AES-GCM key must be 16 or 32 bytes");
  }
  CONFIDE_ASSIGN_OR_RETURN(Aes aes, Aes::Create(key, impl));
  return AesGcm(std::move(aes));
}

// Multiplies x by the hash subkey in GF(2^128) (bit-reflected as per GCM).
AesGcm::Block AesGcm::GhashMul(const Block& x) const {
  Block z;
  Block v = h_;
  for (int i = 0; i < 128; ++i) {
    uint64_t bit =
        (i < 64) ? (x.hi >> (63 - i)) & 1 : (x.lo >> (127 - i)) & 1;
    if (bit) {
      z.hi ^= v.hi;
      z.lo ^= v.lo;
    }
    bool lsb = v.lo & 1;
    v.lo = (v.lo >> 1) | (v.hi << 63);
    v.hi >>= 1;
    if (lsb) v.hi ^= 0xe100000000000000ULL;
  }
  return z;
}

void AesGcm::Ghash(ByteView aad, ByteView ciphertext, uint8_t out[16]) const {
#if defined(__x86_64__)
  if (impl() == CryptoImpl::kAccelerated) {
    GhashFinishNi(h_powers_.data(), aad, ciphertext, out);
    return;
  }
#endif
  Block y;
  auto absorb = [&](ByteView data) {
    for (size_t pos = 0; pos < data.size(); pos += 16) {
      uint8_t block[16] = {0};
      size_t n = std::min<size_t>(16, data.size() - pos);
      std::memcpy(block, data.data() + pos, n);
      y.hi ^= LoadBe64(block);
      y.lo ^= LoadBe64(block + 8);
      y = GhashMul(y);
    }
  };
  absorb(aad);
  absorb(ciphertext);
  // Length block: [len(AAD)]64 || [len(C)]64, in bits.
  y.hi ^= uint64_t(aad.size()) * 8;
  y.lo ^= uint64_t(ciphertext.size()) * 8;
  y = GhashMul(y);
  StoreBe64(out, y.hi);
  StoreBe64(out + 8, y.lo);
}

void AesGcm::Ctr(const uint8_t j0[16], ByteView in, uint8_t* out) const {
#if defined(__x86_64__)
  if (impl() == CryptoImpl::kAccelerated) {
    CtrNi(aes_.round_keys_.data(), aes_.rounds(), j0, in.data(), out, in.size());
    return;
  }
#endif
  uint8_t counter[16];
  std::memcpy(counter, j0, 16);
  uint8_t keystream[16];
  for (size_t pos = 0; pos < in.size(); pos += 16) {
    Inc32(counter);
    aes_.EncryptBlock(counter, keystream);
    size_t n = std::min<size_t>(16, in.size() - pos);
    for (size_t i = 0; i < n; ++i) out[pos + i] = in[pos + i] ^ keystream[i];
  }
}

Status AesGcm::CounterBlock(ByteView iv, uint8_t j0[16]) const {
  if (iv.empty()) return Status::InvalidArgument("GCM IV must be non-empty");
  if (iv.size() == kGcmIvSize) {
    std::memset(j0, 0, 16);
    std::memcpy(j0, iv.data(), kGcmIvSize);
    j0[15] = 1;
  } else {
    // GHASH(IV || pad || [0]64 || [len(IV)]64) — Ghash() appends the length
    // block with aad-len 0 and data-len len(IV), which matches the spec.
    Ghash(ByteView{}, iv, j0);
  }
  return Status::OK();
}

void AesGcm::Tag(const uint8_t j0[16], ByteView aad, ByteView ciphertext,
                 uint8_t tag[16]) const {
  Ghash(aad, ciphertext, tag);
  uint8_t e_j0[16];
  aes_.EncryptBlock(j0, e_j0);
  for (int i = 0; i < 16; ++i) tag[i] ^= e_j0[i];
}

Result<Bytes> AesGcm::Seal(ByteView iv, ByteView plaintext, ByteView aad) const {
  GcmMetrics::Get().seal_ops->Increment();
  GcmMetrics::Get().seal_bytes->Increment(plaintext.size());
  uint8_t j0[16];
  CONFIDE_RETURN_NOT_OK(CounterBlock(iv, j0));

  Bytes out(plaintext.size() + kGcmTagSize);
  Ctr(j0, plaintext, out.data());
  Tag(j0, aad, ByteView(out.data(), plaintext.size()),
      out.data() + plaintext.size());
  return out;
}

Result<Bytes> AesGcm::Open(ByteView iv, ByteView sealed, ByteView aad) const {
  GcmMetrics::Get().open_ops->Increment();
  if (sealed.size() < kGcmTagSize) {
    GcmMetrics::Get().auth_failures->Increment();
    return Status::CryptoError("GCM ciphertext shorter than tag");
  }
  GcmMetrics::Get().open_bytes->Increment(sealed.size() - kGcmTagSize);
  ByteView ciphertext = sealed.first(sealed.size() - kGcmTagSize);
  ByteView tag = sealed.last(kGcmTagSize);

  uint8_t j0[16];
  CONFIDE_RETURN_NOT_OK(CounterBlock(iv, j0));
  uint8_t expected[16];
  Tag(j0, aad, ciphertext, expected);
  if (!ConstantTimeEqual(ByteView(expected, 16), tag)) {
    GcmMetrics::Get().auth_failures->Increment();
    return Status::CryptoError("GCM authentication tag mismatch");
  }

  Bytes plain(ciphertext.size());
  Ctr(j0, ciphertext, plain.data());
  return plain;
}

}  // namespace confide::crypto
