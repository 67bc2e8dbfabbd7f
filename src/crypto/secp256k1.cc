#include "crypto/secp256k1.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <vector>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

#include "common/endian.h"
#include "common/metrics.h"
#include "crypto/hmac.h"
#include "crypto/keccak.h"

namespace confide::crypto {

namespace {

using u128 = unsigned __int128;

// Add/subtract with carry: adc/sbb chains on x86-64, 128-bit math elsewhere.
inline uint8_t AddC(uint8_t carry, uint64_t a, uint64_t b, uint64_t* out) {
#if defined(__x86_64__)
  unsigned long long r;
  carry = _addcarry_u64(carry, a, b, &r);
  *out = r;
  return carry;
#else
  const u128 t = u128(a) + b + carry;
  *out = uint64_t(t);
  return uint8_t(t >> 64);
#endif
}

inline uint8_t SubB(uint8_t borrow, uint64_t a, uint64_t b, uint64_t* out) {
#if defined(__x86_64__)
  unsigned long long r;
  borrow = _subborrow_u64(borrow, a, b, &r);
  *out = r;
  return borrow;
#else
  const u128 t = u128(a) - b - borrow;
  *out = uint64_t(t);
  return uint8_t(t >> 64) & 1;
#endif
}

// r = x + (y0, 0, 0, 0); returns the carry out.
inline uint8_t AddSmall4(const uint64_t x[4], uint64_t y0, uint64_t r[4]) {
  uint8_t c = AddC(0, x[0], y0, &r[0]);
  c = AddC(c, x[1], 0, &r[1]);
  c = AddC(c, x[2], 0, &r[2]);
  return AddC(c, x[3], 0, &r[3]);
}

// ---------------------------------------------------------------------------
// Field elements mod p = 2^256 - C, C = 2^32 + 977: 4x64 little-endian
// limbs holding any value below 2^256 congruent to the element. Results
// are reduced below p only where a canonical form is needed (FeNormalize).
// Every field operation is branch-free.
// ---------------------------------------------------------------------------

constexpr uint64_t kC = 0x1000003D1ULL;
constexpr uint64_t kP[4] = {0xFFFFFFFEFFFFFC2FULL, ~0ULL, ~0ULL, ~0ULL};

inline bool LessThan(const uint64_t a[4], const uint64_t b[4]) {
  for (int i = 3; i >= 0; --i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

struct Fe {
  uint64_t v[4] = {0, 0, 0, 0};
};

constexpr Fe kFeOne{{1, 0, 0, 0}};

Fe FeFromBytes(const uint8_t b[32]) {
  Fe r;
  for (int i = 0; i < 4; ++i) r.v[3 - i] = LoadBe64(b + 8 * i);
  return r;
}

// a + b with a carry folded back in as C (twice at most: a wrap leaves r < C).
inline Fe FeAdd(const Fe& a, const Fe& b) {
  Fe r;
  uint8_t c = AddC(0, a.v[0], b.v[0], &r.v[0]);
  c = AddC(c, a.v[1], b.v[1], &r.v[1]);
  c = AddC(c, a.v[2], b.v[2], &r.v[2]);
  c = AddC(c, a.v[3], b.v[3], &r.v[3]);
  c = AddSmall4(r.v, (0 - uint64_t(c)) & kC, r.v);
  r.v[0] += (0 - uint64_t(c)) & kC;
  return r;
}

// r = x - y over 4 limbs; returns the borrow out.
inline uint8_t Sub4(const uint64_t x[4], const uint64_t y[4], uint64_t r[4]) {
  uint8_t b = SubB(0, x[0], y[0], &r[0]);
  b = SubB(b, x[1], y[1], &r[1]);
  b = SubB(b, x[2], y[2], &r[2]);
  return SubB(b, x[3], y[3], &r[3]);
}

// a - b: a wrap below zero added 2^256 ≡ C, so C comes off per wrap
// (twice at most: after a second wrap the value is far above C).
inline Fe FeSub(const Fe& a, const Fe& b) {
  Fe r;
  uint8_t borrow = Sub4(a.v, b.v, r.v);
  uint8_t c = SubB(0, r.v[0], (0 - uint64_t(borrow)) & kC, &r.v[0]);
  c = SubB(c, r.v[1], 0, &r.v[1]);
  c = SubB(c, r.v[2], 0, &r.v[2]);
  c = SubB(c, r.v[3], 0, &r.v[3]);
  r.v[0] -= (0 - uint64_t(c)) & kC;
  return r;
}

inline Fe FeNeg(const Fe& a) { return FeSub(Fe{}, a); }

// a * k for a small k.
inline Fe FeMulSmall(const Fe& a, uint32_t k) {
  Fe r;
  u128 t = 0;
  for (int i = 0; i < 4; ++i) {
    t += u128(a.v[i]) * k;
    r.v[i] = uint64_t(t);
    t >>= 64;
  }
  // Fold the top limb (< 2^32) as C; a wrap leaves r below 2^65, so
  // adding C once more carries at most into v[1].
  t = u128(uint64_t(t)) * kC;
  uint8_t c = AddC(0, r.v[0], uint64_t(t), &r.v[0]);
  c = AddC(c, r.v[1], uint64_t(t >> 64), &r.v[1]);
  c = AddC(c, r.v[2], 0, &r.v[2]);
  c = AddC(c, r.v[3], 0, &r.v[3]);
  c = AddC(0, r.v[0], (0 - uint64_t(c)) & kC, &r.v[0]);
  r.v[1] += c;
  return r;
}

// Reduces a 512-bit product: lo + hi * C, then the 34-bit overflow again.
inline Fe FeReduceWide(const uint64_t t[8]) {
  Fe r;
  u128 acc = u128(t[4]) * kC + t[0];
  r.v[0] = uint64_t(acc);
  acc = (acc >> 64) + u128(t[5]) * kC + t[1];
  r.v[1] = uint64_t(acc);
  acc = (acc >> 64) + u128(t[6]) * kC + t[2];
  r.v[2] = uint64_t(acc);
  acc = (acc >> 64) + u128(t[7]) * kC + t[3];
  r.v[3] = uint64_t(acc);
  acc = u128(uint64_t(acc >> 64)) * kC;
  uint8_t c = AddC(0, r.v[0], uint64_t(acc), &r.v[0]);
  c = AddC(c, r.v[1], uint64_t(acc >> 64), &r.v[1]);
  c = AddC(c, r.v[2], 0, &r.v[2]);
  c = AddC(c, r.v[3], 0, &r.v[3]);
  // A final wrap leaves r below 2^68, so adding C carries at most into v[1].
  c = AddC(0, r.v[0], (0 - uint64_t(c)) & kC, &r.v[0]);
  r.v[1] += c;
  return r;
}

// 256 x 256 -> 512-bit schoolbook product.
inline void Mul256(const uint64_t a[4], const uint64_t b[4], uint64_t t[8]) {
  u128 acc = 0;
  for (int j = 0; j < 4; ++j) {
    acc = (acc >> 64) + u128(a[0]) * b[j];
    t[j] = uint64_t(acc);
  }
  t[4] = uint64_t(acc >> 64);
  for (int i = 1; i < 4; ++i) {
    acc = 0;
    for (int j = 0; j < 4; ++j) {
      acc = (acc >> 64) + u128(a[i]) * b[j] + t[i + j];
      t[i + j] = uint64_t(acc);
    }
    t[i + 4] = uint64_t(acc >> 64);
  }
}

inline Fe FeMul(const Fe& a, const Fe& b) {
  uint64_t t[8];
  Mul256(a.v, b.v, t);
  return FeReduceWide(t);
}

// Dedicated squaring: the six cross products once, doubled, plus the
// four squares — 10 multiplies instead of 16.
inline Fe FeSqr(const Fe& a) {
  const uint64_t a0 = a.v[0], a1 = a.v[1], a2 = a.v[2], a3 = a.v[3];
  uint64_t t[8];
  u128 acc = u128(a0) * a1;
  t[1] = uint64_t(acc);
  acc = (acc >> 64) + u128(a0) * a2;
  t[2] = uint64_t(acc);
  acc = (acc >> 64) + u128(a0) * a3;
  t[3] = uint64_t(acc);
  t[4] = uint64_t(acc >> 64);
  acc = u128(a1) * a2 + t[3];
  t[3] = uint64_t(acc);
  acc = (acc >> 64) + u128(a1) * a3 + t[4];
  t[4] = uint64_t(acc);
  t[5] = uint64_t(acc >> 64);
  acc = u128(a2) * a3 + t[5];
  t[5] = uint64_t(acc);
  t[6] = uint64_t(acc >> 64);

  t[7] = t[6] >> 63;
  for (int i = 6; i > 1; --i) t[i] = (t[i] << 1) | (t[i - 1] >> 63);
  t[1] <<= 1;

  acc = u128(a0) * a0;
  t[0] = uint64_t(acc);
  acc = (acc >> 64) + t[1];
  t[1] = uint64_t(acc);
  acc = (acc >> 64) + u128(a1) * a1 + t[2];
  t[2] = uint64_t(acc);
  acc = (acc >> 64) + t[3];
  t[3] = uint64_t(acc);
  acc = (acc >> 64) + u128(a2) * a2 + t[4];
  t[4] = uint64_t(acc);
  acc = (acc >> 64) + t[5];
  t[5] = uint64_t(acc);
  acc = (acc >> 64) + u128(a3) * a3 + t[6];
  t[6] = uint64_t(acc);
  t[7] += uint64_t(acc >> 64);
  return FeReduceWide(t);
}

inline Fe FeSqrN(Fe a, int n) {
  for (int i = 0; i < n; ++i) a = FeSqr(a);
  return a;
}

// The canonical representative in [0, p): a >= p iff a + C carries.
inline Fe FeNormalize(const Fe& a) {
  Fe t;
  const uint64_t mask = 0 - uint64_t(AddSmall4(a.v, kC, t.v));
  Fe r;
  for (int i = 0; i < 4; ++i) r.v[i] = (t.v[i] & mask) | (a.v[i] & ~mask);
  return r;
}

// All-ones when a ≡ 0 (mod p), else zero.
inline uint64_t FeIsZeroMask(const Fe& a) {
  Fe n = FeNormalize(a);
  const uint64_t bits = n.v[0] | n.v[1] | n.v[2] | n.v[3];
  return 0 - uint64_t((u128(bits) - 1) >> 127);
}

inline bool FeEqual(const Fe& a, const Fe& b) {
  return FeIsZeroMask(FeSub(a, b)) != 0;
}

inline void FeCmov(Fe* r, const Fe& a, uint64_t mask) {
  for (int i = 0; i < 4; ++i) r->v[i] = (r->v[i] & ~mask) | (a.v[i] & mask);
}

void FeToBytes(const Fe& a, uint8_t b[32]) {
  Fe n = FeNormalize(a);
  for (int i = 0; i < 4; ++i) StoreBe64(b + 8 * i, n.v[3 - i]);
}

// a^(p-2) by the addition chain of p - 2 = 2^256 - 2^32 - 979: runs of
// 1-bits built as a^(2^k - 1) (255 squarings, 15 multiplies).
Fe FeInv(const Fe& a) {
  const Fe x2 = FeMul(FeSqr(a), a);
  const Fe x3 = FeMul(FeSqr(x2), a);
  const Fe x6 = FeMul(FeSqrN(x3, 3), x3);
  const Fe x9 = FeMul(FeSqrN(x6, 3), x3);
  const Fe x11 = FeMul(FeSqrN(x9, 2), x2);
  const Fe x22 = FeMul(FeSqrN(x11, 11), x11);
  const Fe x44 = FeMul(FeSqrN(x22, 22), x22);
  const Fe x88 = FeMul(FeSqrN(x44, 44), x44);
  const Fe x176 = FeMul(FeSqrN(x88, 88), x88);
  const Fe x220 = FeMul(FeSqrN(x176, 44), x44);
  const Fe x223 = FeMul(FeSqrN(x220, 3), x3);
  Fe t = FeMul(FeSqrN(x223, 23), x22);
  t = FeMul(FeSqrN(t, 5), a);
  t = FeMul(FeSqrN(t, 3), x2);
  return FeMul(FeSqrN(t, 2), a);
}

// ---------------------------------------------------------------------------
// Scalars mod n, fully reduced. n = 2^256 - NC with NC a 129-bit value.
// ---------------------------------------------------------------------------

constexpr uint64_t kN[4] = {0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                            0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL};
constexpr uint64_t kNC[3] = {0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1};
// (n - 1) / 2: the low-S bound.
constexpr uint64_t kHalfN[4] = {0xDFE92F46681B20A0ULL, 0x5D576E7357A4501DULL,
                                0xFFFFFFFFFFFFFFFFULL, 0x7FFFFFFFFFFFFFFFULL};
// p - n: r + n is still a field element iff r < p - n.
constexpr uint64_t kPMinusN[4] = {0x402DA1722FC9BAEEULL, 0x4551231950B75FC4ULL,
                                  1, 0};

struct Sc {
  uint64_t v[4] = {0, 0, 0, 0};
};

inline bool ScIsZero(const Sc& s) { return (s.v[0] | s.v[1] | s.v[2] | s.v[3]) == 0; }

// x + carry * 2^256, reduced once: subtracts n when the value is >= n,
// which is when x + NC carries out of 256 bits (or the carry is set).
inline Sc ScReduceOnce(const uint64_t x[4], uint64_t carry) {
  uint64_t t[4];
  uint8_t c = AddC(0, x[0], kNC[0], &t[0]);
  c = AddC(c, x[1], kNC[1], &t[1]);
  c = AddC(c, x[2], kNC[2], &t[2]);
  c = AddC(c, x[3], 0, &t[3]);
  const uint64_t mask = 0 - (uint64_t(c) | carry);
  Sc r;
  for (int i = 0; i < 4; ++i) r.v[i] = (t[i] & mask) | (x[i] & ~mask);
  return r;
}

// Big-endian bytes mod n; `overflow` reports whether the value was >= n.
Sc ScFromBytes(const uint8_t b[32], bool* overflow = nullptr) {
  uint64_t x[4];
  for (int i = 0; i < 4; ++i) x[3 - i] = LoadBe64(b + 8 * i);
  Sc r = ScReduceOnce(x, 0);
  if (overflow != nullptr) *overflow = std::memcmp(r.v, x, sizeof(x)) != 0;
  return r;
}

void ScToBytes(const Sc& s, uint8_t b[32]) {
  for (int i = 0; i < 4; ++i) StoreBe64(b + 8 * i, s.v[3 - i]);
}

inline Sc ScAdd(const Sc& a, const Sc& b) {
  uint64_t x[4];
  uint8_t c = AddC(0, a.v[0], b.v[0], &x[0]);
  c = AddC(c, a.v[1], b.v[1], &x[1]);
  c = AddC(c, a.v[2], b.v[2], &x[2]);
  c = AddC(c, a.v[3], b.v[3], &x[3]);
  return ScReduceOnce(x, c);
}

// out[0..out_len) = lo[0..4) + hi[0..hi_len) * NC, carries propagated
// through every limb so the work does not depend on the values.
inline void FoldNc(const uint64_t lo[4], const uint64_t* hi, int hi_len,
                   uint64_t* out, int out_len) {
  for (int k = 0; k < out_len; ++k) out[k] = k < 4 ? lo[k] : 0;
  for (int i = 0; i < hi_len; ++i) {
    u128 acc = 0;
    for (int j = 0; j < 3; ++j) {
      acc = (acc >> 64) + u128(hi[i]) * kNC[j] + out[i + j];
      out[i + j] = uint64_t(acc);
    }
    for (int k = i + 3; k < out_len; ++k) {
      acc = (acc >> 64) + out[k];
      out[k] = uint64_t(acc);
    }
  }
}

// 512-bit value mod n by folding 2^256 ≡ NC: 512 -> 386 -> 260 -> 257 bits,
// then one conditional subtraction.
inline Sc ScReduceWide(const uint64_t t[8]) {
  uint64_t m[7], p[6], q[5];
  FoldNc(t, t + 4, 4, m, 7);
  FoldNc(m, m + 4, 3, p, 6);
  FoldNc(p, p + 4, 2, q, 5);
  return ScReduceOnce(q, q[4]);
}

inline Sc ScMul(const Sc& a, const Sc& b) {
  uint64_t t[8];
  Mul256(a.v, b.v, t);
  return ScReduceWide(t);
}

// a^(n-2) with 4-bit fixed windows over the public exponent.
Sc ScInv(const Sc& a) {
  constexpr uint64_t kNMinus2[4] = {kN[0] - 2, kN[1], kN[2], kN[3]};
  Sc powers[16];
  powers[0].v[0] = 1;
  powers[1] = a;
  for (int i = 2; i < 16; ++i) powers[i] = ScMul(powers[i - 1], a);
  Sc r = powers[kNMinus2[3] >> 60];
  for (int i = 62; i >= 0; --i) {
    for (int k = 0; k < 4; ++k) r = ScMul(r, r);
    r = ScMul(r, powers[(kNMinus2[i / 16] >> (4 * (i % 16))) & 15]);
  }
  return r;
}

inline Sc ScNeg(const Sc& a) {  // n - a for a in [1, n)
  Sc r;
  Sub4(kN, a.v, r.v);
  return r;
}

// `count` (<= 32) bits of s from bit `pos`, with pos + count <= 256.
inline uint32_t ScBits(const Sc& s, int pos, int count) {
  const int limb = pos >> 6, shift = pos & 63;
  uint64_t bits = s.v[limb] >> shift;
  if (shift + count > 64) bits |= s.v[limb + 1] << (64 - shift);
  return uint32_t(bits & ((uint64_t(1) << count) - 1));
}

// ---------------------------------------------------------------------------
// Points. Affine points in tables are never infinity; Jacobian points carry
// an all-ones `inf` mask for the point at infinity.
// ---------------------------------------------------------------------------

struct Ge {
  Fe x, y;
};

struct Gej {
  Fe x, y, z;
  uint64_t inf = 0;
};

constexpr Gej kInfinity{{}, {}, {}, ~uint64_t(0)};

const Ge kG = [] {
  Ge g;
  g.x.v[3] = 0x79BE667EF9DCBBACULL;
  g.x.v[2] = 0x55A06295CE870B07ULL;
  g.x.v[1] = 0x029BFCDB2DCE28D9ULL;
  g.x.v[0] = 0x59F2815B16F81798ULL;
  g.y.v[3] = 0x483ADA7726A3C465ULL;
  g.y.v[2] = 0x5DA4FBFC0E1108A8ULL;
  g.y.v[1] = 0xFD17B448A6855419ULL;
  g.y.v[0] = 0x9C47D08FFB10D4B8ULL;
  return g;
}();

inline Gej ToJacobian(const Ge& a) { return Gej{a.x, a.y, kFeOne, 0}; }

inline void GejCmov(Gej* r, const Gej& a, uint64_t mask) {
  FeCmov(&r->x, a.x, mask);
  FeCmov(&r->y, a.y, mask);
  FeCmov(&r->z, a.z, mask);
  r->inf = (r->inf & ~mask) | (a.inf & mask);
}

// dbl-2009-l for a = 0 (2M + 5S). secp256k1 has no point with y = 0, so
// the only exceptional input is infinity, which stays infinity.
inline Gej Double(const Gej& p) {
  const Fe a = FeSqr(p.x);
  const Fe b = FeSqr(p.y);
  const Fe c = FeSqr(b);
  const Fe d = FeMulSmall(FeSub(FeSub(FeSqr(FeAdd(p.x, b)), a), c), 2);
  const Fe e = FeMulSmall(a, 3);
  Gej r;
  r.x = FeSub(FeSqr(e), FeMulSmall(d, 2));
  r.y = FeSub(FeMul(e, FeSub(d, r.x)), FeMulSmall(c, 8));
  r.z = FeMulSmall(FeMul(p.y, p.z), 2);
  r.inf = p.inf;
  return r;
}

// The sums a + b for a, b both finite with a != ±b (8M + 3S). Also returns
// h = U2 - U1 and i = S2 - S1: h ≡ 0 flags a = ±b (i ≡ 0: a = b).
struct AddTerms {
  Gej sum;
  Fe h, i;
};

inline AddTerms AddGeFormula(const Gej& a, const Ge& b) {
  AddTerms t;
  const Fe z12 = FeSqr(a.z);
  const Fe u2 = FeMul(b.x, z12);
  const Fe s2 = FeMul(FeMul(b.y, z12), a.z);
  t.h = FeSub(u2, a.x);
  t.i = FeSub(s2, a.y);
  const Fe h2 = FeSqr(t.h);
  const Fe h3 = FeMul(t.h, h2);
  const Fe u1h2 = FeMul(a.x, h2);
  t.sum.z = FeMul(a.z, t.h);
  t.sum.x = FeSub(FeSub(FeSqr(t.i), h3), FeMulSmall(u1h2, 2));
  t.sum.y = FeSub(FeMul(t.i, FeSub(u1h2, t.sum.x)), FeMul(a.y, h3));
  return t;
}

// Constant-time a + b where b may be flagged infinity (`b_inf` all-ones).
// With kMayDouble the a == b case selects a doubling; without it the
// caller guarantees a != b whenever both are finite.
template <bool kMayDouble>
inline Gej AddGeCt(const Gej& a, const Ge& b, uint64_t b_inf) {
  AddTerms t = AddGeFormula(a, b);
  const uint64_t h_zero = FeIsZeroMask(t.h);
  uint64_t same = 0;
  if constexpr (kMayDouble) {
    same = h_zero & FeIsZeroMask(t.i);
    GejCmov(&t.sum, Double(a), same);
  }
  t.sum.inf = h_zero & ~same;  // a = -b
  GejCmov(&t.sum, ToJacobian(b), a.inf);
  GejCmov(&t.sum, a, b_inf);
  return t.sum;
}

// Variable-time a + b for public data (verify).
inline Gej AddGeVar(const Gej& a, const Ge& b) {
  if (a.inf) return ToJacobian(b);
  AddTerms t = AddGeFormula(a, b);
  if (FeIsZeroMask(t.h)) {
    return FeIsZeroMask(t.i) ? Double(a) : kInfinity;
  }
  return t.sum;
}

// General Jacobian a + b (table building only; 12M + 4S).
Gej AddVar(const Gej& a, const Gej& b) {
  if (a.inf) return b;
  if (b.inf) return a;
  const Fe z12 = FeSqr(a.z), z22 = FeSqr(b.z);
  const Fe u1 = FeMul(a.x, z22), u2 = FeMul(b.x, z12);
  const Fe s1 = FeMul(FeMul(a.y, z22), b.z);
  const Fe s2 = FeMul(FeMul(b.y, z12), a.z);
  const Fe h = FeSub(u2, u1), i = FeSub(s2, s1);
  if (FeIsZeroMask(h)) return FeIsZeroMask(i) ? Double(a) : kInfinity;
  const Fe h2 = FeSqr(h), h3 = FeMul(h, h2), u1h2 = FeMul(u1, h2);
  Gej r;
  r.z = FeMul(FeMul(a.z, b.z), h);
  r.x = FeSub(FeSub(FeSqr(i), h3), FeMulSmall(u1h2, 2));
  r.y = FeSub(FeMul(i, FeSub(u1h2, r.x)), FeMul(s1, h3));
  return r;
}

Ge ToAffine(const Gej& p) {
  const Fe zi = FeInv(p.z);
  const Fe zi2 = FeSqr(zi);
  return Ge{FeNormalize(FeMul(p.x, zi2)), FeNormalize(FeMul(FeMul(p.y, zi2), zi))};
}

// Converts finite points to affine with one inversion (Montgomery's trick).
void BatchToAffine(const Gej* in, Ge* out, size_t count) {
  std::vector<Fe> prefix(count);
  prefix[0] = in[0].z;
  for (size_t i = 1; i < count; ++i) prefix[i] = FeMul(prefix[i - 1], in[i].z);
  Fe inv = FeInv(prefix[count - 1]);
  for (size_t i = count; i-- > 0;) {
    const Fe zi = i > 0 ? FeMul(inv, prefix[i - 1]) : inv;
    if (i > 0) inv = FeMul(inv, in[i].z);
    const Fe zi2 = FeSqr(zi);
    out[i] = Ge{FeNormalize(FeMul(in[i].x, zi2)),
                FeNormalize(FeMul(FeMul(in[i].y, zi2), zi))};
  }
}

// ---------------------------------------------------------------------------
// Scalar multiplication.
// ---------------------------------------------------------------------------

constexpr int kCombWindows = 65;  // signed 4-bit digits of a 256-bit scalar
// ... of a half from the λ split: the halves are below 2^128, and 33
// nibbles (132 bits) plus the carry digit leave a margin over that bound.
constexpr int kHalfWindows = 34;
constexpr int kWnaf = 5;          // verify's wNAF window, every base
constexpr int kOddMultiples = 1 << (kWnaf - 2);

// The endomorphism λ·(x, y) = (β·x, y), and the constants of the lattice
// split k = k1 + k2·λ (mod n) with |k1|, |k2| < 2^128: g1, g2 are
// round(2^384 · b / n) for the reduced basis, and -b1, -b2, -λ mod n.
constexpr Fe kBeta{{0xC1396C28719501EEULL, 0x9CF0497512F58995ULL,
                    0x6E64479EAC3434E9ULL, 0x7AE96A2B657C0710ULL}};
constexpr uint64_t kSplitG1[4] = {0xE893209A45DBB031ULL, 0x3DAA8A1471E8CA7FULL,
                                  0xE86C90E49284EB15ULL, 0x3086D221A7D46BCDULL};
constexpr uint64_t kSplitG2[4] = {0x1571B4AE8AC47F71ULL, 0x221208AC9DF506C6ULL,
                                  0x6F547FA90ABFE4C4ULL, 0xE4437ED6010E8828ULL};
constexpr Sc kMinusB1{{0x6F547FA90ABFE4C3ULL, 0xE4437ED6010E8828ULL, 0, 0}};
constexpr Sc kMinusB2{{0xD765CDA83DB1562CULL, 0x8A280AC50774346DULL,
                       0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL}};
constexpr Sc kMinusLambda{{0xE0CFC810B51283CFULL, 0xA880B9FC8EC739C2ULL,
                           0x5AD9E3FD77ED9BA4ULL, 0xAC9C52B33FA3CF1FULL}};

inline Ge Endo(const Ge& p) { return Ge{FeNormalize(FeMul(p.x, kBeta)), p.y}; }

// round(k · g / 2^384).
inline Sc MulShift384(const Sc& k, const uint64_t g[4]) {
  uint64_t t[8];
  Mul256(k.v, g, t);
  Sc r;
  const uint8_t c = AddC(0, t[6], t[5] >> 63, &r.v[0]);
  r.v[1] = t[7] + c;
  return r;
}

// A split half as magnitude (< 2^128) and an all-ones mask when negative.
struct Half {
  Sc mag;
  uint64_t neg = 0;
};

inline Half AbsHalf(const Sc& s) {
  uint64_t unused[4];
  Half h{s, 0 - uint64_t(Sub4(kHalfN, s.v, unused))};  // s > (n-1)/2
  const Sc negated = ScNeg(s);
  for (int i = 0; i < 4; ++i) {
    h.mag.v[i] = (h.mag.v[i] & ~h.neg) | (negated.v[i] & h.neg);
  }
  return h;
}

// k = k1 + k2·λ (mod n), constant time.
void SplitLambda(const Sc& k, Half* k1, Half* k2) {
  const Sc c1 = ScMul(MulShift384(k, kSplitG1), kMinusB1);
  const Sc c2 = ScMul(MulShift384(k, kSplitG2), kMinusB2);
  const Sc s2 = ScAdd(c1, c2);
  *k1 = AbsHalf(ScAdd(ScMul(s2, kMinusLambda), k));
  *k2 = AbsHalf(s2);
}

// Recodes the low 4·(windows-1) bits of k into digits d[i] in [-8, 8]
// with k = sum d[i] * 16^i (the last digit takes the carry).
void RecodeSigned4(const Sc& k, int windows, int8_t* d) {
  int carry = 0;
  for (int i = 0; i + 1 < windows; ++i) {
    const int x = int((k.v[i / 16] >> (4 * (i % 16))) & 15) + carry;
    carry = (x + 8) >> 4;
    d[i] = int8_t(x - (carry << 4));
  }
  d[windows - 1] = int8_t(carry);
}

// Reads entry |digit| (1..8) of an 8-entry row touching every entry, and
// negates it when digit < 0 XOR `flip`. `inf` becomes all-ones for digit 0.
Ge LookupCt(const Ge row[8], int digit, uint64_t flip, uint64_t* inf) {
  const int sign = digit >> 31;  // 0 or -1
  const uint32_t abs = uint32_t((digit ^ sign) - sign);
  Ge r;
  for (uint32_t j = 0; j < 8; ++j) {
    const uint64_t mask = 0 - uint64_t(abs == j + 1);
    for (int l = 0; l < 4; ++l) {
      r.x.v[l] |= row[j].x.v[l] & mask;
      r.y.v[l] |= row[j].y.v[l] & mask;
    }
  }
  FeCmov(&r.y, FeNeg(r.y), (0 - uint64_t(sign & 1)) ^ flip);
  *inf = 0 - uint64_t(abs == 0);
  return r;
}

struct GeneratorTables {
  Ge comb[kCombWindows][8];     // comb[i][j] = (j + 1) * 16^i * G
  Ge odd[kOddMultiples];        // odd[j] = (2j + 1) * G
  Ge odd_lambda[kOddMultiples]; // λ * odd[j]

  GeneratorTables() {
    constexpr size_t kComb = kCombWindows * 8;
    std::vector<Gej> points(kComb + kOddMultiples);
    Gej base = ToJacobian(kG);
    for (int i = 0; i < kCombWindows; ++i) {
      Gej* row = &points[size_t(i) * 8];
      row[0] = base;
      row[1] = Double(base);
      for (int j = 2; j < 8; ++j) row[j] = AddVar(row[j - 1], base);
      base = Double(row[7]);
    }
    Gej* odd_j = &points[kComb];
    const Gej g2 = points[1];
    odd_j[0] = points[0];
    for (int j = 1; j < kOddMultiples; ++j) odd_j[j] = AddVar(odd_j[j - 1], g2);
    std::vector<Ge> affine(points.size());
    BatchToAffine(points.data(), affine.data(), points.size());
    for (size_t i = 0; i < kComb; ++i) comb[i / 8][i % 8] = affine[i];
    for (int j = 0; j < kOddMultiples; ++j) {
      odd[j] = affine[kComb + size_t(j)];
      odd_lambda[j] = Endo(odd[j]);
    }
  }

  static const GeneratorTables& Get() {
    static const GeneratorTables tables;
    return tables;
  }
};

// k * G in constant time: one masked row read and one add per window, no
// doublings. Partial sums never meet ±the next term (each term outweighs
// every earlier partial sum), so the adds need no doubling case.
Gej MulGen(const Sc& k) {
  const GeneratorTables& tables = GeneratorTables::Get();
  int8_t d[kCombWindows];
  RecodeSigned4(k, kCombWindows, d);
  Gej acc = kInfinity;
  for (int i = 0; i < kCombWindows; ++i) {
    uint64_t inf;
    const Ge term = LookupCt(tables.comb[i], d[i], 0, &inf);
    acc = AddGeCt<false>(acc, term, inf);
  }
  return acc;
}

// k * Q in constant time: k = k1 + k2·λ, then fixed 4-bit signed windows
// over both 128-bit halves from the top — four doublings and two masked
// table adds per window. Above the last two windows the running sum is
// (16·m1 + 16·m2·λ)·Q with |m1|, |m2| < 2^121, and no such nonzero
// combination equals ±d·Q or ±d·λQ for |d| <= 8 (the shortest nonzero
// vector (a, b) with a + b·λ ≡ 0 mod n is ~2^127 long), so only the last
// two windows need the doubling case.
Gej MulVar(const Sc& k, const Ge& q) {
  Gej multiples[8];
  multiples[0] = ToJacobian(q);
  multiples[1] = Double(multiples[0]);
  for (int j = 2; j < 8; ++j) multiples[j] = AddVar(multiples[j - 1], multiples[0]);
  Ge table[8], table_lambda[8];
  BatchToAffine(multiples, table, 8);
  for (int j = 0; j < 8; ++j) table_lambda[j] = Endo(table[j]);

  Half k1, k2;
  SplitLambda(k, &k1, &k2);
  int8_t d1[kHalfWindows], d2[kHalfWindows];
  RecodeSigned4(k1.mag, kHalfWindows, d1);
  RecodeSigned4(k2.mag, kHalfWindows, d2);
  Gej acc = kInfinity;
  for (int i = kHalfWindows - 1; i >= 0; --i) {
    for (int dbl = 0; dbl < 4; ++dbl) acc = Double(acc);
    uint64_t inf;
    const Ge t1 = LookupCt(table, d1[i], k1.neg, &inf);
    acc = i >= 2 ? AddGeCt<false>(acc, t1, inf) : AddGeCt<true>(acc, t1, inf);
    const Ge t2 = LookupCt(table_lambda, d2[i], k2.neg, &inf);
    acc = i >= 2 ? AddGeCt<false>(acc, t2, inf) : AddGeCt<true>(acc, t2, inf);
  }
  return acc;
}

// Width-w NAF of a public scalar: odd digits |d| < 2^(w-1), at most one
// nonzero digit in any w consecutive positions. Negated digits when `neg`.
// Returns the digit count.
int Wnaf(const Sc& s, int w, bool neg, int8_t out[257]) {
  std::memset(out, 0, 257);
  int carry = 0, bit = 0, len = 0;
  while (bit < 256) {
    if (int(ScBits(s, bit, 1)) == carry) {
      ++bit;
      continue;
    }
    const int now = std::min(w, 256 - bit);
    int word = int(ScBits(s, bit, now)) + carry;
    carry = (word >> (w - 1)) & 1;
    word -= carry << w;
    out[bit] = int8_t(neg ? -word : word);
    len = bit + 1;
    bit += now;
  }
  if (carry) {
    out[256] = int8_t(neg ? -1 : 1);
    len = 257;
  }
  return len;
}

inline Ge OddMultiple(const Ge* table, int digit) {
  Ge r = table[(std::abs(digit) - 1) / 2];
  if (digit < 0) r.y = FeNeg(r.y);
  return r;
}

// u1 * G + u2 * Q (public inputs only): both scalars split by λ, then one
// interleaved wNAF pass over G, λG, Q and λQ — ~129 doublings in all.
Gej MulGenAddVar(const Sc& u1, const Sc& u2, const Ge& q) {
  Gej multiples[kOddMultiples];
  multiples[0] = ToJacobian(q);
  const Gej q2 = Double(multiples[0]);
  for (int j = 1; j < kOddMultiples; ++j) multiples[j] = AddVar(multiples[j - 1], q2);
  Ge q_odd[kOddMultiples], q_odd_lambda[kOddMultiples];
  BatchToAffine(multiples, q_odd, kOddMultiples);
  for (int j = 0; j < kOddMultiples; ++j) q_odd_lambda[j] = Endo(q_odd[j]);

  const GeneratorTables& tables = GeneratorTables::Get();
  const Ge* bases[4] = {tables.odd, tables.odd_lambda, q_odd, q_odd_lambda};
  Half halves[4];
  SplitLambda(u1, &halves[0], &halves[1]);
  SplitLambda(u2, &halves[2], &halves[3]);
  int8_t digits[4][257];
  int len = 0;
  for (int b = 0; b < 4; ++b) {
    len = std::max(len, Wnaf(halves[b].mag, kWnaf, halves[b].neg != 0, digits[b]));
  }
  Gej acc = kInfinity;
  for (int i = len - 1; i >= 0; --i) {
    if (!acc.inf) acc = Double(acc);
    for (int b = 0; b < 4; ++b) {
      if (digits[b][i] != 0) acc = AddGeVar(acc, OddMultiple(bases[b], digits[b][i]));
    }
  }
  return acc;
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

bool LoadScalar(const uint8_t b[32], Sc* out) {  // in [1, n-1]
  bool overflow = false;
  *out = ScFromBytes(b, &overflow);
  return !overflow && !ScIsZero(*out);
}

void EncodePoint(const Ge& p, PublicKey* out) {
  FeToBytes(p.x, out->data());
  FeToBytes(p.y, out->data() + 32);
}

bool DecodePoint(const PublicKey& pub, Ge* out) {
  const Fe x = FeFromBytes(pub.data());
  const Fe y = FeFromBytes(pub.data() + 32);
  // Non-canonical coordinates (>= p) are rejected, not reduced.
  if (!LessThan(x.v, kP) || !LessThan(y.v, kP)) return false;
  const Fe seven{{7, 0, 0, 0}};
  if (!FeEqual(FeSqr(y), FeAdd(FeMul(FeSqr(x), x), seven))) return false;
  *out = Ge{x, y};
  return true;
}

PublicKey PublicKeyOf(const Sc& d) {
  PublicKey pub;
  EncodePoint(ToAffine(MulGen(d)), &pub);
  return pub;
}

}  // namespace

KeyPair GenerateKeyPair(Drbg* rng) {
  KeyPair kp;
  for (;;) {
    rng->Fill(kp.priv.data(), kp.priv.size());
    Sc d;
    if (!LoadScalar(kp.priv.data(), &d)) continue;
    kp.pub = PublicKeyOf(d);
    return kp;
  }
}

Result<PublicKey> DerivePublicKey(const PrivateKey& priv) {
  Sc d;
  if (!LoadScalar(priv.data(), &d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  return PublicKeyOf(d);
}

bool IsValidPublicKey(const PublicKey& pub) {
  Ge p;
  return DecodePoint(pub, &p);
}

Result<Signature> EcdsaSign(const PrivateKey& priv, const Hash256& digest) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.ecdsa.sign.count");
  ops->Increment();
  Sc d;
  if (!LoadScalar(priv.data(), &d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  const Sc z = ScFromBytes(digest.data());

  // Deterministic nonce: HMAC(priv, digest || counter), RFC-6979 flavoured.
  for (uint32_t counter = 0;; ++counter) {
    uint8_t ctr_bytes[4];
    StoreBe32(ctr_bytes, counter);
    Bytes nonce_input = Concat(HashView(digest), ByteView(ctr_bytes, 4));
    Hash256 k_bytes = HmacSha256(ByteView(priv.data(), priv.size()), nonce_input);
    const Sc k = ScFromBytes(k_bytes.data());
    if (ScIsZero(k)) continue;

    const Gej kg = MulGen(k);
    if (kg.inf) continue;
    uint8_t x_bytes[32];
    FeToBytes(ToAffine(kg).x, x_bytes);
    const Sc r = ScFromBytes(x_bytes);
    if (ScIsZero(r)) continue;

    Sc s = ScMul(ScInv(k), ScAdd(z, ScMul(r, d)));
    if (ScIsZero(s)) continue;
    // Normalize s to the low half (malleability guard).
    if (LessThan(kHalfN, s.v)) s = ScNeg(s);

    Signature sig;
    ScToBytes(r, sig.data());
    ScToBytes(s, sig.data() + 32);
    return sig;
  }
}

bool EcdsaVerify(const PublicKey& pub, const Hash256& digest, const Signature& sig) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.ecdsa.verify.count");
  ops->Increment();
  Ge q;
  if (!DecodePoint(pub, &q)) return false;
  Sc r, s;
  if (!LoadScalar(sig.data(), &r) || !LoadScalar(sig.data() + 32, &s)) return false;

  const Sc z = ScFromBytes(digest.data());
  const Sc s_inv = ScInv(s);
  const Gej sum = MulGenAddVar(ScMul(z, s_inv), ScMul(r, s_inv), q);
  if (sum.inf) return false;
  // Accept iff X/Z^2 ≡ r (mod n): the affine x is r or, when r + n < p,
  // r + n. Compared as r*Z^2 == X, with no inversion.
  const Fe zz = FeSqr(sum.z);
  Fe rx;
  std::memcpy(rx.v, r.v, sizeof(rx.v));
  if (FeEqual(FeMul(rx, zz), sum.x)) return true;
  if (!LessThan(r.v, kPMinusN)) return false;
  uint8_t c = AddC(0, r.v[0], kN[0], &rx.v[0]);
  c = AddC(c, r.v[1], kN[1], &rx.v[1]);
  c = AddC(c, r.v[2], kN[2], &rx.v[2]);
  AddC(c, r.v[3], kN[3], &rx.v[3]);
  return FeEqual(FeMul(rx, zz), sum.x);
}

Result<Hash256> EcdhSharedSecret(const PrivateKey& priv, const PublicKey& pub) {
  static metrics::Counter* ops = metrics::GetCounter("crypto.ecdh.count");
  ops->Increment();
  Sc d;
  if (!LoadScalar(priv.data(), &d)) {
    return Status::InvalidArgument("private key scalar out of range");
  }
  Ge q;
  if (!DecodePoint(pub, &q)) {
    return Status::CryptoError("public key is not a curve point");
  }
  const Gej shared = MulVar(d, q);
  if (shared.inf) {
    return Status::CryptoError("ECDH produced the point at infinity");
  }
  uint8_t x_bytes[32];
  FeToBytes(ToAffine(shared).x, x_bytes);
  return Sha256::Digest(ByteView(x_bytes, 32));
}

std::array<uint8_t, 20> PublicKeyToAddress(const PublicKey& pub) {
  Hash256 h = Keccak256::Digest(ByteView(pub.data(), pub.size()));
  std::array<uint8_t, 20> addr;
  std::memcpy(addr.data(), h.data() + 12, 20);
  return addr;
}

}  // namespace confide::crypto
