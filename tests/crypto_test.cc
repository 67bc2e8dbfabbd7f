#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>

#include "common/bytes.h"
#include "common/metrics.h"
#include "crypto/aes.h"
#include "crypto/cpu.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/hmac.h"
#include "crypto/keccak.h"
#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"

namespace confide::crypto {
namespace {

std::string DigestHex(const Hash256& h) { return HexEncode(HashView(h)); }

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4 known-answer tests)
// ---------------------------------------------------------------------------

TEST(Sha256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Sha256::Digest(ByteView{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  EXPECT_EQ(DigestHex(Sha256::Digest(AsByteView("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  EXPECT_EQ(DigestHex(Sha256::Digest(AsByteView(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAs) {
  Sha256 ctx;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.Update(AsByteView(chunk));
  EXPECT_EQ(DigestHex(ctx.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes data = Drbg(7).Generate(10000);
  Sha256 ctx;
  // Uneven chunking exercises buffer handling.
  size_t pos = 0;
  size_t sizes[] = {1, 63, 64, 65, 100, 1000};
  int i = 0;
  while (pos < data.size()) {
    size_t n = std::min(sizes[i++ % 6], data.size() - pos);
    ctx.Update(ByteView(data.data() + pos, n));
    pos += n;
  }
  EXPECT_EQ(ctx.Finish(), Sha256::Digest(data));
}

// ---------------------------------------------------------------------------
// Keccak-256 (Ethereum variant known-answer tests)
// ---------------------------------------------------------------------------

TEST(Keccak256Test, EmptyString) {
  EXPECT_EQ(DigestHex(Keccak256::Digest(ByteView{})),
            "c5d2460186f7233c927e7db2dcc703c0e500b653ca82273b7bfad8045d85a470");
}

TEST(Keccak256Test, Abc) {
  EXPECT_EQ(DigestHex(Keccak256::Digest(AsByteView("abc"))),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(Keccak256Test, HelloEthereumStyle) {
  // keccak256("hello") — widely used Solidity test value.
  EXPECT_EQ(DigestHex(Keccak256::Digest(AsByteView("hello"))),
            "1c8aff950685c2ed4bc3174f3472287b56d9517b9c948127319a09a7a36deac8");
}

TEST(Keccak256Test, LongInputCrossesRateBoundary) {
  // > 136-byte rate to force multiple permutations; incremental == one-shot.
  Bytes data = Drbg(11).Generate(1000);
  Keccak256 ctx;
  ctx.Update(ByteView(data.data(), 137));
  ctx.Update(ByteView(data.data() + 137, data.size() - 137));
  EXPECT_EQ(ctx.Finish(), Keccak256::Digest(data));
}

// ---------------------------------------------------------------------------
// AES (FIPS 197 known-answer tests)
// ---------------------------------------------------------------------------

TEST(AesTest, Fips197Aes128Vector) {
  auto key = *HexDecode("000102030405060708090a0b0c0d0e0f");
  auto pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)), "69c4e0d86a7b0430d8cdb78070b4c55a");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(ByteView(back, 16)), HexEncode(pt));
}

TEST(AesTest, Fips197Aes192Vector) {
  auto key = *HexDecode("000102030405060708090a0b0c0d0e0f1011121314151617");
  auto pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)), "dda97ca4864cdfe06eaf70a0ec0d7191");
}

TEST(AesTest, Fips197Aes256Vector) {
  auto key = *HexDecode(
      "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f");
  auto pt = *HexDecode("00112233445566778899aabbccddeeff");
  auto aes = Aes::Create(key);
  ASSERT_TRUE(aes.ok());
  uint8_t ct[16];
  aes->EncryptBlock(pt.data(), ct);
  EXPECT_EQ(HexEncode(ByteView(ct, 16)), "8ea2b7ca516745bfeafc49904b496089");
  uint8_t back[16];
  aes->DecryptBlock(ct, back);
  EXPECT_EQ(HexEncode(ByteView(back, 16)), HexEncode(pt));
}

TEST(AesTest, RejectsBadKeySize) {
  Bytes key(15, 0);
  EXPECT_FALSE(Aes::Create(key).ok());
}

// ---------------------------------------------------------------------------
// AES-GCM (NIST SP 800-38D test cases)
// ---------------------------------------------------------------------------

TEST(GcmTest, NistTestCase1EmptyPlaintext) {
  Bytes key(16, 0);
  Bytes iv(12, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, ByteView{}, ByteView{});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed), "58e2fccefa7e3061367f1d57a4e7455a");
}

TEST(GcmTest, NistTestCase2SingleBlock) {
  Bytes key(16, 0);
  Bytes iv(12, 0);
  Bytes pt(16, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, ByteView{});
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed),
            "0388dace60b6a392f328c2b971b2fe78"
            "ab6e47d42cec13bdf53a67b21257bddf");
}

TEST(GcmTest, NistTestCase4WithAad) {
  auto key = *HexDecode("feffe9928665731c6d6a8f9467308308");
  auto iv = *HexDecode("cafebabefacedbaddecaf888");
  auto pt = *HexDecode(
      "d9313225f88406e5a55909c5aff5269a86a7a9531534f7da2e4c303d8a318a72"
      "1c3c0c95956809532fcf0e2449a6b525b16aedf5aa0de657ba637b39");
  auto aad = *HexDecode("feedfacedeadbeeffeedfacedeadbeefabaddad2");
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, aad);
  ASSERT_TRUE(sealed.ok());
  EXPECT_EQ(HexEncode(*sealed),
            "42831ec2217774244b7221b784d0d49c"
            "e3aa212f2c02a4e035c17e2329aca12e"
            "21d514b25466931c7d8f6a5aac84aa05"
            "1ba30b396a0aac973d58e091"
            "5bc94fbc3221a5db94fae95ae7121a47");
}

TEST(GcmTest, RoundTripWithAad) {
  Drbg rng(1);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(12);
  Bytes pt = rng.Generate(1000);
  Bytes aad = rng.Generate(37);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, aad);
  ASSERT_TRUE(sealed.ok());
  auto opened = gcm->Open(iv, *sealed, aad);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, TamperedCiphertextFails) {
  Drbg rng(2);
  Bytes key = rng.Generate(16);
  Bytes iv = rng.Generate(12);
  Bytes pt = rng.Generate(64);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, ByteView{});
  ASSERT_TRUE(sealed.ok());
  (*sealed)[3] ^= 1;
  auto opened = gcm->Open(iv, *sealed, ByteView{});
  EXPECT_FALSE(opened.ok());
  EXPECT_TRUE(opened.status().IsCryptoError());
}

TEST(GcmTest, WrongAadFails) {
  Drbg rng(3);
  Bytes key = rng.Generate(16);
  Bytes iv = rng.Generate(12);
  Bytes pt = rng.Generate(64);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, AsByteView("contract-1"));
  ASSERT_TRUE(sealed.ok());
  EXPECT_FALSE(gcm->Open(iv, *sealed, AsByteView("contract-2")).ok());
}

TEST(GcmTest, NonStandardIvLengthSupported) {
  Drbg rng(4);
  Bytes key = rng.Generate(16);
  Bytes iv = rng.Generate(8);  // non-96-bit IV path
  Bytes pt = rng.Generate(33);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  auto sealed = gcm->Seal(iv, pt, ByteView{});
  ASSERT_TRUE(sealed.ok());
  auto opened = gcm->Open(iv, *sealed, ByteView{});
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, pt);
}

TEST(GcmTest, TruncatedInputRejected) {
  Bytes key(16, 0);
  auto gcm = AesGcm::Create(key);
  ASSERT_TRUE(gcm.ok());
  Bytes iv(12, 0);
  Bytes tiny(8, 0);
  EXPECT_FALSE(gcm->Open(iv, tiny, ByteView{}).ok());
}

// ---------------------------------------------------------------------------
// HMAC / HKDF (RFC 4231 / RFC 5869 vectors)
// ---------------------------------------------------------------------------

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  auto mac = HmacSha256(key, AsByteView("Hi There"));
  EXPECT_EQ(DigestHex(mac),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  auto mac = HmacSha256(AsByteView("Jefe"),
                        AsByteView("what do ya want for nothing?"));
  EXPECT_EQ(DigestHex(mac),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);
  auto mac = HmacSha256(
      key, AsByteView("Test Using Larger Than Block-Size Key - Hash Key First"));
  EXPECT_EQ(DigestHex(mac),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HkdfTest, Rfc5869Case1) {
  Bytes ikm(22, 0x0b);
  auto salt = *HexDecode("000102030405060708090a0b0c");
  auto info = *HexDecode("f0f1f2f3f4f5f6f7f8f9");
  Bytes okm = Hkdf(salt, ikm, info, 42);
  EXPECT_EQ(HexEncode(okm),
            "3cb25f25faacd57a90434f64d0362f2a"
            "2d2d0a90cf1a5a4c5db02d56ecc4c5bf"
            "34007208d5b887185865");
}

TEST(HkdfTest, ExpandProducesRequestedLength) {
  Hash256 prk = Sha256::Digest(AsByteView("prk"));
  for (size_t len : {1u, 31u, 32u, 33u, 64u, 100u}) {
    EXPECT_EQ(HkdfExpand(prk, AsByteView("ctx"), len).size(), len);
  }
}

TEST(HkdfTest, DistinctInfoYieldsDistinctKeys) {
  Bytes ikm = Drbg(5).Generate(32);
  Bytes a = Hkdf(ByteView{}, ikm, AsByteView("key-a"), 32);
  Bytes b = Hkdf(ByteView{}, ikm, AsByteView("key-b"), 32);
  EXPECT_NE(a, b);
}

// ---------------------------------------------------------------------------
// DRBG
// ---------------------------------------------------------------------------

TEST(DrbgTest, DeterministicForSeed) {
  Drbg a(42), b(42);
  EXPECT_EQ(a.Generate(100), b.Generate(100));
}

TEST(DrbgTest, DifferentSeedsDiffer) {
  Drbg a(1), b(2);
  EXPECT_NE(a.Generate(32), b.Generate(32));
}

TEST(DrbgTest, BoundedValuesInRange) {
  Drbg rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(DrbgTest, RoughlyUniform) {
  Drbg rng(9);
  int buckets[8] = {0};
  const int kDraws = 8000;
  for (int i = 0; i < kDraws; ++i) buckets[rng.NextBounded(8)]++;
  for (int b = 0; b < 8; ++b) {
    EXPECT_GT(buckets[b], kDraws / 8 / 2);
    EXPECT_LT(buckets[b], kDraws / 8 * 2);
  }
}

// ---------------------------------------------------------------------------
// secp256k1
// ---------------------------------------------------------------------------

TEST(Secp256k1Test, GeneratedKeyPairIsValid) {
  Drbg rng(100);
  KeyPair kp = GenerateKeyPair(&rng);
  EXPECT_TRUE(IsValidPublicKey(kp.pub));
  auto derived = DerivePublicKey(kp.priv);
  ASSERT_TRUE(derived.ok());
  EXPECT_EQ(*derived, kp.pub);
}

TEST(Secp256k1Test, KnownScalarOnePublicKeyIsG) {
  PrivateKey one{};
  one[31] = 1;
  auto pub = DerivePublicKey(one);
  ASSERT_TRUE(pub.ok());
  EXPECT_EQ(HexEncode(ByteView(pub->data(), 32)),
            "79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798");
  EXPECT_EQ(HexEncode(ByteView(pub->data() + 32, 32)),
            "483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8");
}

TEST(Secp256k1Test, KnownScalarTwoMatchesDoubleG) {
  PrivateKey two{};
  two[31] = 2;
  auto pub = DerivePublicKey(two);
  ASSERT_TRUE(pub.ok());
  // 2G, a standard test value.
  EXPECT_EQ(HexEncode(ByteView(pub->data(), 32)),
            "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5");
}

TEST(Secp256k1Test, SignVerifyRoundTrip) {
  Drbg rng(101);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("confidential transaction"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_TRUE(EcdsaVerify(kp.pub, digest, *sig));
}

TEST(Secp256k1Test, SignatureIsDeterministic) {
  Drbg rng(102);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("msg"));
  auto s1 = EcdsaSign(kp.priv, digest);
  auto s2 = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(Secp256k1Test, WrongMessageFailsVerification) {
  Drbg rng(103);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("original"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  Hash256 other = Sha256::Digest(AsByteView("tampered"));
  EXPECT_FALSE(EcdsaVerify(kp.pub, other, *sig));
}

TEST(Secp256k1Test, WrongKeyFailsVerification) {
  Drbg rng(104);
  KeyPair kp1 = GenerateKeyPair(&rng);
  KeyPair kp2 = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("msg"));
  auto sig = EcdsaSign(kp1.priv, digest);
  ASSERT_TRUE(sig.ok());
  EXPECT_FALSE(EcdsaVerify(kp2.pub, digest, *sig));
}

TEST(Secp256k1Test, CorruptedSignatureFails) {
  Drbg rng(105);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("msg"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  Signature bad = *sig;
  bad[10] ^= 0xff;
  EXPECT_FALSE(EcdsaVerify(kp.pub, digest, bad));
}

TEST(Secp256k1Test, EcdhIsCommutative) {
  Drbg rng(106);
  KeyPair alice = GenerateKeyPair(&rng);
  KeyPair bob = GenerateKeyPair(&rng);
  auto s1 = EcdhSharedSecret(alice.priv, bob.pub);
  auto s2 = EcdhSharedSecret(bob.priv, alice.pub);
  ASSERT_TRUE(s1.ok() && s2.ok());
  EXPECT_EQ(*s1, *s2);
}

TEST(Secp256k1Test, EcdhDiffersAcrossPeers) {
  Drbg rng(107);
  KeyPair alice = GenerateKeyPair(&rng);
  KeyPair bob = GenerateKeyPair(&rng);
  KeyPair carol = GenerateKeyPair(&rng);
  auto ab = EcdhSharedSecret(alice.priv, bob.pub);
  auto ac = EcdhSharedSecret(alice.priv, carol.pub);
  ASSERT_TRUE(ab.ok() && ac.ok());
  EXPECT_NE(*ab, *ac);
}

TEST(Secp256k1Test, InvalidPublicKeyRejected) {
  PublicKey junk{};
  junk.fill(0xab);
  EXPECT_FALSE(IsValidPublicKey(junk));
  PrivateKey priv{};
  priv[31] = 5;
  EXPECT_FALSE(EcdhSharedSecret(priv, junk).ok());
}

TEST(Secp256k1Test, ZeroPrivateKeyRejected) {
  PrivateKey zero{};
  EXPECT_FALSE(DerivePublicKey(zero).ok());
}

TEST(Secp256k1Test, AddressIsLast20BytesOfKeccak) {
  Drbg rng(108);
  KeyPair kp = GenerateKeyPair(&rng);
  auto addr = PublicKeyToAddress(kp.pub);
  Hash256 h = Keccak256::Digest(ByteView(kp.pub.data(), kp.pub.size()));
  EXPECT_EQ(0, std::memcmp(addr.data(), h.data() + 12, 20));
}

// ---------------------------------------------------------------------------
// Differential: portable vs accelerated paths on Drbg-seeded random inputs
// ---------------------------------------------------------------------------

constexpr int kDiffIters = 10000;  // random inputs per primitive

#define SKIP_WITHOUT(feature, name)                                           \
  if (!DetectedCpu().feature) {                                               \
    GTEST_SKIP() << "this CPU lacks " name                                    \
                 << "; only the portable path can run, nothing to compare";   \
  }

TEST(CryptoDifferentialTest, AesBlocksMatch) {
  SKIP_WITHOUT(aes_ni, "AES-NI/PCLMULQDQ")
  Drbg rng(9001);
  for (int iter = 0; iter < kDiffIters; ++iter) {
    const size_t key_sizes[] = {16, 24, 32};
    Bytes key = rng.Generate(key_sizes[rng.NextBounded(3)]);
    auto portable = Aes::Create(key, CryptoImpl::kPortable);
    auto fast = Aes::Create(key, CryptoImpl::kAccelerated);
    ASSERT_TRUE(portable.ok() && fast.ok());
    ASSERT_EQ(fast->impl(), CryptoImpl::kAccelerated);
    Bytes block = rng.Generate(16);
    uint8_t a[16], b[16], back[16];
    portable->EncryptBlock(block.data(), a);
    fast->EncryptBlock(block.data(), b);
    ASSERT_EQ(0, std::memcmp(a, b, 16)) << "iter " << iter;
    portable->DecryptBlock(block.data(), a);
    fast->DecryptBlock(block.data(), b);
    ASSERT_EQ(0, std::memcmp(a, b, 16)) << "iter " << iter;
    fast->DecryptBlock(a, back);  // a = D(block), so E(a) = block
    fast->EncryptBlock(a, back);
    ASSERT_EQ(0, std::memcmp(back, block.data(), 16)) << "iter " << iter;
  }
}

TEST(CryptoDifferentialTest, GcmSealAndOpenMatch) {
  SKIP_WITHOUT(aes_ni, "AES-NI/PCLMULQDQ")
  Drbg rng(9002);
  for (int iter = 0; iter < kDiffIters; ++iter) {
    Bytes key = rng.Generate(rng.NextBounded(2) == 0 ? 16 : 32);
    // Mostly the 12-byte fast path; otherwise a GHASH-derived J0.
    const size_t iv_len = rng.NextBounded(4) != 0 ? 12 : 1 + rng.NextBounded(40);
    Bytes iv = rng.Generate(iv_len);
    Bytes plain = rng.Generate(rng.NextBounded(301));
    Bytes aad = rng.Generate(rng.NextBounded(301));
    auto portable = AesGcm::Create(key, CryptoImpl::kPortable);
    auto fast = AesGcm::Create(key, CryptoImpl::kAccelerated);
    ASSERT_TRUE(portable.ok() && fast.ok());
    ASSERT_EQ(fast->impl(), CryptoImpl::kAccelerated);
    auto a = portable->Seal(iv, plain, aad);
    auto b = fast->Seal(iv, plain, aad);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(*a, *b) << "iter " << iter << " iv " << iv_len << " pt "
                      << plain.size() << " aad " << aad.size();
    auto opened = fast->Open(iv, *a, aad);
    ASSERT_TRUE(opened.ok()) << "iter " << iter;
    ASSERT_EQ(*opened, plain);
    // Both paths reject the same corruption.
    Bytes bad = *a;
    bad[rng.NextBounded(bad.size())] ^= uint8_t(1 + rng.NextBounded(255));
    ASSERT_FALSE(portable->Open(iv, bad, aad).ok());
    ASSERT_FALSE(fast->Open(iv, bad, aad).ok());
  }
}

TEST(CryptoDifferentialTest, Sha256SplitUpdatesMatch) {
  SKIP_WITHOUT(sha_ni, "SHA-NI")
  Drbg rng(9003);
  for (int iter = 0; iter < kDiffIters; ++iter) {
    Bytes data = rng.Generate(rng.NextBounded(1001));
    Sha256 portable(CryptoImpl::kPortable);
    portable.Update(data);
    Sha256 fast(CryptoImpl::kAccelerated);
    ASSERT_EQ(fast.impl(), CryptoImpl::kAccelerated);
    // Random split points, so chunks straddle the 64-byte blocks.
    for (size_t pos = 0; pos < data.size();) {
      const size_t take = std::min<size_t>(data.size() - pos, rng.NextBounded(130));
      fast.Update(ByteView(data.data() + pos, take));
      pos += take;
    }
    ASSERT_EQ(portable.Finish(), fast.Finish())
        << "iter " << iter << " len " << data.size();
  }
}

TEST(CryptoDifferentialTest, Secp256k1MatchesPortable) {
  Drbg rng(9004);
  for (int iter = 0; iter < kDiffIters; ++iter) {
    PrivateKey priv;
    rng.Fill(priv.data(), priv.size());
    auto pub = DerivePublicKey(priv);
    auto pub_ref = portable::DerivePublicKey(priv);
    ASSERT_EQ(pub.ok(), pub_ref.ok());
    if (!pub.ok()) continue;  // >= n: both reject
    ASSERT_EQ(*pub, *pub_ref) << "iter " << iter;

    Hash256 digest;
    rng.Fill(digest.data(), digest.size());
    auto sig = EcdsaSign(priv, digest);
    auto sig_ref = portable::EcdsaSign(priv, digest);
    ASSERT_TRUE(sig.ok() && sig_ref.ok());
    ASSERT_EQ(*sig, *sig_ref) << "iter " << iter;
    ASSERT_TRUE(EcdsaVerify(*pub, digest, *sig));

    // A signature over another digest (or a random one) must get the same
    // verdict from both.
    Signature other = *sig;
    if (iter % 2 == 0) {
      rng.Fill(other.data(), other.size());
    } else {
      other[rng.NextBounded(64)] ^= uint8_t(1 + rng.NextBounded(255));
    }
    ASSERT_EQ(EcdsaVerify(*pub, digest, other),
              portable::EcdsaVerify(*pub, digest, other))
        << "iter " << iter;

    PrivateKey peer;
    rng.Fill(peer.data(), peer.size());
    auto secret = EcdhSharedSecret(peer, *pub);
    auto secret_ref = portable::EcdhSharedSecret(peer, *pub);
    ASSERT_EQ(secret.ok(), secret_ref.ok());
    if (secret.ok()) {
      ASSERT_EQ(*secret, *secret_ref) << "iter " << iter;
    }
  }
}

// ---------------------------------------------------------------------------
// Edge vectors: both paths, same verdicts
// ---------------------------------------------------------------------------

template <size_t N>
std::array<uint8_t, N> FromHex(std::string_view hex) {
  auto bytes = HexDecode(hex);
  EXPECT_TRUE(bytes.ok() && bytes->size() == N) << hex;
  std::array<uint8_t, N> out{};
  if (bytes.ok() && bytes->size() == N) std::copy(bytes->begin(), bytes->end(), out.begin());
  return out;
}

constexpr std::string_view kOrderHex =
    "fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141";

void ExpectVerdict(const PublicKey& pub, const Hash256& digest,
                   const Signature& sig, bool expected) {
  EXPECT_EQ(EcdsaVerify(pub, digest, sig), expected);
  EXPECT_EQ(portable::EcdsaVerify(pub, digest, sig), expected);
}

TEST(Secp256k1EdgeTest, OutOfRangeRAndSRejected) {
  Drbg rng(9100);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("edge"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  const auto order = FromHex<32>(kOrderHex);
  for (int half = 0; half < 2; ++half) {
    Signature bad = *sig;
    std::fill(bad.begin() + 32 * half, bad.begin() + 32 * half + 32, 0);  // 0
    ExpectVerdict(kp.pub, digest, bad, false);
    std::copy(order.begin(), order.end(), bad.begin() + 32 * half);  // n
    ExpectVerdict(kp.pub, digest, bad, false);
    std::fill(bad.begin() + 32 * half, bad.begin() + 32 * half + 32, 0xff);  // > n
    ExpectVerdict(kp.pub, digest, bad, false);
  }
}

TEST(Secp256k1EdgeTest, HighSSignatureStillAccepted) {
  // Sign normalizes to low-S, but verify has always accepted the high-S
  // twin (n - s); both paths keep that verdict.
  Drbg rng(9101);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("malleable"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  const auto order = FromHex<32>(kOrderHex);
  Signature high = *sig;
  int borrow = 0;
  for (int i = 31; i >= 0; --i) {  // s' = n - s
    int d = int(order[size_t(i)]) - int((*sig)[32 + size_t(i)]) - borrow;
    borrow = d < 0;
    high[32 + size_t(i)] = uint8_t(d + (borrow ? 256 : 0));
  }
  ASSERT_NE(high, *sig);
  ExpectVerdict(kp.pub, digest, high, true);
}

TEST(Secp256k1EdgeTest, BadPublicKeysRejected) {
  Drbg rng(9102);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("keys"));
  auto sig = EcdsaSign(kp.priv, digest);
  ASSERT_TRUE(sig.ok());
  std::vector<PublicKey> bad_keys;
  PublicKey off_curve = kp.pub;
  off_curve[63] ^= 1;
  bad_keys.push_back(off_curve);
  // (1, y) is a curve point; encoded with x + p it must not be reduced.
  bad_keys.push_back(FromHex<64>(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc30"
      "4218f20ae6c646b363db68605822fb14264ca8d2587fdd6fbc750d587e76a7ee"));
  PublicKey x_is_p = kp.pub, y_is_p = kp.pub, all_ff{};
  const auto p = FromHex<32>(
      "fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f");
  std::copy(p.begin(), p.end(), x_is_p.begin());
  std::copy(p.begin(), p.end(), y_is_p.begin() + 32);
  all_ff.fill(0xff);
  bad_keys.insert(bad_keys.end(), {x_is_p, y_is_p, all_ff, PublicKey{}});
  PrivateKey priv{};
  priv[31] = 7;
  for (const PublicKey& bad : bad_keys) {
    EXPECT_FALSE(IsValidPublicKey(bad));
    ExpectVerdict(bad, digest, *sig, false);
    EXPECT_FALSE(EcdhSharedSecret(priv, bad).ok());
    EXPECT_FALSE(portable::EcdhSharedSecret(priv, bad).ok());
  }
  // The unreduced (1, y) itself is valid.
  PublicKey one_y = bad_keys[1];
  std::fill(one_y.begin(), one_y.begin() + 32, 0);
  one_y[31] = 1;
  EXPECT_TRUE(IsValidPublicKey(one_y));
}

TEST(Secp256k1EdgeTest, SpecialScalarsMatchPortable) {
  std::vector<PrivateKey> scalars;
  auto from_hex = [&](std::string_view hex) { scalars.push_back(FromHex<32>(hex)); };
  from_hex("0000000000000000000000000000000000000000000000000000000000000001");
  from_hex("0000000000000000000000000000000000000000000000000000000000000002");
  from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364140");  // n-1
  from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd036413f");  // n-2
  from_hex("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364131");  // n-16
  from_hex("7fffffffffffffffffffffffffffffff5d576e7357a4501ddfe92f46681b20a0");  // (n-1)/2
  from_hex("8000000000000000000000000000000000000000000000000000000000000000");
  from_hex("0000000000000000000000000000000100000000000000000000000000000000");
  from_hex("00000000000000000000000000000000ffffffffffffffffffffffffffffffff");
  from_hex("fffffffffffffffffffffffffffffffe00000000000000000000000000000000");
  from_hex("00000000ffffffffffffffff0000000000000000ffffffffffffffff00000000");
  from_hex("0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f0f");
  from_hex("8888888888888888888888888888888888888888888888888888888888888888");
  from_hex("7777777777777777777777777777777777777777777777777777777777777777");
  from_hex("5363ad4cc05c30e0a5261c028812645a122e22ea20816678df02967c1b23bd72");  // λ
  Drbg rng(9103);
  KeyPair peer = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(AsByteView("scalars"));
  for (const PrivateKey& k : scalars) {
    SCOPED_TRACE(HexEncode(ByteView(k.data(), k.size())));
    auto pub = DerivePublicKey(k);
    auto pub_ref = portable::DerivePublicKey(k);
    ASSERT_TRUE(pub.ok() && pub_ref.ok());
    EXPECT_EQ(*pub, *pub_ref);
    auto shared = EcdhSharedSecret(k, peer.pub);
    auto shared_ref = portable::EcdhSharedSecret(k, peer.pub);
    ASSERT_TRUE(shared.ok() && shared_ref.ok());
    EXPECT_EQ(*shared, *shared_ref);
    // The scalar as the peer's public multiplier too: k * G via the ladder.
    PublicKey g = *DerivePublicKey(scalars[0]);
    auto kg = EcdhSharedSecret(k, g);
    ASSERT_TRUE(kg.ok());
    EXPECT_EQ(*kg, Sha256::Digest(ByteView(pub->data(), 32)));
    auto sig = EcdsaSign(k, digest);
    auto sig_ref = portable::EcdsaSign(k, digest);
    ASSERT_TRUE(sig.ok() && sig_ref.ok());
    EXPECT_EQ(*sig, *sig_ref);
    ExpectVerdict(*pub, digest, *sig, true);
  }
  // n and above are not private keys on either path.
  PrivateKey order = FromHex<32>(kOrderHex);
  EXPECT_FALSE(DerivePublicKey(order).ok());
  EXPECT_FALSE(portable::DerivePublicKey(order).ok());
}

TEST(Secp256k1EdgeTest, JointSumDoublingAndInfinity) {
  // Q = q*G and a signature crafted so u1*G = u2*Q: verify's joint sum
  // is a doubling, and the signature is valid.
  const PublicKey pub = FromHex<64>(
      "bed1b9fc970295f7f77083fb5b2249d16696fbd1098bc850a37be330bcfb7803"
      "185cd3405cc69e48017e329685494aa8415049be08388be96c246335c81561fa");
  const Signature sig = FromHex<64>(
      "4646ae5047316b4230d0086c8acec687f00b1cd9d1dc634f6cb358ac0a9a8fff"
      "1c63544b6e63bac6cf948cfd1cb199750423d92ed726e56ee3a42bab0b07914f");
  ExpectVerdict(pub,
                FromHex<32>("e5bf6c508538b585d237fdc9938e08d545ad07fe3f1839bd8fb6c6377caf5434"),
                sig, true);
  // The negated digest makes u1*G = -u2*Q: the sum is the point at
  // infinity and both paths reject.
  ExpectVerdict(pub,
                FromHex<32>("1a4093af7ac74a7a2dc802366c71f7297501d4e87030667e301b98555386ed0d"),
                sig, false);
}

TEST(GcmEdgeTest, TagTamperedAtEveryByteFails) {
  Bytes key(32, 0x42), iv(12, 0x24);
  for (CryptoImpl impl : {CryptoImpl::kPortable, CryptoImpl::kAccelerated}) {
    auto gcm = AesGcm::Create(key, impl);
    ASSERT_TRUE(gcm.ok());
    auto sealed = gcm->Seal(iv, AsByteView("sealed receipt body"), AsByteView("aad"));
    ASSERT_TRUE(sealed.ok());
    for (size_t i = sealed->size() - kGcmTagSize; i < sealed->size(); ++i) {
      for (uint8_t flip : {uint8_t(0x01), uint8_t(0x80)}) {
        Bytes bad = *sealed;
        bad[i] ^= flip;
        EXPECT_FALSE(gcm->Open(iv, bad, AsByteView("aad")).ok()) << "byte " << i;
      }
    }
    EXPECT_TRUE(gcm->Open(iv, *sealed, AsByteView("aad")).ok());
  }
}

TEST(CryptoDispatchTest, GaugesReportTheChosenPaths) {
  const CpuFeatures& cpu = DetectedCpu();
  auto snapshot = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(snapshot.gauges["crypto.impl.aes_ni"], cpu.aes_ni ? 1 : 0);
  EXPECT_EQ(snapshot.gauges["crypto.impl.sha_ni"], cpu.sha_ni ? 1 : 0);
  EXPECT_EQ(Sha256().impl(), DefaultShaImpl());
  auto gcm = AesGcm::Create(Bytes(16, 1));
  ASSERT_TRUE(gcm.ok());
  EXPECT_EQ(gcm->impl(), DefaultAesImpl());
  // Pinning the portable path always works.
  EXPECT_EQ(Sha256(CryptoImpl::kPortable).impl(), CryptoImpl::kPortable);
}

// ---------------------------------------------------------------------------
// Merkle tree
// ---------------------------------------------------------------------------

TEST(MerkleTest, SingleLeafRootIsLeafHash) {
  std::vector<Bytes> leaves = {ToBytes(std::string_view("tx1"))};
  MerkleTree tree(leaves);
  EXPECT_EQ(tree.Root(), MerkleTree::HashLeaf(AsByteView("tx1")));
}

TEST(MerkleTest, ProofVerifiesForEveryLeaf) {
  for (size_t n : {1u, 2u, 3u, 4u, 5u, 8u, 13u}) {
    std::vector<Bytes> leaves;
    for (size_t i = 0; i < n; ++i) {
      leaves.push_back(ToBytes(std::string_view("leaf-" + std::to_string(i))));
    }
    MerkleTree tree(leaves);
    for (size_t i = 0; i < n; ++i) {
      auto proof = tree.Prove(i);
      ASSERT_TRUE(proof.ok());
      EXPECT_TRUE(MerkleTree::Verify(tree.Root(), leaves[i], *proof))
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(MerkleTest, WrongLeafFailsProof) {
  std::vector<Bytes> leaves = {ToBytes(std::string_view("a")),
                               ToBytes(std::string_view("b")),
                               ToBytes(std::string_view("c"))};
  MerkleTree tree(leaves);
  auto proof = tree.Prove(1);
  ASSERT_TRUE(proof.ok());
  EXPECT_FALSE(MerkleTree::Verify(tree.Root(), AsByteView("x"), *proof));
}

TEST(MerkleTest, DifferentLeavesDifferentRoots) {
  MerkleTree t1({ToBytes(std::string_view("a")), ToBytes(std::string_view("b"))});
  MerkleTree t2({ToBytes(std::string_view("a")), ToBytes(std::string_view("c"))});
  EXPECT_NE(t1.Root(), t2.Root());
}

TEST(MerkleTest, OutOfRangeProofRejected) {
  MerkleTree tree({ToBytes(std::string_view("only"))});
  EXPECT_FALSE(tree.Prove(1).ok());
}

TEST(MerkleTest, LeafNodeDomainSeparation) {
  // A leaf equal to an interior-node preimage must not collide.
  Hash256 l = MerkleTree::HashLeaf(AsByteView("data"));
  Hash256 i = MerkleTree::HashInterior(l, l);
  EXPECT_NE(l, i);
}

}  // namespace
}  // namespace confide::crypto
