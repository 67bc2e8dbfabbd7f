#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include "common/endian.h"
#include "common/metrics.h"
#include "confide/client.h"
#include "confide/system.h"
#include "crypto/drbg.h"
#include "lang/compiler.h"
#include "serialize/rlp.h"
#include "storage/kv_store.h"

namespace confide::core {
namespace {

using chain::NamedAddress;
using chain::Transaction;
using chain::TxType;

// A small counter contract used across the end-to-end tests.
constexpr const char* kCounterSource = R"(
fn increment() {
  var key = "counter";
  var buf = alloc(16);
  var n = get_storage(key, strlen(key), buf, 16);
  var value = 0;
  if (n == 8) { value = load64(buf); }
  value = value + 1;
  store64(buf, value);
  set_storage(key, strlen(key), buf, 8);
  var out = alloc(32);
  var len = u64_to_dec(value, out);
  write_output(out, len);
  log("incremented", 11);
  return value;
}
)";

Bytes DeployPayload(chain::VmKind vm, const Bytes& code) {
  std::vector<serialize::RlpItem> items;
  items.push_back(serialize::RlpItem::U64(uint64_t(vm)));
  items.push_back(serialize::RlpItem(code));
  return serialize::RlpEncode(serialize::RlpItem::List(std::move(items)));
}

// ---------------------------------------------------------------------------
// Protocols
// ---------------------------------------------------------------------------

TEST(TProtocolTest, EnvelopeRoundTrip) {
  crypto::Drbg rng(1);
  crypto::KeyPair engine_keys = crypto::GenerateKeyPair(&rng);
  Bytes raw = rng.Generate(300);
  TxKey k_tx = DeriveTxKey(AsByteView("user-root"), crypto::Sha256::Digest(raw));

  auto envelope = SealEnvelope(engine_keys.pub, k_tx, raw, 7);
  ASSERT_TRUE(envelope.ok());
  auto opened = OpenEnvelope(engine_keys.priv, *envelope);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->raw_tx, raw);
  EXPECT_EQ(opened->k_tx, k_tx);
}

TEST(TProtocolTest, WrongPrivateKeyFails) {
  crypto::Drbg rng(2);
  crypto::KeyPair right = crypto::GenerateKeyPair(&rng);
  crypto::KeyPair wrong = crypto::GenerateKeyPair(&rng);
  TxKey k_tx{};
  auto envelope = SealEnvelope(right.pub, k_tx, AsByteView("raw"), 1);
  ASSERT_TRUE(envelope.ok());
  EXPECT_FALSE(OpenEnvelope(wrong.priv, *envelope).ok());
}

TEST(TProtocolTest, TamperedEnvelopeFails) {
  crypto::Drbg rng(3);
  crypto::KeyPair keys = crypto::GenerateKeyPair(&rng);
  TxKey k_tx{};
  k_tx[0] = 9;
  auto envelope = SealEnvelope(keys.pub, k_tx, AsByteView("raw tx bytes"), 1);
  ASSERT_TRUE(envelope.ok());
  (*envelope)[envelope->size() - 1] ^= 1;
  EXPECT_FALSE(OpenEnvelope(keys.priv, *envelope).ok());
}

TEST(TProtocolTest, SymmetricOnlyPathRecoversBody) {
  crypto::Drbg rng(4);
  crypto::KeyPair keys = crypto::GenerateKeyPair(&rng);
  Bytes raw = rng.Generate(120);
  TxKey k_tx = DeriveTxKey(AsByteView("root"), crypto::Sha256::Digest(raw));
  auto envelope = SealEnvelope(keys.pub, k_tx, raw, 1);
  ASSERT_TRUE(envelope.ok());
  auto body = OpenEnvelopeBody(k_tx, *envelope);  // C3: no private-key op
  ASSERT_TRUE(body.ok());
  EXPECT_EQ(*body, raw);
}

TEST(TProtocolTest, TxKeysAreUniquePerTransaction) {
  auto h1 = crypto::Sha256::Digest(AsByteView("tx1"));
  auto h2 = crypto::Sha256::Digest(AsByteView("tx2"));
  EXPECT_NE(DeriveTxKey(AsByteView("root"), h1), DeriveTxKey(AsByteView("root"), h2));
  EXPECT_NE(DeriveTxKey(AsByteView("root-a"), h1), DeriveTxKey(AsByteView("root-b"), h1));
}

TEST(TProtocolTest, ReceiptSealOpenAndDelegation) {
  TxKey k_tx{};
  k_tx[31] = 1;
  Bytes receipt = ToBytes(std::string_view("receipt-body"));
  auto sealed = SealReceipt(k_tx, receipt);
  ASSERT_TRUE(sealed.ok());
  // Owner (or a delegate handed k_tx) can open.
  auto opened = OpenReceipt(k_tx, *sealed);
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, receipt);
  // Anyone else cannot.
  TxKey other{};
  other[31] = 2;
  EXPECT_FALSE(OpenReceipt(other, *sealed).ok());
}

TEST(DProtocolTest, DeterministicAcrossReplicas) {
  StateKey k{};
  k[0] = 7;
  Bytes aad = StateAad(AsByteView("contract-1"), AsByteView("balance"), 1);
  auto c1 = SealState(k, AsByteView("100"), aad);
  auto c2 = SealState(k, AsByteView("100"), aad);
  ASSERT_TRUE(c1.ok() && c2.ok());
  EXPECT_EQ(*c1, *c2);  // replicas must agree byte-for-byte
}

TEST(DProtocolTest, AadBindsContractAndKeyAndVersion) {
  StateKey k{};
  Bytes aad1 = StateAad(AsByteView("c1"), AsByteView("k"), 1);
  auto sealed = SealState(k, AsByteView("secret"), aad1);
  ASSERT_TRUE(sealed.ok());
  EXPECT_TRUE(OpenState(k, *sealed, aad1).ok());
  // Different contract, key or security version all fail.
  EXPECT_FALSE(OpenState(k, *sealed, StateAad(AsByteView("c2"), AsByteView("k"), 1)).ok());
  EXPECT_FALSE(OpenState(k, *sealed, StateAad(AsByteView("c1"), AsByteView("x"), 1)).ok());
  EXPECT_FALSE(OpenState(k, *sealed, StateAad(AsByteView("c1"), AsByteView("k"), 2)).ok());
}

// ---------------------------------------------------------------------------
// K-Protocol
// ---------------------------------------------------------------------------

TEST(KProtocolTest, QuoteSerializationRoundTrip) {
  SimClock clock;
  tee::EnclavePlatform platform(tee::TeeCostModel{}, &clock, 9);
  auto km = std::make_shared<KmEnclave>(9);
  auto id = platform.CreateEnclave(km, 1 << 20);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(platform.Ecall(*id, kKmGenerateKeys, ByteView{}).ok());
  auto request = platform.Ecall(*id, kKmCreateJoinRequest, ByteView{});
  ASSERT_TRUE(request.ok());
  auto quote = DeserializeQuote(*request);
  ASSERT_TRUE(quote.ok());
  EXPECT_TRUE(tee::VerifyQuote(*quote));
  EXPECT_EQ(SerializeQuote(*quote), *request);
}

TEST(KProtocolTest, WrapUnwrapConsortiumKeys) {
  crypto::Drbg rng(10);
  crypto::KeyPair recipient = crypto::GenerateKeyPair(&rng);
  ConsortiumKeys keys;
  crypto::KeyPair tx_pair = crypto::GenerateKeyPair(&rng);
  keys.sk_tx = tx_pair.priv;
  keys.pk_tx = tx_pair.pub;
  rng.Fill(keys.k_states.data(), 32);

  auto blob = WrapConsortiumKeys(keys, recipient.pub, 5);
  ASSERT_TRUE(blob.ok());
  auto unwrapped = UnwrapConsortiumKeys(recipient.priv, *blob);
  ASSERT_TRUE(unwrapped.ok());
  EXPECT_EQ(unwrapped->sk_tx, keys.sk_tx);
  EXPECT_EQ(unwrapped->k_states, keys.k_states);

  crypto::KeyPair wrong = crypto::GenerateKeyPair(&rng);
  EXPECT_FALSE(UnwrapConsortiumKeys(wrong.priv, *blob).ok());
}

TEST(KProtocolTest, MapProvisionsJoinerWithSameKeys) {
  SimClock clock;
  tee::EnclavePlatform provider_platform(tee::TeeCostModel{}, &clock, 11);
  tee::EnclavePlatform joiner_platform(tee::TeeCostModel{}, &clock, 12);
  auto provider_km = std::make_shared<KmEnclave>(11);
  auto joiner_km = std::make_shared<KmEnclave>(12);
  auto provider_id = provider_platform.CreateEnclave(provider_km, 1 << 20);
  auto joiner_id = joiner_platform.CreateEnclave(joiner_km, 1 << 20);
  ASSERT_TRUE(provider_id.ok() && joiner_id.ok());
  ASSERT_TRUE(provider_platform.Ecall(*provider_id, kKmGenerateKeys, ByteView{}).ok());

  ASSERT_TRUE(RunMutualAttestation(&provider_platform, *provider_id,
                                   &joiner_platform, *joiner_id)
                  .ok());

  // Both sides now serve the same pk_tx.
  auto info_a = provider_platform.Ecall(*provider_id, kKmGetPublicInfo, ByteView{});
  auto info_b = joiner_platform.Ecall(*joiner_id, kKmGetPublicInfo, ByteView{});
  ASSERT_TRUE(info_a.ok() && info_b.ok());
  auto mr = tee::MeasureEnclave("confide-km-enclave", 1);
  auto pk_a = Client::VerifyEnginePublicKey(*info_a, mr);
  auto pk_b = Client::VerifyEnginePublicKey(*info_b, mr);
  ASSERT_TRUE(pk_a.ok() && pk_b.ok());
  EXPECT_EQ(*pk_a, *pk_b);
}

TEST(KProtocolTest, MapRejectsDifferentEnclaveCode) {
  // A "joiner" running different code (different measurement) is refused.
  class RogueEnclave : public KmEnclave {
   public:
    using KmEnclave::KmEnclave;
    std::string CodeIdentity() const override { return "rogue-km-enclave"; }
  };
  SimClock clock;
  tee::EnclavePlatform provider_platform(tee::TeeCostModel{}, &clock, 13);
  tee::EnclavePlatform joiner_platform(tee::TeeCostModel{}, &clock, 14);
  auto provider_km = std::make_shared<KmEnclave>(13);
  auto rogue = std::make_shared<RogueEnclave>(14);
  auto provider_id = provider_platform.CreateEnclave(provider_km, 1 << 20);
  auto rogue_id = joiner_platform.CreateEnclave(rogue, 1 << 20);
  ASSERT_TRUE(provider_id.ok() && rogue_id.ok());
  ASSERT_TRUE(provider_platform.Ecall(*provider_id, kKmGenerateKeys, ByteView{}).ok());

  Status status = RunMutualAttestation(&provider_platform, *provider_id,
                                       &joiner_platform, *rogue_id);
  EXPECT_EQ(status.code(), StatusCode::kPermissionDenied);
}

TEST(KProtocolTest, CentralKmsProvisionsVerifiedEnclaves) {
  CentralKms kms(77);
  SimClock clock;
  tee::EnclavePlatform platform(tee::TeeCostModel{}, &clock, 15);
  auto km = std::make_shared<KmEnclave>(15);
  auto id = platform.CreateEnclave(km, 1 << 20);
  ASSERT_TRUE(id.ok());

  auto request = platform.Ecall(*id, kKmCreateJoinRequest, ByteView{});
  ASSERT_TRUE(request.ok());
  auto blob = kms.Provision(*request, tee::MeasureEnclave("confide-km-enclave", 1));
  ASSERT_TRUE(blob.ok()) << blob.status().ToString();
  ASSERT_TRUE(platform.Ecall(*id, kKmAcceptProvision, *blob).ok());

  auto info = platform.Ecall(*id, kKmGetPublicInfo, ByteView{});
  ASSERT_TRUE(info.ok());
  auto pk = Client::VerifyEnginePublicKey(*info,
                                          tee::MeasureEnclave("confide-km-enclave", 1));
  ASSERT_TRUE(pk.ok());
  EXPECT_EQ(*pk, kms.pk_tx());

  // Wrong expected measurement is refused.
  EXPECT_FALSE(
      kms.Provision(*request, tee::MeasureEnclave("other", 1)).ok());
}

TEST(KProtocolTest, MalformedPublicInfoBlobRejectedNotCrash) {
  const auto mr = tee::MeasureEnclave("confide-km-enclave", 1);

  // Not RLP at all.
  EXPECT_FALSE(Client::VerifyEnginePublicKey(AsByteView("junk"), mr).ok());
  EXPECT_FALSE(Client::VerifyEnginePublicKey(ByteView{}, mr).ok());

  // pk slot holds a nested list where 64 raw bytes are expected — the
  // reader-based parse must fail with a Status, not feed list bytes into
  // the key copy.
  serialize::RlpWriter w;
  size_t list = w.BeginList();
  size_t pk_list = w.BeginList();
  w.WriteString("not-a-key");
  w.EndList(pk_list);
  w.WriteString("quote");
  w.EndList(list);
  auto status = Client::VerifyEnginePublicKey(std::move(w).Take(), mr);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.status().code(), StatusCode::kCorruption);

  // Wrong pk width (63 bytes) and a trailing extra field both fail.
  serialize::RlpWriter narrow;
  list = narrow.BeginList();
  narrow.WriteBytes(Bytes(63, 0x11));
  narrow.WriteString("quote");
  narrow.EndList(list);
  EXPECT_FALSE(
      Client::VerifyEnginePublicKey(std::move(narrow).Take(), mr).ok());

  serialize::RlpWriter extra;
  list = extra.BeginList();
  extra.WriteBytes(Bytes(64, 0x11));
  extra.WriteString("quote");
  extra.WriteString("trailing");
  extra.EndList(list);
  EXPECT_FALSE(
      Client::VerifyEnginePublicKey(std::move(extra).Take(), mr).ok());
}

// ---------------------------------------------------------------------------
// End-to-end confidential execution
// ---------------------------------------------------------------------------

class ConfideE2eTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SystemOptions options;
    options.seed = 100;
    auto sys = ConfideSystem::BootstrapFirst(options);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    sys_ = std::move(*sys);
    client_ = std::make_unique<Client>(500, sys_->pk_tx());

    auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
    ASSERT_TRUE(code.ok()) << code.status().ToString();
    counter_code_ = *code;
  }

  // Deploys the counter contract confidentially and returns its address.
  chain::Address DeployCounter() {
    chain::Address addr = NamedAddress("counter");
    auto submission = client_->MakeConfidentialTx(
        addr, "__deploy__", DeployPayload(chain::VmKind::kCvm, counter_code_));
    EXPECT_TRUE(submission.ok());
    EXPECT_TRUE(sys_->node()->SubmitTransaction(submission->tx).ok());
    auto receipts = sys_->RunToCompletion();
    EXPECT_TRUE(receipts.ok());
    EXPECT_EQ(receipts->size(), 1u);
    EXPECT_TRUE((*receipts)[0].success);
    return addr;
  }

  std::unique_ptr<ConfideSystem> sys_;
  std::unique_ptr<Client> client_;
  Bytes counter_code_;
};

TEST_F(ConfideE2eTest, BootstrapDestroysKmEnclave) {
  EXPECT_FALSE(sys_->km_alive());  // EPC released, paper §5.3
}

TEST_F(ConfideE2eTest, ConfidentialDeployAndCall) {
  chain::Address addr = DeployCounter();

  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  auto receipts = sys_->RunToCompletion();
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 1u);
  ASSERT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;

  // The on-chain receipt output is sealed; only k_tx opens it.
  auto opened = Client::OpenSealedReceipt(call->k_tx, (*receipts)[0].output);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(ToString(opened->output), "1");
  ASSERT_EQ(opened->logs.size(), 1u);
  EXPECT_EQ(ToString(opened->logs[0]), "incremented");

  TxKey wrong{};
  EXPECT_FALSE(Client::OpenSealedReceipt(wrong, (*receipts)[0].output).ok());
}

TEST_F(ConfideE2eTest, StateIsEncryptedAtRest) {
  chain::Address addr = DeployCounter();
  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  ASSERT_TRUE(sys_->RunToCompletion().ok());

  // The malicious-host view: read the raw KV store directly (§3.3 — "the
  // data in database can be accessed through database API directly").
  auto raw = sys_->node()->state()->Get(addr, AsByteView("counter"));
  ASSERT_TRUE(raw.ok());
  // The stored bytes must not contain the plaintext 8-byte LE counter.
  Bytes plain(8, 0);
  plain[0] = 1;
  EXPECT_NE(*raw, plain);
  EXPECT_GT(raw->size(), 8u + 12u);  // IV + tag overhead present

  // Same for the contract code.
  auto raw_code = sys_->node()->state()->Get(addr, AsByteView("__code__"));
  ASSERT_TRUE(raw_code.ok());
  EXPECT_NE(*raw_code, counter_code_);
}

TEST_F(ConfideE2eTest, CounterAccumulatesAcrossBlocks) {
  chain::Address addr = DeployCounter();
  ConfidentialSubmission last{};
  for (int i = 0; i < 5; ++i) {
    auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
    ASSERT_TRUE(call.ok());
    ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
    auto receipts = sys_->RunToCompletion();
    ASSERT_TRUE(receipts.ok());
    ASSERT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;
    last = *call;
    auto opened = Client::OpenSealedReceipt(call->k_tx, (*receipts)[0].output);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(ToString(opened->output), std::to_string(i + 1));
  }
}

TEST_F(ConfideE2eTest, PreVerificationCachePopulatesAndHits) {
  chain::Address addr = DeployCounter();
  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());

  CsEnclave* cs = sys_->confidential_engine()->enclave();
  uint64_t hits_before = cs->preverify_cache_hits();
  ASSERT_TRUE(sys_->RunToCompletion().ok());
  // Execution found the pre-verified metadata (C2 hit).
  EXPECT_GT(cs->preverify_cache_hits(), hits_before);
}

TEST_F(ConfideE2eTest, TamperedEnvelopeRejectedInPreVerify) {
  chain::Address addr = DeployCounter();
  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  Transaction tampered = call->tx;
  tampered.envelope[tampered.envelope.size() / 2] ^= 0xff;
  ASSERT_TRUE(sys_->node()->SubmitTransaction(tampered).ok());
  auto verified = sys_->node()->PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 0u);  // discarded
}

TEST_F(ConfideE2eTest, PublicAndConfidentialCoexist) {
  chain::Address conf_addr = DeployCounter();

  // Deploy the same contract publicly under another address.
  chain::Address pub_addr = NamedAddress("counter-public");
  Transaction pub_deploy = client_->MakePublicTx(
      pub_addr, "__deploy__", DeployPayload(chain::VmKind::kCvm, counter_code_));
  ASSERT_TRUE(sys_->node()->SubmitTransaction(pub_deploy).ok());

  Transaction pub_call = client_->MakePublicTx(pub_addr, "increment", Bytes{});
  auto conf_call = client_->MakeConfidentialTx(conf_addr, "increment", Bytes{});
  ASSERT_TRUE(conf_call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(pub_call).ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(conf_call->tx).ok());

  auto receipts = sys_->RunToCompletion();
  ASSERT_TRUE(receipts.ok());
  int success = 0;
  for (const auto& receipt : *receipts) success += receipt.success ? 1 : 0;
  EXPECT_EQ(success, int(receipts->size()));

  // Public state is plaintext; confidential state is not.
  auto pub_state = sys_->node()->state()->Get(pub_addr, AsByteView("counter"));
  ASSERT_TRUE(pub_state.ok());
  EXPECT_EQ(pub_state->size(), 8u);  // raw LE counter
  auto conf_state = sys_->node()->state()->Get(conf_addr, AsByteView("counter"));
  ASSERT_TRUE(conf_state.ok());
  EXPECT_GT(conf_state->size(), 8u);  // sealed
}

TEST_F(ConfideE2eTest, JoinAgainstDestroyedKmFailsDescriptively) {
  // Default bootstrap destroys the provider's KM enclave (§5.3), which
  // makes it useless as a MAP provisioning source. Joining against it
  // must fail up front with a descriptive error, not deep inside the
  // attestation protocol.
  EXPECT_FALSE(sys_->km_alive());
  SystemOptions joiner_options;
  joiner_options.seed = 150;
  auto joiner = ConfideSystem::BootstrapJoin(joiner_options, sys_.get());
  ASSERT_FALSE(joiner.ok());
  EXPECT_EQ(joiner.status().code(), StatusCode::kUnavailable);
  EXPECT_NE(joiner.status().message().find("provider KM enclave"),
            std::string::npos)
      << joiner.status().ToString();
}

TEST_F(ConfideE2eTest, JoinedNodeExecutesIdentically) {
  // Bootstrap a second node via MAP (provider keeps KM alive).
  SystemOptions first_options;
  first_options.seed = 200;
  first_options.destroy_km_after_provision = false;
  auto first = ConfideSystem::BootstrapFirst(first_options);
  ASSERT_TRUE(first.ok());

  SystemOptions second_options;
  second_options.seed = 201;
  auto second = ConfideSystem::BootstrapJoin(second_options, first->get());
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ((*first)->pk_tx(), (*second)->pk_tx());

  // The same confidential transactions replay on both nodes with
  // identical sealed state (replica determinism).
  Client client(42, (*first)->pk_tx());
  chain::Address addr = NamedAddress("ctr");
  auto deploy = client.MakeConfidentialTx(
      addr, "__deploy__", DeployPayload(chain::VmKind::kCvm, counter_code_));
  ASSERT_TRUE(deploy.ok());
  auto call = client.MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());

  for (ConfideSystem* sys : {first->get(), second->get()}) {
    ASSERT_TRUE(sys->node()->SubmitTransaction(deploy->tx).ok());
    ASSERT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
    auto receipts = sys->RunToCompletion();
    ASSERT_TRUE(receipts.ok());
    for (const auto& receipt : *receipts) {
      EXPECT_TRUE(receipt.success) << receipt.status_message;
    }
  }
  auto state_a = (*first)->node()->state()->Get(addr, AsByteView("counter"));
  auto state_b = (*second)->node()->state()->Get(addr, AsByteView("counter"));
  ASSERT_TRUE(state_a.ok() && state_b.ok());
  EXPECT_EQ(*state_a, *state_b);
  EXPECT_EQ((*first)->node()->state()->StateRoot(),
            (*second)->node()->state()->StateRoot());
}

TEST_F(ConfideE2eTest, TeeCostsAreCharged) {
  chain::Address addr = DeployCounter();
  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  uint64_t before_ns = sys_->clock()->NowNs();
  uint64_t ocalls_before = sys_->platform()->stats().ocalls.load();
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  ASSERT_TRUE(sys_->RunToCompletion().ok());
  EXPECT_GT(sys_->platform()->stats().ocalls.load(), ocalls_before);
  EXPECT_GT(sys_->clock()->NowNs(), before_ns);
}

TEST_F(ConfideE2eTest, MetricsTrackOneConfidentialTransaction) {
  chain::Address addr = DeployCounter();
  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());

  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();
  metrics::MetricsSnapshot before = registry.Snapshot();
  uint64_t stats_transitions_before = sys_->platform()->stats().transitions.load();

  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  ASSERT_TRUE(sys_->RunToCompletion().ok());

  metrics::MetricsSnapshot after = registry.Snapshot();

  // The registry's enclave-transition counter advanced by exactly the
  // number of transition events the TEE cost model charged (TeeStats is
  // the cost model's own ledger; this node is the only platform running).
  uint64_t model_transitions =
      sys_->platform()->stats().transitions.load() - stats_transitions_before;
  EXPECT_GT(model_transitions, 0u);
  EXPECT_EQ(after.counter("tee.transition.count") -
                before.counter("tee.transition.count"),
            model_transitions);

  // One tx went through preverify and execute; P1–P5 phase histograms
  // all saw it and the state ocall counters moved.
  EXPECT_EQ(after.counter("confide.preverify.tx.count") -
                before.counter("confide.preverify.tx.count"),
            1u);
  EXPECT_EQ(after.counter("confide.execute.tx.count") -
                before.counter("confide.execute.tx.count"),
            1u);
  for (const char* phase :
       {"confide.phase.p1_decode_ns", "confide.phase.p2_envelope_open_ns",
        "confide.phase.p3_sig_verify_ns", "confide.phase.p4_cache_update_ns",
        "confide.phase.p5_execute_ns"}) {
    ASSERT_TRUE(after.histograms.count(phase)) << phase;
    uint64_t delta = after.histograms.at(phase).count -
                     (before.histograms.count(phase)
                          ? before.histograms.at(phase).count
                          : 0);
    EXPECT_GE(delta, 1u) << phase;
  }
  EXPECT_GT(after.counter("confide.state.get_ocall.count") +
                after.counter("confide.state.set_ocall.count"),
            before.counter("confide.state.get_ocall.count") +
                before.counter("confide.state.set_ocall.count"));

  // A block was produced for the tx and the chain layer saw it.
  EXPECT_GE(after.counter("chain.block.count") - before.counter("chain.block.count"),
            1u);
}

// ---------------------------------------------------------------------------
// StateJournal / batched-ocall regressions (OPT5)
// ---------------------------------------------------------------------------

// A -> B -> A: the outer frame of `reent.a` reads "x", calls into
// `reent.b`, which re-enters `reent.a` and increments "x". The outer
// frame's re-read must observe the nested write — all frames of one
// execution share a single StateJournal.
constexpr const char* kReentrantASource = R"(
fn outer() {
  var before = state_get_u64("x");
  var out = alloc(8);
  call_named("reent.b", "pong", out, 0, out, 8);
  var after = state_get_u64("x");
  var buf = alloc(32);
  var len = u64_to_dec(after, buf);
  write_output(buf, len);
  return after - before;
}
fn bump() {
  state_put_u64("x", state_get_u64("x") + 1);
  return 0;
}
)";

constexpr const char* kReentrantBSource = R"(
fn pong() {
  var out = alloc(8);
  call_named("reent.a", "bump", out, 0, out, 8);
  return 0;
}
)";

// Shared-counter contracts for the cross-group conflict regression.
constexpr const char* kSharedCounterSource = R"(
fn bump() {
  state_put_u64("n", state_get_u64("n") + 1);
  return 0;
}
fn read() {
  var buf = alloc(32);
  var len = u64_to_dec(state_get_u64("n"), buf);
  write_output(buf, len);
  return 0;
}
)";

constexpr const char* kSharedCallerSource = R"(
fn hit() {
  var out = alloc(8);
  call_named("grp.shared", "bump", out, 0, out, 8);
  return 0;
}
)";

// Touches four state keys per call: the workload where batching pays
// (one prefetch + one flush instead of eight single ocalls).
constexpr const char* kMultiKeySource = R"(
fn touch() {
  state_put_u64("k0", state_get_u64("k0") + 1);
  state_put_u64("k1", state_get_u64("k1") + 1);
  state_put_u64("k2", state_get_u64("k2") + 1);
  state_put_u64("k3", state_get_u64("k3") + 1);
  var buf = alloc(32);
  var len = u64_to_dec(state_get_u64("k0"), buf);
  write_output(buf, len);
  return 0;
}
)";

int64_t GaugeOr(const metrics::MetricsSnapshot& snap, const std::string& name,
                int64_t fallback) {
  auto it = snap.gauges.find(name);
  return it == snap.gauges.end() ? fallback : it->second;
}

// Deploys `source` confidentially at NamedAddress(name) in its own block.
void DeployNamed(ConfideSystem* sys, Client* client, const std::string& name,
                 const char* source) {
  auto code = lang::Compile(source, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok()) << code.status().ToString();
  auto submission = client->MakeConfidentialTx(
      NamedAddress(name), "__deploy__", DeployPayload(chain::VmKind::kCvm, *code));
  ASSERT_TRUE(submission.ok());
  ASSERT_TRUE(sys->node()->SubmitTransaction(submission->tx).ok());
  auto receipts = sys->RunToCompletion();
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 1u);
  ASSERT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;
}

// Runs entry() on NamedAddress(name) and returns the decrypted output.
std::string CallAndOpen(ConfideSystem* sys, Client* client,
                        const std::string& name, const std::string& entry) {
  auto call = client->MakeConfidentialTx(NamedAddress(name), entry, Bytes{});
  EXPECT_TRUE(call.ok());
  EXPECT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
  auto receipts = sys->RunToCompletion();
  EXPECT_TRUE(receipts.ok()) << receipts.status().ToString();
  if (!receipts.ok() || receipts->empty() || !(*receipts)[0].success) {
    return "<failed>";
  }
  auto opened = Client::OpenSealedReceipt(call->k_tx, (*receipts)[0].output);
  EXPECT_TRUE(opened.ok()) << opened.status().ToString();
  return opened.ok() ? ToString(opened->output) : "<sealed>";
}

TEST_F(ConfideE2eTest, ReentrantNestedCallSeesNestedWrite) {
  DeployNamed(sys_.get(), client_.get(), "reent.a", kReentrantASource);
  DeployNamed(sys_.get(), client_.get(), "reent.b", kReentrantBSource);
  // outer() re-reads "x" after the A->B->A bump; a per-frame SDM cache
  // would serve the stale pre-call absence and report 0.
  EXPECT_EQ(CallAndOpen(sys_.get(), client_.get(), "reent.a", "outer"), "1");
}

TEST(ConfideParallelTest, CrossGroupSharedContractCommitsBothWrites) {
  SystemOptions options;
  options.seed = 310;
  options.parallelism = 4;
  auto sys = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  Client client(600, (*sys)->pk_tx());

  DeployNamed(sys->get(), &client, "grp.shared", kSharedCounterSource);
  DeployNamed(sys->get(), &client, "grp.a", kSharedCallerSource);
  DeployNamed(sys->get(), &client, "grp.b", kSharedCallerSource);

  // Two transactions with distinct top-level conflict keys — the
  // scheduler puts them in different parallel groups — but both call
  // into grp.shared and increment the same counter.
  auto a = client.MakeConfidentialTx(NamedAddress("grp.a"), "hit", Bytes{});
  auto b = client.MakeConfidentialTx(NamedAddress("grp.b"), "hit", Bytes{});
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE((*sys)->node()->SubmitTransaction(a->tx).ok());
  ASSERT_TRUE((*sys)->node()->SubmitTransaction(b->tx).ok());
  auto receipts = (*sys)->RunToCompletion();
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 2u);
  EXPECT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;
  EXPECT_TRUE((*receipts)[1].success) << (*receipts)[1].status_message;

  // Pre-fix, overlay merge order silently dropped one increment (last
  // writer wins); the cross-group conflict re-execution keeps both.
  EXPECT_EQ(CallAndOpen(sys->get(), &client, "grp.shared", "read"), "2");
}

TEST(ConfideBatchingTest, BatchedStateOcallsReduceEnclaveTransitions) {
  metrics::MetricsRegistry& registry = metrics::MetricsRegistry::Global();

  // Runs three touch() calls on the 4-key contract; returns the TEE
  // transition count and the state-ocall counter deltas of the third
  // (steady-state: code cache warm, read-set profile learned).
  struct SteadyState {
    uint64_t transitions = 0;
    uint64_t single_ocalls = 0;
    uint64_t batch_ocalls = 0;
  };
  auto measure = [&](uint64_t seed, bool batching) -> SteadyState {
    SystemOptions options;
    options.seed = seed;
    options.cs.enable_ocall_batching = batching;
    auto sys = ConfideSystem::BootstrapFirst(options);
    EXPECT_TRUE(sys.ok()) << sys.status().ToString();
    Client client(700, (*sys)->pk_tx());
    DeployNamed(sys->get(), &client, "multi", kMultiKeySource);
    EXPECT_EQ(CallAndOpen(sys->get(), &client, "multi", "touch"), "1");
    EXPECT_EQ(CallAndOpen(sys->get(), &client, "multi", "touch"), "2");

    metrics::MetricsSnapshot before = registry.Snapshot();
    uint64_t transitions_before = (*sys)->platform()->stats().transitions.load();
    EXPECT_EQ(CallAndOpen(sys->get(), &client, "multi", "touch"), "3");
    metrics::MetricsSnapshot after = registry.Snapshot();

    SteadyState out;
    out.transitions =
        (*sys)->platform()->stats().transitions.load() - transitions_before;
    out.single_ocalls = (after.counter("confide.state.get_ocall.count") -
                         before.counter("confide.state.get_ocall.count")) +
                        (after.counter("confide.state.set_ocall.count") -
                         before.counter("confide.state.set_ocall.count"));
    out.batch_ocalls = (after.counter("confide.state.get_batch_ocall.count") -
                        before.counter("confide.state.get_batch_ocall.count")) +
                       (after.counter("confide.state.set_batch_ocall.count") -
                        before.counter("confide.state.set_batch_ocall.count"));
    return out;
  };

  SteadyState batched = measure(320, true);
  SteadyState unbatched = measure(321, false);

  // Unbatched steady state: one get + one set ocall per touched key.
  EXPECT_EQ(unbatched.single_ocalls, 8u);
  EXPECT_EQ(unbatched.batch_ocalls, 0u);
  // Batched steady state: one prefetch + one flush, nothing else — the
  // state ocalls cost 2 * 2 = 4 enclave transitions per transaction.
  EXPECT_EQ(batched.single_ocalls, 0u);
  EXPECT_EQ(batched.batch_ocalls, 2u);
  EXPECT_LT(batched.transitions, unbatched.transitions);
}

TEST_F(ConfideE2eTest, ConflictKeyAndPreVerifyEntriesEvictedAfterExecute) {
  chain::Address addr = DeployCounter();
  auto call = client_->MakeConfidentialTx(addr, "increment", Bytes{});
  ASSERT_TRUE(call.ok());
  ASSERT_TRUE(sys_->node()->SubmitTransaction(call->tx).ok());
  ASSERT_TRUE(sys_->RunToCompletion().ok());

  // Memoized pre-verification metadata is consumed by execution — the
  // host conflict-key map and the in-enclave meta cache both drain back
  // to zero instead of growing with chain history.
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(GaugeOr(snap, "confide.engine.conflict_keys.resident", -1), 0);
  EXPECT_EQ(GaugeOr(snap, "confide.preverify_cache.resident", -1), 0);
}

TEST(ConfideCacheCapTest, PreVerifyCacheHonorsLruCapacity) {
  SystemOptions options;
  options.seed = 330;
  options.cs.preverify_cache_capacity = 1;
  auto sys = ConfideSystem::BootstrapFirst(options);
  ASSERT_TRUE(sys.ok()) << sys.status().ToString();
  Client client(800, (*sys)->pk_tx());
  DeployNamed(sys->get(), &client, "capped", kCounterSource);

  auto first = client.MakeConfidentialTx(NamedAddress("capped"), "increment", Bytes{});
  auto second = client.MakeConfidentialTx(NamedAddress("capped"), "increment", Bytes{});
  ASSERT_TRUE(first.ok() && second.ok());
  ASSERT_TRUE((*sys)->node()->SubmitTransaction(first->tx).ok());
  ASSERT_TRUE((*sys)->node()->SubmitTransaction(second->tx).ok());
  auto verified = (*sys)->node()->PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 2u);

  // Both passed pre-verification but the LRU held only one entry.
  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(GaugeOr(snap, "confide.preverify_cache.resident", -1), 1);

  // The evicted transaction still executes via the full sk_tx path.
  auto receipts = (*sys)->RunToCompletion();
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 2u);
  EXPECT_TRUE((*receipts)[0].success) << (*receipts)[0].status_message;
  EXPECT_TRUE((*receipts)[1].success) << (*receipts)[1].status_message;
  snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_EQ(GaugeOr(snap, "confide.preverify_cache.resident", -1), 0);
}

// ---------------------------------------------------------------------------
// VM linear memory and the code cache, end to end
// ---------------------------------------------------------------------------

// keep() leaves the decrypted input in linear memory at a fixed address;
// dump() of another contract returns whatever sits at that address.
constexpr const char* kKeepInputSource = R"(
fn keep() {
  read_input(32768, 256);
  return 0;
}
fn keep_and_dump() {
  read_input(32768, 256);
  write_output(32768, 256);
  return 0;
}
)";

constexpr const char* kDumpSource = R"(
fn dump() {
  write_output(32768, 256);
  return 0;
}
)";

// Runs one confidential call per entry, all in one block; returns each
// decrypted output.
std::vector<std::string> CallEachAndOpen(
    ConfideSystem* sys, Client* client,
    const std::vector<std::tuple<std::string, std::string, Bytes>>& calls) {
  std::vector<TxKey> keys;
  for (const auto& [name, entry, input] : calls) {
    auto call = client->MakeConfidentialTx(NamedAddress(name), entry, input);
    EXPECT_TRUE(call.ok());
    EXPECT_TRUE(sys->node()->SubmitTransaction(call->tx).ok());
    keys.push_back(call->k_tx);
  }
  auto receipts = sys->RunToCompletion();
  EXPECT_TRUE(receipts.ok()) << receipts.status().ToString();
  std::vector<std::string> outputs;
  for (size_t i = 0; receipts.ok() && i < receipts->size() && i < keys.size(); ++i) {
    const chain::Receipt& receipt = (*receipts)[i];
    EXPECT_TRUE(receipt.success) << receipt.status_message;
    auto opened = Client::OpenSealedReceipt(keys[i], receipt.output);
    EXPECT_TRUE(opened.ok()) << opened.status().ToString();
    outputs.push_back(opened.ok() ? ToString(opened->output) : "<sealed>");
  }
  outputs.resize(calls.size(), "<missing>");
  return outputs;
}

TEST_F(ConfideE2eTest, DecryptedInputLeftInVmMemoryIsNotSeenByTheNextTx) {
  DeployNamed(sys_.get(), client_.get(), "mem.keep", kKeepInputSource);
  DeployNamed(sys_.get(), client_.get(), "mem.dump", kDumpSource);
  const std::string secret = "IBAN DE89 3704 0044 0532 0130 00; amount 1,250,000.00";
  std::string padded = secret;
  padded.resize(256, '\0');
  const std::string zeros(256, '\0');

  // The dump reads the span its own run wrote.
  EXPECT_EQ(CallEachAndOpen(sys_.get(), client_.get(),
                            {{"mem.keep", "keep_and_dump", ToBytes(secret)}}),
            std::vector<std::string>{padded});
  // Next block: another user's tx to another contract sees zeros there.
  EXPECT_EQ(CallEachAndOpen(sys_.get(), client_.get(),
                            {{"mem.keep", "keep", ToBytes(secret)}}),
            std::vector<std::string>{""});
  EXPECT_EQ(CallEachAndOpen(sys_.get(), client_.get(), {{"mem.dump", "dump", {}}}),
            std::vector<std::string>{zeros});
  // Same block, back to back.
  EXPECT_EQ(CallEachAndOpen(sys_.get(), client_.get(),
                            {{"mem.keep", "keep", ToBytes(secret)},
                             {"mem.dump", "dump", {}}}),
            (std::vector<std::string>{"", zeros}));
}

TEST(ConfideCodeCacheTest, CachedCallsDecodeNothingUncachedCallsDecodeEach) {
  metrics::Counter* decodes = metrics::GetCounter("vm.cvm.module.decode.count");
  for (bool cache : {true, false}) {
    SystemOptions options;
    options.seed = 340;
    options.cs.enable_code_cache = cache;
    options.public_engine.enable_code_cache = cache;
    auto sys = ConfideSystem::BootstrapFirst(options);
    ASSERT_TRUE(sys.ok()) << sys.status().ToString();
    Client client(900, (*sys)->pk_tx());
    DeployNamed(sys->get(), &client, "cc.conf", kCounterSource);
    auto code = lang::Compile(kCounterSource, lang::VmTarget::kCvm);
    ASSERT_TRUE(code.ok());
    chain::Address pub = NamedAddress("cc.pub");
    ASSERT_TRUE((*sys)->node()
                    ->SubmitTransaction(client.MakePublicTx(
                        pub, "__deploy__", DeployPayload(chain::VmKind::kCvm, *code)))
                    .ok());
    ASSERT_TRUE((*sys)->RunToCompletion().ok());

    auto call_both = [&] {
      auto conf = client.MakeConfidentialTx(NamedAddress("cc.conf"), "increment", Bytes{});
      ASSERT_TRUE(conf.ok());
      ASSERT_TRUE((*sys)->node()->SubmitTransaction(conf->tx).ok());
      ASSERT_TRUE((*sys)->node()
                      ->SubmitTransaction(client.MakePublicTx(pub, "increment", Bytes{}))
                      .ok());
      auto receipts = (*sys)->RunToCompletion();
      ASSERT_TRUE(receipts.ok());
      for (const auto& receipt : *receipts) {
        EXPECT_TRUE(receipt.success) << receipt.status_message;
      }
    };
    call_both();  // warm: each engine decodes its contract once
    uint64_t before = decodes->Value();
    for (int i = 0; i < 3; ++i) call_both();
    // OPT1 on: no decode at all. Off (Fig. 12's BASE rung): every call.
    EXPECT_EQ(decodes->Value() - before, cache ? 0u : 6u) << "cache " << cache;
  }
}

// Nested-call targets for the same-block deploy test below.
constexpr const char* kTargetCallerSource = R"(
fn hit() {
  var out = alloc(32);
  var n = call_named("cc.target", "read", out, 0, out, 32);
  write_output(out, n);
  return 0;
}
)";
constexpr const char* kFreshCallerSource = R"(
fn hit() {
  var out = alloc(32);
  var n = call_named("cc.fresh", "read", out, 0, out, 32);
  write_output(out, n);
  return 0;
}
)";
constexpr const char* kOtherReadSource = R"(
fn read() {
  write_output("other", 5);
  return 0;
}
)";

struct BlockCall {
  std::string name;
  std::string entry;
  Bytes input;
};

// Submits `calls` as one block and describes each receipt as "ok:<output>"
// (confidential outputs opened) or "failed".
std::vector<std::string> RunOneBlock(ConfideSystem* sys, Client* client,
                                     bool confidential,
                                     const std::vector<BlockCall>& calls) {
  std::vector<std::optional<TxKey>> keys;
  for (const BlockCall& call : calls) {
    if (confidential) {
      auto sub = client->MakeConfidentialTx(NamedAddress(call.name), call.entry, call.input);
      EXPECT_TRUE(sub.ok());
      EXPECT_TRUE(sys->node()->SubmitTransaction(sub->tx).ok());
      keys.push_back(sub->k_tx);
    } else {
      EXPECT_TRUE(sys->node()
                      ->SubmitTransaction(client->MakePublicTx(NamedAddress(call.name),
                                                               call.entry, call.input))
                      .ok());
      keys.push_back(std::nullopt);
    }
  }
  auto receipts = sys->RunToCompletion();
  EXPECT_TRUE(receipts.ok()) << receipts.status().ToString();
  std::vector<std::string> out;
  for (size_t i = 0; receipts.ok() && i < receipts->size() && i < keys.size(); ++i) {
    const chain::Receipt& receipt = (*receipts)[i];
    if (!receipt.success) {
      out.push_back("failed");
      continue;
    }
    Bytes output = receipt.output;
    if (keys[i].has_value()) {
      auto opened = Client::OpenSealedReceipt(*keys[i], receipt.output);
      EXPECT_TRUE(opened.ok()) << opened.status().ToString();
      output = opened.ok() ? opened->output : Bytes{};
    }
    out.push_back("ok:" + ToString(output));
  }
  out.resize(calls.size(), "<missing>");
  return out;
}

TEST(ConfideCodeCacheTest, SameBlockDeploysLeaveNoStaleCodeInTheCache) {
  // Every conflict group runs against the same parent snapshot, and a
  // conflicted group reruns serially after the others, so code read in a
  // block may belong to a deploy that a rerun discards. Code is cached by
  // address, so a node with the cache must still match a node without it:
  // a redeploy is refused, and a same-block deploy's code stays uncached.
  const uint64_t fresh_key = LoadBe64(NamedAddress("cc.fresh").data());
  std::string early;  // its group precedes cc.fresh's in the serial rerun
  for (int i = 0; i < 64 && early.empty(); ++i) {
    std::string name = "cc.early." + std::to_string(i);
    if (LoadBe64(NamedAddress(name).data()) < fresh_key) early = name;
  }
  ASSERT_FALSE(early.empty());
  auto deploy = [](const char* source) {
    auto code = lang::Compile(source, lang::VmTarget::kCvm);
    EXPECT_TRUE(code.ok()) << code.status().ToString();
    return DeployPayload(chain::VmKind::kCvm, code.ok() ? *code : Bytes{});
  };
  const std::vector<std::vector<BlockCall>> blocks = {
      {{"cc.target", "__deploy__", deploy(kSharedCounterSource)},
       {"cc.caller", "__deploy__", deploy(kTargetCallerSource)},
       {early, "__deploy__", deploy(kFreshCallerSource)}},
      {{"cc.target", "bump", {}}},
      // One block: a redeploy of cc.target beside a nested call to it, and
      // a first deploy of cc.fresh beside a nested call to it from a group
      // that reruns first.
      {{"cc.target", "__deploy__", deploy(kOtherReadSource)},
       {"cc.caller", "hit", {}},
       {"cc.fresh", "__deploy__", deploy(kSharedCounterSource)},
       {"cc.fresh", "bump", {}},
       {early, "hit", {}}},
      {{"cc.target", "read", {}},
       {"cc.caller", "hit", {}},
       {"cc.fresh", "read", {}},
       {early, "hit", {}}},
  };

  for (bool confidential : {false, true}) {
    std::vector<std::vector<std::string>> outcomes[2];
    for (bool cache : {false, true}) {
      SystemOptions options;
      options.seed = 350;
      options.parallelism = 4;
      options.block_max_bytes = 1 << 20;
      options.cs.enable_code_cache = cache;
      options.public_engine.enable_code_cache = cache;
      auto sys = ConfideSystem::BootstrapFirst(options);
      ASSERT_TRUE(sys.ok()) << sys.status().ToString();
      Client client(950, (*sys)->pk_tx());
      for (const auto& block : blocks) {
        outcomes[cache].push_back(RunOneBlock(sys->get(), &client, confidential, block));
      }
    }
    EXPECT_EQ(outcomes[true], outcomes[false]) << "confidential " << confidential;
    const auto& with_cache = outcomes[true];
    ASSERT_EQ(with_cache.size(), 4u);
    EXPECT_EQ(with_cache[2][0], "failed") << "a redeploy must be refused";
    EXPECT_EQ(with_cache[2][1], "ok:1");
    EXPECT_EQ(with_cache[3],
              (std::vector<std::string>{"ok:1", "ok:1", "ok:1", "ok:1"}))
        << "confidential " << confidential;
  }
}

TEST_F(ConfideE2eTest, ContractCannotRewriteItsOwnCode) {
  // Code is cached by address, so it may change only through a deploy: a
  // storage write to the code keys fails the transaction on both engines
  // and the deployed code keeps running.
  constexpr const char* kRewriteSource = R"(
fn rewrite() {
  var key = "__code__";
  var buf = alloc(8);
  set_storage(key, strlen(key), buf, 8);
  return 0;
}
fn ping() {
  var out = "pong";
  write_output(out, 4);
  return 0;
}
)";
  DeployNamed(sys_.get(), client_.get(), "rw.conf", kRewriteSource);
  EXPECT_EQ(CallAndOpen(sys_.get(), client_.get(), "rw.conf", "ping"), "pong");
  EXPECT_EQ(CallAndOpen(sys_.get(), client_.get(), "rw.conf", "rewrite"), "<failed>");
  EXPECT_EQ(CallAndOpen(sys_.get(), client_.get(), "rw.conf", "ping"), "pong");

  auto code = lang::Compile(kRewriteSource, lang::VmTarget::kCvm);
  ASSERT_TRUE(code.ok());
  chain::Address pub = NamedAddress("rw.pub");
  auto run_public = [&](const std::string& entry, const Bytes& input) {
    EXPECT_TRUE(
        sys_->node()->SubmitTransaction(client_->MakePublicTx(pub, entry, input)).ok());
    auto receipts = sys_->RunToCompletion();
    EXPECT_TRUE(receipts.ok() && receipts->size() == 1u);
    return receipts.ok() && receipts->size() == 1u ? (*receipts)[0] : chain::Receipt{};
  };
  EXPECT_TRUE(run_public("__deploy__", DeployPayload(chain::VmKind::kCvm, *code)).success);
  chain::Receipt rewrite = run_public("rewrite", {});
  EXPECT_FALSE(rewrite.success);
  EXPECT_NE(rewrite.status_message.find("deploy"), std::string::npos)
      << rewrite.status_message;
  chain::Receipt ping = run_public("ping", {});
  EXPECT_TRUE(ping.success) << ping.status_message;
  EXPECT_EQ(ToString(ping.output), "pong");
}

}  // namespace
}  // namespace confide::core
