#include <gtest/gtest.h>

#include <filesystem>

#include "chain/checkpoint.h"
#include "chain/executor.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "chain/network.h"
#include "chain/node.h"
#include "chain/pbft.h"
#include "chain/state.h"
#include "chain/sync.h"
#include "chain/types.h"
#include "common/endian.h"
#include "crypto/drbg.h"
#include "serialize/rlp.h"
#include "storage/lsm_store.h"
#include "tests/test_util.h"

namespace confide::chain {
namespace {

std::shared_ptr<storage::KvStore> MakeKv() {
  auto store = storage::LsmKvStore::Open(storage::LsmOptions{});
  return std::shared_ptr<storage::KvStore>(std::move(*store));
}

Transaction MakeSignedTx(crypto::Drbg* rng, const Address& contract,
                         const std::string& entry, Bytes input,
                         crypto::KeyPair* out_kp = nullptr) {
  crypto::KeyPair kp = crypto::GenerateKeyPair(rng);
  Transaction tx;
  tx.type = TxType::kPublic;
  tx.sender = kp.pub;
  tx.contract = contract;
  tx.entry = entry;
  tx.input = std::move(input);
  tx.nonce = 1;
  tx.signature = *crypto::EcdsaSign(kp.priv, tx.SigningHash());
  if (out_kp != nullptr) *out_kp = kp;
  return tx;
}

/// Engine that records keys: "set:<k>=<v>" writes state; "fail" traps;
/// "bump" increments a counter slot on the contract named by tx.input —
/// a stand-in for a nested call writing a contract outside the tx's own
/// conflict group.
class ScriptEngine : public ExecutionEngine {
 public:
  using ExecutionEngine::Execute;

  Result<bool> PreVerify(const Transaction& tx) override {
    return crypto::EcdsaVerify(tx.sender, tx.SigningHash(), tx.signature);
  }

  Result<Receipt> Execute(const Transaction& tx, StateDb* state,
                          TxTouchSet* touch) override {
    ++executed;
    Receipt receipt;
    receipt.tx_hash = tx.Hash();
    if (tx.entry == "fail") {
      state->Put(tx.contract, AsByteView("poison"), ToBytes(std::string_view("x")));
      return Status::VmTrap("scripted failure");
    }
    if (tx.entry == "bump") {
      Address target = NamedAddress(ToString(tx.input));
      uint64_t value = 0;
      auto current = state->Get(target, AsByteView("n"));
      if (current.ok() && current->size() == 8) value = LoadBe64(current->data());
      Bytes next(8);
      StoreBe64(next.data(), value + 1);
      state->Put(target, AsByteView("n"), next);
      if (touch != nullptr) {
        touch->read_keys.push_back(LoadBe64(target.data()));
        touch->written_keys.push_back(LoadBe64(target.data()));
      }
      receipt.success = true;
      return receipt;
    }
    state->Put(tx.contract, tx.input, ToBytes(std::string_view("written")));
    if (touch != nullptr) {
      touch->written_keys.push_back(LoadBe64(tx.contract.data()));
    }
    receipt.success = true;
    receipt.output = ToBytes(std::string_view("ok"));
    return receipt;
  }

  uint64_t ConflictKey(const Transaction& tx) override {
    return LoadBe64(tx.contract.data());
  }

  std::atomic<int> executed{0};
};

// ---------------------------------------------------------------------------
// Types
// ---------------------------------------------------------------------------

TEST(ChainTypesTest, PublicTxSerializationRoundTrip) {
  crypto::Drbg rng(1);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("bank"), "transfer",
                                ToBytes(std::string_view("args")));
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->entry, "transfer");
  EXPECT_EQ(back->contract, tx.contract);
  EXPECT_EQ(back->signature, tx.signature);
  EXPECT_EQ(back->Hash(), tx.Hash());
}

TEST(ChainTypesTest, ConfidentialTxSerializationRoundTrip) {
  Transaction tx;
  tx.type = TxType::kConfidential;
  tx.envelope = crypto::Drbg(2).Generate(200);
  auto back = Transaction::Deserialize(tx.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->type, TxType::kConfidential);
  EXPECT_EQ(back->envelope, tx.envelope);
}

TEST(ChainTypesTest, SigningHashExcludesSignature) {
  crypto::Drbg rng(3);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("c"), "m", Bytes{});
  crypto::Hash256 h1 = tx.SigningHash();
  crypto::Hash256 wire1 = tx.Hash();
  tx.signature[0] ^= 0xff;
  EXPECT_EQ(tx.SigningHash(), h1);   // signing hash unchanged
  EXPECT_NE(tx.Hash(), wire1);       // wire hash covers the signature
}

TEST(ChainTypesTest, ReceiptRoundTrip) {
  Receipt receipt;
  receipt.tx_hash = crypto::Sha256::Digest(AsByteView("tx"));
  receipt.success = true;
  receipt.output = ToBytes(std::string_view("output"));
  receipt.logs = {ToBytes(std::string_view("log1")), ToBytes(std::string_view("log2"))};
  receipt.gas_used = 12345;
  auto back = Receipt::Deserialize(receipt.Serialize());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->tx_hash, receipt.tx_hash);
  EXPECT_TRUE(back->success);
  EXPECT_EQ(back->logs.size(), 2u);
  EXPECT_EQ(back->gas_used, 12345u);
}

TEST(ChainTypesTest, BlockRoundTrip) {
  crypto::Drbg rng(4);
  Block block;
  block.header.height = 7;
  block.header.parent_hash = crypto::Sha256::Digest(AsByteView("parent"));
  block.header.timestamp_ns = 999;
  block.transactions.push_back(
      MakeSignedTx(&rng, NamedAddress("a"), "m1", ToBytes(std::string_view("x"))));
  Transaction conf;
  conf.type = TxType::kConfidential;
  conf.envelope = rng.Generate(64);
  block.transactions.push_back(conf);

  auto back = Block::Deserialize(block.Serialize());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->header.height, 7u);
  EXPECT_EQ(back->transactions.size(), 2u);
  EXPECT_EQ(back->transactions[1].type, TxType::kConfidential);
  EXPECT_EQ(back->header.Hash(), block.header.Hash());
}

TEST(ChainTypesTest, NamedAddressesAreStableAndDistinct) {
  EXPECT_EQ(NamedAddress("gateway"), NamedAddress("gateway"));
  EXPECT_NE(NamedAddress("gateway"), NamedAddress("manager"));
}

TEST(ChainTypesTest, TransactionRefMatchesOwningDecode) {
  crypto::Drbg rng(5);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("bank"), "transfer",
                                rng.Generate(100));
  const Bytes wire = tx.Serialize();

  auto ref = TransactionRef::Decode(wire);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->SenderKey(), tx.sender);
  EXPECT_EQ(ref->ContractAddress(), tx.contract);
  EXPECT_EQ(ref->EntryString(), tx.entry);
  EXPECT_EQ(ToBytes(ref->input), tx.input);
  EXPECT_EQ(ref->nonce, tx.nonce);
  EXPECT_EQ(ref->SignatureValue(), tx.signature);
  EXPECT_EQ(ref->SigningHash(), tx.SigningHash());

  // Views alias the wire buffer — no field was copied.
  EXPECT_GE(ref->input.data(), wire.data());
  EXPECT_LE(ref->input.data() + ref->input.size(), wire.data() + wire.size());

  Transaction owned = ref->ToOwned();
  EXPECT_EQ(owned.Serialize(), wire);
  EXPECT_EQ(owned.Hash(), tx.Hash());
}

TEST(ChainTypesTest, ReceiptRefMatchesOwningDecode) {
  crypto::Drbg rng(6);
  Receipt receipt;
  receipt.tx_hash = crypto::Sha256::Digest(AsByteView("tx"));
  receipt.success = false;
  receipt.status_message = "trap: divide by zero";
  receipt.output = rng.Generate(64);
  receipt.logs = {rng.Generate(16), rng.Generate(24)};
  receipt.gas_used = 777;
  const Bytes wire = receipt.Serialize();

  auto ref = ReceiptRef::Decode(wire);
  ASSERT_TRUE(ref.ok()) << ref.status().ToString();
  EXPECT_EQ(ref->success, receipt.success);
  EXPECT_EQ(ref->log_count, receipt.logs.size());
  EXPECT_EQ(ref->gas_used, receipt.gas_used);
  EXPECT_GE(ref->output.data(), wire.data());
  EXPECT_LE(ref->output.data() + ref->output.size(),
            wire.data() + wire.size());

  Receipt owned = ref->ToOwned();
  EXPECT_EQ(owned.status_message, receipt.status_message);
  EXPECT_EQ(owned.output, receipt.output);
  EXPECT_EQ(owned.logs, receipt.logs);
  EXPECT_EQ(owned.Serialize(), wire);
}

TEST(ChainTypesTest, MalformedWiresFailCleanly) {
  crypto::Drbg rng(7);
  Transaction tx = MakeSignedTx(&rng, NamedAddress("bank"), "m",
                                rng.Generate(32));
  const Bytes tx_wire = tx.Serialize();

  // Truncations at every boundary must error, never crash.
  for (size_t len = 0; len < tx_wire.size(); ++len) {
    ByteView cut(tx_wire.data(), len);
    EXPECT_FALSE(Transaction::Deserialize(cut).ok()) << "len " << len;
    EXPECT_FALSE(TransactionRef::Decode(cut).ok()) << "len " << len;
  }

  // A confidential tx whose envelope slot holds a nested list.
  serialize::RlpWriter conf;
  size_t list = conf.BeginList();
  conf.WriteU64(uint64_t(TxType::kConfidential));
  size_t bogus = conf.BeginList();
  conf.WriteString("not-bytes");
  conf.EndList(bogus);
  conf.EndList(list);
  EXPECT_FALSE(Transaction::Deserialize(std::move(conf).Take()).ok());

  // A receipt whose logs slot holds bytes instead of a list.
  serialize::RlpWriter rec;
  list = rec.BeginList();
  rec.WriteBytes(Bytes(32, 0xAB));  // tx_hash
  rec.WriteU64(1);                  // success
  rec.WriteString("");              // status_message
  rec.WriteString("out");           // output
  rec.WriteString("not-a-list");    // logs: wrong kind
  rec.WriteU64(9);                  // gas_used
  rec.EndList(list);
  const Bytes bad_receipt = std::move(rec).Take();
  EXPECT_FALSE(Receipt::Deserialize(bad_receipt).ok());
  EXPECT_FALSE(ReceiptRef::Decode(bad_receipt).ok());
}

// ---------------------------------------------------------------------------
// State
// ---------------------------------------------------------------------------

TEST(StateDbTest, OverlayReadsThroughAndCommitsAtomically) {
  CommitStateDb state(MakeKv());
  Address c = NamedAddress("c");
  state.Put(c, AsByteView("k1"), ToBytes(std::string_view("v1")));
  EXPECT_EQ(state.PendingWrites(), 1u);
  EXPECT_EQ(ToString(*state.Get(c, AsByteView("k1"))), "v1");  // read-own-write
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_EQ(state.PendingWrites(), 0u);
  EXPECT_EQ(ToString(*state.Get(c, AsByteView("k1"))), "v1");
}

TEST(StateDbTest, DiscardDropsWrites) {
  CommitStateDb state(MakeKv());
  Address c = NamedAddress("c");
  state.Put(c, AsByteView("k"), ToBytes(std::string_view("v")));
  state.Discard();
  EXPECT_TRUE(state.Get(c, AsByteView("k")).status().IsNotFound());
}

TEST(StateDbTest, ContractsAreNamespaced) {
  CommitStateDb state(MakeKv());
  state.Put(NamedAddress("a"), AsByteView("k"), ToBytes(std::string_view("1")));
  state.Put(NamedAddress("b"), AsByteView("k"), ToBytes(std::string_view("2")));
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_EQ(ToString(*state.Get(NamedAddress("a"), AsByteView("k"))), "1");
  EXPECT_EQ(ToString(*state.Get(NamedAddress("b"), AsByteView("k"))), "2");
}

TEST(StateDbTest, StateRootChangesWithCommits) {
  CommitStateDb state(MakeKv());
  crypto::Hash256 r0 = state.StateRoot();
  state.Put(NamedAddress("a"), AsByteView("k"), ToBytes(std::string_view("v")));
  ASSERT_TRUE(state.Commit().ok());
  crypto::Hash256 r1 = state.StateRoot();
  EXPECT_NE(r0, r1);
  // Identical sequence on another instance yields the same root
  // (replica determinism).
  CommitStateDb other(MakeKv());
  other.Put(NamedAddress("a"), AsByteView("k"), ToBytes(std::string_view("v")));
  ASSERT_TRUE(other.Commit().ok());
  EXPECT_EQ(other.StateRoot(), r1);
}

TEST(StateDbTest, OverlayStateDbMergesOnCommitOnly) {
  CommitStateDb base(MakeKv());
  Address c = NamedAddress("c");
  base.Put(c, AsByteView("base"), ToBytes(std::string_view("b")));

  OverlayStateDb overlay(&base);
  overlay.Put(c, AsByteView("new"), ToBytes(std::string_view("n")));
  EXPECT_EQ(ToString(*overlay.Get(c, AsByteView("base"))), "b");  // parent visible
  EXPECT_TRUE(base.Get(c, AsByteView("new")).status().IsNotFound());
  ASSERT_TRUE(overlay.Commit().ok());
  EXPECT_EQ(ToString(*base.Get(c, AsByteView("new"))), "n");

  OverlayStateDb discarded(&base);
  discarded.Put(c, AsByteView("gone"), ToBytes(std::string_view("g")));
  discarded.Discard();
  ASSERT_TRUE(discarded.Commit().ok());
  EXPECT_TRUE(base.Get(c, AsByteView("gone")).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// Network + PBFT
// ---------------------------------------------------------------------------

TEST(NetworkTest, IntraZoneFasterThanInterZone) {
  NetworkSim net = NetworkSim::TwoZone(6);
  // Nodes 0,1 in shanghai; 2..5 in beijing (1:2 split).
  uint64_t intra = net.TransferNs(2, 3, 1000);
  uint64_t inter = net.TransferNs(0, 3, 1000);
  EXPECT_LT(intra, inter);
  EXPECT_GE(inter, 30'000'000u);
}

TEST(NetworkTest, TransferScalesWithPayload) {
  NetworkSim net = NetworkSim::SingleZone(2);
  EXPECT_LT(net.TransferNs(0, 1, 100), net.TransferNs(0, 1, 10'000'000));
  EXPECT_EQ(net.TransferNs(0, 0, 100), 0u);
}

TEST(NetworkTest, OutOfRangeNodeIdsReturnSentinelsNotUb) {
  NetworkSim net = NetworkSim::SingleZone(3);
  // Past-the-end and far-out ids: documented sentinels, no OOB indexing.
  EXPECT_EQ(net.ZoneOf(3), NetworkSim::kInvalidZone);
  EXPECT_EQ(net.ZoneOf(UINT32_MAX), NetworkSim::kInvalidZone);
  EXPECT_EQ(net.TransferNs(0, 3, 1000), 0u);
  EXPECT_EQ(net.TransferNs(7, 0, 1000), 0u);
  EXPECT_EQ(net.LatencyNs(0, 99), 0u);
  EXPECT_EQ(net.SerializationNs(99, 0, 1000), 0u);
  EXPECT_EQ(net.DropRate(99, 99), 0.0);
  EXPECT_EQ(net.JitterNs(0, 99), 0u);
  EXPECT_FALSE(net.Reachable(0, 3));
  EXPECT_FALSE(net.Reachable(3, 0));
  EXPECT_TRUE(net.Reachable(0, 2));
  // Invalid ids are rejected by the mutators too.
  EXPECT_FALSE(net.SetPartition(3, 1).ok());
  EXPECT_FALSE(net.SetLink(0, 5, LinkModel{}).ok());
}

TEST(PbftTest, AllReplicasCommitInSingleZone) {
  NetworkSim net = NetworkSim::SingleZone(4);
  PbftRoundResult result = SimulatePbftRound(net, 0, 4096);
  EXPECT_GT(result.quorum_commit_ns, 0u);
  for (uint64_t t : result.commit_time_ns) EXPECT_GT(t, 0u);
  // 3 phases over ~0.2ms links: latency in the low-millisecond range.
  EXPECT_LT(result.quorum_commit_ns, 10'000'000u);
}

TEST(PbftTest, TwoZoneRoundIsSlower) {
  NetworkSim single = NetworkSim::SingleZone(9);
  NetworkSim dual = NetworkSim::TwoZone(9);
  uint64_t t_single = SimulatePbftRound(single, 0, 4096).quorum_commit_ns;
  uint64_t t_dual = SimulatePbftRound(dual, 0, 4096).quorum_commit_ns;
  EXPECT_GT(t_dual, t_single * 5);  // WAN round trips dominate
}

TEST(PbftTest, MessageComplexityIsQuadratic) {
  NetworkSim net4 = NetworkSim::SingleZone(4);
  NetworkSim net8 = NetworkSim::SingleZone(8);
  uint64_t m4 = SimulatePbftRound(net4, 0, 1024).messages_sent;
  uint64_t m8 = SimulatePbftRound(net8, 0, 1024).messages_sent;
  EXPECT_GT(m8, m4 * 3);  // O(n^2) growth
}

TEST(PbftTest, LatencyGrowsModestlyWithClusterSize) {
  uint64_t t4 = SimulatePbftRound(NetworkSim::SingleZone(4), 0, 4096).quorum_commit_ns;
  uint64_t t20 = SimulatePbftRound(NetworkSim::SingleZone(20), 0, 4096).quorum_commit_ns;
  EXPECT_GT(t20, t4);
  EXPECT_LT(t20, t4 * 20);  // sub-linear in n for the latency (not messages)
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

TEST(ExecutorTest, ExecutesAllAndCollectsReceiptsInOrder) {
  crypto::Drbg rng(5);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  CommitStateDb state(MakeKv());
  std::vector<Transaction> txs;
  for (int i = 0; i < 10; ++i) {
    txs.push_back(MakeSignedTx(&rng, NamedAddress(testutil::Numbered("c", i % 3)),
                               "write", ToBytes(testutil::Numbered("key-", i))));
  }
  BlockExecutor executor(ExecutorOptions{4});
  auto receipts = executor.ExecuteBlock(txs, engines, &state);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  ASSERT_EQ(receipts->size(), 10u);
  for (size_t i = 0; i < 10; ++i) {
    EXPECT_TRUE((*receipts)[i].success);
    EXPECT_EQ((*receipts)[i].tx_hash, txs[i].Hash());
  }
  EXPECT_EQ(engine.executed.load(), 10);
  ASSERT_TRUE(state.Commit().ok());
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(state.Get(NamedAddress(testutil::Numbered("c", i % 3)),
                          ToBytes(testutil::Numbered("key-", i)))
                    .ok());
  }
}

TEST(ExecutorTest, FailedTxDiscardsOnlyItsWrites) {
  crypto::Drbg rng(6);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  CommitStateDb state(MakeKv());
  std::vector<Transaction> txs;
  txs.push_back(MakeSignedTx(&rng, NamedAddress("c"), "write",
                             ToBytes(std::string_view("good1"))));
  txs.push_back(MakeSignedTx(&rng, NamedAddress("c"), "fail", Bytes{}));
  txs.push_back(MakeSignedTx(&rng, NamedAddress("c"), "write",
                             ToBytes(std::string_view("good2"))));
  BlockExecutor executor(ExecutorOptions{1});
  auto receipts = executor.ExecuteBlock(txs, engines, &state);
  ASSERT_TRUE(receipts.ok());
  EXPECT_TRUE((*receipts)[0].success);
  EXPECT_FALSE((*receipts)[1].success);
  EXPECT_TRUE((*receipts)[2].success);
  ASSERT_TRUE(state.Commit().ok());
  EXPECT_TRUE(state.Get(NamedAddress("c"), AsByteView("good1")).ok());
  EXPECT_TRUE(state.Get(NamedAddress("c"), AsByteView("good2")).ok());
  EXPECT_TRUE(state.Get(NamedAddress("c"), AsByteView("poison")).status().IsNotFound());
}

TEST(ExecutorTest, ParallelAndSerialProduceSameState) {
  crypto::Drbg rng(7);
  std::vector<Transaction> txs;
  for (int i = 0; i < 40; ++i) {
    txs.push_back(MakeSignedTx(&rng, NamedAddress(testutil::Numbered("c", i % 5)),
                               "write", ToBytes(testutil::Numbered("k", i))));
  }
  auto run = [&](uint32_t parallelism) {
    ScriptEngine engine;
    EngineSet engines{&engine, &engine};
    CommitStateDb state(MakeKv());
    BlockExecutor executor(ExecutorOptions{parallelism});
    EXPECT_TRUE(executor.ExecuteBlock(txs, engines, &state).ok());
    EXPECT_TRUE(state.Commit().ok());
    return state.StateRoot();
  };
  EXPECT_EQ(run(1), run(6));
}

TEST(ExecutorTest, CrossGroupSharedWriteReExecutesSerially) {
  // Two txs target distinct contracts (distinct conflict groups) but both
  // "bump" the same shared contract's counter — the nested-write overlap
  // the envelope-level conflict key cannot see. A last-writer-wins merge
  // loses one increment; overlap detection must rerun the groups serially
  // so both survive.
  crypto::Drbg rng(11);
  std::vector<Transaction> txs;
  txs.push_back(MakeSignedTx(&rng, NamedAddress("left"), "bump", ToBytes("shared")));
  txs.push_back(MakeSignedTx(&rng, NamedAddress("right"), "bump", ToBytes("shared")));

  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  CommitStateDb state(MakeKv());
  BlockExecutor executor(ExecutorOptions{/*parallelism=*/4});
  auto receipts = executor.ExecuteBlock(txs, engines, &state);
  ASSERT_TRUE(receipts.ok());
  EXPECT_TRUE((*receipts)[0].success);
  EXPECT_TRUE((*receipts)[1].success);

  auto value = state.Get(NamedAddress("shared"), AsByteView("n"));
  ASSERT_TRUE(value.ok());
  ASSERT_EQ(value->size(), 8u);
  EXPECT_EQ(LoadBe64(value->data()), 2u);
  // Both bumps executed once in parallel, then both groups serially.
  EXPECT_EQ(engine.executed.load(), 4);
}

// ---------------------------------------------------------------------------
// Node
// ---------------------------------------------------------------------------

class NodeTest : public ::testing::Test {
 protected:
  NodeTest()
      : engines_{&engine_, &engine_},
        node_ptr_(std::move(Node::Create(NodeOptions{}, engines_).value())),
        node_(*node_ptr_) {}

  crypto::Drbg rng_{8};
  ScriptEngine engine_;
  EngineSet engines_;
  std::unique_ptr<Node> node_ptr_;  // a volatile store never fails to open
  Node& node_;
};

TEST_F(NodeTest, SubmitVerifyProposeApply) {
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(node_
                    .SubmitTransaction(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                                    ToBytes(testutil::Numbered("k", i))))
                    .ok());
  }
  EXPECT_EQ(node_.UnverifiedPoolSize(), 5u);
  auto verified = node_.PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 5u);
  EXPECT_EQ(node_.VerifiedPoolSize(), 5u);

  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  EXPECT_GT(block->transactions.size(), 0u);
  auto receipts = node_.ApplyBlock(*block);
  ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  EXPECT_EQ(receipts->size(), block->transactions.size());
  EXPECT_EQ(node_.Height(), 1u);

  // Receipts retrievable by hash.
  auto receipt = node_.GetReceipt(block->transactions[0].Hash());
  ASSERT_TRUE(receipt.ok());
  EXPECT_TRUE(receipt->success);
}

TEST_F(NodeTest, InvalidSignatureDiscardedInPreVerify) {
  Transaction bad = MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                 ToBytes(std::string_view("k")));
  bad.signature[5] ^= 0x1;
  ASSERT_TRUE(node_.SubmitTransaction(bad).ok());
  auto verified = node_.PreVerify();
  ASSERT_TRUE(verified.ok());
  EXPECT_EQ(*verified, 0u);
  EXPECT_EQ(node_.VerifiedPoolSize(), 0u);
}

TEST_F(NodeTest, BlockSizeLimitSplitsBlocks) {
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(node_
                    .SubmitTransaction(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                                    Bytes(200, uint8_t(i))))
                    .ok());
  }
  ASSERT_TRUE(node_.PreVerify().ok());
  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  // ~300 bytes/tx against the 4KB default: blocks hold ~13 txs.
  EXPECT_LT(block->transactions.size(), 50u);
  EXPECT_GT(node_.VerifiedPoolSize(), 0u);
  ASSERT_TRUE(node_.ApplyBlock(*block).ok());

  int blocks = 1;
  while (node_.VerifiedPoolSize() > 0) {
    auto next = node_.ProposeBlock();
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(node_.ApplyBlock(*next).ok());
    ++blocks;
  }
  EXPECT_GT(blocks, 2);
  EXPECT_EQ(node_.Height(), uint64_t(blocks));
}

TEST_F(NodeTest, ApplyBlockRejectsWrongHeightOrParent) {
  ASSERT_TRUE(node_
                  .SubmitTransaction(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                                                  ToBytes(std::string_view("k"))))
                  .ok());
  ASSERT_TRUE(node_.PreVerify().ok());
  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  Block wrong_height = *block;
  wrong_height.header.height = 5;
  EXPECT_FALSE(node_.ApplyBlock(wrong_height).ok());
  ASSERT_TRUE(node_.ApplyBlock(*block).ok());
  // Re-applying the same block (stale) must fail — rollback protection.
  EXPECT_FALSE(node_.ApplyBlock(*block).ok());
}

TEST_F(NodeTest, SpvProofRoundTrip) {
  std::vector<Transaction> txs;
  for (int i = 0; i < 4; ++i) {
    txs.push_back(MakeSignedTx(&rng_, NamedAddress("c"), "write",
                               ToBytes(testutil::Numbered("k", i))));
    ASSERT_TRUE(node_.SubmitTransaction(txs.back()).ok());
  }
  ASSERT_TRUE(node_.PreVerify().ok());
  auto block = node_.ProposeBlock();
  ASSERT_TRUE(block.ok());
  ASSERT_TRUE(node_.ApplyBlock(*block).ok());

  auto proof = node_.ProveTransaction(txs[2].Hash());
  ASSERT_TRUE(proof.ok()) << proof.status().ToString();
  EXPECT_TRUE(Node::VerifyTxProof(*proof));

  // Tampered proof fails.
  TxProof bad = *proof;
  bad.tx_wire[0] ^= 0xff;
  EXPECT_FALSE(Node::VerifyTxProof(bad));

  // Unknown tx has no proof.
  EXPECT_FALSE(node_.ProveTransaction(crypto::Sha256::Digest(AsByteView("no"))).ok());
}


// ---------------------------------------------------------------------------
// Pipelined block lifecycle
// ---------------------------------------------------------------------------

TEST(PipelineTest, PipelinedMatchesSerialLifecycle) {
  // Three nodes, identical submissions: one hand-driven through
  // PreVerify/ProposeBlock/ApplyBlock, one through RunPipelined() at
  // depth 0 and one at depth 3. Chains, receipts and state roots must be
  // bit-identical.
  struct Run {
    ScriptEngine engine;
    std::unique_ptr<Node> node;
    std::vector<Receipt> receipts;
  };
  Run hand, depth0, depth3;
  NodeOptions options;
  options.block_max_bytes = 512;  // force several blocks
  for (Run* run : {&hand, &depth0, &depth3}) {
    NodeOptions run_options = options;
    if (run != &hand) run_options.parallelism = 2;
    if (run == &depth3) run_options.pipeline_depth = 3;
    auto node = Node::Create(run_options, EngineSet{&run->engine, &run->engine});
    ASSERT_TRUE(node.ok());
    run->node = std::move(*node);
    crypto::Drbg rng(77);  // identical tx streams
    for (int i = 0; i < 24; ++i) {
      std::string target = testutil::Numbered("ctr-", i % 5);
      ASSERT_TRUE(run->node
                      ->SubmitTransaction(MakeSignedTx(&rng, NamedAddress("c"),
                                                       "bump", ToBytes(target)))
                      .ok());
    }
  }

  ASSERT_TRUE(hand.node->PreVerify().ok());
  while (hand.node->VerifiedPoolSize() > 0) {
    auto block = hand.node->ProposeBlock();
    ASSERT_TRUE(block.ok());
    auto receipts = hand.node->ApplyBlock(*block);
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
    for (Receipt& r : *receipts) hand.receipts.push_back(std::move(r));
  }
  for (Run* run : {&depth0, &depth3}) {
    auto receipts = run->node->RunPipelined();
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
    run->receipts = std::move(*receipts);
  }

  EXPECT_GT(hand.node->Height(), 1u);  // several blocks, not one
  EXPECT_EQ(hand.receipts.size(), 24u);
  for (Run* run : {&depth0, &depth3}) {
    ASSERT_EQ(run->node->Height(), hand.node->Height());
    EXPECT_EQ(run->node->TipHash(), hand.node->TipHash());
    EXPECT_EQ(run->node->state()->StateRoot(), hand.node->state()->StateRoot());
    for (uint64_t h = 0; h < hand.node->Height(); ++h) {
      auto want = hand.node->blocks()->GetByHeight(h);
      auto got = run->node->blocks()->GetByHeight(h);
      ASSERT_TRUE(want.ok() && got.ok());
      EXPECT_EQ(*got, *want) << "block " << h;
    }
    ASSERT_EQ(run->receipts.size(), hand.receipts.size());
    for (size_t i = 0; i < hand.receipts.size(); ++i) {
      EXPECT_EQ(run->receipts[i].Serialize(), hand.receipts[i].Serialize());
    }
  }
}

TEST(PipelineTest, DepthZeroRunsStagesInline) {
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options;  // pipeline_depth = 0
  auto node = Node::Create(options, engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(9);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*node)
                    ->SubmitTransaction(MakeSignedTx(&rng, NamedAddress("c"), "write",
                                                     ToBytes(testutil::Numbered("k", i))))
                    .ok());
  }
  auto receipts = (*node)->RunPipelined();
  ASSERT_TRUE(receipts.ok());
  EXPECT_EQ(receipts->size(), 3u);
  EXPECT_EQ((*node)->Height(), 1u);
}

TEST(PipelineTest, DepthZeroApplyFailureRequeuesTransactions) {
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  auto node = Node::Create(NodeOptions{}, engines);  // pipeline_depth = 0
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(10);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE((*node)
                    ->SubmitTransaction(MakeSignedTx(&rng, NamedAddress("c"), "write",
                                                     ToBytes(testutil::Numbered("k", i))))
                    .ok());
  }
  {
    fault::FaultPlan plan(14);
    plan.Arm("fault.chain.apply_block", fault::Trigger{.one_shot = true});
    auto failed = (*node)->RunPipelined();
    ASSERT_FALSE(failed.ok());
    EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  }
  // The failed block's transactions are back in the pools, not dropped.
  EXPECT_EQ((*node)->UnverifiedPoolSize() + (*node)->VerifiedPoolSize(), 3u);
  EXPECT_EQ((*node)->Height(), 0u);
  auto retry = (*node)->RunPipelined();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry->size(), 3u);
  EXPECT_EQ((*node)->Height(), 1u);
}

/// Counter slot the ScriptEngine "bump" entry increments on `target`.
uint64_t BumpCounter(Node* node, const std::string& target) {
  auto value = node->state()->Get(NamedAddress(target), AsByteView("n"));
  if (!value.ok() || value->size() != 8) return 0;
  return LoadBe64(value->data());
}

/// Drives `bumps` increments of one counter through a node with a durable,
/// fsync-per-group store — by hand (ApplyBlock) or through RunPipelined()
/// at `depth` — optionally failing the first fsync. Returns the node.
std::unique_ptr<Node> RunBumpsWithSyncFault(ScriptEngine* engine, bool by_hand,
                                            uint32_t depth, bool fail_sync,
                                            const std::filesystem::path& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  NodeOptions options;
  options.state_wal_dir = dir.string();
  options.sync_commits = true;
  options.block_max_bytes = 1;  // one tx per block
  options.parallelism = 2;
  options.pipeline_depth = depth;
  auto created = Node::Create(options, EngineSet{engine, engine});
  EXPECT_TRUE(created.ok());
  if (!created.ok()) return nullptr;
  std::unique_ptr<Node> node = std::move(*created);
  constexpr int kBumps = 4;
  crypto::Drbg rng(31);
  fault::FaultPlan plan(15);
  if (fail_sync) plan.Arm("fault.storage.wal_sync", fault::Trigger{.one_shot = true});
  for (int i = 0; i < kBumps; ++i) {
    EXPECT_TRUE(node->SubmitTransaction(MakeSignedTx(&rng, NamedAddress("c"),
                                                     "bump", ToBytes("ctr")))
                    .ok());
    if (!by_hand) continue;
    EXPECT_TRUE(node->PreVerify().ok());
    auto block = node->ProposeBlock();
    EXPECT_TRUE(block.ok());
    if (!block.ok()) return node;
    auto applied = node->ApplyBlock(*block);
    if (!applied.ok()) {
      EXPECT_EQ(applied.status().code(), StatusCode::kUnavailable);
      // The batch landed before the fsync failed: the block is committed,
      // so applying it again is refused instead of executing it twice.
      EXPECT_FALSE(node->ApplyBlock(*block).ok());
    }
  }
  if (!by_hand) {
    auto first = node->RunPipelined();
    EXPECT_EQ(first.ok(), !fail_sync);
    if (!first.ok()) {
      auto retry = node->RunPipelined();
      EXPECT_TRUE(retry.ok()) << retry.status().ToString();
    }
  }
  EXPECT_EQ(node->UnverifiedPoolSize() + node->VerifiedPoolSize(), 0u);
  return node;
}

TEST(PipelineTest, FailedFsyncNeverReExecutesCommittedBlocks) {
  const auto root = std::filesystem::temp_directory_path() / "confide_fsync_fault";
  for (bool by_hand : {true, false}) {
    SCOPED_TRACE(by_hand ? "ApplyBlock" : "depth 3");
    const uint32_t depth = by_hand ? 0 : 3;
    ScriptEngine clean_engine, faulted_engine;
    auto clean = RunBumpsWithSyncFault(&clean_engine, by_hand, depth,
                                       /*fail_sync=*/false, root / "clean");
    auto faulted = RunBumpsWithSyncFault(&faulted_engine, by_hand, depth,
                                         /*fail_sync=*/true, root / "faulted");
    ASSERT_TRUE(clean != nullptr && faulted != nullptr);
    EXPECT_EQ(BumpCounter(clean.get(), "ctr"), 4u);
    EXPECT_EQ(BumpCounter(faulted.get(), "ctr"), BumpCounter(clean.get(), "ctr"));
    EXPECT_EQ(faulted->state()->StateRoot(), clean->state()->StateRoot());
    EXPECT_EQ(faulted->TipHash(), clean->TipHash());
    EXPECT_EQ(faulted->Height(), clean->Height());
  }
  std::filesystem::remove_all(root);
}

TEST(PipelineTest, BlockMetricsMatchAtEveryDepthAndCountOnlyCommits) {
  auto samples = [](const metrics::MetricsSnapshot& snap, const std::string& name) {
    auto it = snap.histograms.find(name);
    return it == snap.histograms.end() ? uint64_t(0) : it->second.count;
  };
  auto& registry = metrics::MetricsRegistry::Global();

  // Depth > 0 records the same per-block and pre-verify series as ApplyBlock.
  {
    ScriptEngine engine;
    NodeOptions options;
    options.block_max_bytes = 512;
    options.parallelism = 2;
    options.pipeline_depth = 3;
    auto node = Node::Create(options, EngineSet{&engine, &engine});
    ASSERT_TRUE(node.ok());
    crypto::Drbg rng(12);
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE((*node)
                      ->SubmitTransaction(MakeSignedTx(&rng, NamedAddress("c"), "write",
                                                       ToBytes(testutil::Numbered("k", i))))
                      .ok());
    }
    metrics::MetricsSnapshot before = registry.Snapshot();
    ASSERT_TRUE((*node)->RunPipelined().ok());
    metrics::MetricsSnapshot after = registry.Snapshot();
    const uint64_t blocks = (*node)->Height();
    ASSERT_GT(blocks, 1u);
    EXPECT_EQ(samples(after, "chain.block.execute.latency_ns") -
                  samples(before, "chain.block.execute.latency_ns"),
              blocks);
    EXPECT_GE(samples(after, "chain.preverify.batch.latency_ns") -
                  samples(before, "chain.preverify.batch.latency_ns"),
              1u);
    EXPECT_EQ(after.counter("chain.block.count") - before.counter("chain.block.count"),
              blocks);
    EXPECT_EQ(after.counter("chain.block.tx.count") -
                  before.counter("chain.block.tx.count"),
              8u);
  }

  // A block whose write fails is not counted; its retry is, once.
  const auto dir = std::filesystem::temp_directory_path() / "confide_metrics_commit";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    ScriptEngine engine;
    NodeOptions options;
    options.state_wal_dir = dir.string();
    auto node = Node::Create(options, EngineSet{&engine, &engine});
    ASSERT_TRUE(node.ok());
    crypto::Drbg rng(13);
    ASSERT_TRUE((*node)
                    ->SubmitTransaction(MakeSignedTx(&rng, NamedAddress("c"), "write",
                                                     ToBytes(std::string_view("k"))))
                    .ok());
    ASSERT_TRUE((*node)->PreVerify().ok());
    auto block = (*node)->ProposeBlock();
    ASSERT_TRUE(block.ok());
    metrics::MetricsSnapshot before = registry.Snapshot();
    {
      fault::FaultPlan plan(16);
      plan.Arm("fault.storage.wal_torn", fault::Trigger{.one_shot = true, .arg = 0});
      ASSERT_FALSE((*node)->ApplyBlock(*block).ok());
    }
    metrics::MetricsSnapshot failed = registry.Snapshot();
    EXPECT_EQ(failed.counter("chain.block.count"), before.counter("chain.block.count"));
    EXPECT_EQ(failed.counter("chain.block.tx.count"),
              before.counter("chain.block.tx.count"));
    EXPECT_EQ(samples(failed, "chain.block.txs"), samples(before, "chain.block.txs"));
    ASSERT_TRUE((*node)->ApplyBlock(*block).ok());
    metrics::MetricsSnapshot after = registry.Snapshot();
    EXPECT_EQ(after.counter("chain.block.count"), before.counter("chain.block.count") + 1);
    EXPECT_EQ(after.counter("chain.block.tx.count"),
              before.counter("chain.block.tx.count") + 1);
    EXPECT_EQ(samples(after, "chain.block.txs"), samples(before, "chain.block.txs") + 1);
  }
  std::filesystem::remove_all(dir);
}

TEST(PipelineTest, EmptyPoolReturnsNoReceipts) {
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options;
  options.pipeline_depth = 2;
  options.parallelism = 2;
  auto node = Node::Create(options, engines);
  ASSERT_TRUE(node.ok());
  auto receipts = (*node)->RunPipelined();
  ASSERT_TRUE(receipts.ok());
  EXPECT_TRUE(receipts->empty());
  EXPECT_EQ((*node)->Height(), 0u);
}


// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

CheckpointManifest TestManifest() {
  CheckpointManifest manifest;
  manifest.height = 8;
  manifest.block_hash = crypto::Sha256::Digest(AsByteView("block-7"));
  manifest.state_root = crypto::Sha256::Digest(AsByteView("root-7"));
  manifest.total_entries = 12;
  manifest.total_bytes = 4096;
  manifest.chunk_hashes = {crypto::Sha256::Digest(AsByteView("chunk-0")),
                           crypto::Sha256::Digest(AsByteView("chunk-1"))};
  std::vector<Bytes> leaves;
  for (const crypto::Hash256& h : manifest.chunk_hashes) {
    leaves.push_back(ToBytes(crypto::HashView(h)));
  }
  manifest.chunks_root = crypto::MerkleTree(leaves).Root();
  return manifest;
}

TEST(CheckpointTest, ManifestSerializationRoundTrip) {
  CheckpointManifest manifest = TestManifest();
  auto decoded = CheckpointManifest::Deserialize(manifest.Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->height, manifest.height);
  EXPECT_EQ(decoded->block_hash, manifest.block_hash);
  EXPECT_EQ(decoded->state_root, manifest.state_root);
  EXPECT_EQ(decoded->total_entries, manifest.total_entries);
  EXPECT_EQ(decoded->total_bytes, manifest.total_bytes);
  EXPECT_EQ(decoded->chunks_root, manifest.chunks_root);
  EXPECT_EQ(decoded->chunk_hashes, manifest.chunk_hashes);
  EXPECT_EQ(decoded->Digest(), manifest.Digest());
}

TEST(CheckpointTest, QuorumSizeIsTwoFPlusOne) {
  EXPECT_EQ(ValidatorSet::Generate(4, 1).QuorumSize(), 3u);   // f = 1
  EXPECT_EQ(ValidatorSet::Generate(7, 1).QuorumSize(), 5u);   // f = 2
  EXPECT_EQ(ValidatorSet::Generate(10, 1).QuorumSize(), 7u);  // f = 3
}

TEST(CheckpointTest, CertificateRoundTripAndQuorumVerify) {
  ValidatorSet validators = ValidatorSet::Generate(4, 21);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());
  EXPECT_EQ(certificate->votes.size(), validators.QuorumSize());
  EXPECT_TRUE(validators.Verify(manifest, *certificate).ok());

  auto decoded = CheckpointCertificate::Deserialize(certificate->Serialize());
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(validators.Verify(manifest, *decoded).ok());
}

TEST(CheckpointTest, VerifyRejectsForgedSignature) {
  ValidatorSet validators = ValidatorSet::Generate(4, 22);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());
  certificate->votes.front().second[3] ^= 0x01;
  Status verdict = validators.Verify(manifest, *certificate);
  EXPECT_EQ(verdict.code(), StatusCode::kPermissionDenied);
}

TEST(CheckpointTest, VerifyRejectsTamperedManifest) {
  ValidatorSet validators = ValidatorSet::Generate(4, 23);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());
  manifest.state_root[0] ^= 0x01;  // certificate now signs something else
  Status verdict = validators.Verify(manifest, *certificate);
  EXPECT_EQ(verdict.code(), StatusCode::kPermissionDenied);
}

TEST(CheckpointTest, VerifyRejectsSubQuorumAndDuplicateVotes) {
  ValidatorSet validators = ValidatorSet::Generate(4, 24);
  CheckpointManifest manifest = TestManifest();
  auto certificate = validators.Certify(manifest);
  ASSERT_TRUE(certificate.ok());

  CheckpointCertificate sub_quorum = *certificate;
  sub_quorum.votes.resize(validators.QuorumSize() - 1);
  EXPECT_EQ(validators.Verify(manifest, sub_quorum).code(),
            StatusCode::kPermissionDenied);

  // Padding the quorum with a repeated vote must not count twice.
  CheckpointCertificate duplicated = sub_quorum;
  duplicated.votes.push_back(duplicated.votes.front());
  EXPECT_EQ(validators.Verify(manifest, duplicated).code(),
            StatusCode::kPermissionDenied);
}

namespace {

/// Drives `blocks` single-transaction blocks through ApplyBlock by hand.
void RunBlocks(Node* node, crypto::Drbg* rng, int blocks,
               std::vector<crypto::Hash256>* tx_hashes = nullptr) {
  for (int b = 0; b < blocks; ++b) {
    Transaction tx =
        MakeSignedTx(rng, NamedAddress("store"), "write",
                     ToBytes(testutil::Numbered("key", node->Height())));
    if (tx_hashes != nullptr) tx_hashes->push_back(tx.Hash());
    ASSERT_TRUE(node->SubmitTransaction(tx).ok());
    ASSERT_TRUE(node->PreVerify().ok());
    auto block = node->ProposeBlock();
    ASSERT_TRUE(block.ok());
    auto receipts = node->ApplyBlock(*block);
    ASSERT_TRUE(receipts.ok()) << receipts.status().ToString();
  }
}

NodeOptions CheckpointedOptions(const ValidatorSet* validators,
                                uint64_t interval = 2) {
  NodeOptions options;
  options.checkpoint.interval = interval;
  options.checkpoint.chunk_bytes = 256;  // force multi-chunk snapshots
  options.validators = validators;
  return options;
}

}  // namespace

TEST(CheckpointTest, NodeWritesVerifiableCheckpointsAtInterval) {
  ValidatorSet validators = ValidatorSet::Generate(4, 31);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  auto node = Node::Create(CheckpointedOptions(&validators), engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(31);
  RunBlocks(node->get(), &rng, 5);

  CheckpointManager* manager = (*node)->checkpoints();
  ASSERT_NE(manager, nullptr);
  EXPECT_EQ(manager->LatestHeight(), 4u);

  auto manifest = manager->ManifestAt(4);
  ASSERT_TRUE(manifest.ok());
  EXPECT_EQ(manifest->height, 4u);
  EXPECT_GT(manifest->chunk_count(), 1u);
  EXPECT_GT(manifest->total_entries, 0u);
  // A checkpoint at height h covers blocks [0, h): its block hash and
  // state root come from the header of block h-1.
  auto covered = (*node)->blocks()->GetByHeight(3);
  ASSERT_TRUE(covered.ok());
  auto covered_block = Block::Deserialize(*covered);
  ASSERT_TRUE(covered_block.ok());
  EXPECT_EQ(manifest->block_hash, covered_block->header.Hash());
  EXPECT_EQ(manifest->state_root, covered_block->header.state_root);

  auto certificate = manager->CertificateAt(4);
  ASSERT_TRUE(certificate.ok());
  EXPECT_TRUE(validators.Verify(*manifest, *certificate).ok());

  // Every chunk hashes to its manifest entry and parses back to entries.
  uint64_t entries = 0;
  for (size_t i = 0; i < manifest->chunk_count(); ++i) {
    auto chunk = manager->ChunkAt(4, i);
    ASSERT_TRUE(chunk.ok());
    EXPECT_EQ(crypto::Sha256::Digest(*chunk), manifest->chunk_hashes[i]);
    auto parsed = CheckpointManager::ParseChunk(*chunk);
    ASSERT_TRUE(parsed.ok());
    entries += parsed->size();
  }
  EXPECT_EQ(entries, manifest->total_entries);
}

TEST(CheckpointTest, RetentionPrunesOldCheckpoints) {
  ValidatorSet validators = ValidatorSet::Generate(4, 32);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options = CheckpointedOptions(&validators, /*interval=*/1);
  options.checkpoint.keep = 2;
  auto node = Node::Create(options, engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(32);
  RunBlocks(node->get(), &rng, 5);

  CheckpointManager* manager = (*node)->checkpoints();
  EXPECT_EQ(manager->LatestHeight(), 5u);
  EXPECT_EQ(manager->RetainedHeights(), (std::vector<uint64_t>{4, 5}));
  EXPECT_TRUE(manager->ManifestAt(5).ok());
  EXPECT_TRUE(manager->ManifestAt(4).ok());
  // Pruned checkpoints are gone — manifest, certificate and chunks.
  EXPECT_TRUE(manager->ManifestAt(3).status().IsNotFound());
  EXPECT_TRUE(manager->CertificateAt(3).status().IsNotFound());
  EXPECT_TRUE(manager->ChunkAt(3, 0).status().IsNotFound());
}

// ---------------------------------------------------------------------------
// State sync
// ---------------------------------------------------------------------------

TEST(SyncTest, FreshNodeCatchesUpViaSnapshotAndReplay) {
  ValidatorSet validators = ValidatorSet::Generate(4, 41);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(CheckpointedOptions(&validators), engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(41);
  std::vector<crypto::Hash256> tx_hashes;
  RunBlocks(provider_node->get(), &rng, 5, &tx_hashes);

  auto joiner = Node::Create(CheckpointedOptions(&validators), engines_b);
  ASSERT_TRUE(joiner.ok());

  SyncProvider provider("peer-a", provider_node->get());
  StateSyncClient client(joiner->get(), &validators, SyncOptions{});
  client.AddProvider(&provider);
  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  EXPECT_TRUE(stats->snapshot_installed);
  EXPECT_EQ(stats->checkpoint_height, 4u);
  EXPECT_GT(stats->chunks_verified, 0u);
  EXPECT_EQ(stats->chunks_rejected, 0u);
  EXPECT_EQ(stats->blocks_replayed, 1u);  // block 4, past the checkpoint

  EXPECT_EQ((*joiner)->Height(), (*provider_node)->Height());
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
  EXPECT_EQ((*joiner)->state()->StateRoot(),
            (*provider_node)->state()->StateRoot());
  // The full receipt set came across (snapshot + replay).
  for (const crypto::Hash256& tx_hash : tx_hashes) {
    auto theirs = (*provider_node)->GetReceipt(tx_hash);
    auto ours = (*joiner)->GetReceipt(tx_hash);
    ASSERT_TRUE(theirs.ok());
    ASSERT_TRUE(ours.ok());
    EXPECT_EQ(ours->Serialize(), theirs->Serialize());
  }

  // The joiner adopted the verified checkpoint and can serve it onward.
  ASSERT_NE((*joiner)->checkpoints(), nullptr);
  EXPECT_EQ((*joiner)->checkpoints()->LatestHeight(), 4u);
  for (size_t i = 0; i < 2; ++i) {
    auto mine = (*joiner)->checkpoints()->ChunkAt(4, i);
    auto theirs = (*provider_node)->checkpoints()->ChunkAt(4, i);
    ASSERT_TRUE(mine.ok());
    ASSERT_TRUE(theirs.ok());
    EXPECT_EQ(*mine, *theirs);
  }

  // A second sync against the same provider is a no-op: the provider
  // checkpoint is now stale relative to us and there is nothing to replay.
  auto again = client.SyncToTip();
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->snapshot_installed);
  EXPECT_EQ(again->blocks_replayed, 0u);
}

TEST(SyncTest, ReplayOnlyWhenProviderHasNoCheckpoint) {
  ValidatorSet validators = ValidatorSet::Generate(4, 42);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(NodeOptions{}, engines_a);  // no checkpoints
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(42);
  RunBlocks(provider_node->get(), &rng, 3);

  auto joiner = Node::Create(NodeOptions{}, engines_b);
  ASSERT_TRUE(joiner.ok());
  SyncProvider provider("peer-a", provider_node->get());
  StateSyncClient client(joiner->get(), &validators, SyncOptions{});
  client.AddProvider(&provider);
  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->snapshot_installed);
  EXPECT_EQ(stats->blocks_replayed, 3u);
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
  EXPECT_EQ((*joiner)->state()->StateRoot(),
            (*provider_node)->state()->StateRoot());
}

TEST(SyncTest, CertificateFromUnknownValidatorsIsRejected) {
  // The provider's checkpoints are signed by a validator set the client
  // does not trust — the moral equivalent of a forged certificate. The
  // client must refuse the snapshot but may still replay verified blocks.
  ValidatorSet theirs = ValidatorSet::Generate(4, 43);
  ValidatorSet ours = ValidatorSet::Generate(4, 44);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(CheckpointedOptions(&theirs), engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(43);
  RunBlocks(provider_node->get(), &rng, 4);

  auto joiner = Node::Create(NodeOptions{}, engines_b);
  ASSERT_TRUE(joiner.ok());
  SyncProvider provider("peer-a", provider_node->get());
  StateSyncClient client(joiner->get(), &ours, SyncOptions{});
  client.AddProvider(&provider);
  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_GT(stats->certificates_rejected, 0u);
  EXPECT_FALSE(stats->snapshot_installed);  // refused the uncertified snapshot
  EXPECT_EQ(stats->blocks_replayed, 4u);    // replay is still integrity-checked
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
}

// ---------------------------------------------------------------------------
// Fork evidence: witnessed-roots log + equivocating certificates
// ---------------------------------------------------------------------------

TEST(CheckpointTest, WitnessLogFlagsConflictingCertifiedCheckpoint) {
  ValidatorSet validators = ValidatorSet::Generate(4, 33);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  auto node = Node::Create(CheckpointedOptions(&validators), engines);
  ASSERT_TRUE(node.ok());
  crypto::Drbg rng(33);
  RunBlocks(node->get(), &rng, 2);  // checkpoint written (and witnessed) at 2

  CheckpointManager* manager = (*node)->checkpoints();
  ASSERT_NE(manager, nullptr);
  auto manifest = manager->ManifestAt(2);
  ASSERT_TRUE(manifest.ok());

  std::vector<uint64_t> alarm_heights;
  (*node)->SetForkAlarm(
      [&](uint64_t height, const crypto::Hash256& witnessed,
          const crypto::Hash256& conflicting) {
        alarm_heights.push_back(height);
        EXPECT_NE(witnessed, conflicting);
      });

  // Re-witnessing the identical checkpoint is a no-op.
  EXPECT_TRUE(manager
                  ->WitnessCheckpoint(2, manifest->block_hash,
                                      manifest->state_root)
                  .ok());
  EXPECT_TRUE(alarm_heights.empty());

  // A certified checkpoint with a different root at the same height is
  // fork evidence: fail loudly, fire the alarm, count the detection.
  uint64_t detected_before =
      metrics::GetCounter("chain.fork.detected.count")->Value();
  crypto::Hash256 evil_root = manifest->state_root;
  evil_root[0] ^= 0x01;
  Status fork = manager->WitnessCheckpoint(2, manifest->block_hash, evil_root);
  EXPECT_EQ(fork.code(), StatusCode::kPermissionDenied);
  EXPECT_NE(fork.message().find("fork"), std::string::npos) << fork.ToString();
  ASSERT_EQ(alarm_heights.size(), 1u);
  EXPECT_EQ(alarm_heights[0], 2u);
  EXPECT_GT(metrics::GetCounter("chain.fork.detected.count")->Value(),
            detected_before);
}

TEST(SyncTest, EquivocatingCertificateRejectedByWitnessLog) {
  // One provider serves the honest checkpoint, the "other" (a second
  // handle on the same peer) serves the same height with a tampered state
  // root re-certified by real validator keys. Certificate verification
  // passes — only the witnessed-roots log can expose the conflict.
  ValidatorSet validators = ValidatorSet::Generate(4, 45);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(CheckpointedOptions(&validators), engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(45);
  RunBlocks(provider_node->get(), &rng, 5);

  auto joiner = Node::Create(CheckpointedOptions(&validators), engines_b);
  ASSERT_TRUE(joiner.ok());
  std::vector<uint64_t> alarm_heights;
  (*joiner)->SetForkAlarm([&](uint64_t height, const crypto::Hash256&,
                              const crypto::Hash256&) {
    alarm_heights.push_back(height);
  });

  SyncProvider honest("peer-a", provider_node->get());
  SyncProvider equivocator("peer-b", provider_node->get());
  StateSyncClient client(joiner->get(), &validators, SyncOptions{});
  client.AddProvider(&honest);
  client.AddProvider(&equivocator);

  fault::FaultPlan plan(45);
  // Fires on the second checkpoint query — the equivocating provider.
  plan.Arm("fault.chain.sync.equivocating_certificate",
           fault::Trigger{.after_hits = 1, .one_shot = true});

  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->forks_detected, 1u);
  EXPECT_GE(stats->certificates_rejected, 1u);
  EXPECT_TRUE(stats->snapshot_installed);  // the honest offer still serves
  ASSERT_EQ(alarm_heights.size(), 1u);
  EXPECT_EQ(alarm_heights[0], 4u);
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
  EXPECT_EQ((*joiner)->state()->StateRoot(),
            (*provider_node)->state()->StateRoot());

  metrics::MetricsSnapshot snap = metrics::MetricsRegistry::Global().Snapshot();
  EXPECT_GE(snap.counter("chain.fork.detected.count"), 1u);
  EXPECT_GE(
      snap.counter("fault.chain.sync.equivocating_certificate.injected"), 1u);
  EXPECT_GE(
      snap.counter("fault.chain.sync.equivocating_certificate.recovered"), 1u);
}

TEST(SyncTest, RotationReachesLiveProviderBehindDeadOnes) {
  // Regression: rotation happens after a failed attempt, so with N dead
  // providers registered ahead of one live one, reaching the live one
  // takes N+1 attempts. The old per-loop retry budget (max_attempts = 4)
  // was exhausted exactly one rotation short.
  ValidatorSet validators = ValidatorSet::Generate(4, 46);
  ScriptEngine engine_a, engine_b;
  EngineSet engines_a{&engine_a, &engine_a};
  EngineSet engines_b{&engine_b, &engine_b};
  auto provider_node = Node::Create(NodeOptions{}, engines_a);
  ASSERT_TRUE(provider_node.ok());
  crypto::Drbg rng(46);
  RunBlocks(provider_node->get(), &rng, 3);

  auto joiner = Node::Create(NodeOptions{}, engines_b);
  ASSERT_TRUE(joiner.ok());
  SyncOptions options;
  ASSERT_EQ(options.retry.max_attempts, 4u);  // the failing configuration
  StateSyncClient client(joiner->get(), &validators, std::move(options));
  std::vector<std::unique_ptr<SyncProvider>> providers;
  for (int i = 0; i < 5; ++i) {
    providers.push_back(std::make_unique<SyncProvider>(
        testutil::Numbered("peer-", i), provider_node->get()));
    client.AddProvider(providers.back().get());
  }
  for (int i = 0; i < 4; ++i) providers[i]->Kill();  // exactly N = 4 dead

  auto stats = client.SyncToTip();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->blocks_replayed, 3u);
  EXPECT_GE(stats->provider_failovers, 4u);  // rotated past every dead one
  EXPECT_EQ((*joiner)->TipHash(), (*provider_node)->TipHash());
}

// ---------------------------------------------------------------------------
// Restart recovery
// ---------------------------------------------------------------------------

namespace {

std::string RawBlockHeightKey(uint64_t height) {
  uint8_t be[8];
  StoreBe64(be, height);
  return "blk/h/" + HexEncode(ByteView(be, 8));
}

}  // namespace

TEST(NodeRecoveryTest, RestartRestoresStateRootFromTipHeader) {
  auto dir = std::filesystem::temp_directory_path() / "confide_node_root_recovery";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options;
  options.state_wal_dir = dir.string();

  crypto::Hash256 root_before{}, tip_before{};
  {
    auto node = Node::Create(options, engines);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    crypto::Drbg rng(51);
    RunBlocks(node->get(), &rng, 3);
    root_before = (*node)->state()->StateRoot();
    tip_before = (*node)->TipHash();
    ASSERT_NE(root_before, crypto::Hash256{});
  }

  auto restarted = Node::Create(options, engines);
  ASSERT_TRUE(restarted.ok()) << restarted.status().ToString();
  EXPECT_EQ((*restarted)->Height(), 3u);
  EXPECT_EQ((*restarted)->TipHash(), tip_before);
  // The chained root is restored from the tip header; without it the
  // restarted node would re-chain from zero and fork at the next block.
  EXPECT_EQ((*restarted)->state()->StateRoot(), root_before);
  std::filesystem::remove_all(dir);
}

TEST(NodeRecoveryTest, CorruptedTipRecordFailsCreationLoudly) {
  auto dir = std::filesystem::temp_directory_path() / "confide_node_corrupt_tip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScriptEngine engine;
  EngineSet engines{&engine, &engine};
  NodeOptions options;
  options.state_wal_dir = dir.string();
  {
    auto node = Node::Create(options, engines);
    ASSERT_TRUE(node.ok()) << node.status().ToString();
    crypto::Drbg rng(52);
    RunBlocks(node->get(), &rng, 2);
  }
  {
    // Damage the tip block record on "disk".
    storage::LsmOptions lsm;
    lsm.wal_dir = dir.string();
    auto kv = storage::LsmKvStore::Open(lsm);
    ASSERT_TRUE(kv.ok());
    ASSERT_TRUE(
        (*kv)->Put(RawBlockHeightKey(1), ToBytes(std::string_view("garbage")))
            .ok());
  }
  // Recovery must fail loudly — a node that cannot parse its tip block
  // must not come up at a made-up height or state root.
  auto reopened = Node::Create(options, engines);
  EXPECT_FALSE(reopened.ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace confide::chain
