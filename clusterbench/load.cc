/// \file load.cc
/// \brief Load driver of the cluster benchmark (README.md in this
/// directory). One process, at most `nproc` threads and connections.
///
/// It talks to a running `confide_gateway` + `confided` cluster the way a
/// client does: it fetches and verifies pk_tx, deploys and seeds the
/// workload's contracts, builds every load transaction with core::Client
/// before the clock starts, submits them (open loop on a Poisson schedule,
/// or a backlog as fast as the connections allow), detects commits by
/// polling one node's height, maps every transaction to its block, fetches
/// and opens every receipt, and writes all raw observations to a JSON file.
/// run.py does the arithmetic and the output checks.
///
/// With --trace=1 it also records spans around every call it makes into
/// the program (build, submit, receipt query, receipt open) and runs the
/// in-process leg: the same transactions through one chain::Node built
/// from the options `confided` uses, with timing wrappers around the
/// engines.
///
/// Flags (all --key=value):
///   --gateway=http://H:P   the gateway
///   --status-node=H:P      the node the gateway serves receipts from
///   --contracts=concat|scf what set-up deploys
///   --mode=paced|backlog   open loop at --rate, or a backlog of --count
///   --rate=R --seconds=S   paced: Poisson arrivals at R/s for S seconds
///   --count=N              backlog size
///   --rounds=R             backlog rounds (each drains before the next)
///   --seed=N               workload seed (inputs, client keys, schedule)
///   --consortium-seed=N    the cluster's --seed (in-process leg only)
///   --poll-us=U            commit-detection poll period
///   --pids=a,b,...         processes whose CPU time is measured
///   --trace=0|1            spans + in-process leg
///   --inproc-dir=D         state dir of the in-process leg
///   --out=PATH             results JSON

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "chain/node.h"
#include "confide/system.h"
#include "lang/compiler.h"
#include "net/frame_client.h"
#include "net/http.h"
#include "serialize/json.h"
#include "serialize/rlp.h"
#include "workloads/workloads.h"

using namespace confide;
using serialize::JsonValue;

namespace {

uint64_t NowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

[[noreturn]] void Fail(const std::string& message) {
  std::fprintf(stderr, "clusterbench_load: %s\n", message.c_str());
  std::exit(1);
}

template <typename T>
T Must(Result<T> r, const std::string& what) {
  if (!r.ok()) Fail(what + ": " + r.status().ToString());
  return std::move(*r);
}

struct Args {
  std::map<std::string, std::string> kv;

  Args(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      std::string a = argv[i];
      size_t eq = a.find('=');
      if (a.rfind("--", 0) != 0 || eq == std::string::npos) Fail("bad flag " + a);
      kv[a.substr(2, eq - 2)] = a.substr(eq + 1);
    }
  }
  std::string Str(const std::string& key, const std::string& fallback = "") const {
    auto it = kv.find(key);
    if (it != kv.end()) return it->second;
    if (fallback.empty()) Fail("missing --" + key);
    return fallback;
  }
  uint64_t U64(const std::string& key, const std::string& fallback = "") const {
    return std::strtoull(Str(key, fallback).c_str(), nullptr, 10);
  }
};

std::string HashHex(const crypto::Hash256& h) {
  return HexEncode(ByteView(h.data(), h.size()));
}

// ---------------------------------------------------------------------------
// Spans (trace mode only): kept in memory, written with the results.
// ---------------------------------------------------------------------------

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;  ///< the span that caused this one; 0 = none
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t tx = -1;  ///< index of the load transaction; -1 = none
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Records a finished span; returns its id (0 when tracing is off).
  uint64_t Add(const char* name, uint64_t start_ns, uint64_t end_ns,
               uint64_t parent, int64_t tx) {
    if (!enabled_) return 0;
    const uint64_t id = next_id_.fetch_add(1) + 1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Span{id, parent, name, start_ns, end_ns, tx});
    return id;
  }

  JsonValue ToJson() const {
    JsonValue arr{JsonValue::Array{}};
    for (const Span& s : spans_) {
      JsonValue o{JsonValue::Object{}};
      o.Set("id", s.id);
      o.Set("parent", s.parent);
      o.Set("name", s.name);
      o.Set("start", s.start_ns);
      o.Set("end", s.end_ns);
      o.Set("tx", s.tx);
      arr.as_array().push_back(std::move(o));
    }
    return arr;
  }

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Gateway calls
// ---------------------------------------------------------------------------

net::HttpClient ConnectGateway(const std::string& url) {
  return Must(net::HttpClient::Connect(url), "connect " + url);
}

std::string SubmitBody(const chain::Transaction& tx) {
  JsonValue body{JsonValue::Object{}};
  body.Set("tx", HexEncode(ByteView(tx.Serialize())));
  return serialize::JsonWrite(body);
}

JsonValue ParseJson(const std::string& text, const std::string& what) {
  return Must(serialize::JsonParse(text), what + " is not JSON: " + text);
}

/// POSTs and returns the accepted hash, failing the run on refusal.
std::string MustSubmit(net::HttpClient* http, const std::string& body) {
  auto resp = Must(http->Post("/v1/tx", body), "submit");
  if (resp.status != 202) Fail("submit refused: " + resp.body);
  return ParseJson(resp.body, "submit reply").Find("tx_hash")->as_string();
}

/// GET /v1/receipt/<hash>; returns the wire bytes, or nullopt if absent.
std::optional<Bytes> GetReceipt(net::HttpClient* http, const std::string& hash_hex) {
  auto resp = Must(http->Get("/v1/receipt/" + hash_hex), "receipt query");
  if (resp.status == 404) return std::nullopt;
  if (resp.status != 200) Fail("receipt query: HTTP " + std::to_string(resp.status));
  JsonValue doc = ParseJson(resp.body, "receipt reply");
  return Must(HexDecode(doc.Find("receipt_wire")->as_string()), "receipt hex");
}

/// Polls until every hash has a receipt; returns the wires in order.
std::vector<Bytes> AwaitReceipts(net::HttpClient* http,
                                 const std::vector<std::string>& hashes) {
  std::vector<Bytes> wires(hashes.size());
  std::vector<bool> have(hashes.size(), false);
  const uint64_t deadline = NowNs() + 60'000'000'000ull;
  size_t missing = hashes.size();
  while (missing > 0) {
    if (NowNs() > deadline) Fail("set-up receipts never landed");
    for (size_t i = 0; i < hashes.size(); ++i) {
      if (have[i]) continue;
      auto wire = GetReceipt(http, hashes[i]);
      if (!wire) break;  // later ones cannot be in earlier blocks
      wires[i] = std::move(*wire);
      have[i] = true;
      --missing;
    }
    if (missing > 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return wires;
}

struct NodeStatus {
  uint64_t id = 0, height = 0, view = 0, leader = 0, pool = 0;
  std::string tip;
  bool reachable = false;
};

std::vector<NodeStatus> GatewayStatus(net::HttpClient* http) {
  auto resp = Must(http->Get("/v1/status"), "status");
  JsonValue doc = ParseJson(resp.body, "status reply");
  std::vector<NodeStatus> out;
  for (const JsonValue& n : doc.Find("nodes")->as_array()) {
    NodeStatus s;
    const JsonValue* reachable = n.Find("reachable");
    s.reachable = reachable != nullptr && reachable->as_bool();
    if (s.reachable) {
      s.id = uint64_t(n.Find("node_id")->as_int());
      s.height = uint64_t(n.Find("height")->as_int());
      s.tip = n.Find("tip_hash")->as_string();
      s.pool = uint64_t(n.Find("verified_pool")->as_int()) +
               uint64_t(n.Find("unverified_pool")->as_int());
      if (const JsonValue* v = n.Find("view")) s.view = uint64_t(v->as_int());
      if (const JsonValue* l = n.Find("leader")) s.leader = uint64_t(l->as_int());
    }
    out.push_back(std::move(s));
  }
  return out;
}

/// Height of one node, straight over the framed plane (kQueryStatus).
uint64_t NodeHeight(net::FrameClient* node) {
  auto reply = Must(node->Call(net::MsgType::kQueryStatus, ByteView()), "poll");
  auto r = Must(serialize::RlpReader::AtList(reply.body), "status frame");
  (void)Must(r.NextU64(), "status node id");
  return Must(r.NextU64(), "status height");
}

/// Blocks [from, to) from one node; returns (height, tx hashes) pairs.
std::vector<std::pair<uint64_t, std::vector<crypto::Hash256>>> FetchBlocks(
    net::FrameClient* node, uint64_t from, uint64_t to) {
  std::vector<std::pair<uint64_t, std::vector<crypto::Hash256>>> out;
  while (from < to) {
    serialize::RlpWriter w;
    size_t mark = w.BeginList();
    w.WriteU64(from);
    w.WriteU64(to);
    w.EndList(mark);
    const Bytes body = std::move(w).Take();
    auto reply = Must(node->Call(net::MsgType::kFetchBlocks, ByteView(body)),
                      "fetch blocks");
    if (reply.type != net::MsgType::kBlocksReply) Fail("fetch blocks: bad reply");
    auto r = Must(serialize::RlpReader::AtList(reply.body), "blocks reply");
    const uint64_t lo = Must(r.NextU64(), "blocks from");
    const uint64_t count = Must(r.NextU64(), "blocks count");
    if (lo != from || count == 0) Fail("fetch blocks: no progress");
    for (uint64_t i = 0; i < count; ++i) {
      ByteView wire = Must(r.NextBytes(), "block wire");
      chain::Block block = Must(chain::Block::Deserialize(wire), "block");
      std::vector<crypto::Hash256> hashes;
      for (const chain::Transaction& tx : block.transactions) {
        hashes.push_back(tx.Hash());
      }
      out.emplace_back(block.header.height, std::move(hashes));
    }
    from += count;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Process accounting (Linux /proc)
// ---------------------------------------------------------------------------

/// utime + stime of `pid`, in clock ticks.
uint64_t CpuTicks(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime/stime are 14/15.
  size_t close = text.rfind(')');
  if (close == std::string::npos) Fail("cannot read /proc/" + pid + "/stat");
  std::istringstream fields(text.substr(close + 2));
  std::string field;
  uint64_t utime = 0, stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::strtoull(field.c_str(), nullptr, 10);
    if (i == 15) stime = std::strtoull(field.c_str(), nullptr, 10);
  }
  return utime + stime;
}

uint64_t OwnThreadCount() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::strtoull(line.c_str() + 8, nullptr, 10);
    }
  }
  return 0;
}

uint32_t UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return uint32_t(CPU_COUNT(&set));
}

// ---------------------------------------------------------------------------
// Workload
// ---------------------------------------------------------------------------

enum class Kind : uint8_t { kConcatPublic = 0, kConcatConfidential = 1, kScf = 2 };

/// Confidential share of the string_concat mix, in percent.
constexpr uint64_t kConfidentialPct = 50;

struct LoadTx {
  Kind kind = Kind::kConcatPublic;
  chain::Transaction tx;  ///< kept for the in-process leg
  std::string body;       ///< POST body
  std::string hash_hex;
  core::TxKey k_tx{};
  Bytes input_head;       ///< first bytes of the input, for the output checks
  uint64_t due_ns = 0;    ///< paced: offset of the scheduled send
  uint64_t build_span = 0;
  // Observations.
  uint64_t send_ns = 0, ack_ns = 0;
  int http_status = 0;
  std::string acked_hash;
  std::vector<uint64_t> heights;  ///< every block holding it
  std::string wire_hex, output_hex, error;
  bool receipt_success = false;
};

Bytes DeployPayload(const Bytes& code) {
  std::vector<serialize::RlpItem> items;
  items.push_back(serialize::RlpItem::U64(uint64_t(chain::VmKind::kCvm)));
  items.push_back(serialize::RlpItem(code));
  return serialize::RlpEncode(serialize::RlpItem::List(std::move(items)));
}

Bytes CompileCcl(const char* source, const std::string& what) {
  return DeployPayload(Must(lang::Compile(source, lang::VmTarget::kCvm),
                            "compile " + what));
}

/// One set-up transaction plus what opens its receipt.
struct SetupTx {
  chain::Transaction tx;
  bool confidential = false;
  core::TxKey k_tx{};
  std::string label;
};

SetupTx SetupPublic(core::Client* client, const std::string& name,
                    const std::string& entry, Bytes input) {
  SetupTx s;
  s.tx = client->MakePublicTx(chain::NamedAddress(name), entry, std::move(input));
  s.label = name + "." + entry;
  return s;
}

SetupTx SetupConfidential(core::Client* client, const std::string& name,
                          const std::string& entry, Bytes input) {
  auto sub = Must(client->MakeConfidentialTx(chain::NamedAddress(name), entry,
                                             std::move(input)),
                  "seal " + name);
  SetupTx s;
  s.tx = std::move(sub.tx);
  s.confidential = true;
  s.k_tx = sub.k_tx;
  s.label = name + "." + entry;
  return s;
}

/// Set-up rounds: each round is submitted at once and must commit before
/// the next (seeds call contracts the previous round deployed).
std::vector<std::vector<SetupTx>> SetupRounds(const std::string& contracts,
                                              core::Client* client) {
  std::vector<std::vector<SetupTx>> rounds(contracts == "scf" ? 2 : 1);
  if (contracts == "concat") {
    const Bytes code = CompileCcl(workloads::SyntheticContractSource(), "synthetic");
    rounds[0].push_back(SetupPublic(client, "bench.pub", "__deploy__", code));
    rounds[0].push_back(SetupConfidential(client, "bench.conf", "__deploy__", code));
  } else if (contracts == "scf") {
    for (const auto& [name, source] : workloads::ScfArContracts()) {
      rounds[0].push_back(
          SetupConfidential(client, name, "__deploy__", CompileCcl(source, name)));
    }
    rounds[1].push_back(SetupConfidential(client, "scf.manager", "seed", Bytes{}));
    rounds[1].push_back(SetupConfidential(client, "scf.fee", "seed", Bytes{}));
    for (const char* account : {"supplier-alpha", "bank-one"}) {
      rounds[1].push_back(SetupConfidential(client, "scf.account", "seed",
                                            ToBytes(std::string_view(account))));
    }
    for (int i = 0; i < 4; ++i) {
      rounds[1].push_back(SetupConfidential(
          client, "scf.asset", "seed",
          ToBytes("ar-cert-" + std::to_string(i) + "\nsupplier-alpha")));
    }
  } else {
    Fail("unknown --contracts=" + contracts);
  }
  return rounds;
}

/// Checks a set-up receipt: success, opened with k_tx when sealed.
void CheckSetupReceipt(const SetupTx& s, ByteView wire) {
  chain::Receipt receipt = Must(chain::Receipt::Deserialize(wire), "receipt");
  if (s.confidential) {
    receipt = Must(core::Client::OpenSealedReceipt(s.k_tx, receipt.output),
                   "open " + s.label);
  }
  if (!receipt.success) Fail("set-up " + s.label + " failed: " + receipt.status_message);
}

// ---------------------------------------------------------------------------
// In-process leg: the same transactions through one node, no network.
// ---------------------------------------------------------------------------

/// Times an engine's PreVerify and Execute. Single-threaded use (the node
/// runs with parallelism 1, like `confided`'s default).
class TimedEngine : public chain::ExecutionEngine {
 public:
  explicit TimedEngine(chain::ExecutionEngine* inner) : inner_(inner) {}

  Result<bool> PreVerify(const chain::Transaction& tx) override {
    const uint64_t t0 = NowNs();
    auto r = inner_->PreVerify(tx);
    preverify_ns += NowNs() - t0;
    ++preverify_count;
    return r;
  }
  Result<chain::Receipt> Execute(const chain::Transaction& tx, chain::StateDb* state,
                                 chain::TxTouchSet* touch) override {
    const uint64_t t0 = NowNs();
    auto r = inner_->Execute(tx, state, touch);
    execute_ns += NowNs() - t0;
    ++execute_count;
    return r;
  }
  uint64_t ConflictKey(const chain::Transaction& tx) override {
    return inner_->ConflictKey(tx);
  }
  void Reset() { preverify_ns = preverify_count = execute_ns = execute_count = 0; }

  uint64_t preverify_ns = 0, preverify_count = 0;
  uint64_t execute_ns = 0, execute_count = 0;

 private:
  chain::ExecutionEngine* inner_;
};

struct InprocTotals {
  uint64_t preverify_ns = 0, propose_ns = 0, apply_ns = 0, blocks = 0;
  uint64_t txs = 0, failed = 0;
};

/// Drains the node's pools block by block, timing each lifecycle call.
InprocTotals DrainTimed(chain::Node* node) {
  InprocTotals t;
  while (node->UnverifiedPoolSize() + node->VerifiedPoolSize() > 0) {
    uint64_t t0 = NowNs();
    (void)Must(node->PreVerify(), "in-process pre-verify");
    uint64_t t1 = NowNs();
    chain::Block block = Must(node->ProposeBlock(), "in-process propose");
    uint64_t t2 = NowNs();
    if (block.transactions.empty()) Fail("in-process pools hold invalid txs");
    auto receipts = Must(node->ApplyBlock(block), "in-process apply");
    uint64_t t3 = NowNs();
    t.preverify_ns += t1 - t0;
    t.propose_ns += t2 - t1;
    t.apply_ns += t3 - t2;
    ++t.blocks;
    t.txs += block.transactions.size();
    for (const chain::Receipt& r : receipts) t.failed += r.success ? 0 : 1;
  }
  return t;
}

JsonValue RunInProcessLeg(const Args& args, const std::vector<SetupTx>& setup,
                          const std::vector<LoadTx>& load) {
  // The options `confided` builds its system from (net/confided_main.cc),
  // at their defaults.
  core::SystemOptions sys_options;
  sys_options.seed = args.U64("consortium-seed");
  sys_options.state_wal_dir = args.Str("inproc-dir") + "/system";
  const std::string node_dir = args.Str("inproc-dir") + "/node";
  // The WAL needs its directory to exist (as `confided --state-dir` does).
  std::filesystem::create_directories(sys_options.state_wal_dir);
  std::filesystem::create_directories(node_dir);
  auto system = Must(core::ConfideSystem::BootstrapFirst(sys_options),
                     "in-process bootstrap");
  TimedEngine pub(system->public_engine());
  TimedEngine conf(system->confidential_engine());
  chain::NodeOptions node_options;
  node_options.parallelism = sys_options.parallelism;
  node_options.block_max_bytes = sys_options.block_max_bytes;
  node_options.state_wal_dir = node_dir;
  node_options.pipeline_depth = sys_options.pipeline_depth;
  node_options.sync_commits = sys_options.sync_commits;
  auto node = Must(chain::Node::Create(node_options, chain::EngineSet{&pub, &conf}),
                   "in-process node");

  for (const SetupTx& s : setup) {
    if (!node->SubmitTransaction(s.tx).ok()) Fail("in-process set-up submit");
    // Set-up rounds depend on each other: one block per transaction.
    InprocTotals t = DrainTimed(node.get());
    if (t.failed != 0) Fail("in-process set-up " + s.label + " failed");
  }
  pub.Reset();
  conf.Reset();
  for (const LoadTx& l : load) {
    if (!node->SubmitTransaction(l.tx).ok()) Fail("in-process submit");
  }
  const uint64_t t0 = NowNs();
  InprocTotals t = DrainTimed(node.get());
  const uint64_t wall_ns = NowNs() - t0;
  if (t.txs != load.size()) Fail("in-process leg lost transactions");
  if (t.failed != 0) Fail("in-process leg: transactions failed");

  JsonValue o{JsonValue::Object{}};
  o.Set("txs", t.txs);
  o.Set("blocks", t.blocks);
  o.Set("wall_ns", wall_ns);
  o.Set("preverify_ns", t.preverify_ns);
  o.Set("propose_ns", t.propose_ns);
  o.Set("apply_ns", t.apply_ns);
  o.Set("execute_ns", pub.execute_ns + conf.execute_ns);
  o.Set("conf_execute_ns", conf.execute_ns);
  o.Set("conf_execute_count", conf.execute_count);
  o.Set("pub_execute_ns", pub.execute_ns);
  o.Set("pub_execute_count", pub.execute_count);
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args(argc, argv);
  const std::string gateway = args.Str("gateway");
  const std::string mode = args.Str("mode");
  const std::string contracts = args.Str("contracts");
  const uint64_t seed = args.U64("seed");
  const uint64_t poll_ns = args.U64("poll-us") * 1000;
  SpanLog spans(args.U64("trace", "0") != 0);

  // Thread and connection budget: the senders plus one poller.
  const uint32_t cpus = UsableCpus();
  if (cpus < 2) Fail("needs at least 2 usable CPUs");
  const uint32_t senders = std::min<uint32_t>(3, cpus - 1);

  // --- Set-up: attested key, deploys, seeds. ---
  net::HttpClient http = ConnectGateway(gateway);
  auto pk_resp = Must(http.Get("/v1/pk_info"), "pk_info");
  const Bytes pk_blob = Must(
      HexDecode(ParseJson(pk_resp.body, "pk_info").Find("pk_info")->as_string()),
      "pk_info hex");
  const crypto::PublicKey pk_tx = Must(
      core::Client::VerifyEnginePublicKey(
          pk_blob, tee::MeasureEnclave("confide-km-enclave", 1)),
      "attestation");
  core::Client setup_client(seed * 2 + 1, pk_tx);
  std::vector<SetupTx> setup_all;
  for (auto& round : SetupRounds(contracts, &setup_client)) {
    std::vector<std::string> hashes;
    for (const SetupTx& s : round) hashes.push_back(MustSubmit(&http, SubmitBody(s.tx)));
    std::vector<Bytes> wires = AwaitReceipts(&http, hashes);
    for (size_t i = 0; i < round.size(); ++i) CheckSetupReceipt(round[i], wires[i]);
    for (SetupTx& s : round) setup_all.push_back(std::move(s));
  }
  const uint64_t setup_done_ns = NowNs();

  // --- Build the load, off the clock. ---
  crypto::Drbg rng(seed ^ 0x636c757374657262ull);
  core::Client client(seed * 2 + 2, pk_tx);
  std::vector<LoadTx> load;
  if (mode == "paced") {
    const double rate = double(args.U64("rate"));
    const uint64_t horizon_ns = args.U64("seconds") * 1'000'000'000ull;
    uint64_t t = 0;
    while (true) {
      const double u =
          (double(rng.NextBounded(1'000'000'000)) + 1.0) / 1'000'000'001.0;
      t += uint64_t(-std::log(u) / rate * 1e9);
      if (t >= horizon_ns) break;
      load.emplace_back();
      load.back().due_ns = t;
    }
  } else if (mode == "backlog") {
    load.resize(args.U64("count"));
  } else {
    Fail("unknown --mode=" + mode);
  }
  const uint64_t build_t0 = NowNs();
  for (size_t i = 0; i < load.size(); ++i) {
    LoadTx& l = load[i];
    Bytes input;
    if (contracts == "scf") {
      l.kind = Kind::kScf;
      input = workloads::MakeScfTransferInput(&rng, i);
    } else {
      l.kind = rng.NextBounded(100) < kConfidentialPct ? Kind::kConcatConfidential
                                                       : Kind::kConcatPublic;
      input = workloads::MakeStringConcatInput(&rng);
    }
    l.input_head.assign(input.begin(), input.begin() + std::min<size_t>(input.size(), 64));
    const uint64_t t0 = NowNs();
    if (l.kind == Kind::kConcatPublic) {
      l.tx = client.MakePublicTx(chain::NamedAddress("bench.pub"), "string_concat",
                                 std::move(input));
    } else {
      const char* name = l.kind == Kind::kScf ? "scf.gateway" : "bench.conf";
      const char* entry = l.kind == Kind::kScf ? "transfer" : "string_concat";
      auto sub = Must(client.MakeConfidentialTx(chain::NamedAddress(name), entry,
                                                std::move(input)),
                      "seal load tx");
      l.tx = std::move(sub.tx);
      l.k_tx = sub.k_tx;
    }
    l.body = SubmitBody(l.tx);
    l.build_span = spans.Add("client.build_tx", t0, NowNs(), 0, int64_t(i));
    l.hash_hex = HashHex(l.tx.Hash());
  }
  const uint64_t build_ns = NowNs() - build_t0;
  std::unordered_map<std::string, size_t> by_hash;
  for (size_t i = 0; i < load.size(); ++i) by_hash[load[i].hash_hex] = i;
  if (by_hash.size() != load.size()) Fail("duplicate load transaction hashes");

  // --- Load: senders plus one commit poller. ---
  std::vector<std::string> pids;
  {
    std::stringstream ss(args.Str("pids"));
    std::string pid;
    while (std::getline(ss, pid, ',')) pids.push_back(pid);
  }
  net::FrameClient status_node =
      Must(net::FrameClient::Dial(args.Str("status-node")), "dial status node");
  (void)NodeHeight(&status_node);  // connect before the clock starts

  std::vector<net::HttpClient> conns;
  conns.push_back(std::move(http));
  for (uint32_t s = 1; s < senders; ++s) conns.push_back(ConnectGateway(gateway));

  // Timeline of the status node's height: (time of the reply, height),
  // one entry per change.
  std::vector<std::pair<uint64_t, uint64_t>> timeline;
  std::atomic<bool> poll_stop{false};
  std::atomic<uint64_t> polled_height{0};
  uint64_t polls = 0, poll_first_ns = 0, poll_last_ns = 0;
  std::thread poller([&] {
    uint64_t last = UINT64_MAX;
    uint64_t next = NowNs();
    poll_first_ns = next;
    while (!poll_stop.load(std::memory_order_relaxed)) {
      const uint64_t h = NodeHeight(&status_node);
      const uint64_t now = NowNs();
      ++polls;
      poll_last_ns = now;
      if (h != last) {
        timeline.emplace_back(now, h);
        last = h;
      }
      polled_height.store(h);
      next += poll_ns;
      if (next > now) {
        std::this_thread::sleep_for(std::chrono::nanoseconds(next - now));
      } else {
        next = now;
      }
    }
  });

  const bool paced = mode == "paced";
  std::vector<uint64_t> cpu_start;
  for (const std::string& pid : pids) cpu_start.push_back(CpuTicks(pid));
  // A backlog is sent in rounds: each round's transactions are submitted
  // at once and all commit before the next round starts.
  const size_t rounds = paced ? 1 : std::max<uint64_t>(1, args.U64("rounds", "1"));
  const size_t per_round = (load.size() + rounds - 1) / rounds;
  std::atomic<size_t> next_tx{0};
  size_t round_end = 0;
  const uint64_t start_ns = NowNs() + 2'000'000;  // all senders ready
  auto send_loop = [&](net::HttpClient* conn) {
    while (true) {
      const size_t i = next_tx.fetch_add(1);
      if (i >= round_end) break;
      LoadTx& l = load[i];
      if (paced) {
        std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
            std::chrono::nanoseconds(start_ns + l.due_ns)));
      }
      l.send_ns = NowNs();
      auto resp = conn->Post("/v1/tx", l.body);
      l.ack_ns = NowNs();
      spans.Add("net.gateway.submit", l.send_ns, l.ack_ns, l.build_span, int64_t(i));
      if (!resp.ok()) {
        l.error = "submit: " + resp.status().ToString();
        continue;
      }
      l.http_status = resp->status;
      auto doc = serialize::JsonParse(resp->body);
      const JsonValue* h = doc.ok() ? doc->Find("tx_hash") : nullptr;
      if (h != nullptr && h->is_string()) l.acked_hash = h->as_string();
    }
  };
  uint64_t threads_max = 0;
  size_t found = 0;
  uint64_t fetched_to = 0;
  std::vector<uint64_t> load_blocks;
  for (size_t r = 0; r < rounds; ++r) {
    const size_t begin = r * per_round;
    round_end = std::min(load.size(), begin + per_round);
    next_tx.store(begin);
    {
      std::vector<std::thread> workers;
      for (uint32_t s = 1; s < senders; ++s) {
        workers.emplace_back(send_loop, &conns[s]);
      }
      threads_max = std::max(threads_max, OwnThreadCount());
      send_loop(&conns[0]);
      for (auto& w : workers) w.join();
    }
    for (size_t i = begin; i < round_end; ++i) {
      if (!load[i].error.empty()) Fail(load[i].error);
    }

    // Drain: wait for empty pools and equal heights, then map every
    // transaction to its block(s) from the status node.
    const uint64_t drain_deadline = NowNs() + 100'000'000'000ull;
    while (found < round_end) {
      if (NowNs() > drain_deadline) Fail("load never committed");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      std::vector<NodeStatus> status = GatewayStatus(&conns[0]);
      bool idle = true;
      for (const NodeStatus& s : status) {
        idle = idle && s.reachable && s.pool == 0 && s.height == status[0].height;
      }
      if (!idle) continue;
      const uint64_t tip = NodeHeight(&status_node);
      for (auto& [height, hashes] : FetchBlocks(&status_node, fetched_to, tip)) {
        bool has_load = false;
        for (const crypto::Hash256& h : hashes) {
          auto it = by_hash.find(HashHex(h));
          if (it == by_hash.end()) continue;
          has_load = true;
          if (load[it->second].heights.empty()) ++found;
          load[it->second].heights.push_back(height);
        }
        if (has_load) load_blocks.push_back(height);
      }
      fetched_to = tip;
    }
  }
  std::vector<uint64_t> cpu_end;
  for (const std::string& pid : pids) cpu_end.push_back(CpuTicks(pid));
  // The drain read the tip itself; the timeline must reach it too.
  while (polled_height.load() < fetched_to) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  poll_stop.store(true);
  poller.join();

  // --- Fetch and open every receipt through the gateway. ---
  auto fetch_loop = [&](net::HttpClient* conn, size_t begin, size_t stride) {
    for (size_t i = begin; i < load.size(); i += stride) {
      LoadTx& l = load[i];
      const uint64_t t0 = NowNs();
      auto wire = GetReceipt(conn, l.hash_hex);
      const uint64_t t1 = NowNs();
      const uint64_t get_span =
          spans.Add("net.gateway.receipt_get", t0, t1, 0, int64_t(i));
      if (!wire) {
        l.error = "no receipt";
        continue;
      }
      l.wire_hex = HexEncode(ByteView(*wire));
      auto receipt = chain::Receipt::Deserialize(*wire);
      if (!receipt.ok()) {
        l.error = "receipt: " + receipt.status().ToString();
        continue;
      }
      if (HashHex(receipt->tx_hash) != l.hash_hex) {
        l.error = "receipt for another transaction";
        continue;
      }
      if (l.kind != Kind::kConcatPublic) {
        auto opened = core::Client::OpenSealedReceipt(l.k_tx, receipt->output);
        spans.Add("client.open_receipt", t1, NowNs(), get_span, int64_t(i));
        if (!opened.ok()) {
          l.error = "open: " + opened.status().ToString();
          continue;
        }
        receipt = std::move(opened);
      }
      l.receipt_success = receipt->success;
      l.output_hex = HexEncode(ByteView(receipt->output));
    }
  };
  {
    std::vector<std::thread> workers;
    for (uint32_t s = 1; s < senders; ++s) {
      workers.emplace_back(fetch_loop, &conns[s], s, senders);
    }
    fetch_loop(&conns[0], 0, senders);
    for (auto& w : workers) w.join();
  }
  std::vector<NodeStatus> final_status = GatewayStatus(&conns[0]);
  JsonValue inproc;
  if (spans.enabled()) {
    // Connections are closed; the leg runs on this thread alone.
    conns.clear();
    inproc = RunInProcessLeg(args, setup_all, load);
    threads_max = std::max(threads_max, OwnThreadCount());
  }

  // --- Results. ---
  JsonValue out{JsonValue::Object{}};
  out.Set("setup_done_ns", setup_done_ns);
  out.Set("setup_txs", uint64_t(setup_all.size()));
  out.Set("build_ns", build_ns);
  out.Set("rounds", uint64_t(rounds));
  out.Set("senders", uint64_t(senders));
  out.Set("threads_max", threads_max);
  out.Set("cpus", uint64_t(cpus));
  out.Set("clk_tck", int64_t(sysconf(_SC_CLK_TCK)));
  out.Set("polls", polls);
  out.Set("poll_span_ns", poll_last_ns - poll_first_ns);
  JsonValue cpu{JsonValue::Array{}};
  for (size_t i = 0; i < pids.size(); ++i) {
    cpu.as_array().push_back(int64_t(cpu_end[i] - cpu_start[i]));
  }
  out.Set("cpu_ticks", std::move(cpu));
  JsonValue tl{JsonValue::Array{}};
  for (const auto& [t, h] : timeline) {
    tl.as_array().push_back(JsonValue(JsonValue::Array{JsonValue(t), JsonValue(h)}));
  }
  out.Set("timeline", std::move(tl));
  JsonValue blocks{JsonValue::Array{}};
  for (uint64_t h : load_blocks) blocks.as_array().push_back(h);
  out.Set("load_blocks", std::move(blocks));
  JsonValue txs{JsonValue::Array{}};
  for (const LoadTx& l : load) {
    JsonValue o{JsonValue::Object{}};
    o.Set("kind", int64_t(l.kind));
    o.Set("round", uint64_t(&l - load.data()) / per_round);
    o.Set("hash", l.hash_hex);
    o.Set("acked_hash", l.acked_hash);
    o.Set("input_head", HexEncode(ByteView(l.input_head)));
    o.Set("due", paced ? start_ns + l.due_ns : l.send_ns);
    o.Set("send", l.send_ns);
    o.Set("ack", l.ack_ns);
    o.Set("status", int64_t(l.http_status));
    JsonValue hs{JsonValue::Array{}};
    for (uint64_t h : l.heights) hs.as_array().push_back(h);
    o.Set("heights", std::move(hs));
    o.Set("wire", l.wire_hex);
    o.Set("output", l.output_hex);
    o.Set("success", l.receipt_success);
    o.Set("error", l.error);
    txs.as_array().push_back(std::move(o));
  }
  out.Set("txs", std::move(txs));
  JsonValue nodes{JsonValue::Array{}};
  for (const NodeStatus& s : final_status) {
    JsonValue o{JsonValue::Object{}};
    o.Set("reachable", s.reachable);
    o.Set("id", s.id);
    o.Set("height", s.height);
    o.Set("tip", s.tip);
    o.Set("view", s.view);
    o.Set("leader", s.leader);
    nodes.as_array().push_back(std::move(o));
  }
  out.Set("nodes", std::move(nodes));
  if (spans.enabled()) {
    out.Set("spans", spans.ToJson());
    out.Set("inproc", std::move(inproc));
  }

  const std::string path = args.Str("out");
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) Fail("cannot write " + path);
  const std::string text = serialize::JsonWrite(out);
  std::fwrite(text.data(), 1, text.size(), file);
  std::fclose(file);
  return 0;
}
