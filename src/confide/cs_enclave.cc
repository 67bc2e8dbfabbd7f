#include "confide/cs_enclave.h"

#include <chrono>
#include <map>
#include <set>

#include "common/arena.h"
#include "common/endian.h"
#include "common/metrics.h"
#include "confide/freshness.h"
#include "crypto/drbg.h"
#include "crypto/hmac.h"
#include "serialize/rlp.h"

namespace confide::core {

namespace {

using serialize::RlpReader;
using serialize::RlpWriter;

uint64_t WallNowNs() {
  return uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now().time_since_epoch())
                      .count());
}

/// Pre-processor pipeline phases (paper §5.2): P1 batch decode, P2 envelope
/// decryption, P3 signature verification, P4 cache aggregation, P5 contract
/// execution. Latencies are wall nanoseconds per transaction.
struct CsMetrics {
  metrics::Histogram* p1_decode = metrics::GetHistogram("confide.phase.p1_decode_ns");
  metrics::Histogram* p2_envelope_open =
      metrics::GetHistogram("confide.phase.p2_envelope_open_ns");
  metrics::Histogram* p3_sig_verify =
      metrics::GetHistogram("confide.phase.p3_sig_verify_ns");
  metrics::Histogram* p4_cache_update =
      metrics::GetHistogram("confide.phase.p4_cache_update_ns");
  metrics::Histogram* p5_execute =
      metrics::GetHistogram("confide.phase.p5_execute_ns");
  metrics::Counter* preverified_txs =
      metrics::GetCounter("confide.preverify.tx.count");
  metrics::Counter* executed_txs = metrics::GetCounter("confide.execute.tx.count");
  metrics::Counter* failed_txs = metrics::GetCounter("confide.execute.failed.count");
  metrics::Counter* cache_hits =
      metrics::GetCounter("confide.preverify_cache.hit.count");
  metrics::Counter* cache_misses =
      metrics::GetCounter("confide.preverify_cache.miss.count");
  metrics::Counter* sdm_get_ops = metrics::GetCounter("confide.sdm.get.count");
  metrics::Counter* sdm_set_ops = metrics::GetCounter("confide.sdm.set.count");
  metrics::Counter* code_cache_hits =
      metrics::GetCounter("confide.code_cache.hit.count");
  metrics::Counter* code_cache_misses =
      metrics::GetCounter("confide.code_cache.miss.count");
  metrics::Counter* batch_flush_ops =
      metrics::GetCounter("confide.sdm.batch_flush_ops");
  metrics::Counter* prefetch_keys =
      metrics::GetCounter("confide.sdm.prefetch_keys.count");
  metrics::Gauge* preverify_resident =
      metrics::GetGauge("confide.preverify_cache.resident");
  metrics::Gauge* profile_resident =
      metrics::GetGauge("confide.sdm.readset_profile.resident");
  metrics::Counter* freshness_seals =
      metrics::GetCounter("confide.freshness.seal.count");
  metrics::Counter* freshness_verifies =
      metrics::GetCounter("confide.freshness.verify.count");
  metrics::Counter* freshness_stales =
      metrics::GetCounter("confide.freshness.stale.count");

  static const CsMetrics& Get() {
    static const CsMetrics instruments;
    return instruments;
  }
};

uint64_t ConflictKeyOf(const chain::Address& contract) {
  return LoadBe64(contract.data());
}

/// Per-execution write-back state layer (OPT5). One journal is shared by
/// reference across every nested SdmEnv frame of a kCsExecute call, so a
/// callee's writes are visible to its caller immediately (the A→B→A
/// reentrancy case) and all SetStorage ops buffer in-enclave until a
/// single batched flush ocall at successful execution end. Reads absorb
/// into one coherent cache; a learned read-set prefetch fills it in one
/// batched get ocall up front.
class StateJournal {
 public:
  StateJournal(tee::EnclaveContext* ctx, const CsOptions& options,
               uint64_t token, const StateKey& k_states, uint64_t svn)
      : ctx_(ctx), options_(options), token_(token), k_states_(k_states),
        svn_(svn) {}

  Result<Bytes> Get(const chain::Address& contract, ByteView key) {
    read_keys_.insert(ConflictKeyOf(contract));
    std::string jk = JournalKey(contract, key);
    RecordTouch(jk, contract, key);
    auto it = entries_.find(jk);
    if (it != entries_.end() && (it->second.dirty || options_.enable_state_cache)) {
      Entry& entry = it->second;
      if (entry.sealed) {  // lazily open prefetched ciphertext
        Bytes aad =
            StateAad(ByteView(contract.data(), contract.size()), key, svn_);
        CONFIDE_ASSIGN_OR_RETURN(Bytes plain,
                                 OpenState(k_states_, *entry.sealed, aad));
        entry.value = std::move(plain);
        entry.sealed.reset();
      }
      if (!entry.value) return Status::NotFound("sdm: cached absent");
      return *entry.value;
    }
    // Miss: fetch the sealed value from the untrusted store (one ocall).
    RlpWriter req(64 + key.size());
    size_t req_list = req.BeginList();
    req.WriteU64(token_);
    req.WriteBytes(ByteView(contract.data(), contract.size()));
    req.WriteBytes(key);
    req.EndList(req_list);
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes resp,
        ctx_->Ocall(kOcallGetState, req.buffer(), options_.ocall_semantics));
    // Zero-copy response walk: the sealed ciphertext stays a view into
    // `resp` and flows straight into the GCM open.
    auto reader = RlpReader::AtList(resp);
    if (!reader.ok()) return Status::Corruption("sdm: bad get-state response");
    auto found = reader->NextU64();
    auto sealed = reader->NextBytes();
    if (!found.ok() || !sealed.ok() || !reader->AtEnd()) {
      return Status::Corruption("sdm: bad get-state response");
    }
    if (found.value() == 0) {
      if (options_.enable_state_cache) {
        entries_[jk] =
            Entry{contract, ToBytes(key), std::nullopt, false, std::nullopt};
      }
      return Status::NotFound("sdm: no such state");
    }
    Bytes aad = StateAad(ByteView(contract.data(), contract.size()), key, svn_);
    CONFIDE_ASSIGN_OR_RETURN(Bytes plain,
                             OpenState(k_states_, sealed.value(), aad));
    if (options_.enable_state_cache) {
      entries_[jk] = Entry{contract, ToBytes(key), plain, false, std::nullopt};
    }
    return plain;
  }

  /// Whether `contract`'s code is in durable state (one ocall): only such
  /// code may enter the code cache. The host could answer falsely, but it
  /// could as well serve an authentic older sealed value on any miss.
  Result<bool> CodeIsDurable(const chain::Address& contract) {
    RlpWriter req(48);
    size_t req_list = req.BeginList();
    req.WriteU64(token_);
    req.WriteBytes(ByteView(contract.data(), contract.size()));
    req.EndList(req_list);
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes resp,
        ctx_->Ocall(kOcallCodeDurable, req.buffer(), options_.ocall_semantics));
    auto reader = RlpReader::AtList(resp);
    if (!reader.ok()) return Status::Corruption("sdm: bad code-durable response");
    auto durable = reader->NextU64();
    if (!durable.ok() || !reader->AtEnd()) {
      return Status::Corruption("sdm: bad code-durable response");
    }
    return durable.value() != 0;
  }

  Status Set(const chain::Address& contract, ByteView key, ByteView value) {
    written_keys_.insert(ConflictKeyOf(contract));
    // Writes join the prefetch profile too: sliding-window workloads
    // (e.g. the SCF ledger journal) read next execution what this one
    // wrote, and profiling reads alone would miss those keys forever.
    RecordTouch(JournalKey(contract, key), contract, key);
    if (options_.enable_ocall_batching) {
      // Write-back: buffer in-enclave, flush once at execution end.
      entries_[JournalKey(contract, key)] =
          Entry{contract, ToBytes(key), ToBytes(value), true, std::nullopt};
      return Status::OK();
    }
    // Write-through (pre-OPT5 ladder rungs): one ocall per SetStorage.
    Bytes aad = StateAad(ByteView(contract.data(), contract.size()), key, svn_);
    CONFIDE_ASSIGN_OR_RETURN(Bytes sealed, SealState(k_states_, value, aad));
    RlpWriter req(64 + key.size() + sealed.size());
    size_t req_list = req.BeginList();
    req.WriteU64(token_);
    req.WriteBytes(ByteView(contract.data(), contract.size()));
    req.WriteBytes(key);
    req.WriteBytes(sealed);
    req.EndList(req_list);
    CONFIDE_RETURN_NOT_OK(
        ctx_->Ocall(kOcallSetState, req.buffer(), options_.ocall_semantics)
            .status());
    if (options_.enable_state_cache) {
      entries_[JournalKey(contract, key)] =
          Entry{contract, ToBytes(key), ToBytes(value), false, std::nullopt};
    }
    return Status::OK();
  }

  /// One batched get for the learned read set; results land in the cache
  /// as if read individually. Keys already journaled are skipped.
  Status Prefetch(const std::vector<std::pair<chain::Address, Bytes>>& keys) {
    if (!options_.enable_ocall_batching || !options_.enable_state_cache) {
      return Status::OK();
    }
    std::vector<const std::pair<chain::Address, Bytes>*> wanted;
    for (const auto& pair : keys) {
      if (entries_.count(JournalKey(pair.first, pair.second)) == 0) {
        wanted.push_back(&pair);
      }
    }
    if (wanted.empty()) return Status::OK();
    RlpWriter req;
    size_t req_list = req.BeginList();
    req.WriteU64(token_);
    size_t rows = req.BeginList();
    for (const auto* pair : wanted) {
      size_t row = req.BeginList();
      req.WriteBytes(ByteView(pair->first.data(), pair->first.size()));
      req.WriteBytes(pair->second);
      req.EndList(row);
    }
    req.EndList(rows);
    req.EndList(req_list);
    CONFIDE_ASSIGN_OR_RETURN(
        Bytes resp,
        ctx_->OcallBatched(kOcallGetStateBatch, req.buffer(), wanted.size(),
                           options_.ocall_semantics));
    // The response dies with this frame but prefetched ciphertexts must
    // live until their lazy open in Get — the must-own case: one copy per
    // sealed value into the journal arena, no per-row item tree.
    auto reader = RlpReader::AtList(resp);
    if (!reader.ok()) {
      return Status::Corruption("sdm: bad batched get-state response");
    }
    for (size_t i = 0; i < wanted.size(); ++i) {
      auto row = reader->NextList();
      if (!row.ok()) {
        return Status::Corruption("sdm: bad batched get-state response");
      }
      auto found = row->NextU64();
      auto sealed_view = row->NextBytes();
      if (!found.ok() || !sealed_view.ok() || !row->AtEnd()) {
        return Status::Corruption("sdm: bad batched get-state entry");
      }
      const chain::Address& contract = wanted[i]->first;
      const Bytes& key = wanted[i]->second;
      std::optional<ByteView> sealed;
      if (found.value() != 0) sealed = arena_.Dup(sealed_view.value());
      entries_[JournalKey(contract, key)] =
          Entry{contract, key, std::nullopt, false, sealed};
    }
    if (!reader->AtEnd()) {
      return Status::Corruption("sdm: bad batched get-state response");
    }
    CsMetrics::Get().prefetch_keys->Increment(wanted.size());
    return Status::OK();
  }

  /// Seals and flushes every buffered write in one batched ocall. The host
  /// applies the batch atomically: on failure nothing reached the per-tx
  /// overlay and the execution must be reported failed.
  Status Flush() {
    flush_ops_ = 0;
    if (!options_.enable_ocall_batching) return Status::OK();
    uint64_t n = 0;
    RlpWriter req;
    size_t req_list = req.BeginList();
    req.WriteU64(token_);
    size_t rows = req.BeginList();
    for (auto& [jk, entry] : entries_) {
      if (!entry.dirty) continue;
      Bytes aad = StateAad(ByteView(entry.contract.data(), entry.contract.size()),
                           entry.key, svn_);
      CONFIDE_ASSIGN_OR_RETURN(Bytes sealed, SealState(k_states_, *entry.value, aad));
      size_t row = req.BeginList();
      req.WriteBytes(ByteView(entry.contract.data(), entry.contract.size()));
      req.WriteBytes(entry.key);
      req.WriteBytes(sealed);
      req.EndList(row);
      ++n;
    }
    if (n == 0) return Status::OK();
    req.EndList(rows);
    req.EndList(req_list);
    CONFIDE_RETURN_NOT_OK(
        ctx_->OcallBatched(kOcallSetStateBatch, req.buffer(), n,
                           options_.ocall_semantics)
            .status());
    for (auto& [jk, entry] : entries_) entry.dirty = false;
    flush_ops_ = n;
    CsMetrics::Get().batch_flush_ops->Increment(n);
    return Status::OK();
  }

  /// Marks a whole-contract read (code loaded from the code cache never
  /// touches storage but is still a read of that contract's state).
  void NoteContractRead(const chain::Address& contract) {
    read_keys_.insert(ConflictKeyOf(contract));
  }

  /// (contract, key) pairs this execution read or wrote, in first-touch
  /// order — the next execution's prefetch profile.
  const std::vector<std::pair<chain::Address, Bytes>>& touches_in_order() const {
    return touches_in_order_;
  }
  std::vector<uint64_t> ReadKeys() const {
    return std::vector<uint64_t>(read_keys_.begin(), read_keys_.end());
  }
  std::vector<uint64_t> WrittenKeys() const {
    return std::vector<uint64_t>(written_keys_.begin(), written_keys_.end());
  }
  uint64_t flush_ops() const { return flush_ops_; }

 private:
  struct Entry {
    chain::Address contract{};
    Bytes key;
    std::optional<Bytes> value;  // nullopt = known absent (unless sealed)
    bool dirty = false;
    /// Prefetched ciphertext not yet opened: GCM runs lazily on first
    /// Get, so prefetching a key that execution never touches costs no
    /// crypto — only the (batched) boundary crossing. The view points
    /// into arena_ (the ocall response buffer dies with Prefetch).
    std::optional<ByteView> sealed;
  };

  static std::string JournalKey(const chain::Address& contract, ByteView key) {
    return chain::AddressToString(contract) + "/" + ToString(key);
  }

  void RecordTouch(const std::string& jk, const chain::Address& contract,
                   ByteView key) {
    if (touch_seen_.insert(jk).second) {
      touches_in_order_.emplace_back(contract, ToBytes(key));
    }
  }

  tee::EnclaveContext* ctx_;
  const CsOptions& options_;
  uint64_t token_;
  const StateKey& k_states_;
  uint64_t svn_;
  // Ordered so the flush wire format (and its seal order) is deterministic.
  std::map<std::string, Entry> entries_;
  /// Owns prefetched ciphertext copies; lives exactly as long as the
  /// journal (one execution), so Entry::sealed views never dangle.
  Arena arena_;
  std::set<std::string> touch_seen_;
  std::vector<std::pair<chain::Address, Bytes>> touches_in_order_;
  std::set<uint64_t> read_keys_;
  std::set<uint64_t> written_keys_;
  uint64_t flush_ops_ = 0;
};

/// The SDM: the in-enclave HostEnv. One frame per (possibly nested)
/// contract call; all frames of one execution share the StateJournal, so
/// state crossings are journaled/batched and nested writes are coherent.
class SdmEnv : public vm::HostEnv {
 public:
  SdmEnv(const CsOptions& options, StateJournal* journal,
         chain::Address contract, vm::cvm::CvmVm* cvm, vm::evm::EvmVm* evm,
         uint32_t depth, CsExecuteResponse* stats, CodeCache* code_cache)
      : options_(options),
        journal_(journal),
        contract_(contract),
        cvm_(cvm),
        evm_(evm),
        depth_(depth),
        stats_(stats),
        code_cache_(code_cache) {}

  Result<Bytes> GetStorage(ByteView key) override {
    if (count_ops_) {
      ++stats_->get_storage_ops;
      CsMetrics::Get().sdm_get_ops->Increment();
    }
    return journal_->Get(contract_, key);
  }

  Status SetStorage(ByteView key, ByteView value) override {
    if (chain::ContractRegistry::IsReservedKey(key)) {
      return Status::VmTrap("sdm: contract code is written only by a deploy");
    }
    ++stats_->set_storage_ops;
    CsMetrics::Get().sdm_set_ops->Increment();
    return journal_->Set(contract_, key, value);
  }

  void EmitLog(ByteView data) override { logs.push_back(ToBytes(data)); }

  Result<Bytes> CallContract(ByteView address, ByteView input) override {
    ++stats_->contract_calls;
    if (depth_ + 1 >= options_.max_call_depth) {
      return Status::VmTrap("sdm: call depth exceeded");
    }
    if (address.size() != contract_.size()) {
      return Status::InvalidArgument("sdm: bad callee address");
    }
    chain::Address callee{};
    std::copy(address.begin(), address.end(), callee.begin());
    // Convention: input = entry-name '\0' args.
    size_t sep = 0;
    while (sep < input.size() && input[sep] != 0) ++sep;
    std::string entry(reinterpret_cast<const char*>(input.data()), sep);
    ByteView args = (sep < input.size()) ? input.subspan(sep + 1) : ByteView{};

    // The callee frame shares this execution's journal, so its writes are
    // immediately visible when control returns to this frame.
    SdmEnv callee_env(options_, journal_, callee, cvm_, evm_, depth_ + 1,
                      stats_, code_cache_);
    CONFIDE_ASSIGN_OR_RETURN(vm::ExecutionResult result,
                             callee_env.RunContract(entry, args));
    for (Bytes& log : callee_env.logs) logs.push_back(std::move(log));
    return result.output;
  }

  /// Loads this contract's code via the SDM and runs it on the right VM.
  /// With the OPT1 code cache, repeat executions skip the sealed-code
  /// ocall, its D-Protocol decryption and the module decode entirely.
  /// Code fetches bypass the Table-1 state-op counters (contract loading,
  /// not contract I/O).
  Result<vm::ExecutionResult> RunContract(std::string_view entry, ByteView args) {
    // Even a code-cache hit is a read of this contract's state — the
    // executor's cross-group overlap check must see it.
    journal_->NoteContractRead(contract_);
    std::shared_ptr<const ContractCode> code;
    if (options_.enable_code_cache) code = code_cache_->Find(contract_);
    (code ? CsMetrics::Get().code_cache_hits : CsMetrics::Get().code_cache_misses)
        ->Increment();
    if (code == nullptr) {
      count_ops_ = false;
      auto code_result = GetStorage(AsByteView(chain::ContractRegistry::kCodeKey));
      auto vm_result = GetStorage(AsByteView(chain::ContractRegistry::kVmKey));
      count_ops_ = true;
      CONFIDE_RETURN_NOT_OK(code_result.status());
      CONFIDE_RETURN_NOT_OK(vm_result.status());
      if (vm_result->size() != 1) return Status::Corruption("sdm: bad vm kind");
      chain::VmKind vm = (*vm_result)[0] == 0 ? chain::VmKind::kCvm : chain::VmKind::kEvm;
      CONFIDE_ASSIGN_OR_RETURN(code, PrepareContractCode(vm, std::move(*code_result),
                                                         options_.enable_fusion));
      if (options_.enable_code_cache) {
        CONFIDE_ASSIGN_OR_RETURN(bool durable, journal_->CodeIsDurable(contract_));
        if (durable) code_cache_->Insert(contract_, code);
      }
    }

    vm::ExecConfig config;
    config.gas_limit = options_.gas_limit;
    config.enable_fusion = options_.enable_fusion;
    return RunContractCode(*code, entry, args, this, cvm_, evm_, config);
  }

  std::vector<Bytes> logs;

 private:
  const CsOptions& options_;
  StateJournal* journal_;
  chain::Address contract_;
  vm::cvm::CvmVm* cvm_;
  vm::evm::EvmVm* evm_;
  uint32_t depth_;
  CsExecuteResponse* stats_;
  CodeCache* code_cache_;
  bool count_ops_ = true;
};

}  // namespace

// ---------------------------------------------------------------------------
// CsExecuteResponse codec
// ---------------------------------------------------------------------------

namespace {

void WriteU64List(RlpWriter* w, const std::vector<uint64_t>& values) {
  size_t mark = w->BeginList();
  for (uint64_t v : values) w->WriteU64(v);
  w->EndList(mark);
}

Result<std::vector<uint64_t>> ReadU64List(RlpReader* r) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader list, r->NextList());
  std::vector<uint64_t> values;
  while (!list.AtEnd()) {
    CONFIDE_ASSIGN_OR_RETURN(uint64_t v, list.NextU64());
    values.push_back(v);
  }
  return values;
}

}  // namespace

Bytes CsExecuteResponse::Serialize() const {
  RlpWriter w(96 + status_message.size() + sealed_receipt.size() +
              8 * (read_keys.size() + written_keys.size()));
  size_t list = w.BeginList();
  w.WriteU64(success ? 1 : 0);
  w.WriteString(status_message);
  w.WriteBytes(sealed_receipt);
  w.WriteU64(gas_used);
  w.WriteU64(conflict_key);
  w.WriteU64(contract_calls);
  w.WriteU64(get_storage_ops);
  w.WriteU64(set_storage_ops);
  WriteU64List(&w, read_keys);
  WriteU64List(&w, written_keys);
  w.WriteU64(batch_flush_ops);
  w.EndList(list);
  return std::move(w).Take();
}

Result<CsExecuteResponse> CsExecuteResponse::Deserialize(ByteView wire) {
  CONFIDE_ASSIGN_OR_RETURN(RlpReader r, RlpReader::AtList(wire));
  CsExecuteResponse resp;
  CONFIDE_ASSIGN_OR_RETURN(uint64_t success, r.NextU64());
  resp.success = success != 0;
  CONFIDE_ASSIGN_OR_RETURN(ByteView message, r.NextBytes());
  resp.status_message = ToString(message);
  CONFIDE_ASSIGN_OR_RETURN(ByteView receipt, r.NextBytes());
  resp.sealed_receipt = ToBytes(receipt);
  CONFIDE_ASSIGN_OR_RETURN(resp.gas_used, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(resp.conflict_key, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(resp.contract_calls, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(resp.get_storage_ops, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(resp.set_storage_ops, r.NextU64());
  CONFIDE_ASSIGN_OR_RETURN(resp.read_keys, ReadU64List(&r));
  CONFIDE_ASSIGN_OR_RETURN(resp.written_keys, ReadU64List(&r));
  CONFIDE_ASSIGN_OR_RETURN(resp.batch_flush_ops, r.NextU64());
  CONFIDE_RETURN_NOT_OK(r.ExpectEnd("cs: execute response"));
  return resp;
}

// ---------------------------------------------------------------------------
// CsEnclave
// ---------------------------------------------------------------------------

Result<Bytes> CsEnclave::HandleEcall(uint64_t fn, ByteView input,
                                     tee::EnclaveContext* ctx) {
  switch (fn) {
    case kCsGetProvisionReport: return GetProvisionReport(ctx);
    case kCsInstallKeys: return InstallKeys(input);
    case kCsPreVerifyBatch: return PreVerifyBatch(input, ctx);
    case kCsExecute: return Execute(input, ctx);
    case kCsSealFreshness: return SealFreshness(input, ctx);
    case kCsVerifyFreshness: return VerifyFreshness(input, ctx);
    default:
      return Status::InvalidArgument("cs: unknown ecall");
  }
}

Result<Bytes> CsEnclave::SealFreshness(ByteView request,
                                       tee::EnclaveContext* ctx) {
  auto reader = RlpReader::AtList(request);
  if (!reader.ok()) {
    return Status::InvalidArgument("cs: malformed seal-freshness request");
  }
  FreshnessHeader header;
  auto height = reader->NextU64();
  auto root = reader->NextFixed(header.state_root.size(), "state root");
  if (!height.ok() || !root.ok() || !reader->AtEnd()) {
    return Status::InvalidArgument("cs: malformed seal-freshness request");
  }
  header.height = height.value();
  std::copy(root->begin(), root->end(), header.state_root.begin());
  // Increment-then-seal: the trusted counter moves first, so a crash
  // between the bump and the header write leaves the counter one ahead of
  // the newest sealed generation — never behind it.
  CONFIDE_ASSIGN_OR_RETURN(header.counter,
                           ctx->CounterIncrement(kStateGenCounterFamily));
  crypto::Hash256 k_fresh = ctx->SealKey(kFreshnessKeyLabel);
  header.mac = crypto::HmacSha256(
      crypto::HashView(k_fresh),
      FreshnessMacBody(header.counter, header.height, header.state_root));
  CsMetrics::Get().freshness_seals->Increment();
  return header.Serialize();
}

Result<Bytes> CsEnclave::VerifyFreshness(ByteView request,
                                         tee::EnclaveContext* ctx) {
  auto reader = RlpReader::AtList(request);
  if (!reader.ok()) {
    return Status::InvalidArgument("cs: malformed verify-freshness request");
  }
  crypto::Hash256 tip_root{};
  auto header_wire = reader->NextBytes();
  auto tip_height_field = reader->NextU64();
  auto tip_root_field = reader->NextFixed(tip_root.size(), "tip root");
  if (!header_wire.ok() || !tip_height_field.ok() || !tip_root_field.ok() ||
      !reader->AtEnd()) {
    return Status::InvalidArgument("cs: malformed verify-freshness request");
  }
  CONFIDE_ASSIGN_OR_RETURN(FreshnessHeader header,
                           FreshnessHeader::Deserialize(header_wire.value()));
  uint64_t tip_height = tip_height_field.value();
  std::copy(tip_root_field->begin(), tip_root_field->end(), tip_root.begin());

  CsMetrics::Get().freshness_verifies->Increment();
  crypto::Hash256 k_fresh = ctx->SealKey(kFreshnessKeyLabel);
  crypto::Hash256 expected = crypto::HmacSha256(
      crypto::HashView(k_fresh),
      FreshnessMacBody(header.counter, header.height, header.state_root));
  if (!ConstantTimeEqual(crypto::HashView(expected), crypto::HashView(header.mac))) {
    return Status::PermissionDenied("cs: freshness header MAC invalid");
  }

  // StaleState from the read means the platform detected a rolled-back
  // durable counter store — propagate, that IS the attack signal.
  CONFIDE_ASSIGN_OR_RETURN(uint64_t counter,
                           ctx->CounterRead(kStateGenCounterFamily));
  auto stale = [](std::string why) {
    CsMetrics::Get().freshness_stales->Increment();
    return Status::StaleState("cs: " + std::move(why));
  };
  if (header.counter > counter) {
    // A validly MAC'd header from a future the trusted counter never saw:
    // the counter store was lost or reset underneath us.
    return stale("freshness counter behind sealed header (counter loss)");
  }
  FreshnessAction action = FreshnessAction::kFresh;
  if (counter - header.counter > 1) {
    return stale("sealed state generations behind trusted counter");
  } else if (counter == header.counter + 1) {
    // Interrupted seal: the counter moved but the new header never landed.
    // Genuine interruptions always left the store *past* the old header's
    // height (sealing follows the height advance); equality would accept a
    // one-generation rollback, so the comparison is strict.
    if (tip_height <= header.height) {
      return stale("interrupted seal with non-advanced store tip");
    }
    action = FreshnessAction::kResealNeeded;
  } else {  // counter == header.counter
    if (tip_height < header.height) {
      return stale("store tip behind sealed freshness header (rollback)");
    }
    if (tip_height == header.height) {
      if (!ConstantTimeEqual(crypto::HashView(tip_root),
                             crypto::HashView(header.state_root))) {
        return stale("state root diverges from sealed freshness header");
      }
    } else {
      // Store is newer than the last seal (the window between seals);
      // accept and have the host re-seal to cover the newer tip.
      action = FreshnessAction::kResealNeeded;
    }
  }
  RlpWriter out;
  size_t list = out.BeginList();
  out.WriteU64(uint64_t(action));
  out.EndList(list);
  return std::move(out).Take();
}

Result<Bytes> CsEnclave::GetProvisionReport(tee::EnclaveContext* ctx) {
  std::lock_guard<std::mutex> lock(mutex_);
  crypto::Drbg rng(Concat(AsByteView("confide-cs-channel:"),
                          ByteView(reinterpret_cast<const uint8_t*>(&seed_), 8)));
  provision_ecdh_ = crypto::GenerateKeyPair(&rng);
  tee::LocalReport report = ctx->CreateLocalReport(
      ByteView(provision_ecdh_->pub.data(), provision_ecdh_->pub.size()));
  RlpWriter w(80 + report.user_data.size());
  size_t list = w.BeginList();
  w.WriteBytes(ByteView(report.mrenclave.data(), report.mrenclave.size()));
  w.WriteU64(report.security_version);
  w.WriteBytes(report.user_data);
  w.WriteBytes(ByteView(report.mac.data(), report.mac.size()));
  w.EndList(list);
  return std::move(w).Take();
}

Result<Bytes> CsEnclave::InstallKeys(ByteView blob) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!provision_ecdh_) return Status::Unavailable("cs: no provisioning channel");
  CONFIDE_ASSIGN_OR_RETURN(ConsortiumKeys keys,
                           UnwrapConsortiumKeys(provision_ecdh_->priv, blob));
  keys_ = keys;
  provision_ecdh_.reset();
  return Bytes{};
}

Result<OpenedEnvelope> CsEnclave::OpenWithCache(ByteView envelope,
                                                const crypto::Hash256& env_hash,
                                                bool* was_verified) {
  *was_verified = false;
  std::string hash_key = HexEncode(crypto::HashView(env_hash));
  if (options_.enable_preverify_cache) {
    std::optional<CachedMeta> meta;
    {
      // Keep the critical section tiny: the symmetric decryption below
      // must run outside the lock or parallel executors serialize.
      std::lock_guard<std::mutex> lock(mutex_);
      CachedMeta* cached = meta_cache_.Get(hash_key);
      if (cached != nullptr) {
        ++cache_hits_;
        CsMetrics::Get().cache_hits->Increment();
        meta = *cached;
      } else {
        ++cache_misses_;
        CsMetrics::Get().cache_misses->Increment();
      }
    }
    if (meta) {
      // C3: symmetric-only recovery with the cached k_tx.
      OpenedEnvelope opened;
      opened.k_tx = meta->k_tx;
      auto body = OpenEnvelopeBody(meta->k_tx, envelope);
      if (body.ok()) {
        opened.raw_tx = std::move(*body);
        *was_verified = meta->verified;
        return opened;
      }
      // Fall through to the full path on cache inconsistency.
    }
  }
  std::optional<ConsortiumKeys> keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    keys = keys_;
  }
  if (!keys) return Status::Unavailable("cs: keys not provisioned");
  return OpenEnvelope(keys->sk_tx, envelope);
}

Result<Bytes> CsEnclave::PreVerifyBatch(ByteView request, tee::EnclaveContext* ctx) {
  // P1: decode the incoming batch. The reader walk is zero-copy: each
  // envelope stays a view into the ecall input for its whole pre-verify.
  uint64_t phase_start = WallNowNs();
  auto batch = RlpReader::AtList(request);
  if (!batch.ok()) return Status::Corruption("cs: bad batch");
  CsMetrics::Get().p1_decode->Observe(WallNowNs() - phase_start);
  std::optional<ConsortiumKeys> keys;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    keys = keys_;
  }
  if (!keys) return Status::Unavailable("cs: keys not provisioned");

  RlpWriter results;
  size_t results_list = results.BeginList();
  while (!batch->AtEnd()) {
    auto envelope_field = batch->NextBytes();
    if (!envelope_field.ok()) return Status::Corruption("cs: bad batch entry");
    ByteView envelope = envelope_field.value();
    crypto::Hash256 env_hash = crypto::Sha256::Digest(envelope);
    bool valid = false;
    uint64_t conflict_key = 0;
    TxKey k_tx{};

    // P2: private-key decryption of the digital envelope.
    phase_start = WallNowNs();
    auto opened = OpenEnvelope(keys->sk_tx, envelope);
    CsMetrics::Get().p2_envelope_open->Observe(WallNowNs() - phase_start);
    if (opened.ok()) {
      k_tx = opened->k_tx;
      // P3: signature verification of the recovered raw transaction.
      phase_start = WallNowNs();
      auto raw = chain::TransactionRef::Decode(opened->raw_tx);
      if (raw.ok()) {
        valid = crypto::EcdsaVerify(raw->SenderKey(), raw->SigningHash(),
                                    raw->SignatureValue());
        conflict_key = ConflictKeyOf(raw->ContractAddress());
      }
      CsMetrics::Get().p3_sig_verify->Observe(WallNowNs() - phase_start);
    }
    // P4: aggregate (hash, k_tx, f_verified) into the enclave cache.
    phase_start = WallNowNs();
    if (valid && options_.enable_preverify_cache) {
      std::lock_guard<std::mutex> lock(mutex_);
      meta_cache_.Put(HexEncode(crypto::HashView(env_hash)),
                      CachedMeta{k_tx, true, conflict_key});
      CsMetrics::Get().preverify_resident->Set(int64_t(meta_cache_.size()));
    }
    CsMetrics::Get().p4_cache_update->Observe(WallNowNs() - phase_start);
    CsMetrics::Get().preverified_txs->Increment();
    size_t entry = results.BeginList();
    results.WriteBytes(crypto::HashView(env_hash));
    results.WriteU64(valid ? 1 : 0);
    results.WriteU64(conflict_key);
    results.EndList(entry);
  }
  results.EndList(results_list);
  ctx->MonitorEmit(0, "cs: pre-verified batch");
  return std::move(results).Take();
}

Result<Bytes> CsEnclave::Execute(ByteView request, tee::EnclaveContext* ctx) {
  // P5: contract execution (everything inside the execute ecall).
  metrics::ScopedLatencyTimer p5_timer(CsMetrics::Get().p5_execute);
  CsMetrics::Get().executed_txs->Increment();
  auto req = RlpReader::AtList(request);
  if (!req.ok()) return Status::Corruption("cs: bad execute request");
  auto token_field = req->NextU64();
  auto envelope_field = req->NextBytes();
  if (!token_field.ok() || !envelope_field.ok() || !req->AtEnd()) {
    return Status::Corruption("cs: bad execute request");
  }
  uint64_t token = token_field.value();
  ByteView envelope = envelope_field.value();
  crypto::Hash256 env_hash = crypto::Sha256::Digest(envelope);

  CsExecuteResponse response;
  StateJournal* journal_ptr = nullptr;
  auto fail = [&](const Status& status) -> Result<Bytes> {
    response.success = false;
    response.status_message = status.ToString();
    if (journal_ptr != nullptr) {
      // Even failed executions report what they touched: the executor's
      // overlap check covers their (state-dependent) receipts too.
      response.read_keys = journal_ptr->ReadKeys();
      response.written_keys = journal_ptr->WrittenKeys();
    }
    CsMetrics::Get().failed_txs->Increment();
    ctx->MonitorEmit(2, "cs: tx failed: " + status.ToString());
    return response.Serialize();
  };

  bool was_verified = false;
  auto opened = OpenWithCache(envelope, env_hash, &was_verified);
  // The pre-verification entry is one-shot: executing the envelope
  // consumes it, so the cache cannot grow with already-executed txs.
  if (options_.enable_preverify_cache) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (meta_cache_.Erase(HexEncode(crypto::HashView(env_hash)))) {
      CsMetrics::Get().preverify_resident->Set(int64_t(meta_cache_.size()));
    }
  }
  if (!opened.ok()) return fail(opened.status());

  // Zero-copy decode: every field of `raw` aliases opened->raw_tx, which
  // outlives this frame — no per-field materialization.
  auto raw = chain::TransactionRef::Decode(opened->raw_tx);
  if (!raw.ok()) return fail(raw.status());
  const chain::Address contract = raw->ContractAddress();

  if (!was_verified &&
      !crypto::EcdsaVerify(raw->SenderKey(), raw->SigningHash(),
                           raw->SignatureValue())) {
    return fail(Status::PermissionDenied("cs: bad transaction signature"));
  }

  StateKey k_states;
  uint64_t svn = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!keys_) return fail(Status::Unavailable("cs: keys not provisioned"));
    k_states = keys_->k_states;
    svn = SecurityVersion();
  }

  response.conflict_key = ConflictKeyOf(contract);
  StateJournal journal(ctx, options_, token, k_states, svn);
  journal_ptr = &journal;

  const bool is_deploy = raw->EntryString() == "__deploy__";
  const bool prefetchable = !is_deploy && options_.enable_ocall_batching &&
                            options_.enable_state_cache;
  std::string profile_key = chain::AddressToString(contract);
  if (prefetchable) {
    std::vector<std::pair<chain::Address, Bytes>> hint;
    {
      std::lock_guard<std::mutex> lock(profile_mutex_);
      ReadSetProfile* profile = readset_profiles_.Get(profile_key);
      if (profile != nullptr) {
        hint.reserve(profile->keys.size());
        for (const auto& entry : profile->keys) {
          hint.emplace_back(entry.contract, entry.key);
        }
      }
    }
    if (!hint.empty()) {
      Status st = journal.Prefetch(hint);
      if (!st.ok()) return fail(st);
    }
  }

  SdmEnv env(options_, &journal, contract, &cvm_, &evm_,
             /*depth=*/0, &response, &code_cache_);

  chain::Receipt raw_receipt;
  raw_receipt.tx_hash = env_hash;

  if (is_deploy) {
    // Confidential deployment: code lands sealed like any other state.
    auto deploy = RlpReader::AtList(raw->input);
    if (!deploy.ok()) {
      return fail(Status::InvalidArgument("cs: bad deploy payload"));
    }
    auto vm_kind = deploy->NextU64();
    auto code = deploy->NextBytes();
    if (!vm_kind.ok() || !code.ok() || !deploy->AtEnd()) {
      return fail(Status::InvalidArgument("cs: bad deploy payload"));
    }
    if (*vm_kind > 1) {
      return fail(Status::InvalidArgument("cs: bad vm kind"));
    }
    // Code is written once: the code cache keys it by address alone.
    auto existing = journal.Get(contract, AsByteView(chain::ContractRegistry::kCodeKey));
    if (existing.ok()) {
      return fail(Status::AlreadyExists("cs: contract already deployed"));
    }
    if (!existing.status().IsNotFound()) return fail(existing.status());
    Status st = journal.Set(contract, AsByteView(chain::ContractRegistry::kCodeKey),
                            code.value());
    if (st.ok()) {
      st = journal.Set(contract, AsByteView(chain::ContractRegistry::kVmKey),
                       Bytes{uint8_t(*vm_kind)});
    }
    if (!st.ok()) return fail(st);
    raw_receipt.success = true;
  } else {
    auto result = env.RunContract(raw->EntryString(), raw->input);
    if (!result.ok()) {
      if (result.status().IsVmTrap() ||
          result.status().code() == StatusCode::kResourceExhausted ||
          result.status().IsNotFound()) {
        return fail(result.status());
      }
      return result.status();  // infrastructure error: propagate
    }
    raw_receipt.success = true;
    raw_receipt.output = std::move(result->output);
    raw_receipt.gas_used = result->gas_used;
    response.gas_used = result->gas_used;
  }
  raw_receipt.logs = std::move(env.logs);

  // Write-back flush: every buffered SetStorage crosses the boundary in
  // one batched ocall. The host applies it atomically, so a failure here
  // means nothing reached the overlay and the tx must report failure.
  Status flush_status = journal.Flush();
  if (!flush_status.ok()) return fail(flush_status);
  response.batch_flush_ops = journal.flush_ops();

  // Learn the read-set profile for the next execution of this contract:
  // keys touched this run join (or refresh) the profile; keys that keep
  // not being touched decay out, so per-transaction keys (e.g. unique
  // asset records) don't accrete into an ever-growing prefetch scan.
  if (prefetchable) {
    constexpr size_t kMaxProfileKeys = 256;
    constexpr uint32_t kMaxIdleRuns = 8;  // > SCF-AR's 4-asset cycle
    ReadSetProfile merged;
    {
      std::lock_guard<std::mutex> lock(profile_mutex_);
      ReadSetProfile* old = readset_profiles_.Get(profile_key);
      if (old != nullptr) merged = *old;
    }
    std::set<std::string> touched;
    for (const auto& pair : journal.touches_in_order()) {
      touched.insert(chain::AddressToString(pair.first) + "/" +
                     ToString(pair.second));
    }
    std::set<std::string> known;
    ReadSetProfile next;
    for (auto& entry : merged.keys) {
      std::string id =
          chain::AddressToString(entry.contract) + "/" + ToString(entry.key);
      entry.idle = touched.count(id) ? 0 : entry.idle + 1;
      if (entry.idle >= kMaxIdleRuns) continue;  // decayed out
      known.insert(id);
      next.keys.push_back(std::move(entry));
    }
    for (const auto& pair : journal.touches_in_order()) {
      if (next.keys.size() >= kMaxProfileKeys) break;
      std::string id =
          chain::AddressToString(pair.first) + "/" + ToString(pair.second);
      if (known.insert(id).second) {
        next.keys.push_back(ReadSetProfile::Entry{pair.first, pair.second, 0});
      }
    }
    std::lock_guard<std::mutex> lock(profile_mutex_);
    readset_profiles_.Put(profile_key, std::move(next));
    CsMetrics::Get().profile_resident->Set(int64_t(readset_profiles_.size()));
  }

  response.read_keys = journal.ReadKeys();
  response.written_keys = journal.WrittenKeys();

  // Rpt_conf = Enc(k_tx, Rpt_raw).
  auto sealed = SealReceipt(opened->k_tx, raw_receipt.Serialize());
  if (!sealed.ok()) return fail(sealed.status());
  response.sealed_receipt = std::move(*sealed);
  response.success = true;
  return response.Serialize();
}

}  // namespace confide::core
