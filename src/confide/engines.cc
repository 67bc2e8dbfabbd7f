#include "confide/engines.h"

#include <set>

#include "common/endian.h"
#include "common/fault.h"
#include "common/metrics.h"
#include "crypto/gcm.h"
#include "serialize/rlp.h"

namespace confide::core {

namespace {

/// Host-side engine instruments: end-to-end ecall latencies plus the state
/// ocall counts the paper's "optimized data structure" discussion (§5.3)
/// targets.
struct EngineMetrics {
  metrics::Histogram* preverify_latency =
      metrics::GetHistogram("confide.preverify.latency_ns");
  metrics::Histogram* execute_latency =
      metrics::GetHistogram("confide.execute.latency_ns");
  metrics::Counter* get_state_ocalls =
      metrics::GetCounter("confide.state.get_ocall.count");
  metrics::Counter* set_state_ocalls =
      metrics::GetCounter("confide.state.set_ocall.count");
  metrics::Counter* get_batch_ocalls =
      metrics::GetCounter("confide.state.get_batch_ocall.count");
  metrics::Counter* set_batch_ocalls =
      metrics::GetCounter("confide.state.set_batch_ocall.count");
  metrics::Counter* public_executes =
      metrics::GetCounter("confide.public.execute.count");
  metrics::Gauge* conflict_keys_resident =
      metrics::GetGauge("confide.engine.conflict_keys.resident");

  static const EngineMetrics& Get() {
    static const EngineMetrics instruments;
    return instruments;
  }
};

using serialize::RlpReader;
using serialize::RlpWriter;

/// D-Protocol sealed values are iv(12) || ciphertext || tag(16): anything
/// shorter cannot authenticate and must not reach the overlay. Without the
/// check a malformed entry would be stored silently and only explode at
/// the next OpenState.
Status ValidateSealedValue(ByteView sealed) {
  if (sealed.size() < crypto::kGcmIvSize + crypto::kGcmTagSize) {
    return Status::Corruption("ocall: malformed sealed value");
  }
  return Status::OK();
}

/// Plain HostEnv for the public engine: state in the clear, nested calls
/// resolved through the on-chain registry and the engine's code cache.
/// All frames of one execution share the touched-contract sets so the
/// executor's cross-group overlap check sees nested reads/writes (same
/// contract-granularity as the SDM).
class PlainEnv : public vm::HostEnv {
 public:
  PlainEnv(chain::StateDb* state, chain::Address contract,
           const EngineOptions& options, vm::cvm::CvmVm* cvm, vm::evm::EvmVm* evm,
           CodeCache* code_cache, uint32_t depth, std::set<uint64_t>* read_keys,
           std::set<uint64_t>* written_keys)
      : state_(state),
        contract_(contract),
        options_(options),
        cvm_(cvm),
        evm_(evm),
        code_cache_(code_cache),
        depth_(depth),
        read_keys_(read_keys),
        written_keys_(written_keys) {}

  Result<Bytes> GetStorage(ByteView key) override {
    read_keys_->insert(LoadBe64(contract_.data()));
    return state_->Get(contract_, key);
  }

  Status SetStorage(ByteView key, ByteView value) override {
    if (chain::ContractRegistry::IsReservedKey(key)) {
      return Status::VmTrap("public: contract code is written only by a deploy");
    }
    written_keys_->insert(LoadBe64(contract_.data()));
    state_->Put(contract_, key, ToBytes(value));
    return Status::OK();
  }

  void EmitLog(ByteView data) override { logs.push_back(ToBytes(data)); }

  Result<Bytes> CallContract(ByteView address, ByteView input) override {
    if (depth_ + 1 >= options_.max_call_depth) {
      return Status::VmTrap("public: call depth exceeded");
    }
    if (address.size() != contract_.size()) {
      return Status::InvalidArgument("public: bad callee address");
    }
    chain::Address callee{};
    std::copy(address.begin(), address.end(), callee.begin());
    size_t sep = 0;
    while (sep < input.size() && input[sep] != 0) ++sep;
    std::string entry(reinterpret_cast<const char*>(input.data()), sep);
    ByteView args = (sep < input.size()) ? input.subspan(sep + 1) : ByteView{};

    PlainEnv callee_env(state_, callee, options_, cvm_, evm_, code_cache_,
                        depth_ + 1, read_keys_, written_keys_);
    CONFIDE_ASSIGN_OR_RETURN(vm::ExecutionResult result,
                             callee_env.Run(entry, args));
    for (Bytes& log : callee_env.logs) logs.push_back(std::move(log));
    return result.output;
  }

  Result<vm::ExecutionResult> Run(std::string_view entry, ByteView args) {
    read_keys_->insert(LoadBe64(contract_.data()));  // code load
    std::shared_ptr<const ContractCode> code;
    if (options_.enable_code_cache) code = code_cache_->Find(contract_);
    if (code == nullptr) {
      CONFIDE_ASSIGN_OR_RETURN(chain::ContractRegistry::ContractInfo info,
                               chain::ContractRegistry::Load(state_, contract_));
      CONFIDE_ASSIGN_OR_RETURN(code, PrepareContractCode(info.vm, std::move(info.code),
                                                         options_.enable_fusion));
      if (options_.enable_code_cache &&
          state_->IsDurable(contract_, AsByteView(chain::ContractRegistry::kCodeKey))) {
        code_cache_->Insert(contract_, code);
      }
    }
    vm::ExecConfig config;
    config.gas_limit = options_.gas_limit;
    config.enable_fusion = options_.enable_fusion;
    return RunContractCode(*code, entry, args, this, cvm_, evm_, config);
  }

  std::vector<Bytes> logs;

 private:
  chain::StateDb* state_;
  chain::Address contract_;
  const EngineOptions& options_;
  vm::cvm::CvmVm* cvm_;
  vm::evm::EvmVm* evm_;
  CodeCache* code_cache_;
  uint32_t depth_;
  std::set<uint64_t>* read_keys_;
  std::set<uint64_t>* written_keys_;
};

}  // namespace

// ---------------------------------------------------------------------------
// PublicEngine
// ---------------------------------------------------------------------------

Result<bool> PublicEngine::PreVerify(const chain::Transaction& tx) {
  if (tx.type != chain::TxType::kPublic) {
    return Status::InvalidArgument("public engine: wrong tx type");
  }
  return crypto::EcdsaVerify(tx.sender, tx.SigningHash(), tx.signature);
}

Result<chain::Receipt> PublicEngine::Execute(const chain::Transaction& tx,
                                             chain::StateDb* state,
                                             chain::TxTouchSet* touch) {
  EngineMetrics::Get().public_executes->Increment();
  std::set<uint64_t> read_keys;
  std::set<uint64_t> written_keys;
  auto fill_touch = [&] {
    if (touch == nullptr) return;
    touch->read_keys.assign(read_keys.begin(), read_keys.end());
    touch->written_keys.assign(written_keys.begin(), written_keys.end());
  };
  chain::Receipt receipt;
  receipt.tx_hash = tx.Hash();

  if (!options_.assume_preverified &&
      !crypto::EcdsaVerify(tx.sender, tx.SigningHash(), tx.signature)) {
    receipt.success = false;
    receipt.status_message = "bad signature";
    return receipt;
  }

  if (tx.entry == "__deploy__") {
    auto deploy = RlpReader::AtList(tx.input);
    uint64_t vm_kind = 0;
    ByteView code;
    bool deploy_ok = false;
    if (deploy.ok()) {
      auto vm_field = deploy->NextU64();
      auto code_field = deploy->NextBytes();
      if (vm_field.ok() && code_field.ok() && deploy->AtEnd()) {
        vm_kind = vm_field.value();
        code = code_field.value();
        deploy_ok = true;
      }
    }
    if (!deploy_ok) {
      receipt.success = false;
      receipt.status_message = "bad deploy payload";
      return receipt;
    }
    if (vm_kind > 1) {
      receipt.success = false;
      receipt.status_message = "bad vm kind";
      return receipt;
    }
    // Code is written once: the code cache keys it by address alone.
    read_keys.insert(LoadBe64(tx.contract.data()));
    auto existing = state->Get(tx.contract, AsByteView(chain::ContractRegistry::kCodeKey));
    if (existing.ok()) {
      fill_touch();
      receipt.success = false;
      receipt.status_message = "contract already deployed";
      return receipt;
    }
    if (!existing.status().IsNotFound()) return existing.status();
    state->Put(tx.contract, AsByteView(chain::ContractRegistry::kCodeKey),
               ToBytes(code));
    state->Put(tx.contract, AsByteView(chain::ContractRegistry::kVmKey),
               Bytes{uint8_t(vm_kind)});
    written_keys.insert(LoadBe64(tx.contract.data()));
    fill_touch();
    receipt.success = true;
    return receipt;
  }

  PlainEnv env(state, tx.contract, options_, &cvm_, &evm_, &code_cache_,
               /*depth=*/0, &read_keys, &written_keys);
  auto result = env.Run(tx.entry, tx.input);
  fill_touch();
  if (!result.ok()) {
    receipt.success = false;
    receipt.status_message = result.status().ToString();
    return receipt;
  }
  receipt.success = true;
  receipt.output = std::move(result->output);
  receipt.gas_used = result->gas_used;
  receipt.logs = std::move(env.logs);
  return receipt;
}

uint64_t PublicEngine::ConflictKey(const chain::Transaction& tx) {
  return LoadBe64(tx.contract.data());
}

// ---------------------------------------------------------------------------
// ConfidentialEngine
// ---------------------------------------------------------------------------

Result<std::unique_ptr<ConfidentialEngine>> ConfidentialEngine::Create(
    tee::EnclavePlatform* platform, CsOptions options, uint64_t seed,
    uint64_t enclave_heap_bytes) {
  auto enclave = std::make_shared<CsEnclave>(seed, options);
  CONFIDE_ASSIGN_OR_RETURN(tee::EnclaveId id,
                           platform->CreateEnclave(enclave, enclave_heap_bytes));
  std::unique_ptr<ConfidentialEngine> engine(
      new ConfidentialEngine(platform, std::move(enclave), id, options));
  engine->RegisterOcalls();
  return engine;
}

Status ConfidentialEngine::RecreateEnclave(uint64_t seed,
                                           uint64_t enclave_heap_bytes) {
  // A retried recovery may leave a live-but-unprovisioned enclave behind;
  // reclaim its EPC before loading the replacement.
  if (platform_->IsAlive(enclave_id_)) {
    (void)platform_->DestroyEnclave(enclave_id_);
  }
  auto enclave = std::make_shared<CsEnclave>(seed, options_);
  CONFIDE_ASSIGN_OR_RETURN(
      tee::EnclaveId id, platform_->CreateEnclave(enclave, enclave_heap_bytes));
  {
    std::lock_guard<std::mutex> lock(mutex_);
    enclave_ = std::move(enclave);
    enclave_id_ = id;
    conflict_keys_.clear();  // cached keys came from the dead enclave
    EngineMetrics::Get().conflict_keys_resident->Set(0);
  }
  // Handlers capture `this`, which is unchanged; re-registering keeps the
  // ocall table pointed at this engine after the swap.
  RegisterOcalls();
  metrics::GetCounter("confide.enclave.recreate.count")->Increment();
  return Status::OK();
}

void ConfidentialEngine::RegisterOcalls() {
  platform_->RegisterOcall(kOcallGetState, [this](ByteView payload) -> Result<Bytes> {
    EngineMetrics::Get().get_state_ocalls->Increment();
    auto req = RlpReader::AtList(payload);
    if (!req.ok()) return Status::Corruption("ocall: bad get-state request");
    auto token = req->NextU64();
    auto contract_field = req->NextBytes();
    auto key = req->NextBytes();
    if (!token.ok() || !contract_field.ok() || !key.ok() || !req->AtEnd()) {
      return Status::Corruption("ocall: bad get-state request");
    }
    if (contract_field->size() != 20) {
      return Status::Corruption("ocall: bad contract address");
    }
    chain::StateDb* state;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = contexts_.find(token.value());
      if (it == contexts_.end()) return Status::NotFound("ocall: unknown token");
      state = it->second;
    }
    chain::Address contract{};
    std::copy(contract_field->begin(), contract_field->end(), contract.begin());
    auto value = state->Get(contract, key.value());
    RlpWriter resp;
    size_t list = resp.BeginList();
    if (value.ok()) {
      resp.WriteU64(1);
      resp.WriteBytes(*value);
    } else if (value.status().IsNotFound()) {
      resp.WriteU64(0);
      resp.WriteBytes(ByteView{});
    } else {
      return value.status();
    }
    resp.EndList(list);
    return std::move(resp).Take();
  });

  platform_->RegisterOcall(kOcallCodeDurable, [this](ByteView payload) -> Result<Bytes> {
    auto req = RlpReader::AtList(payload);
    if (!req.ok()) return Status::Corruption("ocall: bad code-durable request");
    auto token = req->NextU64();
    auto contract_field = req->NextBytes();
    if (!token.ok() || !contract_field.ok() || !req->AtEnd()) {
      return Status::Corruption("ocall: bad code-durable request");
    }
    if (contract_field->size() != 20) {
      return Status::Corruption("ocall: bad contract address");
    }
    chain::StateDb* state;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = contexts_.find(token.value());
      if (it == contexts_.end()) return Status::NotFound("ocall: unknown token");
      state = it->second;
    }
    chain::Address contract{};
    std::copy(contract_field->begin(), contract_field->end(), contract.begin());
    RlpWriter resp;
    size_t list = resp.BeginList();
    resp.WriteU64(
        state->IsDurable(contract, AsByteView(chain::ContractRegistry::kCodeKey)) ? 1 : 0);
    resp.EndList(list);
    return std::move(resp).Take();
  });

  platform_->RegisterOcall(kOcallSetState, [this](ByteView payload) -> Result<Bytes> {
    EngineMetrics::Get().set_state_ocalls->Increment();
    auto req = RlpReader::AtList(payload);
    if (!req.ok()) return Status::Corruption("ocall: bad set-state request");
    auto token = req->NextU64();
    auto contract_field = req->NextBytes();
    auto key = req->NextBytes();
    auto sealed = req->NextBytes();
    if (!token.ok() || !contract_field.ok() || !key.ok() || !sealed.ok() ||
        !req->AtEnd()) {
      return Status::Corruption("ocall: bad set-state request");
    }
    if (contract_field->size() != 20) {
      return Status::Corruption("ocall: bad contract address");
    }
    CONFIDE_RETURN_NOT_OK(ValidateSealedValue(sealed.value()));
    chain::StateDb* state;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = contexts_.find(token.value());
      if (it == contexts_.end()) return Status::NotFound("ocall: unknown token");
      state = it->second;
    }
    chain::Address contract{};
    std::copy(contract_field->begin(), contract_field->end(), contract.begin());
    state->Put(contract, key.value(), ToBytes(sealed.value()));
    return Bytes{};
  });

  // Batched read: RLP{token, [[contract, key]...]} -> RLP[[found, value]...].
  platform_->RegisterOcall(
      kOcallGetStateBatch, [this](ByteView payload) -> Result<Bytes> {
        EngineMetrics::Get().get_batch_ocalls->Increment();
        auto req = RlpReader::AtList(payload);
        if (!req.ok()) {
          return Status::Corruption("ocall: bad batched get-state request");
        }
        auto token = req->NextU64();
        auto rows_in = req->NextList();
        if (!token.ok() || !rows_in.ok() || !req->AtEnd()) {
          return Status::Corruption("ocall: bad batched get-state request");
        }
        chain::StateDb* state;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = contexts_.find(token.value());
          if (it == contexts_.end()) return Status::NotFound("ocall: unknown token");
          state = it->second;
        }
        // Validate the whole request, then resolve it as ONE batched read:
        // CommitStateDb answers all store-level misses from a single
        // pinned snapshot instead of a locked point read per key.
        std::vector<std::pair<chain::Address, Bytes>> wanted;
        while (!rows_in->AtEnd()) {
          auto row = rows_in->NextList();
          if (!row.ok()) {
            return Status::Corruption("ocall: bad batched get-state entry");
          }
          auto contract_field = row->NextBytes();
          auto key = row->NextBytes();
          if (!contract_field.ok() || !key.ok() || !row->AtEnd() ||
              contract_field->size() != 20) {
            return Status::Corruption("ocall: bad batched get-state entry");
          }
          chain::Address contract{};
          std::copy(contract_field->begin(), contract_field->end(),
                    contract.begin());
          wanted.emplace_back(contract, ToBytes(key.value()));
        }
        std::vector<Result<Bytes>> values = state->GetMany(wanted);
        RlpWriter resp;
        size_t rows_out = resp.BeginList();
        for (auto& value : values) {
          size_t row = resp.BeginList();
          if (value.ok()) {
            resp.WriteU64(1);
            resp.WriteBytes(*value);
          } else if (value.status().IsNotFound()) {
            resp.WriteU64(0);
            resp.WriteBytes(ByteView{});
          } else {
            return value.status();
          }
          resp.EndList(row);
        }
        resp.EndList(rows_out);
        return std::move(resp).Take();
      });

  // Batched write-back flush: RLP{token, [[contract, key, sealed]...]} -> ().
  // Atomic by construction: every entry is validated before the first Put,
  // so a malformed entry (or an injected flush fault) applies nothing.
  platform_->RegisterOcall(
      kOcallSetStateBatch, [this](ByteView payload) -> Result<Bytes> {
        EngineMetrics::Get().set_batch_ocalls->Increment();
        auto req = RlpReader::AtList(payload);
        if (!req.ok()) {
          return Status::Corruption("ocall: bad batched set-state request");
        }
        auto token = req->NextU64();
        auto rows_in = req->NextList();
        if (!token.ok() || !rows_in.ok() || !req->AtEnd()) {
          return Status::Corruption("ocall: bad batched set-state request");
        }
        chain::StateDb* state;
        {
          std::lock_guard<std::mutex> lock(mutex_);
          auto it = contexts_.find(token.value());
          if (it == contexts_.end()) return Status::NotFound("ocall: unknown token");
          state = it->second;
        }
        struct Row {
          chain::Address contract{};
          ByteView key;
          ByteView sealed;
        };
        std::vector<Row> entries;
        while (!rows_in->AtEnd()) {
          auto row = rows_in->NextList();
          if (!row.ok()) {
            return Status::Corruption("ocall: bad batched set-state entry");
          }
          auto contract_field = row->NextBytes();
          auto key = row->NextBytes();
          auto sealed = row->NextBytes();
          if (!contract_field.ok() || !key.ok() || !sealed.ok() ||
              !row->AtEnd() || contract_field->size() != 20) {
            return Status::Corruption("ocall: bad batched set-state entry");
          }
          CONFIDE_RETURN_NOT_OK(ValidateSealedValue(sealed.value()));
          Row entry;
          std::copy(contract_field->begin(), contract_field->end(),
                    entry.contract.begin());
          entry.key = key.value();
          entry.sealed = sealed.value();
          entries.push_back(entry);
        }
        if (fault::FaultInjector::Global().ShouldFail("fault.confide.batch_flush")) {
          return Status::Unavailable("ocall: injected batch-flush failure");
        }
        for (const Row& entry : entries) {
          state->Put(entry.contract, entry.key, ToBytes(entry.sealed));
        }
        return Bytes{};
      });
}

Result<bool> ConfidentialEngine::PreVerify(const chain::Transaction& tx) {
  if (tx.type != chain::TxType::kConfidential) {
    return Status::InvalidArgument("confidential engine: wrong tx type");
  }
  metrics::ScopedLatencyTimer timer(EngineMetrics::Get().preverify_latency);
  RlpWriter batch(16 + tx.envelope.size());
  size_t batch_list = batch.BeginList();
  batch.WriteBytes(tx.envelope);
  batch.EndList(batch_list);
  CONFIDE_ASSIGN_OR_RETURN(
      Bytes resp, platform_->Ecall(enclave_id_, kCsPreVerifyBatch,
                                   batch.buffer(), options_.ocall_semantics));
  auto reader = RlpReader::AtList(resp);
  if (!reader.ok()) {
    return Status::Corruption("confidential engine: bad preverify response");
  }
  auto entry = reader->NextList();
  if (!entry.ok() || !reader->AtEnd()) {
    return Status::Corruption("confidential engine: bad preverify response");
  }
  auto env_hash = entry->NextBytes();
  auto valid_field = entry->NextU64();
  auto conflict_field = entry->NextU64();
  if (!env_hash.ok() || !valid_field.ok() || !conflict_field.ok() ||
      !entry->AtEnd()) {
    return Status::Corruption("confidential engine: bad preverify response");
  }
  if (valid_field.value() != 0) {
    std::lock_guard<std::mutex> lock(mutex_);
    conflict_keys_[HexEncode(env_hash.value())] = conflict_field.value();
    EngineMetrics::Get().conflict_keys_resident->Set(int64_t(conflict_keys_.size()));
  }
  return valid_field.value() != 0;
}

Result<chain::Receipt> ConfidentialEngine::Execute(const chain::Transaction& tx,
                                                   chain::StateDb* state,
                                                   chain::TxTouchSet* touch) {
  metrics::ScopedLatencyTimer timer(EngineMetrics::Get().execute_latency);
  uint64_t token = next_token_.fetch_add(1);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    contexts_[token] = state;
  }
  RlpWriter req(24 + tx.envelope.size());
  size_t req_list = req.BeginList();
  req.WriteU64(token);
  req.WriteBytes(tx.envelope);
  req.EndList(req_list);
  auto resp = platform_->Ecall(enclave_id_, kCsExecute, req.buffer(),
                               options_.ocall_semantics);
  {
    // The execution is over either way: release the token context and the
    // memoized conflict key (PreVerify re-populates on resubmission), so
    // neither map grows with executed transactions.
    std::lock_guard<std::mutex> lock(mutex_);
    contexts_.erase(token);
    conflict_keys_.erase(HexEncode(crypto::HashView(crypto::Sha256::Digest(tx.envelope))));
    EngineMetrics::Get().conflict_keys_resident->Set(int64_t(conflict_keys_.size()));
  }
  CONFIDE_RETURN_NOT_OK(resp.status());
  CONFIDE_ASSIGN_OR_RETURN(CsExecuteResponse exec, CsExecuteResponse::Deserialize(*resp));
  if (touch != nullptr) {
    // The per-call response carries the touch sets — nothing correctness-
    // relevant flows through last_response_, which stays as a serial
    // profiling aid (Table-1 bench, examples).
    touch->read_keys = exec.read_keys;
    touch->written_keys = exec.written_keys;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    last_response_ = exec;
  }

  chain::Receipt receipt;
  receipt.tx_hash = tx.Hash();
  receipt.success = exec.success;
  receipt.status_message = exec.status_message;
  receipt.output = std::move(exec.sealed_receipt);  // only the owner can open
  receipt.gas_used = exec.gas_used;
  return receipt;
}

uint64_t ConfidentialEngine::ConflictKey(const chain::Transaction& tx) {
  crypto::Hash256 env_hash = crypto::Sha256::Digest(tx.envelope);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = conflict_keys_.find(HexEncode(crypto::HashView(env_hash)));
  return it == conflict_keys_.end() ? 0 : it->second;
}

}  // namespace confide::core
