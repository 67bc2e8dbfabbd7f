/// \file cs_enclave.h
/// \brief Contract Service enclave: the Confidential-Engine's trusted half
/// (paper §3.2.1, §5.1, §5.2).
///
/// Inside the enclave live:
///   * the **pre-processor** — opens T-Protocol envelopes, verifies
///     signatures, and (when the pre-verification cache is on, OPT3)
///     memoizes (tx hash → k_tx, f_verified) so the execution phase pays
///     only a symmetric decryption instead of the private-key operation;
///   * the **key cache** — sk_tx / k_states provisioned from the KM
///     enclave over a local-attestation channel;
///   * the **SDM** (secure data module) — a vm::HostEnv whose
///     GetStorage/SetStorage cross the boundary via ocalls and apply
///     D-Protocol sealing, with a memory cache for I/O efficiency;
///   * both VMs (CONFIDE-VM and EVM) and the address-keyed code cache of
///     decoded contracts (OPT1).

#pragma once

#include <mutex>
#include <optional>
#include <vector>

#include "chain/types.h"
#include "common/lru.h"
#include "confide/code_cache.h"
#include "confide/key_manager.h"
#include "confide/protocol.h"
#include "tee/enclave.h"
#include "vm/cvm/interpreter.h"
#include "vm/evm/evm.h"

namespace confide::core {

/// \brief CS enclave ecall ids.
enum CsEcall : uint64_t {
  kCsGetProvisionReport = 20,  ///< -> RLP local report, user_data = ECDH pub
  kCsInstallKeys = 21,         ///< provision blob -> ()
  kCsPreVerifyBatch = 22,      ///< RLP [envelope...] -> RLP [{hash, valid, ck}...]
  kCsExecute = 23,             ///< RLP{token, envelope} -> execute response
  /// State continuity: RLP{height, state_root} -> freshness header wire.
  /// Bumps the trusted `state-gen` counter, then MACs the new generation.
  kCsSealFreshness = 24,
  /// State continuity: RLP{header wire, tip_height, tip_root} ->
  /// RLP{action} (FreshnessAction), or StaleState / PermissionDenied when
  /// the sealed state fails the freshness rules.
  kCsVerifyFreshness = 25,
};

/// \brief Ocall ids served by the untrusted host (ConfidentialEngine).
enum CsOcall : uint64_t {
  kOcallGetState = 30,  ///< RLP{token, contract, key} -> RLP{found, value}
  kOcallSetState = 31,  ///< RLP{token, contract, key, value} -> ()
  /// Batched read: RLP{token, [[contract, key]...]} -> RLP[[found, value]...]
  kOcallGetStateBatch = 32,
  /// Batched write-back flush: RLP{token, [[contract, key, sealed]...]} -> ().
  /// Applied atomically by the host: every entry validated before any Put.
  kOcallSetStateBatch = 33,
  /// Code-cache admission: RLP{token, contract} -> RLP{durable}, 1 when the
  /// contract's code is in durable state (chain::StateDb::IsDurable).
  kOcallCodeDurable = 34,
};

/// \brief Feature toggles matching the paper's optimization ladder.
struct CsOptions {
  bool enable_preverify_cache = true;   ///< OPT3 (§5.2)
  bool enable_code_cache = true;        ///< OPT1 (§6.4)
  bool enable_fusion = true;            ///< OPT4 (§6.4)
  bool enable_state_cache = true;       ///< SDM memory cache (§3.2.1)
  /// OPT5: write-back StateJournal — buffer SetStorage in-enclave and flush
  /// once per execution; prefetch the learned read set in one batched ocall.
  bool enable_ocall_batching = true;
  /// Marshalling mode for the sealed-data crossings: the execute /
  /// pre-verify ecalls and the state ocalls ("optimized data structure",
  /// §5.3). Defaults to `user_check` — every byte of those payloads is
  /// either host-visible metadata (token, contract address, storage key,
  /// all of which land in the plaintext KV anyway) or GCM-sealed
  /// ciphertext, so skipping the bridge copy gives up nothing. Bypassed
  /// bytes stay accounted under `tee.boundary.bytes_viewed`. Provisioning
  /// and freshness ecalls always marshal copy-in/out.
  tee::PointerSemantics ocall_semantics = tee::PointerSemantics::kUserCheck;
  uint64_t gas_limit = 400'000'000;
  uint32_t max_call_depth = 64;
  /// LRU capacity of the OPT3 pre-verification cache (entries).
  uint32_t preverify_cache_capacity = 4096;
  /// LRU capacity of the per-contract read-set prefetch profiles.
  uint32_t readset_profile_capacity = 128;
};

/// \brief Result of one in-enclave execution, as returned to the host.
struct CsExecuteResponse {
  bool success = false;
  std::string status_message;
  Bytes sealed_receipt;      ///< Rpt_conf = Enc(k_tx, Rpt_raw)
  uint64_t gas_used = 0;
  uint64_t conflict_key = 0;
  // Operation counts (Table 1 profile).
  uint64_t contract_calls = 0;
  uint64_t get_storage_ops = 0;
  uint64_t set_storage_ops = 0;
  /// Conflict keys of every contract this execution read / wrote, nested
  /// calls included — the parallel executor's cross-group overlap check.
  std::vector<uint64_t> read_keys;
  std::vector<uint64_t> written_keys;
  /// Writes carried by the final batched flush (0 when batching is off).
  uint64_t batch_flush_ops = 0;

  Bytes Serialize() const;
  static Result<CsExecuteResponse> Deserialize(ByteView wire);
};

/// \brief One entry of a pre-verification batch response.
struct PreVerifyResult {
  crypto::Hash256 tx_hash{};
  bool valid = false;
  uint64_t conflict_key = 0;
};

/// \brief The contract-service enclave.
class CsEnclave : public tee::Enclave {
 public:
  explicit CsEnclave(uint64_t seed, CsOptions options = CsOptions{})
      : seed_(seed),
        options_(options),
        meta_cache_(options.preverify_cache_capacity),
        readset_profiles_(options.readset_profile_capacity) {}

  std::string CodeIdentity() const override { return "confide-cs-enclave"; }
  uint64_t SecurityVersion() const override { return 1; }

  Result<Bytes> HandleEcall(uint64_t fn, ByteView input,
                            tee::EnclaveContext* ctx) override;

  /// \brief Cache statistics (tests/benchmarks).
  uint64_t preverify_cache_hits() const { return cache_hits_; }
  uint64_t preverify_cache_misses() const { return cache_misses_; }

 private:
  struct CachedMeta {
    TxKey k_tx{};
    bool verified = false;
    uint64_t conflict_key = 0;
  };

  Result<Bytes> GetProvisionReport(tee::EnclaveContext* ctx);
  Result<Bytes> InstallKeys(ByteView blob);
  Result<Bytes> PreVerifyBatch(ByteView request, tee::EnclaveContext* ctx);
  Result<Bytes> Execute(ByteView request, tee::EnclaveContext* ctx);
  Result<Bytes> SealFreshness(ByteView request, tee::EnclaveContext* ctx);
  Result<Bytes> VerifyFreshness(ByteView request, tee::EnclaveContext* ctx);

  // Opens an envelope, via cache (symmetric path) or sk_tx (full path).
  Result<OpenedEnvelope> OpenWithCache(ByteView envelope,
                                       const crypto::Hash256& env_hash,
                                       bool* was_verified);

  uint64_t seed_;
  CsOptions options_;
  std::mutex mutex_;
  std::optional<ConsortiumKeys> keys_;
  std::optional<crypto::KeyPair> provision_ecdh_;
  LruCache<std::string, CachedMeta> meta_cache_;
  uint64_t cache_hits_ = 0;
  uint64_t cache_misses_ = 0;

  /// Read-set prefetch profiles, keyed by the top-level contract address:
  /// the (contract, key) pairs recent executions of that contract touched,
  /// issued as one batched get at the start of the next execution (OPT5).
  /// Keys untouched for several consecutive executions decay out, so
  /// workloads with per-transaction keys (unique asset ids) don't inflate
  /// the prefetch into a scan of dead state.
  struct ReadSetProfile {
    struct Entry {
      chain::Address contract{};
      Bytes key;
      uint32_t idle = 0;  ///< consecutive executions without a touch
    };
    std::vector<Entry> keys;
  };
  std::mutex profile_mutex_;
  LruCache<std::string, ReadSetProfile> readset_profiles_;

  vm::cvm::CvmVm cvm_;
  vm::evm::EvmVm evm_;

  // OPT1 code cache: decoded contract code by address, so repeat
  // executions skip the sealed-code ocall, its D-Protocol decryption and
  // the module decode.
  CodeCache code_cache_;
};

}  // namespace confide::core
