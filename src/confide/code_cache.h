/// \file code_cache.h
/// \brief The OPT1 code cache both engines share: runnable contract code
/// keyed by contract address (paper §6.4, "code cache").
///
/// An entry holds what a call needs and nothing it must redo: the decoded
/// CONFIDE-VM module, or the EVM bytecode. A cached call takes one
/// shared_ptr under a lock and runs; it pays no decode, no hash of the
/// code and no copy of it. The address alone is the key, which is sound
/// because an entry can never go stale: both engines refuse a deploy to
/// an address that has code, and a miss inserts only code it found in
/// durable state (chain::StateDb::IsDurable). Code read from a same-block
/// deploy, which a rerun group or an unwound block could still discard,
/// runs uncached.

#pragma once

#include <memory>
#include <mutex>
#include <string_view>
#include <unordered_map>

#include "chain/engine.h"
#include "vm/cvm/interpreter.h"
#include "vm/evm/evm.h"

namespace confide::core {

/// \brief A contract's code in runnable form; shared as
/// `shared_ptr<const ContractCode>`, so a call holds it without a copy.
struct ContractCode {
  chain::VmKind vm = chain::VmKind::kCvm;
  vm::cvm::Module module;  ///< decoded; CONFIDE-VM only
  Bytes bytecode;          ///< EVM only
};

/// \brief Decodes CONFIDE-VM code (fusing when `fuse`, OPT4) or keeps EVM
/// bytecode as it is.
Result<std::shared_ptr<const ContractCode>> PrepareContractCode(chain::VmKind vm,
                                                                Bytes code,
                                                                bool fuse);

/// \brief Runs `entry` of `code` against `env` on the matching VM. EVM
/// calls get calldata = 4-byte selector of `entry` || `args`.
Result<vm::ExecutionResult> RunContractCode(const ContractCode& code,
                                            std::string_view entry,
                                            ByteView args, vm::HostEnv* env,
                                            vm::cvm::CvmVm* cvm,
                                            vm::evm::EvmVm* evm,
                                            const vm::ExecConfig& config);

/// \brief Address-keyed cache of ContractCode. Thread-safe.
class CodeCache {
 public:
  /// \brief The entry for `contract`, or null.
  std::shared_ptr<const ContractCode> Find(const chain::Address& contract) const;
  /// \brief Caches `code` for `contract`; only for code read from
  /// durable state.
  void Insert(const chain::Address& contract,
              std::shared_ptr<const ContractCode> code);

 private:
  struct AddressHash {
    size_t operator()(const chain::Address& address) const {
      return std::hash<std::string_view>()(std::string_view(
          reinterpret_cast<const char*>(address.data()), address.size()));
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<chain::Address, std::shared_ptr<const ContractCode>,
                     AddressHash>
      entries_;
};

}  // namespace confide::core
