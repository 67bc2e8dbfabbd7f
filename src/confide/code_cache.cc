#include "confide/code_cache.h"

#include "crypto/keccak.h"

namespace confide::core {

Result<std::shared_ptr<const ContractCode>> PrepareContractCode(chain::VmKind vm,
                                                                Bytes code,
                                                                bool fuse) {
  auto prepared = std::make_shared<ContractCode>();
  prepared->vm = vm;
  if (vm == chain::VmKind::kCvm) {
    CONFIDE_ASSIGN_OR_RETURN(prepared->module, vm::cvm::DecodeModule(code, fuse));
  } else {
    prepared->bytecode = std::move(code);
  }
  return std::shared_ptr<const ContractCode>(std::move(prepared));
}

Result<vm::ExecutionResult> RunContractCode(const ContractCode& code,
                                            std::string_view entry,
                                            ByteView args, vm::HostEnv* env,
                                            vm::cvm::CvmVm* cvm,
                                            vm::evm::EvmVm* evm,
                                            const vm::ExecConfig& config) {
  if (code.vm == chain::VmKind::kCvm) {
    return cvm->ExecuteModule(code.module, entry, args, env, config);
  }
  crypto::Hash256 selector = crypto::Keccak256::Digest(AsByteView(entry));
  Bytes calldata(selector.begin(), selector.begin() + 4);
  Append(&calldata, args);
  return evm->Execute(code.bytecode, calldata, env, config);
}

std::shared_ptr<const ContractCode> CodeCache::Find(
    const chain::Address& contract) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = entries_.find(contract);
  return it == entries_.end() ? nullptr : it->second;
}

void CodeCache::Insert(const chain::Address& contract,
                       std::shared_ptr<const ContractCode> code) {
  std::lock_guard<std::mutex> lock(mutex_);
  entries_[contract] = std::move(code);
}

}  // namespace confide::core
