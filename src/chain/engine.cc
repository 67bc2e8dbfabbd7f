#include "chain/engine.h"

namespace confide::chain {

Status ContractRegistry::Deploy(StateDb* state, const Address& contract,
                                VmKind vm, Bytes code) {
  state->Put(contract, AsByteView(kCodeKey), std::move(code));
  state->Put(contract, AsByteView(kVmKey), Bytes{uint8_t(vm)});
  return state->Commit();
}

bool ContractRegistry::IsReservedKey(ByteView key) {
  std::string_view name(reinterpret_cast<const char*>(key.data()), key.size());
  return name == kCodeKey || name == kVmKey;
}

Result<ContractRegistry::ContractInfo> ContractRegistry::Load(
    StateDb* state, const Address& contract) {
  CONFIDE_ASSIGN_OR_RETURN(Bytes code, state->Get(contract, AsByteView(kCodeKey)));
  CONFIDE_ASSIGN_OR_RETURN(Bytes vm_byte, state->Get(contract, AsByteView(kVmKey)));
  if (vm_byte.size() != 1 || vm_byte[0] > 1) {
    return Status::Corruption("chain: bad vm kind for contract");
  }
  return ContractInfo{VmKind(vm_byte[0]), std::move(code)};
}

}  // namespace confide::chain
