/// \file test_util.h
/// \brief Shared helpers for the test suites.

#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "vm/cvm/interpreter.h"
#include "vm/host_env.h"

namespace confide::testutil {

/// \brief `prefix` followed by `i` in decimal: Numbered("k", 7) == "k7".
/// (GCC 12 misreads `"k" + std::to_string(i)` as an overlapping memcpy and
/// warns with -Wrestrict.)
inline std::string Numbered(std::string_view prefix, uint64_t i) {
  std::string out(prefix);
  out += std::to_string(i);
  return out;
}

/// \brief Decodes the wire-format `module` and runs `entry` on `vm`: every
/// call decodes, as an engine with the code cache off does.
inline Result<vm::ExecutionResult> ExecuteWire(vm::cvm::CvmVm* vm, ByteView module,
                                               std::string_view entry,
                                               ByteView input, vm::HostEnv* env,
                                               const vm::ExecConfig& config) {
  CONFIDE_ASSIGN_OR_RETURN(vm::cvm::Module decoded,
                           vm::cvm::DecodeModule(module, config.enable_fusion));
  return vm->ExecuteModule(decoded, entry, input, env, config);
}

/// \brief Simple in-memory HostEnv with a pluggable cross-contract hook.
class MapHostEnv : public vm::HostEnv {
 public:
  Result<Bytes> GetStorage(ByteView key) override {
    ++get_count;
    auto it = storage.find(ToString(key));
    if (it == storage.end()) return Status::NotFound("no such key");
    return it->second;
  }

  Status SetStorage(ByteView key, ByteView value) override {
    ++set_count;
    storage[ToString(key)] = ToBytes(value);
    return Status::OK();
  }

  void EmitLog(ByteView data) override { logs.push_back(ToString(data)); }

  Result<Bytes> CallContract(ByteView address, ByteView input) override {
    ++call_count;
    if (call_hook) return call_hook(address, input);
    return Status::NotFound("no contract at address");
  }

  std::map<std::string, Bytes> storage;
  std::vector<std::string> logs;
  std::function<Result<Bytes>(ByteView, ByteView)> call_hook;
  int get_count = 0;
  int set_count = 0;
  int call_count = 0;
};

}  // namespace confide::testutil
