/// \file host_env.h
/// \brief The environment a smart-contract VM executes against.
///
/// Both engines (Public-Engine and Confidential-Engine, paper §3.1) hand a
/// HostEnv to whichever VM runs the transaction. In the confidential
/// engine the implementation is the SDM: every GetStorage/SetStorage
/// passes through D-Protocol encryption and an enclave-boundary ocall.

#pragma once

#include <cstdint>
#include <string>

#include "common/bytes.h"
#include "common/status.h"

namespace confide::vm {

/// \brief Host services visible to contract code.
class HostEnv {
 public:
  virtual ~HostEnv() = default;

  /// \brief Reads a contract state value; empty bytes when absent.
  virtual Result<Bytes> GetStorage(ByteView key) = 0;

  /// \brief Writes a contract state value.
  virtual Status SetStorage(ByteView key, ByteView value) = 0;

  /// \brief Appends a log/event record to the receipt.
  virtual void EmitLog(ByteView data) = 0;

  /// \brief Synchronous cross-contract call (the SCF-AR flow makes 31 of
  /// these per transfer, paper Table 1). Returns the callee's output.
  virtual Result<Bytes> CallContract(ByteView address, ByteView input) = 0;
};

/// \brief Outcome of one contract execution.
struct ExecutionResult {
  Bytes output;                      ///< bytes the contract wrote as output
  uint64_t return_value = 0;         ///< entry function's scalar return
  uint64_t gas_used = 0;
  uint64_t instructions_retired = 0;
};

/// \brief Per-execution limits and feature toggles.
struct ExecConfig {
  uint64_t gas_limit = 100'000'000;
  /// OPT4: superinstruction fusion + reduced dispatch table.
  bool enable_fusion = true;
  /// Maximum value-stack depth.
  uint32_t max_stack = 64 * 1024;
  /// Maximum call depth (intra-module).
  uint32_t max_call_depth = 256;
};

}  // namespace confide::vm
