/// \file interpreter.h
/// \brief CONFIDE-VM bytecode interpreter.
///
/// Features mapped to the paper's optimizations:
///  * the interpreter runs an already-decoded Module; the **code cache**
///    (OPT1) lives with the engines, which key decoded modules by
///    contract address (`confide/code_cache.h`), so a cached call pays no
///    decode, hash or copy. With the cache off, every call decodes;
///  * **superinstruction fusion** and the reduced dispatch table (OPT4);
///  * fixed-size linear memory + value stack (§3.2.1), no growth, so the
///    enclave working set is bounded. Linear memory comes from a
///    per-thread **memory pool** (§5.3): page-backed buffers that are
///    handed back after each execution with only the byte range that
///    execution wrote re-zeroed. Never-written pages are never touched,
///    so a call costs no zero-fill of its whole memory, and nothing one
///    execution wrote is readable by the next — linear memory is shared
///    across different users' transactions inside the enclave.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "vm/cvm/bytecode.h"
#include "vm/host_env.h"

namespace confide::vm::cvm {

class CvmInstance;

/// \brief Host function: receives the live instance and `arity` args,
/// returns one value.
struct HostFunction {
  std::string name;
  uint32_t arity = 0;
  std::function<Result<uint64_t>(CvmInstance*, const uint64_t*)> fn;
};

/// \brief Well-known host function indices (the CCL compiler hard-codes
/// these; keep in sync with RegisterStandardHostFunctions()).
enum HostFn : uint64_t {
  kHostGetStorage = 0,   ///< (key_ptr, key_len, val_ptr, val_cap) -> len
  kHostSetStorage = 1,   ///< (key_ptr, key_len, val_ptr, val_len) -> 0
  kHostSha256 = 2,       ///< (ptr, len, out_ptr) -> 0
  kHostKeccak256 = 3,    ///< (ptr, len, out_ptr) -> 0
  kHostInputSize = 4,    ///< () -> byte count
  kHostReadInput = 5,    ///< (dst_ptr, cap) -> copied
  kHostWriteOutput = 6,  ///< (ptr, len) -> 0
  kHostCall = 7,         ///< (addr_ptr, addr_len, in_ptr, in_len, out_ptr, out_cap) -> out_len
  kHostLog = 8,          ///< (ptr, len) -> 0
  kHostAbort = 9,        ///< (code) -> trap
};

/// \brief A running execution's state, visible to host functions.
class CvmInstance {
 public:
  CvmInstance(const CvmInstance&) = delete;
  CvmInstance& operator=(const CvmInstance&) = delete;
  /// Scrubs what this execution wrote and returns the linear memory to
  /// the thread's pool — on every exit, traps and out-of-gas included.
  ~CvmInstance();

  /// \brief Bounds-checked linear-memory read.
  Result<ByteView> MemRead(uint64_t ptr, uint64_t len) const;

  /// \brief Bounds-checked linear-memory write.
  Status MemWrite(uint64_t ptr, ByteView data);

  HostEnv* env() { return env_; }
  ByteView input() const { return input_; }
  void SetOutput(Bytes output) { output_ = std::move(output); }

  /// \brief Charges extra gas from host-function work; traps the
  /// execution when the budget is exceeded.
  Status ChargeGas(uint64_t amount);

 private:
  friend class CvmVm;
  CvmInstance() = default;

  /// Takes a zeroed linear memory of `size` bytes from the thread's pool.
  Status AcquireMemory(uint64_t size);

  /// Records [begin, end) as written; every write site calls this, so
  /// the pool re-zeroes exactly the span this execution dirtied.
  void MarkDirty(uint64_t begin, uint64_t end) {
    if (begin < dirty_begin_) dirty_begin_ = begin;
    if (end > dirty_end_) dirty_end_ = end;
  }

  uint8_t* memory_ = nullptr;
  uint64_t memory_size_ = 0;      ///< the module's memory_bytes
  uint64_t memory_capacity_ = 0;  ///< the pooled buffer's mapped size
  uint64_t dirty_begin_ = UINT64_MAX;
  uint64_t dirty_end_ = 0;
  HostEnv* env_ = nullptr;
  ByteView input_;
  Bytes output_;
  uint64_t gas_used_ = 0;
  uint64_t gas_limit_ = 0;
};

/// \brief The CONFIDE-VM engine. Thread-safe; one instance can be shared
/// by concurrent executors (each thread draws linear memory from its own
/// pool, and nested host calls each take their own buffer).
class CvmVm {
 public:
  CvmVm();

  /// \brief Runs `entry` of a decoded module (see DecodeModule()).
  Result<ExecutionResult> ExecuteModule(const Module& module, std::string_view entry,
                                        ByteView input, HostEnv* env,
                                        const ExecConfig& config);

  /// \brief Registers a custom host function; returns its index.
  uint32_t RegisterHost(HostFunction fn);

 private:
  std::vector<HostFunction> host_functions_;
};

/// \brief Gas schedule for CONFIDE-VM (uniform base cost, extra for memory
/// traffic and calls; storage costs are charged by the SDM layer).
struct CvmGas {
  static constexpr uint64_t kBase = 1;
  static constexpr uint64_t kMemOp = 2;
  static constexpr uint64_t kCall = 10;
  static constexpr uint64_t kHostCall = 50;
  static constexpr uint64_t kPerByteBulk = 1;  ///< per 8 bytes of memcpy/fill
};

}  // namespace confide::vm::cvm
