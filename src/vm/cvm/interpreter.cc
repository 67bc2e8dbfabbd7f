#include "vm/cvm/interpreter.h"

#include <sys/mman.h>

#include <algorithm>
#include <cstring>

#include "common/endian.h"
#include "common/metrics.h"
#include "crypto/keccak.h"
#include "crypto/sha256.h"

namespace confide::vm::cvm {

// ---------------------------------------------------------------------------
// Linear-memory pool (§5.3)
// ---------------------------------------------------------------------------

namespace {

/// Per-thread free list of linear-memory buffers. Buffers are anonymous
/// mappings, so pages no execution writes are never faulted in, and
/// resident memory stays at what executions actually touched. A buffer
/// goes back on the list with the span its last execution dirtied
/// re-zeroed, so every buffer on the list is all zeros. Nested calls run
/// while their caller's buffer is out, so each frame gets its own.
class MemoryPool {
 public:
  struct Buffer {
    uint8_t* data = nullptr;
    uint64_t capacity = 0;
  };

  ~MemoryPool() {
    for (const Buffer& buffer : idle_) munmap(buffer.data, buffer.capacity);
  }

  static MemoryPool& ForThisThread() {
    thread_local MemoryPool pool;
    return pool;
  }

  Result<Buffer> Take(uint64_t size) {
    // Most recently returned first: its touched pages are still warm.
    for (size_t i = idle_.size(); i > 0; --i) {
      if (idle_[i - 1].capacity >= size) {
        Buffer buffer = idle_[i - 1];
        idle_.erase(idle_.begin() + std::ptrdiff_t(i - 1));
        return buffer;
      }
    }
    constexpr uint64_t kPage = 4096;
    uint64_t capacity = std::max<uint64_t>((size + kPage - 1) & ~(kPage - 1), kPage);
    void* data = mmap(nullptr, capacity, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (data == MAP_FAILED) {
      return Status::ResourceExhausted("cvm: cannot map linear memory");
    }
    return Buffer{static_cast<uint8_t*>(data), capacity};
  }

  void Give(Buffer buffer, uint64_t dirty_begin, uint64_t dirty_end) {
    if (idle_.size() >= kMaxIdle) {
      munmap(buffer.data, buffer.capacity);  // unmapped pages hold nothing
      return;
    }
    if (dirty_end > dirty_begin) {
      std::memset(buffer.data + dirty_begin, 0, dirty_end - dirty_begin);
      ZeroedBytes()->Increment(dirty_end - dirty_begin);
    }
    idle_.push_back(buffer);
  }

 private:
  /// Enough for a deep nested-call chain to run without a mapping per call.
  static constexpr size_t kMaxIdle = 16;

  static metrics::Counter* ZeroedBytes() {
    static metrics::Counter* counter =
        metrics::GetCounter("vm.cvm.memory.zeroed_bytes");
    return counter;
  }

  std::vector<Buffer> idle_;
};

}  // namespace

// ---------------------------------------------------------------------------
// CvmInstance
// ---------------------------------------------------------------------------

CvmInstance::~CvmInstance() {
  if (memory_ == nullptr) return;
  MemoryPool::ForThisThread().Give({memory_, memory_capacity_}, dirty_begin_,
                                   dirty_end_);
}

Status CvmInstance::AcquireMemory(uint64_t size) {
  CONFIDE_ASSIGN_OR_RETURN(MemoryPool::Buffer buffer,
                           MemoryPool::ForThisThread().Take(size));
  memory_ = buffer.data;
  memory_capacity_ = buffer.capacity;
  memory_size_ = size;
  return Status::OK();
}

Result<ByteView> CvmInstance::MemRead(uint64_t ptr, uint64_t len) const {
  if (ptr + len > memory_size_ || ptr + len < ptr) {
    return Status::VmTrap("memory read out of bounds");
  }
  return ByteView(memory_ + ptr, len);
}

Status CvmInstance::MemWrite(uint64_t ptr, ByteView data) {
  if (ptr + data.size() > memory_size_ || ptr + data.size() < ptr) {
    return Status::VmTrap("memory write out of bounds");
  }
  if (data.empty()) return Status::OK();
  std::memcpy(memory_ + ptr, data.data(), data.size());
  MarkDirty(ptr, ptr + data.size());
  return Status::OK();
}

Status CvmInstance::ChargeGas(uint64_t amount) {
  gas_used_ += amount;
  if (gas_used_ > gas_limit_) {
    return Status::ResourceExhausted("out of gas");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Standard host functions
// ---------------------------------------------------------------------------

namespace {

std::vector<HostFunction> StandardHostFunctions() {
  std::vector<HostFunction> fns(10);
  fns[kHostGetStorage] = {"get_storage", 4,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView key, vm->MemRead(a[0], a[1]));
        CONFIDE_RETURN_NOT_OK(vm->ChargeGas(100 + a[1]));
        auto value = vm->env()->GetStorage(key);
        if (!value.ok()) {
          if (value.status().IsNotFound()) return uint64_t(0);
          return value.status();
        }
        uint64_t n = std::min<uint64_t>(value->size(), a[3]);
        CONFIDE_RETURN_NOT_OK(vm->MemWrite(a[2], ByteView(value->data(), n)));
        return uint64_t(value->size());
      }};
  fns[kHostSetStorage] = {"set_storage", 4,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView key, vm->MemRead(a[0], a[1]));
        CONFIDE_ASSIGN_OR_RETURN(ByteView value, vm->MemRead(a[2], a[3]));
        CONFIDE_RETURN_NOT_OK(vm->ChargeGas(200 + a[1] + a[3]));
        CONFIDE_RETURN_NOT_OK(vm->env()->SetStorage(key, value));
        return uint64_t(0);
      }};
  fns[kHostSha256] = {"sha256", 3,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView data, vm->MemRead(a[0], a[1]));
        CONFIDE_RETURN_NOT_OK(vm->ChargeGas(60 + a[1] / 8));
        crypto::Hash256 digest = crypto::Sha256::Digest(data);
        CONFIDE_RETURN_NOT_OK(vm->MemWrite(a[2], crypto::HashView(digest)));
        return uint64_t(0);
      }};
  fns[kHostKeccak256] = {"keccak256", 3,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView data, vm->MemRead(a[0], a[1]));
        CONFIDE_RETURN_NOT_OK(vm->ChargeGas(60 + a[1] / 8));
        crypto::Hash256 digest = crypto::Keccak256::Digest(data);
        CONFIDE_RETURN_NOT_OK(vm->MemWrite(a[2], crypto::HashView(digest)));
        return uint64_t(0);
      }};
  fns[kHostInputSize] = {"input_size", 0,
      [](CvmInstance* vm, const uint64_t*) -> Result<uint64_t> {
        return uint64_t(vm->input().size());
      }};
  fns[kHostReadInput] = {"read_input", 2,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        uint64_t n = std::min<uint64_t>(vm->input().size(), a[1]);
        CONFIDE_RETURN_NOT_OK(vm->MemWrite(a[0], vm->input().first(n)));
        return n;
      }};
  fns[kHostWriteOutput] = {"write_output", 2,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView data, vm->MemRead(a[0], a[1]));
        vm->SetOutput(ToBytes(data));
        return uint64_t(0);
      }};
  fns[kHostCall] = {"call", 6,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView addr, vm->MemRead(a[0], a[1]));
        CONFIDE_ASSIGN_OR_RETURN(ByteView in, vm->MemRead(a[2], a[3]));
        CONFIDE_RETURN_NOT_OK(vm->ChargeGas(700));
        CONFIDE_ASSIGN_OR_RETURN(Bytes out, vm->env()->CallContract(addr, in));
        uint64_t n = std::min<uint64_t>(out.size(), a[5]);
        CONFIDE_RETURN_NOT_OK(vm->MemWrite(a[4], ByteView(out.data(), n)));
        return uint64_t(out.size());
      }};
  fns[kHostLog] = {"log", 2,
      [](CvmInstance* vm, const uint64_t* a) -> Result<uint64_t> {
        CONFIDE_ASSIGN_OR_RETURN(ByteView data, vm->MemRead(a[0], a[1]));
        vm->env()->EmitLog(data);
        return uint64_t(0);
      }};
  fns[kHostAbort] = {"abort", 1,
      [](CvmInstance*, const uint64_t* a) -> Result<uint64_t> {
        return Status::VmTrap("contract abort(" + std::to_string(a[0]) + ")");
      }};
  return fns;
}

}  // namespace

// ---------------------------------------------------------------------------
// CvmVm
// ---------------------------------------------------------------------------

CvmVm::CvmVm() : host_functions_(StandardHostFunctions()) {}

uint32_t CvmVm::RegisterHost(HostFunction fn) {
  host_functions_.push_back(std::move(fn));
  return uint32_t(host_functions_.size() - 1);
}

namespace {

struct Frame {
  const Function* fn;
  size_t pc = 0;
  size_t stack_base = 0;   // value-stack height at entry
  size_t locals_base = 0;  // offset into the shared locals arena
};

// `addr + len > mem_size` would wrap for addresses near 2^64 and let the
// access through.
inline bool OutOfBounds(uint64_t addr, uint64_t len, uint64_t mem_size) {
  return addr > mem_size || mem_size - addr < len;
}

inline uint64_t EvalCompare(Op op, uint64_t lhs, uint64_t rhs) {
  switch (op) {
    case Op::kEq: return lhs == rhs;
    case Op::kNe: return lhs != rhs;
    case Op::kLtS: return int64_t(lhs) < int64_t(rhs);
    case Op::kLtU: return lhs < rhs;
    case Op::kGtS: return int64_t(lhs) > int64_t(rhs);
    case Op::kGtU: return lhs > rhs;
    case Op::kLeS: return int64_t(lhs) <= int64_t(rhs);
    case Op::kLeU: return lhs <= rhs;
    case Op::kGeS: return int64_t(lhs) >= int64_t(rhs);
    case Op::kGeU: return lhs >= rhs;
    default: return 0;
  }
}

}  // namespace

Result<ExecutionResult> CvmVm::ExecuteModule(const Module& module,
                                             std::string_view entry, ByteView input,
                                             HostEnv* env, const ExecConfig& config) {
  auto entry_it = module.exports.find(std::string(entry));
  if (entry_it == module.exports.end()) {
    return Status::NotFound("cvm: no exported function '" + std::string(entry) + "'");
  }

  CvmInstance inst;
  inst.env_ = env;
  inst.input_ = input;
  inst.gas_limit_ = config.gas_limit;
  CONFIDE_RETURN_NOT_OK(inst.AcquireMemory(module.memory_bytes));
  for (const auto& [offset, bytes] : module.data_segments) {
    CONFIDE_RETURN_NOT_OK(inst.MemWrite(offset, bytes));
  }

  std::vector<uint64_t> stack;
  stack.reserve(1024);
  std::vector<uint64_t> locals;
  locals.reserve(1024);
  std::vector<Frame> frames;
  frames.reserve(64);

  const Function& entry_fn = module.functions[entry_it->second];
  if (entry_fn.param_count != 0) {
    return Status::InvalidArgument("cvm: entry function must take no parameters");
  }
  locals.resize(entry_fn.param_count + entry_fn.local_count, 0);
  frames.push_back({&entry_fn, 0, 0, 0});

  uint8_t* mem = inst.memory_;
  const uint64_t mem_size = inst.memory_size_;

  auto trap = [&](const std::string& what) -> Status {
    return Status::VmTrap("cvm: " + what);
  };

  uint64_t gas = 0;
  const uint64_t gas_limit = config.gas_limit;
  uint64_t instructions = 0;

  while (!frames.empty()) {
    Frame& frame = frames.back();
    const std::vector<Instr>& code = frame.fn->code;
    if (frame.pc >= code.size()) {
      return trap("fell off end of function");
    }
    const Instr& instr = code[frame.pc++];
    ++instructions;
    gas += CvmGas::kBase;
    if (gas > gas_limit) return Status::ResourceExhausted("out of gas");

    switch (instr.op) {
      case Op::kUnreachable:
        return trap("unreachable executed");
      case Op::kNop:
        break;
      case Op::kReturn: {
        if (stack.size() <= frame.stack_base) return trap("return with empty stack");
        uint64_t ret = stack.back();
        stack.resize(frame.stack_base);
        stack.push_back(ret);
        locals.resize(frame.locals_base);
        frames.pop_back();
        break;
      }
      case Op::kCall: {
        if (frames.size() >= config.max_call_depth) return trap("call depth exceeded");
        const Function& callee = module.functions[instr.a];
        if (stack.size() < frame.stack_base + callee.param_count) {
          return trap("call with insufficient arguments");
        }
        gas += CvmGas::kCall;
        size_t locals_base = locals.size();
        locals.resize(locals_base + callee.param_count + callee.local_count, 0);
        // Pop args into the callee's leading locals.
        for (uint32_t p = callee.param_count; p > 0; --p) {
          locals[locals_base + p - 1] = stack.back();
          stack.pop_back();
        }
        frames.push_back({&callee, 0, stack.size(), locals_base});
        break;
      }
      case Op::kCallHost: {
        if (instr.a >= host_functions_.size()) return trap("unknown host function");
        const HostFunction& host = host_functions_[instr.a];
        if (stack.size() < frame.stack_base + host.arity) {
          return trap("host call with insufficient arguments");
        }
        gas += CvmGas::kHostCall;
        uint64_t args[8] = {0};
        for (uint32_t p = host.arity; p > 0; --p) {
          args[p - 1] = stack.back();
          stack.pop_back();
        }
        inst.gas_used_ = gas;
        Result<uint64_t> result = host.fn(&inst, args);
        gas = inst.gas_used_;
        if (gas > gas_limit) return Status::ResourceExhausted("out of gas");
        if (!result.ok()) return result.status();
        stack.push_back(*result);
        break;
      }
      case Op::kBr:
        frame.pc = size_t(instr.a);
        break;
      case Op::kBrIf: {
        if (stack.empty()) return trap("brif on empty stack");
        uint64_t cond = stack.back();
        stack.pop_back();
        if (cond != 0) frame.pc = size_t(instr.a);
        break;
      }
      case Op::kDrop:
        if (stack.empty()) return trap("drop on empty stack");
        stack.pop_back();
        break;
      case Op::kSelect: {
        if (stack.size() < 3) return trap("select needs three operands");
        uint64_t cond = stack.back(); stack.pop_back();
        uint64_t v2 = stack.back(); stack.pop_back();
        uint64_t v1 = stack.back(); stack.pop_back();
        stack.push_back(cond != 0 ? v1 : v2);
        break;
      }
      case Op::kI64Const:
        if (stack.size() >= config.max_stack) return trap("value stack overflow");
        stack.push_back(instr.a);
        break;
      case Op::kLocalGet:
        stack.push_back(locals[frame.locals_base + instr.a]);
        break;
      case Op::kLocalSet:
        if (stack.empty()) return trap("local.set on empty stack");
        locals[frame.locals_base + instr.a] = stack.back();
        stack.pop_back();
        break;
      case Op::kLocalTee:
        if (stack.empty()) return trap("local.tee on empty stack");
        locals[frame.locals_base + instr.a] = stack.back();
        break;

#define CONFIDE_BINOP(opcode, expr)                                     \
      case opcode: {                                                    \
        if (stack.size() < 2) return trap("binary op needs operands");  \
        uint64_t rhs = stack.back(); stack.pop_back();                  \
        uint64_t lhs = stack.back();                                    \
        (void)rhs; (void)lhs;                                           \
        stack.back() = (expr);                                          \
        break;                                                          \
      }

      CONFIDE_BINOP(Op::kAdd, lhs + rhs)
      CONFIDE_BINOP(Op::kSub, lhs - rhs)
      CONFIDE_BINOP(Op::kMul, lhs * rhs)
      case Op::kDivS: case Op::kDivU: case Op::kRemS: case Op::kRemU: {
        if (stack.size() < 2) return trap("binary op needs operands");
        uint64_t rhs = stack.back(); stack.pop_back();
        uint64_t lhs = stack.back();
        if (rhs == 0) return trap("integer divide by zero");
        switch (instr.op) {
          case Op::kDivS: stack.back() = uint64_t(int64_t(lhs) / int64_t(rhs)); break;
          case Op::kDivU: stack.back() = lhs / rhs; break;
          case Op::kRemS: stack.back() = uint64_t(int64_t(lhs) % int64_t(rhs)); break;
          default: stack.back() = lhs % rhs; break;
        }
        break;
      }
      CONFIDE_BINOP(Op::kAnd, lhs & rhs)
      CONFIDE_BINOP(Op::kOr, lhs | rhs)
      CONFIDE_BINOP(Op::kXor, lhs ^ rhs)
      CONFIDE_BINOP(Op::kShl, lhs << (rhs & 63))
      CONFIDE_BINOP(Op::kShrS, uint64_t(int64_t(lhs) >> (rhs & 63)))
      CONFIDE_BINOP(Op::kShrU, lhs >> (rhs & 63))
      case Op::kEqz:
        if (stack.empty()) return trap("eqz on empty stack");
        stack.back() = (stack.back() == 0);
        break;
      CONFIDE_BINOP(Op::kEq, EvalCompare(Op::kEq, lhs, rhs))
      CONFIDE_BINOP(Op::kNe, EvalCompare(Op::kNe, lhs, rhs))
      CONFIDE_BINOP(Op::kLtS, EvalCompare(Op::kLtS, lhs, rhs))
      CONFIDE_BINOP(Op::kLtU, EvalCompare(Op::kLtU, lhs, rhs))
      CONFIDE_BINOP(Op::kGtS, EvalCompare(Op::kGtS, lhs, rhs))
      CONFIDE_BINOP(Op::kGtU, EvalCompare(Op::kGtU, lhs, rhs))
      CONFIDE_BINOP(Op::kLeS, EvalCompare(Op::kLeS, lhs, rhs))
      CONFIDE_BINOP(Op::kLeU, EvalCompare(Op::kLeU, lhs, rhs))
      CONFIDE_BINOP(Op::kGeS, EvalCompare(Op::kGeS, lhs, rhs))
      CONFIDE_BINOP(Op::kGeU, EvalCompare(Op::kGeU, lhs, rhs))
#undef CONFIDE_BINOP

      case Op::kLoad8U: {
        if (stack.empty()) return trap("load on empty stack");
        uint64_t addr = stack.back();
        if (addr >= mem_size) return trap("memory read out of bounds");
        gas += CvmGas::kMemOp;
        stack.back() = mem[addr];
        break;
      }
      case Op::kLoad32U: {
        if (stack.empty()) return trap("load on empty stack");
        uint64_t addr = stack.back();
        if (OutOfBounds(addr, 4, mem_size)) return trap("memory read out of bounds");
        gas += CvmGas::kMemOp;
        stack.back() = LoadLe32(mem + addr);
        break;
      }
      case Op::kLoad64: {
        if (stack.empty()) return trap("load on empty stack");
        uint64_t addr = stack.back();
        if (OutOfBounds(addr, 8, mem_size)) return trap("memory read out of bounds");
        gas += CvmGas::kMemOp;
        stack.back() = LoadLe64(mem + addr);
        break;
      }
      case Op::kStore8: {
        if (stack.size() < 2) return trap("store needs operands");
        uint64_t value = stack.back(); stack.pop_back();
        uint64_t addr = stack.back(); stack.pop_back();
        if (addr >= mem_size) return trap("memory write out of bounds");
        gas += CvmGas::kMemOp;
        mem[addr] = uint8_t(value);
        inst.MarkDirty(addr, addr + 1);
        break;
      }
      case Op::kStore32: {
        if (stack.size() < 2) return trap("store needs operands");
        uint64_t value = stack.back(); stack.pop_back();
        uint64_t addr = stack.back(); stack.pop_back();
        if (OutOfBounds(addr, 4, mem_size)) return trap("memory write out of bounds");
        gas += CvmGas::kMemOp;
        StoreLe32(mem + addr, uint32_t(value));
        inst.MarkDirty(addr, addr + 4);
        break;
      }
      case Op::kStore64: {
        if (stack.size() < 2) return trap("store needs operands");
        uint64_t value = stack.back(); stack.pop_back();
        uint64_t addr = stack.back(); stack.pop_back();
        if (OutOfBounds(addr, 8, mem_size)) return trap("memory write out of bounds");
        gas += CvmGas::kMemOp;
        StoreLe64(mem + addr, value);
        inst.MarkDirty(addr, addr + 8);
        break;
      }
      case Op::kMemCopy: {
        if (stack.size() < 3) return trap("memcopy needs operands");
        uint64_t len = stack.back(); stack.pop_back();
        uint64_t src = stack.back(); stack.pop_back();
        uint64_t dst = stack.back(); stack.pop_back();
        if (src + len > mem_size || dst + len > mem_size ||
            src + len < src || dst + len < dst) {
          return trap("memcopy out of bounds");
        }
        gas += CvmGas::kPerByteBulk * (len / 8 + 1);
        std::memmove(mem + dst, mem + src, len);
        if (len != 0) inst.MarkDirty(dst, dst + len);
        break;
      }
      case Op::kMemFill: {
        if (stack.size() < 3) return trap("memfill needs operands");
        uint64_t len = stack.back(); stack.pop_back();
        uint64_t byte = stack.back(); stack.pop_back();
        uint64_t dst = stack.back(); stack.pop_back();
        if (dst + len > mem_size || dst + len < dst) {
          return trap("memfill out of bounds");
        }
        gas += CvmGas::kPerByteBulk * (len / 8 + 1);
        std::memset(mem + dst, int(byte), len);
        if (len != 0) inst.MarkDirty(dst, dst + len);
        break;
      }
      case Op::kMemSize:
        stack.push_back(mem_size);
        break;

      // --- superinstructions ---
      case Op::kFusedAddImm:
        if (stack.empty()) return trap("addimm on empty stack");
        stack.back() += instr.a;
        break;
      case Op::kFusedIncLocal:
        locals[frame.locals_base + instr.a] += instr.b;
        break;
      case Op::kFusedCmpBrIf: {
        if (stack.size() < 2) return trap("cmpbrif needs operands");
        uint64_t rhs = stack.back(); stack.pop_back();
        uint64_t lhs = stack.back(); stack.pop_back();
        if (EvalCompare(Op(instr.b), lhs, rhs)) frame.pc = size_t(instr.a);
        break;
      }
      case Op::kFusedLocalGet2:
        stack.push_back(locals[frame.locals_base + instr.a]);
        stack.push_back(locals[frame.locals_base + instr.b]);
        break;
      case Op::kFusedConstStore64: {
        if (stack.empty()) return trap("conststore on empty stack");
        uint64_t addr = stack.back(); stack.pop_back();
        if (OutOfBounds(addr, 8, mem_size)) return trap("memory write out of bounds");
        gas += CvmGas::kMemOp;
        StoreLe64(mem + addr, instr.a);
        inst.MarkDirty(addr, addr + 8);
        break;
      }
    }
    if (stack.size() > config.max_stack) return trap("value stack overflow");
  }

  ExecutionResult result;
  result.output = std::move(inst.output_);
  result.return_value = stack.empty() ? 0 : stack.back();
  result.gas_used = gas;
  result.instructions_retired = instructions;
  return result;
}

}  // namespace confide::vm::cvm
