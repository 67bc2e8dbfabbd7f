/// \file bytecode.h
/// \brief CONFIDE-VM instruction set and module format.
///
/// CONFIDE-VM is the paper's "WASM-derived smart contract virtual machine"
/// (§3.2.1): a stack machine over 64-bit values with a fixed-size linear
/// memory, LEB128-encoded modules, and a deliberately *reduced* opcode set
/// ("we optimize the instruction set for smart contract, reducing about
/// 50% instructions which helps to shrink the jumping table", §6.4 OPT4).
/// Control flow is flattened to branch offsets at decode time; the decoder
/// can additionally fuse hot instruction pairs into superinstructions.

#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace confide::vm::cvm {

/// \brief Wire + decoded opcodes. Values above kFusionBase exist only in
/// decoded form (produced by the fusion pass, never serialized).
enum class Op : uint8_t {
  kUnreachable = 0x00,
  kNop = 0x01,
  kReturn = 0x02,  ///< returns top-of-stack
  kCall = 0x03,    ///< a = function index
  kCallHost = 0x04,///< a = host function index
  kBr = 0x05,      ///< a = absolute decoded-instruction target
  kBrIf = 0x06,
  kDrop = 0x07,
  kSelect = 0x08,  ///< cond ? v1 : v2 (pops cond, v2, v1)

  kI64Const = 0x10,///< a = immediate
  kLocalGet = 0x11,
  kLocalSet = 0x12,
  kLocalTee = 0x13,

  kAdd = 0x20, kSub = 0x21, kMul = 0x22,
  kDivS = 0x23, kDivU = 0x24, kRemS = 0x25, kRemU = 0x26,
  kAnd = 0x27, kOr = 0x28, kXor = 0x29,
  kShl = 0x2a, kShrS = 0x2b, kShrU = 0x2c,

  kEqz = 0x30, kEq = 0x31, kNe = 0x32,
  kLtS = 0x33, kLtU = 0x34, kGtS = 0x35, kGtU = 0x36,
  kLeS = 0x37, kLeU = 0x38, kGeS = 0x39, kGeU = 0x3a,

  kLoad8U = 0x40,  ///< pops addr, pushes zero-extended byte
  kLoad32U = 0x41,
  kLoad64 = 0x42,
  kStore8 = 0x43,  ///< pops value, addr
  kStore32 = 0x44,
  kStore64 = 0x45,
  kMemCopy = 0x46, ///< pops len, src, dst
  kMemFill = 0x47, ///< pops len, byte, dst
  kMemSize = 0x48, ///< pushes linear memory size in bytes

  // --- decoded-only superinstructions (OPT4) ---
  kFusedAddImm = 0x60,      ///< push(pop() + a)
  kFusedIncLocal = 0x61,    ///< locals[a] += b
  kFusedCmpBrIf = 0x62,     ///< a = target, b = comparison Op; pops rhs, lhs
  kFusedLocalGet2 = 0x63,   ///< push locals[a]; push locals[b]
  kFusedConstStore64 = 0x64,///< mem[pop()] = a  (constant value store)
};

/// \brief One decoded instruction.
struct Instr {
  Op op;
  uint64_t a = 0;
  uint64_t b = 0;
};

/// \brief A function body.
struct Function {
  uint32_t param_count = 0;
  uint32_t local_count = 0;  ///< additional locals beyond params
  std::vector<Instr> code;   ///< decoded form
};

/// \brief A fully decoded, executable module.
struct Module {
  std::vector<Function> functions;
  std::unordered_map<std::string, uint32_t> exports;
  std::vector<std::pair<uint32_t, Bytes>> data_segments;  ///< (offset, bytes)
  uint32_t memory_bytes = 1 << 20;  ///< fixed linear memory size
  bool fused = false;               ///< fusion pass applied
};

/// \brief Serializes a module to the LEB128 wire format.
Bytes EncodeModule(const Module& module);

/// \brief Decodes and validates a wire module. When `fuse` is set, the
/// superinstruction pass rewrites hot patterns (OPT4).
Result<Module> DecodeModule(ByteView wire, bool fuse);

/// \brief Applies superinstruction fusion to a decoded module in place.
/// Branch targets are remapped to the shortened instruction stream.
Status FuseModule(Module* module);

}  // namespace confide::vm::cvm
