#include "vm/cvm/bytecode.h"

#include <unordered_set>

#include "common/metrics.h"
#include "serialize/leb128.h"

namespace confide::vm::cvm {

namespace {

using serialize::ReadSleb128;
using serialize::ReadUleb128;
using serialize::WriteSleb128;
using serialize::WriteUleb128;

constexpr char kMagic[4] = {'C', 'V', 'M', '1'};

bool HasImmediateU(Op op) {
  switch (op) {
    case Op::kLocalGet:
    case Op::kLocalSet:
    case Op::kLocalTee:
    case Op::kCall:
    case Op::kCallHost:
      return true;
    default:
      return false;
  }
}

bool IsComparison(Op op) {
  uint8_t v = uint8_t(op);
  return v >= uint8_t(Op::kEq) && v <= uint8_t(Op::kGeU);
}

bool IsWireOp(uint8_t v) {
  Op op = Op(v);
  switch (op) {
    case Op::kUnreachable: case Op::kNop: case Op::kReturn: case Op::kCall:
    case Op::kCallHost: case Op::kBr: case Op::kBrIf: case Op::kDrop:
    case Op::kSelect: case Op::kI64Const: case Op::kLocalGet:
    case Op::kLocalSet: case Op::kLocalTee:
      return true;
    default:
      break;
  }
  if (v >= uint8_t(Op::kAdd) && v <= uint8_t(Op::kShrU)) return true;
  if (v >= uint8_t(Op::kEqz) && v <= uint8_t(Op::kGeU)) return true;
  if (v >= uint8_t(Op::kLoad8U) && v <= uint8_t(Op::kMemSize)) return true;
  return false;
}

}  // namespace

Bytes EncodeModule(const Module& module) {
  Bytes out;
  Append(&out, ByteView(reinterpret_cast<const uint8_t*>(kMagic), 4));
  WriteUleb128(&out, module.memory_bytes);
  WriteUleb128(&out, module.data_segments.size());
  for (const auto& [offset, bytes] : module.data_segments) {
    WriteUleb128(&out, offset);
    WriteUleb128(&out, bytes.size());
    Append(&out, bytes);
  }
  WriteUleb128(&out, module.functions.size());
  for (const Function& fn : module.functions) {
    WriteUleb128(&out, fn.param_count);
    WriteUleb128(&out, fn.local_count);
    WriteUleb128(&out, fn.code.size());
    for (size_t i = 0; i < fn.code.size(); ++i) {
      const Instr& instr = fn.code[i];
      out.push_back(uint8_t(instr.op));
      if (instr.op == Op::kI64Const) {
        WriteSleb128(&out, int64_t(instr.a));
      } else if (instr.op == Op::kBr || instr.op == Op::kBrIf) {
        WriteSleb128(&out, int64_t(instr.a) - int64_t(i));  // relative
      } else if (HasImmediateU(instr.op)) {
        WriteUleb128(&out, instr.a);
      }
    }
  }
  WriteUleb128(&out, module.exports.size());
  for (const auto& [name, index] : module.exports) {
    WriteUleb128(&out, name.size());
    Append(&out, AsByteView(name));
    WriteUleb128(&out, index);
  }
  return out;
}

Result<Module> DecodeModule(ByteView wire, bool fuse) {
  if (wire.size() < 4 || std::memcmp(wire.data(), kMagic, 4) != 0) {
    return Status::Corruption("cvm: bad module magic");
  }
  static metrics::Counter* decodes = metrics::GetCounter("vm.cvm.module.decode.count");
  decodes->Increment();
  size_t pos = 4;
  Module module;

  CONFIDE_ASSIGN_OR_RETURN(uint64_t mem_bytes, ReadUleb128(wire, &pos));
  if (mem_bytes > (256u << 20)) {
    return Status::Corruption("cvm: memory request too large");
  }
  module.memory_bytes = uint32_t(mem_bytes);

  CONFIDE_ASSIGN_OR_RETURN(uint64_t n_segments, ReadUleb128(wire, &pos));
  for (uint64_t s = 0; s < n_segments; ++s) {
    CONFIDE_ASSIGN_OR_RETURN(uint64_t offset, ReadUleb128(wire, &pos));
    CONFIDE_ASSIGN_OR_RETURN(uint64_t len, ReadUleb128(wire, &pos));
    if (len > wire.size() - pos) return Status::Corruption("cvm: truncated data segment");
    if (offset > module.memory_bytes || len > module.memory_bytes - offset) {
      return Status::Corruption("cvm: data segment outside memory");
    }
    module.data_segments.emplace_back(
        uint32_t(offset), Bytes(wire.begin() + pos, wire.begin() + pos + len));
    pos += len;
  }

  CONFIDE_ASSIGN_OR_RETURN(uint64_t n_functions, ReadUleb128(wire, &pos));
  for (uint64_t f = 0; f < n_functions; ++f) {
    Function fn;
    CONFIDE_ASSIGN_OR_RETURN(uint64_t params, ReadUleb128(wire, &pos));
    CONFIDE_ASSIGN_OR_RETURN(uint64_t locals, ReadUleb128(wire, &pos));
    fn.param_count = uint32_t(params);
    fn.local_count = uint32_t(locals);
    CONFIDE_ASSIGN_OR_RETURN(uint64_t n_instrs, ReadUleb128(wire, &pos));
    fn.code.reserve(n_instrs);
    for (uint64_t i = 0; i < n_instrs; ++i) {
      if (pos >= wire.size()) return Status::Corruption("cvm: truncated code");
      uint8_t byte = wire[pos++];
      if (!IsWireOp(byte)) {
        return Status::Corruption("cvm: unknown opcode " + std::to_string(byte));
      }
      Instr instr{Op(byte), 0, 0};
      if (instr.op == Op::kI64Const) {
        CONFIDE_ASSIGN_OR_RETURN(int64_t v, ReadSleb128(wire, &pos));
        instr.a = uint64_t(v);
      } else if (instr.op == Op::kBr || instr.op == Op::kBrIf) {
        CONFIDE_ASSIGN_OR_RETURN(int64_t rel, ReadSleb128(wire, &pos));
        int64_t target = int64_t(i) + rel;
        if (target < 0 || uint64_t(target) > n_instrs) {
          return Status::Corruption("cvm: branch target out of range");
        }
        instr.a = uint64_t(target);
      } else if (HasImmediateU(instr.op)) {
        CONFIDE_ASSIGN_OR_RETURN(uint64_t v, ReadUleb128(wire, &pos));
        instr.a = v;
      }
      fn.code.push_back(instr);
    }
    // Validate local indices now that counts are known.
    uint64_t n_locals = uint64_t(fn.param_count) + fn.local_count;
    for (const Instr& instr : fn.code) {
      if ((instr.op == Op::kLocalGet || instr.op == Op::kLocalSet ||
           instr.op == Op::kLocalTee) &&
          instr.a >= n_locals) {
        return Status::Corruption("cvm: local index out of range");
      }
    }
    module.functions.push_back(std::move(fn));
  }

  // Validate call targets.
  for (const Function& fn : module.functions) {
    for (const Instr& instr : fn.code) {
      if (instr.op == Op::kCall && instr.a >= module.functions.size()) {
        return Status::Corruption("cvm: call target out of range");
      }
    }
  }

  CONFIDE_ASSIGN_OR_RETURN(uint64_t n_exports, ReadUleb128(wire, &pos));
  for (uint64_t e = 0; e < n_exports; ++e) {
    CONFIDE_ASSIGN_OR_RETURN(uint64_t name_len, ReadUleb128(wire, &pos));
    if (pos + name_len > wire.size()) return Status::Corruption("cvm: truncated export");
    std::string name(reinterpret_cast<const char*>(wire.data() + pos), name_len);
    pos += name_len;
    CONFIDE_ASSIGN_OR_RETURN(uint64_t index, ReadUleb128(wire, &pos));
    if (index >= module.functions.size()) {
      return Status::Corruption("cvm: export references unknown function");
    }
    module.exports[name] = uint32_t(index);
  }
  if (pos != wire.size()) return Status::Corruption("cvm: trailing bytes");

  if (fuse) {
    CONFIDE_RETURN_NOT_OK(FuseModule(&module));
  }
  return module;
}

Status FuseModule(Module* module) {
  if (module->fused) return Status::OK();
  for (Function& fn : module->functions) {
    const std::vector<Instr>& old_code = fn.code;
    const size_t n = old_code.size();

    // Instructions that are branch targets must stay at pattern starts.
    std::unordered_set<uint64_t> branch_targets;
    for (const Instr& instr : old_code) {
      if (instr.op == Op::kBr || instr.op == Op::kBrIf ||
          instr.op == Op::kFusedCmpBrIf) {
        branch_targets.insert(instr.a);
      }
    }
    auto interior_ok = [&](size_t start, size_t count) {
      for (size_t k = start + 1; k < start + count; ++k) {
        if (branch_targets.count(k)) return false;
      }
      return true;
    };

    std::vector<Instr> new_code;
    new_code.reserve(n);
    std::vector<uint64_t> index_map(n + 1);  // old index -> new index
    size_t i = 0;
    while (i < n) {
      index_map[i] = new_code.size();
      const Instr& a = old_code[i];

      // Pattern: LocalGet x; I64Const c; Add; LocalSet x  -> IncLocal(x, c)
      if (i + 3 < n && a.op == Op::kLocalGet &&
          old_code[i + 1].op == Op::kI64Const && old_code[i + 2].op == Op::kAdd &&
          old_code[i + 3].op == Op::kLocalSet && old_code[i + 3].a == a.a &&
          interior_ok(i, 4)) {
        for (size_t k = 1; k < 4; ++k) index_map[i + k] = new_code.size();
        new_code.push_back({Op::kFusedIncLocal, a.a, old_code[i + 1].a});
        i += 4;
        continue;
      }
      // Pattern: I64Const c; Add -> AddImm(c)
      if (i + 1 < n && a.op == Op::kI64Const && old_code[i + 1].op == Op::kAdd &&
          interior_ok(i, 2)) {
        index_map[i + 1] = new_code.size();
        new_code.push_back({Op::kFusedAddImm, a.a, 0});
        i += 2;
        continue;
      }
      // Pattern: <cmp>; BrIf t -> CmpBrIf(t, cmp)
      if (i + 1 < n && IsComparison(a.op) && old_code[i + 1].op == Op::kBrIf &&
          interior_ok(i, 2)) {
        index_map[i + 1] = new_code.size();
        new_code.push_back({Op::kFusedCmpBrIf, old_code[i + 1].a, uint64_t(a.op)});
        i += 2;
        continue;
      }
      // Pattern: LocalGet a; LocalGet b -> LocalGet2(a, b)
      if (i + 1 < n && a.op == Op::kLocalGet && old_code[i + 1].op == Op::kLocalGet &&
          interior_ok(i, 2)) {
        index_map[i + 1] = new_code.size();
        new_code.push_back({Op::kFusedLocalGet2, a.a, old_code[i + 1].a});
        i += 2;
        continue;
      }
      // Pattern: I64Const c; Store64 -> ConstStore64(c)
      if (i + 1 < n && a.op == Op::kI64Const && old_code[i + 1].op == Op::kStore64 &&
          interior_ok(i, 2)) {
        index_map[i + 1] = new_code.size();
        new_code.push_back({Op::kFusedConstStore64, a.a, 0});
        i += 2;
        continue;
      }

      new_code.push_back(a);
      ++i;
    }
    index_map[n] = new_code.size();

    // Remap branch targets into the fused stream.
    for (Instr& instr : new_code) {
      if (instr.op == Op::kBr || instr.op == Op::kBrIf ||
          instr.op == Op::kFusedCmpBrIf) {
        instr.a = index_map[instr.a];
      }
    }
    fn.code = std::move(new_code);
  }
  module->fused = true;
  return Status::OK();
}

}  // namespace confide::vm::cvm
