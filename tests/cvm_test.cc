#include <gtest/gtest.h>

#include <functional>

#include "common/metrics.h"
#include "serialize/leb128.h"
#include "tests/test_util.h"
#include "vm/cvm/builder.h"
#include "vm/cvm/interpreter.h"

namespace confide::vm::cvm {
namespace {

using testutil::ExecuteWire;
using testutil::MapHostEnv;

ExecConfig UnfusedConfig() {
  ExecConfig config;
  config.enable_fusion = false;
  return config;
}

// Builds a module with a single exported "main".
Bytes BuildSingle(const FunctionBuilder& fb,
                  std::vector<std::pair<uint32_t, Bytes>> data = {}) {
  ModuleBuilder mb;
  auto idx = mb.AddFunction(fb);
  EXPECT_TRUE(idx.ok());
  mb.Export("main", *idx);
  for (auto& [offset, bytes] : data) mb.AddData(offset, std::move(bytes));
  return EncodeModule(mb.Finish());
}

TEST(CvmTest, ConstReturn) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(42).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 42u);
}

TEST(CvmTest, Arithmetic) {
  struct Case {
    Op op;
    int64_t lhs, rhs, expected;
  };
  const Case cases[] = {
      {Op::kAdd, 7, 5, 12},     {Op::kSub, 7, 5, 2},
      {Op::kMul, 7, 5, 35},     {Op::kDivS, -20, 5, -4},
      {Op::kDivU, 20, 5, 4},    {Op::kRemS, -7, 5, -2},
      {Op::kRemU, 7, 5, 2},     {Op::kAnd, 0b1100, 0b1010, 0b1000},
      {Op::kOr, 0b1100, 0b1010, 0b1110},
      {Op::kXor, 0b1100, 0b1010, 0b0110},
      {Op::kShl, 1, 8, 256},    {Op::kShrU, 256, 8, 1},
      {Op::kShrS, -256, 8, -1},
  };
  MapHostEnv env;
  CvmVm vm;
  for (const Case& c : cases) {
    FunctionBuilder fb(0, 0);
    fb.I64Const(c.lhs).I64Const(c.rhs).Emit(c.op).Return();
    auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
    ASSERT_TRUE(result.ok()) << int(c.op);
    EXPECT_EQ(int64_t(result->return_value), c.expected) << int(c.op);
  }
}

TEST(CvmTest, Comparisons) {
  struct Case {
    Op op;
    int64_t lhs, rhs;
    uint64_t expected;
  };
  const Case cases[] = {
      {Op::kEq, 3, 3, 1},   {Op::kNe, 3, 3, 0},  {Op::kLtS, -1, 0, 1},
      {Op::kLtU, -1, 0, 0},  // -1 unsigned is max
      {Op::kGtS, 5, 2, 1},  {Op::kGeU, 2, 2, 1}, {Op::kLeS, -5, -5, 1},
  };
  MapHostEnv env;
  CvmVm vm;
  for (const Case& c : cases) {
    FunctionBuilder fb(0, 0);
    fb.I64Const(c.lhs).I64Const(c.rhs).Emit(c.op).Return();
    auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result->return_value, c.expected) << int(c.op);
  }
}

TEST(CvmTest, DivideByZeroTraps) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(1).I64Const(0).Emit(Op::kDivU).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, LoopSumsWithBranches) {
  // sum = 0; i = 0; while (i < 100) { sum += i; i += 1; } return sum;
  FunctionBuilder fb(0, 2);  // locals: 0 = sum, 1 = i
  auto loop = fb.NewLabel();
  auto done = fb.NewLabel();
  fb.Bind(loop);
  fb.LocalGet(1).I64Const(100).Emit(Op::kGeS).BrIf(done);
  fb.LocalGet(0).LocalGet(1).Emit(Op::kAdd).LocalSet(0);
  fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
  fb.Br(loop);
  fb.Bind(done);
  fb.LocalGet(0).Return();

  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 4950u);
}

TEST(CvmTest, FusionPreservesSemantics) {
  // Same loop; run with and without fusion and compare everything.
  FunctionBuilder fb(0, 2);
  auto loop = fb.NewLabel();
  auto done = fb.NewLabel();
  fb.Bind(loop);
  fb.LocalGet(1).I64Const(1000).Emit(Op::kGeS).BrIf(done);
  fb.LocalGet(0).LocalGet(1).Emit(Op::kAdd).LocalSet(0);
  fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
  fb.Br(loop);
  fb.Bind(done);
  fb.LocalGet(0).Return();
  Bytes wire = BuildSingle(fb);

  MapHostEnv env;
  CvmVm vm;
  ExecConfig plain = UnfusedConfig();
  ExecConfig fused = UnfusedConfig();
  fused.enable_fusion = true;
  auto r1 = ExecuteWire(&vm, wire, "main", {}, &env, plain);
  auto r2 = ExecuteWire(&vm, wire, "main", {}, &env, fused);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->return_value, r2->return_value);
  EXPECT_EQ(r1->return_value, 499500u);
  // Fusion must retire strictly fewer instructions.
  EXPECT_LT(r2->instructions_retired, r1->instructions_retired);
}

TEST(CvmTest, FunctionCallsWithArguments) {
  ModuleBuilder mb;
  // add(a, b) = a + b
  FunctionBuilder add(2, 0);
  add.LocalGet(0).LocalGet(1).Emit(Op::kAdd).Return();
  auto add_idx = mb.AddFunction(add);
  ASSERT_TRUE(add_idx.ok());
  // main: return add(add(1, 2), 30)
  FunctionBuilder main_fn(0, 0);
  main_fn.I64Const(1).I64Const(2).Call(*add_idx);
  main_fn.I64Const(30).Call(*add_idx).Return();
  auto main_idx = mb.AddFunction(main_fn);
  ASSERT_TRUE(main_idx.ok());
  mb.Export("main", *main_idx);

  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, EncodeModule(mb.Finish()), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 33u);
}

TEST(CvmTest, RecursionDepthLimit) {
  ModuleBuilder mb;
  FunctionBuilder rec(0, 0);
  rec.Call(0).Return();  // infinite self-call
  auto idx = mb.AddFunction(rec);
  ASSERT_TRUE(idx.ok());
  mb.Export("main", *idx);
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, EncodeModule(mb.Finish()), "main", {}, &env, UnfusedConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, GasLimitStopsRunawayLoop) {
  FunctionBuilder fb(0, 0);
  auto loop = fb.NewLabel();
  fb.Bind(loop);
  fb.Br(loop);
  MapHostEnv env;
  CvmVm vm;
  ExecConfig config = UnfusedConfig();
  config.gas_limit = 10000;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(CvmTest, MemoryLoadStoreAndDataSegments) {
  // Data segment "hi" at offset 100; read byte, store at 200, load back.
  MapHostEnv env;
  CvmVm vm;
  FunctionBuilder fb2(0, 1);
  fb2.I64Const(100).Emit(Op::kLoad8U).LocalSet(0);
  fb2.I64Const(200).LocalGet(0).Emit(Op::kStore64);
  fb2.I64Const(200).Emit(Op::kLoad64).Return();
  auto wire = BuildSingle(fb2, {{100, ToBytes(std::string_view("hi"))}});
  auto result = ExecuteWire(&vm, wire, "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, uint64_t('h'));
}

TEST(CvmTest, OutOfBoundsMemoryTraps) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(int64_t(1) << 40).Emit(Op::kLoad64).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, AccessNearTopOfAddressSpaceTraps) {
  // addr + width wraps past 2^64 here; the bounds check must not.
  const uint64_t addr = ~uint64_t(0) - 3;
  for (Op op : {Op::kLoad32U, Op::kLoad64}) {
    FunctionBuilder fb(0, 0);
    fb.I64Const(int64_t(addr)).Emit(op).Return();
    MapHostEnv env;
    CvmVm vm;
    auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
    ASSERT_FALSE(result.ok()) << int(op);
    EXPECT_TRUE(result.status().IsVmTrap()) << int(op);
  }
  for (Op op : {Op::kStore32, Op::kStore64}) {
    for (bool fusion : {false, true}) {  // fused: I64Const + Store64 -> ConstStore64
      FunctionBuilder fb(0, 0);
      fb.I64Const(int64_t(addr)).I64Const(7).Emit(op);
      fb.I64Const(0).Return();
      MapHostEnv env;
      CvmVm vm;
      ExecConfig config = UnfusedConfig();
      config.enable_fusion = fusion;
      auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, config);
      ASSERT_FALSE(result.ok()) << int(op) << " fusion " << fusion;
      EXPECT_TRUE(result.status().IsVmTrap()) << int(op) << " fusion " << fusion;
    }
  }
}

TEST(CvmTest, MemCopyAndFill) {
  FunctionBuilder fb(0, 0);
  // fill [0,8) with 0xAB; copy to [16,24); load64 at 16.
  fb.I64Const(0).I64Const(0xAB).I64Const(8).Emit(Op::kMemFill);
  fb.I64Const(16).I64Const(0).I64Const(8).Emit(Op::kMemCopy);
  fb.I64Const(16).Emit(Op::kLoad64).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 0xABABABABABABABABull);
}

TEST(CvmTest, HostStorageRoundTrip) {
  // Write "k" (data at 0, len 1) value from data at 8 len 3; then read back.
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(1).I64Const(8).I64Const(3);
  fb.CallHost(kHostSetStorage).Emit(Op::kDrop);
  fb.I64Const(0).I64Const(1).I64Const(64).I64Const(100);
  fb.CallHost(kHostGetStorage).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("k"))},
                               {8, ToBytes(std::string_view("val"))}});
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, wire, "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 3u);  // stored length
  EXPECT_EQ(ToString(env.storage["k"]), "val");
}

TEST(CvmTest, HostGetStorageMissingReturnsZero) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(1).I64Const(64).I64Const(100);
  fb.CallHost(kHostGetStorage).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("k"))}});
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, wire, "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 0u);
}

TEST(CvmTest, HostHashFunctions) {
  // sha256 of "abc" written at 64; return first byte (0xba).
  FunctionBuilder fb(0, 0);
  fb.I64Const(0).I64Const(3).I64Const(64).CallHost(kHostSha256).Emit(Op::kDrop);
  fb.I64Const(64).Emit(Op::kLoad8U).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("abc"))}});
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, wire, "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 0xbau);
}

TEST(CvmTest, InputAndOutput) {
  // Copy input to memory, then write it back as output.
  FunctionBuilder fb(0, 1);
  fb.I64Const(0).I64Const(4096).CallHost(kHostReadInput).LocalSet(0);
  fb.I64Const(0).LocalGet(0).CallHost(kHostWriteOutput).Emit(Op::kDrop);
  fb.CallHost(kHostInputSize).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", AsByteView("payload"), &env,
                           UnfusedConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 7u);
  EXPECT_EQ(ToString(result->output), "payload");
}

TEST(CvmTest, AbortTraps) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(3).CallHost(kHostAbort).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsVmTrap());
}

TEST(CvmTest, CrossContractCallThroughEnv) {
  FunctionBuilder fb(0, 0);
  // call(addr at 0 len 4, input at 8 len 2, out at 64 cap 32)
  fb.I64Const(0).I64Const(4).I64Const(8).I64Const(2).I64Const(64).I64Const(32);
  fb.CallHost(kHostCall).Return();
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("addr"))},
                               {8, ToBytes(std::string_view("in"))}});
  MapHostEnv env;
  env.call_hook = [](ByteView address, ByteView input) -> Result<Bytes> {
    EXPECT_EQ(ToString(address), "addr");
    EXPECT_EQ(ToString(input), "in");
    return ToBytes(std::string_view("result!"));
  };
  CvmVm vm;
  auto result = ExecuteWire(&vm, wire, "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 7u);
  EXPECT_EQ(env.call_count, 1);
}

TEST(CvmTest, ModuleCodecRoundTrip) {
  FunctionBuilder fb(1, 2);
  auto l = fb.NewLabel();
  fb.LocalGet(0).BrIf(l);
  fb.I64Const(-5).Return();
  fb.Bind(l);
  fb.I64Const(7).Return();
  ModuleBuilder mb;
  auto idx = mb.AddFunction(fb);
  ASSERT_TRUE(idx.ok());
  mb.Export("f", *idx);
  mb.AddData(10, Bytes{1, 2, 3});
  Module module = mb.Finish();
  Bytes wire = EncodeModule(module);

  auto decoded = DecodeModule(wire, /*fuse=*/false);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->functions.size(), 1u);
  EXPECT_EQ(decoded->functions[0].param_count, 1u);
  EXPECT_EQ(decoded->functions[0].local_count, 2u);
  EXPECT_EQ(decoded->functions[0].code.size(), module.functions[0].code.size());
  EXPECT_EQ(decoded->exports.at("f"), 0u);
  EXPECT_EQ(decoded->data_segments.size(), 1u);
}

TEST(CvmTest, DecodeRejectsCorruptModules) {
  EXPECT_FALSE(DecodeModule(AsByteView("XXXX"), false).ok());

  FunctionBuilder fb(0, 0);
  fb.I64Const(1).Return();
  Bytes wire = BuildSingle(fb);
  Bytes truncated(wire.begin(), wire.end() - 2);
  EXPECT_FALSE(DecodeModule(truncated, false).ok());

  // Local index out of range.
  FunctionBuilder bad(0, 1);
  bad.Emit(Op::kLocalGet, 5).Return();
  EXPECT_FALSE(DecodeModule(BuildSingle(bad), false).ok());

  // Data-segment lengths whose end wraps past 2^64.
  for (uint64_t len : {~uint64_t(0), ~uint64_t(0) - 8}) {
    Bytes huge(wire.begin(), wire.begin() + 4);  // magic
    serialize::WriteUleb128(&huge, 1 << 20);     // memory bytes
    serialize::WriteUleb128(&huge, 1);           // one segment
    serialize::WriteUleb128(&huge, 16);          // offset
    serialize::WriteUleb128(&huge, len);
    huge.resize(huge.size() + 32, 0);
    EXPECT_FALSE(DecodeModule(huge, false).ok()) << len;
  }
}

TEST(CvmTest, ExecuteModuleNeverDecodes) {
  // The VM keeps no module cache and runs only decoded modules: a caller
  // that reuses code keeps the Module (the engines' address-keyed code
  // cache does), so only DecodeModule counts a decode.
  FunctionBuilder fb(0, 0);
  fb.I64Const(1).Return();
  MapHostEnv env;
  CvmVm vm;
  metrics::Counter* decodes = metrics::GetCounter("vm.cvm.module.decode.count");
  uint64_t before = decodes->Value();
  auto module = DecodeModule(BuildSingle(fb), true);
  ASSERT_TRUE(module.ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(vm.ExecuteModule(*module, "main", {}, &env, ExecConfig{}).ok());
  }
  EXPECT_EQ(decodes->Value() - before, 1u);
}

TEST(CvmTest, UnknownEntryRejected) {
  FunctionBuilder fb(0, 0);
  fb.I64Const(1).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "missing", {}, &env, UnfusedConfig());
  EXPECT_TRUE(result.status().IsNotFound());
}

TEST(CvmTest, SelectAndDropAndTee) {
  FunctionBuilder fb(0, 1);
  fb.I64Const(10).I64Const(20).I64Const(1).Emit(Op::kSelect);  // -> 10
  fb.LocalTee(0).Emit(Op::kDrop);
  fb.LocalGet(0).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->return_value, 10u);
}

// ---------------------------------------------------------------------------
// Linear-memory isolation. Executions on one thread share pooled buffers,
// so whatever one execution wrote must read as zero in the next one —
// however the first one ended.
// ---------------------------------------------------------------------------

// Appends: acc |= load64(a) for a in [begin, end) step 8.
void EmitOrScan(FunctionBuilder* fb, uint64_t begin, uint64_t end,
                uint32_t addr_local, uint32_t acc_local) {
  auto loop = fb->NewLabel();
  auto done = fb->NewLabel();
  fb->I64Const(int64_t(begin)).LocalSet(addr_local);
  fb->Bind(loop);
  fb->LocalGet(addr_local).I64Const(int64_t(end)).Emit(Op::kGeU).BrIf(done);
  fb->LocalGet(acc_local).LocalGet(addr_local).Emit(Op::kLoad64).Emit(Op::kOr);
  fb->LocalSet(acc_local);
  fb->LocalGet(addr_local).I64Const(8).Emit(Op::kAdd).LocalSet(addr_local);
  fb->Br(loop);
  fb->Bind(done);
}

// A module of `memory_bytes` whose main returns the OR of every word of
// its memory past its own `data` (which sits at offset 0).
Bytes ScanModule(uint32_t memory_bytes, Bytes data = {}) {
  FunctionBuilder fb(0, 2);
  EmitOrScan(&fb, (data.size() + 7) & ~size_t(7), memory_bytes, 0, 1);
  fb.LocalGet(1).Return();
  ModuleBuilder mb;
  auto idx = mb.AddFunction(fb);
  EXPECT_TRUE(idx.ok());
  mb.Export("main", *idx);
  mb.SetMemoryBytes(memory_bytes);
  if (!data.empty()) mb.AddData(0, std::move(data));
  return EncodeModule(mb.Finish());
}

// Writes a recognizable pattern through every in-module write site: the
// three store widths, MemFill and MemCopy.
void EmitDirtyingWrites(FunctionBuilder* fb) {
  fb->I64Const(1000).I64Const(0x5ec7e75ec7e7).Emit(Op::kStore64);
  fb->I64Const(1012).I64Const(0x5ec7e7).Emit(Op::kStore32);
  fb->I64Const(1017).I64Const(0x5e).Emit(Op::kStore8);
  fb->I64Const(4096).I64Const(0x77).I64Const(300).Emit(Op::kMemFill);
  fb->I64Const(9000).I64Const(4096).I64Const(300).Emit(Op::kMemCopy);
}

uint64_t ScanAfter(CvmVm* vm, uint32_t memory_bytes = 1 << 20) {
  MapHostEnv env;
  auto result = ExecuteWire(vm, ScanModule(memory_bytes), "main", {}, &env, UnfusedConfig());
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? result->return_value : ~uint64_t(0);
}

TEST(CvmIsolationTest, ScanSeesDirtyingWritesInItsOwnRun) {
  // The scan is a valid detector: it reports the writes of its own run.
  FunctionBuilder fb(0, 2);
  EmitDirtyingWrites(&fb);
  EmitOrScan(&fb, 0, 1 << 20, 0, 1);
  fb.LocalGet(1).Return();
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok());
  EXPECT_NE(result->return_value, 0u);
}

TEST(CvmIsolationTest, CompletedRunLeavesNothing) {
  // One write site per run, so a site that fails to record its span is
  // not masked by another site's span.
  struct Site {
    const char* name;
    bool fusion;
    std::function<void(FunctionBuilder*)> emit;
  };
  const Site sites[] = {
      {"store64", false,
       [](FunctionBuilder* fb) { fb->I64Const(5000).I64Const(-1).Emit(Op::kStore64); }},
      {"store32", false,
       [](FunctionBuilder* fb) { fb->I64Const(5000).I64Const(-1).Emit(Op::kStore32); }},
      {"store8", false,
       [](FunctionBuilder* fb) { fb->I64Const(5000).I64Const(-1).Emit(Op::kStore8); }},
      {"const-store64 (fused)", true,
       [](FunctionBuilder* fb) { fb->I64Const(5000).I64Const(-1).Emit(Op::kStore64); }},
      {"memfill", false,
       [](FunctionBuilder* fb) {
         fb->I64Const(5000).I64Const(0x77).I64Const(300).Emit(Op::kMemFill);
       }},
      {"memcopy", false,
       [](FunctionBuilder* fb) {
         // Source bytes come from a data segment at 0 (recorded itself).
         fb->I64Const(5000).I64Const(0).I64Const(8).Emit(Op::kMemCopy);
       }},
  };
  MapHostEnv env;
  CvmVm vm;
  for (const Site& site : sites) {
    FunctionBuilder fb(0, 0);
    site.emit(&fb);
    fb.I64Const(0).Return();
    ExecConfig config = UnfusedConfig();
    config.enable_fusion = site.fusion;
    Bytes wire = BuildSingle(fb, {{0, ToBytes(std::string_view("copied!!"))}});
    ASSERT_TRUE(ExecuteWire(&vm, wire, "main", {}, &env, config).ok()) << site.name;
    EXPECT_EQ(ScanAfter(&vm), 0u) << site.name;
  }
}

TEST(CvmIsolationTest, TrappedRunLeavesNothing) {
  FunctionBuilder fb(0, 0);
  EmitDirtyingWrites(&fb);
  fb.Emit(Op::kUnreachable);
  MapHostEnv env;
  CvmVm vm;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.status().IsVmTrap());
  EXPECT_EQ(ScanAfter(&vm), 0u);
}

TEST(CvmIsolationTest, OutOfGasRunLeavesNothing) {
  FunctionBuilder fb(0, 0);
  EmitDirtyingWrites(&fb);
  auto spin = fb.NewLabel();
  fb.Bind(spin);
  fb.Br(spin);
  MapHostEnv env;
  CvmVm vm;
  ExecConfig config = UnfusedConfig();
  config.gas_limit = 10'000;
  auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, config);
  ASSERT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(ScanAfter(&vm), 0u);
}

TEST(CvmIsolationTest, HostWritesLeaveNothing) {
  // read_input, sha256 and get_storage write through MemWrite.
  FunctionBuilder fb(0, 0);
  fb.I64Const(20000).I64Const(4096).CallHost(kHostReadInput).Emit(Op::kDrop);
  fb.I64Const(20000).I64Const(13).I64Const(30000).CallHost(kHostSha256).Emit(Op::kDrop);
  fb.I64Const(0).I64Const(1).I64Const(40000).I64Const(100);
  fb.CallHost(kHostGetStorage).Return();
  MapHostEnv env;
  env.storage["k"] = ToBytes(std::string_view("stored secret"));
  CvmVm vm;
  auto wire = BuildSingle(fb, {{0, ToBytes(std::string_view("k"))}});
  auto result =
      ExecuteWire(&vm, wire, "main", AsByteView("decrypted in"), &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->return_value, 13u);
  EXPECT_EQ(ScanAfter(&vm), 0u);
}

TEST(CvmIsolationTest, NestedCallsDoNotShareMemory) {
  // Caller writes, then calls; the callee (a nested execution on the same
  // thread) scans its memory, writes, and returns the scan. The caller
  // then returns what it reads where the callee wrote.
  CvmVm vm;
  FunctionBuilder callee_fn(0, 2);
  EmitOrScan(&callee_fn, 0, 1 << 20, 0, 1);
  callee_fn.I64Const(2000).I64Const(0xca11ee).Emit(Op::kStore64);
  callee_fn.LocalGet(1).Return();
  Bytes callee = BuildSingle(callee_fn);

  FunctionBuilder caller_fn(0, 0);
  caller_fn.I64Const(1000).I64Const(0xca11e4).Emit(Op::kStore64);
  caller_fn.I64Const(0).I64Const(0).I64Const(0).I64Const(0).I64Const(0).I64Const(0);
  caller_fn.CallHost(kHostCall).Emit(Op::kDrop);
  caller_fn.I64Const(2000).Emit(Op::kLoad64).Return();

  MapHostEnv env;
  uint64_t callee_saw = ~uint64_t(0);
  env.call_hook = [&](ByteView, ByteView) -> Result<Bytes> {
    MapHostEnv callee_env;
    CONFIDE_ASSIGN_OR_RETURN(ExecutionResult r,
                             ExecuteWire(&vm, callee, "main", {}, &callee_env, UnfusedConfig()));
    callee_saw = r.return_value;
    return Bytes{};
  };
  auto result = ExecuteWire(&vm, BuildSingle(caller_fn), "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(callee_saw, 0u) << "callee read its caller's writes";
  EXPECT_EQ(result->return_value, 0u) << "caller read its callee's writes";
  // A nested call that traps leaves nothing behind either.
  env.call_hook = [&](ByteView, ByteView) -> Result<Bytes> {
    FunctionBuilder trap_fn(0, 0);
    EmitDirtyingWrites(&trap_fn);
    trap_fn.Emit(Op::kUnreachable);
    MapHostEnv callee_env;
    return ExecuteWire(&vm, BuildSingle(trap_fn), "main", {}, &callee_env, UnfusedConfig())
        .status();
  };
  EXPECT_TRUE(ExecuteWire(&vm, BuildSingle(caller_fn), "main", {}, &env, UnfusedConfig())
                  .status()
                  .IsVmTrap());
  EXPECT_EQ(ScanAfter(&vm), 0u);
}

TEST(CvmIsolationTest, ModulesOfOtherSizesAndSegmentsSeeZeros) {
  CvmVm vm;
  MapHostEnv env;
  // A 2 MiB module that only carries a data segment high in its memory.
  FunctionBuilder ret0(0, 0);
  ret0.I64Const(0).Return();
  ModuleBuilder big;
  big.Export("main", *big.AddFunction(ret0));
  big.SetMemoryBytes(2 << 20);
  big.AddData(3 << 19, ToBytes(std::string_view("segment of the 2 MiB module")));
  ASSERT_TRUE(ExecuteWire(&vm, EncodeModule(big.Finish()), "main", {}, &env, UnfusedConfig())
                  .ok());
  // A 64 KiB module with its own segment sees only that segment.
  auto small = ExecuteWire(&vm, ScanModule(64 << 10, ToBytes(std::string_view("small"))),
                          "main", {}, &env, UnfusedConfig());
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(small->return_value, 0u);
  // A 2 MiB reader sees neither module's segment.
  EXPECT_EQ(ScanAfter(&vm, 2 << 20), 0u);

  // Nor the last word of a 2 MiB memory.
  FunctionBuilder top(0, 0);
  top.I64Const((2 << 20) - 8).I64Const(-1).Emit(Op::kStore64);
  top.I64Const(0).Return();
  ModuleBuilder top_module;
  top_module.Export("main", *top_module.AddFunction(top));
  top_module.SetMemoryBytes(2 << 20);
  ASSERT_TRUE(ExecuteWire(&vm, EncodeModule(top_module.Finish()), "main", {}, &env,
                         UnfusedConfig())
                  .ok());
  EXPECT_EQ(ScanAfter(&vm, 2 << 20), 0u);
}

TEST(CvmIsolationTest, ReuseRezeroesOnlyTheWrittenSpan) {
  metrics::Counter* zeroed = metrics::GetCounter("vm.cvm.memory.zeroed_bytes");
  CvmVm vm;
  MapHostEnv env;
  FunctionBuilder idle(0, 0);
  idle.I64Const(0).Return();
  uint64_t before = zeroed->Value();
  ASSERT_TRUE(ExecuteWire(&vm, BuildSingle(idle), "main", {}, &env, UnfusedConfig()).ok());
  EXPECT_EQ(zeroed->Value() - before, 0u);

  FunctionBuilder writes(0, 0);
  EmitDirtyingWrites(&writes);  // lowest byte 1000, highest 9299
  writes.I64Const(0).Return();
  before = zeroed->Value();
  ASSERT_TRUE(ExecuteWire(&vm, BuildSingle(writes), "main", {}, &env, UnfusedConfig()).ok());
  EXPECT_EQ(zeroed->Value() - before, 9300u - 1000u);
}

// Property sweep: fusion on/off x fresh/reused pooled memory must agree
// for a family of loop programs.
class CvmConfigSweep : public ::testing::TestWithParam<std::tuple<bool, bool>> {};

TEST_P(CvmConfigSweep, LoopResultStableAcrossConfigs) {
  auto [fusion, repeat] = GetParam();
  for (int64_t n : {1, 17, 255}) {
    FunctionBuilder fb(0, 2);
    auto loop = fb.NewLabel();
    auto done = fb.NewLabel();
    fb.Bind(loop);
    fb.LocalGet(1).I64Const(n).Emit(Op::kGeS).BrIf(done);
    fb.LocalGet(0).I64Const(3).Emit(Op::kAdd).LocalSet(0);
    fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
    fb.Br(loop);
    fb.Bind(done);
    fb.LocalGet(0).Return();
    MapHostEnv env;
    CvmVm vm;
    ExecConfig config;
    config.enable_fusion = fusion;
    for (int run = 0; run < (repeat ? 2 : 1); ++run) {
      auto result = ExecuteWire(&vm, BuildSingle(fb), "main", {}, &env, config);
      ASSERT_TRUE(result.ok());
      EXPECT_EQ(result->return_value, uint64_t(3 * n));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllConfigs, CvmConfigSweep,
                         ::testing::Combine(::testing::Bool(), ::testing::Bool()));

}  // namespace
}  // namespace confide::vm::cvm
