#include <gtest/gtest.h>

#include "common/endian.h"
#include "lang/compiler.h"
#include "lang/codegen_evm.h"
#include "lang/parser.h"
#include "tests/test_util.h"
#include "vm/cvm/interpreter.h"
#include "vm/evm/evm.h"

namespace confide::lang {
namespace {

using testutil::MapHostEnv;

struct RunOutcome {
  uint64_t return_value = 0;
  Bytes output;
  std::map<std::string, Bytes> storage;
  std::vector<std::string> logs;
};

Result<RunOutcome> RunOnCvm(std::string_view source, std::string_view entry,
                            ByteView input, MapHostEnv* env) {
  CONFIDE_ASSIGN_OR_RETURN(Bytes module, Compile(source, VmTarget::kCvm));
  vm::cvm::CvmVm vm;
  vm::ExecConfig config;
  CONFIDE_ASSIGN_OR_RETURN(vm::ExecutionResult result,
                           testutil::ExecuteWire(&vm, module, entry, input, env, config));
  return RunOutcome{result.return_value, result.output, env->storage, env->logs};
}

Result<RunOutcome> RunOnEvm(std::string_view source, std::string_view entry,
                            ByteView input, MapHostEnv* env) {
  CONFIDE_ASSIGN_OR_RETURN(Bytes code, Compile(source, VmTarget::kEvm));
  Bytes calldata(4);
  StoreBe32(calldata.data(), EvmSelector(entry));
  Append(&calldata, input);
  vm::evm::EvmVm vm;
  vm::ExecConfig config;
  CONFIDE_ASSIGN_OR_RETURN(vm::ExecutionResult result,
                           vm.Execute(code, calldata, env, config));
  return RunOutcome{result.return_value, result.output, env->storage, env->logs};
}

// Runs on both VMs and checks they agree; returns the CVM outcome.
RunOutcome RunBoth(std::string_view source, std::string_view entry,
                   ByteView input = {}) {
  MapHostEnv cvm_env, evm_env;
  auto cvm = RunOnCvm(source, entry, input, &cvm_env);
  auto evm = RunOnEvm(source, entry, input, &evm_env);
  EXPECT_TRUE(cvm.ok()) << "cvm: " << cvm.status().ToString();
  EXPECT_TRUE(evm.ok()) << "evm: " << evm.status().ToString();
  if (!cvm.ok() || !evm.ok()) return RunOutcome{};
  EXPECT_EQ(cvm->return_value, evm->return_value) << "return value diverged";
  EXPECT_EQ(HexEncode(cvm->output), HexEncode(evm->output)) << "output diverged";
  EXPECT_EQ(cvm->logs, evm->logs) << "logs diverged";
  return *cvm;
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(ParserTest, ParsesFunctionsAndStatements) {
  auto program = Parse(R"(
    fn add(a, b) { return a + b; }
    fn main() {
      var x = add(1, 2);
      if (x > 2) { x = x * 10; } else { x = 0; }
      while (x < 100) { x = x + 1; }
      return x;
    }
  )");
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  EXPECT_EQ(program->functions.size(), 2u);
  EXPECT_EQ(program->functions[0].params.size(), 2u);
}

TEST(ParserTest, RejectsSyntaxErrors) {
  EXPECT_FALSE(Parse("fn f( { }").ok());
  EXPECT_FALSE(Parse("fn f() { var = 3; }").ok());
  EXPECT_FALSE(Parse("fn f() { return 1 }").ok());  // missing semicolon
  EXPECT_FALSE(Parse("f() {}").ok());               // missing fn
  EXPECT_FALSE(Parse("fn f() { if x { } }").ok());  // missing parens
}

TEST(ParserTest, PrecedenceIsCLike) {
  // 2 + 3 * 4 == 14, (2 + 3) * 4 == 20, comparisons bind looser.
  auto result = RunBoth(R"(
    fn main() {
      if (2 + 3 * 4 != 14) { return 1; }
      if ((2 + 3) * 4 != 20) { return 2; }
      if ((1 < 2) != 1) { return 3; }
      if ((1 | 2 & 3) != 3) { return 4; }
      if ((8 >> 1 + 1) != 2) { return 5; }
      return 0;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 0u);
}

// ---------------------------------------------------------------------------
// Differential execution: the same source must agree across backends.
// ---------------------------------------------------------------------------

TEST(CclDiffTest, ArithmeticIncludingNegativesAndDivision) {
  auto result = RunBoth(R"(
    fn main() {
      var a = 0 - 20;
      var b = a / 3;       // -6 (signed division)
      var c = a % 7;       // -6
      var d = (a < 0) + (b == 0 - 6) + (c == 0 - 6);
      return d;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 3u);
}

TEST(CclDiffTest, ShiftAndBitwiseSemantics) {
  auto result = RunBoth(R"(
    fn main() {
      var x = 1 << 40;
      var y = x >> 8;
      var n = 0 - 256;
      var z = n >> 4;       // arithmetic: -16
      if (z != 0 - 16) { return 1; }
      if ((~0) != 0 - 1) { return 2; }
      if ((x ^ x) != 0) { return 3; }
      return y;
    }
  )", "main");
  EXPECT_EQ(result.return_value, uint64_t(1) << 32);
}

TEST(CclDiffTest, ShortCircuitEvaluation) {
  // Division by zero on the skipped side must not execute.
  auto result = RunBoth(R"(
    fn boom() { return 1 / 0; }
    fn main() {
      var a = 0;
      if (a != 0 && boom() == 1) { return 1; }
      if (a == 0 || boom() == 1) { return 42; }
      return 2;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 42u);
}

TEST(CclDiffTest, WhileWithBreakContinue) {
  auto result = RunBoth(R"(
    fn main() {
      var sum = 0;
      var i = 0;
      while (i < 100) {
        i = i + 1;
        if (i % 2 == 0) { continue; }
        if (i > 20) { break; }
        sum = sum + i;
      }
      return sum;  // 1+3+...+19 = 100
    }
  )", "main");
  EXPECT_EQ(result.return_value, 100u);
}

TEST(CclDiffTest, FunctionCallsAndRecursion) {
  auto result = RunBoth(R"(
    fn fib(n) {
      if (n < 2) { return n; }
      return fib(n - 1) + fib(n - 2);
    }
    fn main() { return fib(15); }
  )", "main");
  EXPECT_EQ(result.return_value, 610u);
}

TEST(CclDiffTest, MemoryAndAlloc) {
  auto result = RunBoth(R"(
    fn main() {
      var p = alloc(64);
      var q = alloc(64);
      if (q <= p) { return 1; }  // distinct regions
      store8(p, 17);
      store8(q, 34);
      if (load8(p) != 17 || load8(q) != 34) { return 2; }
      memset(p, 7, 16);
      memcpy(q, p, 16);
      if (load8(q + 15) != 7) { return 3; }
      return 0;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 0u);
}

TEST(CclDiffTest, StringsAndLiteralPool) {
  auto result = RunBoth(R"(
    fn main() {
      var s = "hello";
      var t = "hello";
      if (s != t) { return 1; }   // interned
      if (strlen(s) != 5) { return 2; }
      var buf = alloc(32);
      var end = str_append(buf, s);
      end = str_append(end, " world");
      if (end - buf != 11) { return 3; }
      write_output(buf, 11);
      return 0;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 0u);
  EXPECT_EQ(ToString(result.output), "hello world");
}

TEST(CclDiffTest, InputEchoAndSize) {
  auto result = RunBoth(R"(
    fn main() {
      var n = input_size();
      var buf = alloc(n + 1);
      var copied = read_input(buf, n);
      write_output(buf, copied);
      return n;
    }
  )", "main", AsByteView("payload-bytes"));
  EXPECT_EQ(result.return_value, 13u);
  EXPECT_EQ(ToString(result.output), "payload-bytes");
}

TEST(CclDiffTest, StorageRoundTripAcrossBackends) {
  auto result = RunBoth(R"(
    fn main() {
      var key = "account:alice";
      var val = alloc(16);
      memset(val, 65, 8);
      set_storage(key, strlen(key), val, 8);
      var out = alloc(64);
      var n = get_storage(key, strlen(key), out, 64);
      if (n != 8) { return 1; }
      if (load8(out) != 65 || load8(out + 7) != 65) { return 2; }
      return 0;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 0u);
}

TEST(CclDiffTest, HashBuiltinsProduceRealDigests) {
  auto result = RunBoth(R"(
    fn main() {
      var msg = "abc";
      var d = alloc(32);
      sha256(msg, 3, d);
      if (load8(d) != 186) { return 1; }   // 0xba
      keccak256(msg, 3, d);
      if (load8(d) != 78) { return 2; }    // 0x4e
      write_output(d, 32);
      return 0;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 0u);
  EXPECT_EQ(HexEncode(result.output),
            "4e03657aea45a94fc7d47ba826c8d667c0d1e6e33a64a036ec44f58fa12d6c45");
}

TEST(CclDiffTest, DecimalConversionHelpers) {
  auto result = RunBoth(R"(
    fn main() {
      var buf = alloc(32);
      var n = u64_to_dec(1234567, buf);
      if (n != 7) { return 1; }
      var v = dec_to_u64(buf);
      if (v != 1234567) { return 2; }
      write_output(buf, n);
      return 0;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 0u);
  EXPECT_EQ(ToString(result.output), "1234567");
}

TEST(CclDiffTest, JsonScanningInContract) {
  const char* source = R"(
    fn main() {
      var n = input_size();
      var json = alloc(n + 1);
      read_input(json, n);
      var count = json_count_fields(json, n);
      var vp = json_find_field(json, n, "amount");
      if (vp == 0) { return 1; }
      var amount = dec_to_u64(vp);
      var namep = json_find_field(json, n, "name");
      if (namep == 0) { return 2; }
      var name = alloc(64);
      var namelen = json_copy_string(namep, name, 64);
      write_output(name, namelen);
      return count * 1000000 + amount;
    }
  )";
  std::string json =
      R"({"id": 7, "name": "alice corp", "nested": {"a": [1, 2, 3]}, )"
      R"("amount": 98765, "flag": true})";
  auto result = RunBoth(source, "main", AsByteView(json));
  EXPECT_EQ(result.return_value, 5u * 1000000 + 98765);
  EXPECT_EQ(ToString(result.output), "alice corp");
}

TEST(CclDiffTest, CrossContractCall) {
  const char* source = R"(
    fn main() {
      var addr = "bank";
      var in = "deposit";
      var out = alloc(64);
      var n = call(addr, 4, in, 7, out, 64);
      write_output(out, n);
      return n;
    }
  )";
  MapHostEnv cvm_env, evm_env;
  auto hook = [](ByteView address, ByteView input) -> Result<Bytes> {
    EXPECT_EQ(ToString(address), "bank");
    EXPECT_EQ(ToString(input), "deposit");
    return ToBytes(std::string_view("ack"));
  };
  cvm_env.call_hook = hook;
  evm_env.call_hook = hook;
  auto cvm = RunOnCvm(source, "main", {}, &cvm_env);
  auto evm = RunOnEvm(source, "main", {}, &evm_env);
  ASSERT_TRUE(cvm.ok()) << cvm.status().ToString();
  ASSERT_TRUE(evm.ok()) << evm.status().ToString();
  EXPECT_EQ(cvm->return_value, 3u);
  EXPECT_EQ(evm->return_value, 3u);
  EXPECT_EQ(ToString(cvm->output), "ack");
  EXPECT_EQ(ToString(evm->output), "ack");
}

TEST(CclDiffTest, AbortTrapsOnBothBackends) {
  const char* source = R"(fn main() { abort(9); return 0; })";
  MapHostEnv env1, env2;
  EXPECT_TRUE(RunOnCvm(source, "main", {}, &env1).status().IsVmTrap());
  EXPECT_TRUE(RunOnEvm(source, "main", {}, &env2).status().IsVmTrap());
}

TEST(CclDiffTest, LogsReachTheEnvironment) {
  auto result = RunBoth(R"(
    fn main() {
      var msg = "asset transferred";
      log(msg, strlen(msg));
      return 0;
    }
  )", "main");
  ASSERT_EQ(result.logs.size(), 1u);
  EXPECT_EQ(result.logs[0], "asset transferred");
}

TEST(CclDiffTest, BlockScopingAndShadowing) {
  auto result = RunBoth(R"(
    fn main() {
      var x = 1;
      {
        var y = 10;
        x = x + y;
      }
      {
        var y = 100;
        x = x + y;
      }
      return x;
    }
  )", "main");
  EXPECT_EQ(result.return_value, 111u);
}

// ---------------------------------------------------------------------------
// Semantic errors
// ---------------------------------------------------------------------------

TEST(CclSemanticsTest, UndefinedVariableRejected) {
  EXPECT_FALSE(Compile("fn main() { return nope; }", VmTarget::kCvm).ok());
  EXPECT_FALSE(Compile("fn main() { return nope; }", VmTarget::kEvm).ok());
}

TEST(CclSemanticsTest, UnknownFunctionRejected) {
  EXPECT_FALSE(Compile("fn main() { return missing(); }", VmTarget::kCvm).ok());
}

TEST(CclSemanticsTest, ArityMismatchRejected) {
  const char* source = "fn f(a) { return a; } fn main() { return f(1, 2); }";
  EXPECT_FALSE(Compile(source, VmTarget::kCvm).ok());
  EXPECT_FALSE(Compile(source, VmTarget::kEvm).ok());
}

TEST(CclSemanticsTest, BuiltinArityChecked) {
  EXPECT_FALSE(Compile("fn main() { return load8(); }", VmTarget::kCvm).ok());
  EXPECT_FALSE(Compile("fn main() { return load8(1, 2); }", VmTarget::kEvm).ok());
}

TEST(CclSemanticsTest, BreakOutsideLoopRejected) {
  EXPECT_FALSE(Compile("fn main() { break; return 0; }", VmTarget::kCvm).ok());
  EXPECT_FALSE(Compile("fn main() { break; return 0; }", VmTarget::kEvm).ok());
}

TEST(CclSemanticsTest, DuplicateFunctionRejected) {
  const char* source = "fn f() { return 1; } fn f() { return 2; }";
  EXPECT_FALSE(Compile(source, VmTarget::kCvm).ok());
}

// Parameterized sweep: a compute kernel over a range of inputs must agree
// across backends (differential property test).
class CclKernelSweep : public ::testing::TestWithParam<int> {};

TEST_P(CclKernelSweep, CollatzStepsAgree) {
  int n = GetParam();
  std::string source = R"(
    fn steps(n) {
      var count = 0;
      while (n != 1) {
        if (n % 2 == 0) { n = n / 2; } else { n = 3 * n + 1; }
        count = count + 1;
      }
      return count;
    }
    fn main() { return steps()" + std::to_string(n) + R"(); }
  )";
  RunBoth(source, "main");  // asserts agreement internally
}

INSTANTIATE_TEST_SUITE_P(SmallInputs, CclKernelSweep,
                         ::testing::Values(1, 2, 3, 7, 27, 97, 871));

}  // namespace
}  // namespace confide::lang
