/// \file bench_fig12_abs_opts.cpp
/// \brief Reproduces **Figure 12**: the ABS-contract optimization ladder.
///
/// Paper ladder (cumulative):
///   BASE  — no code cache, no fusion, JSON-encoded asset, no pre-verify
///   OPT1  — code cache + memory/state cache        (~2x)
///   OPT2  — Flatbuffers-style record instead of JSON (~2.5x more)
///   OPT3  — pre-verification cache                  (~+6%)
///   OPT4  — instruction-set reduction + fusion      (~+17%)
///
/// This repro adds one rung past the paper's ladder:
///   OPT5  — batched state ocalls (write-back StateJournal + read-set
///           prefetch); gauged by enclave transitions/tx, which are
///           deterministic, rather than wall time.

#include <algorithm>
#include <vector>

#include "bench/bench_util.h"
#include "vm/cvm/builder.h"
#include "vm/cvm/interpreter.h"
#include "tests/test_util.h"

using namespace confide;
using namespace confide::bench;

namespace {

// Direct VM-level fusion effect on a loop kernel (where OPT4 acts): the
// end-to-end ladder rung can disappear into crypto/host noise when the
// contract is short, so the instruction-level gain is verified here.
double VmFusionSpeedup() {
  using namespace vm::cvm;
  FunctionBuilder fb(0, 2);
  auto loop = fb.NewLabel();
  auto done = fb.NewLabel();
  fb.Bind(loop);
  fb.LocalGet(1).I64Const(1'000'000).Emit(Op::kGeS).BrIf(done);
  fb.LocalGet(0).LocalGet(1).Emit(Op::kAdd).LocalSet(0);
  fb.LocalGet(1).I64Const(1).Emit(Op::kAdd).LocalSet(1);
  fb.Br(loop);
  fb.Bind(done);
  fb.LocalGet(0).Return();
  ModuleBuilder mb;
  auto idx = mb.AddFunction(fb);
  mb.Export("main", *idx);
  Bytes wire = EncodeModule(mb.Finish());
  testutil::MapHostEnv env;
  CvmVm vm;
  double secs[2];
  for (int fusion = 0; fusion <= 1; ++fusion) {
    vm::ExecConfig cfg;
    cfg.enable_fusion = fusion != 0;
    cfg.gas_limit = 1ull << 40;
    auto module = DecodeModule(wire, cfg.enable_fusion);
    (void)vm.ExecuteModule(*module, "main", {}, &env, cfg);  // warm up
    double best = 1e9;
    for (int rep = 0; rep < 3; ++rep) {
      best = std::min(best, TimeSeconds([&] {
               (void)vm.ExecuteModule(*module, "main", {}, &env, cfg);
             }));
    }
    secs[fusion] = best;
  }
  return secs[0] / secs[1];
}

struct Step {
  const char* label;
  core::CsOptions cs;
  bool flat_input;      // OPT2
  bool preverify;       // OPT3
  const char* paper_gain;
};

struct StepResult {
  double tps = 0;
  double transitions_per_tx = 0;  // deterministic (cost model), noise-free
};

StepResult RunStep(const Step& step, uint64_t seed) {
  core::SystemOptions options;
  options.seed = seed;
  options.cs = step.cs;
  auto sys = MustBootstrap(options);
  core::Client client(3, sys->pk_tx());

  MustDeploy(sys.get(), &client, "abs", workloads::AbsContractSource(), true);
  MustCall(sys.get(), &client, "abs", "abs_seed_whitelist", Bytes{});

  crypto::Drbg rng(5);
  constexpr int kTx = 100;
  std::vector<chain::Transaction> txs;
  for (int i = 0; i < kTx; ++i) {
    Bytes input = step.flat_input ? workloads::MakeAbsAssetFlat(&rng, i)
                                  : workloads::MakeAbsAssetJson(&rng, i);
    const char* entry = step.flat_input ? "abs_transfer" : "abs_transfer_json";
    auto sub = client.MakeConfidentialTx(chain::NamedAddress("abs"), entry,
                                         std::move(input));
    txs.push_back(sub->tx);
  }

  auto* engine = sys->confidential_engine();
  chain::CommitStateDb* state = sys->node()->state();
  if (step.preverify) {
    for (const chain::Transaction& tx : txs) (void)engine->PreVerify(tx);
  }
  uint64_t transitions_before = sys->platform()->stats().transitions.load();
  double secs = TimeSeconds([&] {
    for (const chain::Transaction& tx : txs) {
      auto receipt = engine->Execute(tx, state);
      if (!receipt.ok() || !receipt->success) {
        std::fprintf(stderr, "abs tx failed: %s\n",
                     receipt.ok() ? receipt->status_message.c_str()
                                  : receipt.status().ToString().c_str());
        std::abort();
      }
    }
  });
  StepResult result;
  result.tps = double(kTx) / secs;
  result.transitions_per_tx =
      double(sys->platform()->stats().transitions.load() - transitions_before) /
      double(kTx);
  return result;
}

}  // namespace

int main() {
  std::printf("== Figure 12: optimizations on the ABS contract (tx/s, median "
              "of 5 interleaved runs) ==\n\n");

  core::CsOptions base;
  base.enable_code_cache = false;
  base.enable_fusion = false;
  base.enable_state_cache = false;
  base.enable_preverify_cache = false;
  base.enable_ocall_batching = false;  // OPT5 is the last rung

  core::CsOptions opt1 = base;
  opt1.enable_code_cache = true;       // code cache
  opt1.enable_state_cache = true;      // memory management / state cache

  core::CsOptions opt3 = opt1;
  opt3.enable_preverify_cache = true;  // pre-verification

  core::CsOptions opt4 = opt3;
  opt4.enable_fusion = true;           // instruction optimization

  core::CsOptions opt5 = opt4;
  opt5.enable_ocall_batching = true;   // batched state ocalls

  const Step kSteps[] = {
      {"BASE (interpret+JSON)", base, false, false, "-"},
      {"+OPT1 code/mem cache", opt1, false, false, "~2x"},
      {"+OPT2 Flatbuffers", opt1, true, false, "~2.5x"},
      {"+OPT3 pre-verification", opt3, true, true, "~+6%"},
      {"+OPT4 instruction fusion", opt4, true, true, "~+17%"},
      {"+OPT5 ocall batching", opt5, true, true, "-"},
  };
  constexpr int kStepCount = int(sizeof(kSteps) / sizeof(kSteps[0]));

  // Each rung is the median of kReps runs. The runs are interleaved
  // across rungs (rep 0 of every rung, then rep 1, ...), so a slow phase
  // of the shared host lands on all rungs alike instead of on one.
  constexpr int kReps = 5;
  std::vector<double> samples[kStepCount];
  double trans[kStepCount];
  for (int rep = 0; rep < kReps; ++rep) {
    for (int i = 0; i < kStepCount; ++i) {
      StepResult result = RunStep(kSteps[i], 60'000 + i * 10 + rep);
      samples[i].push_back(result.tps);
      trans[i] = result.transitions_per_tx;  // identical across reps
    }
  }
  double tps[kStepCount];
  std::printf("%-26s %10s %17s %12s %12s %10s %10s\n", "configuration",
              "tx/s", "[min, max]", "step gain", "cumulative", "trans/tx", "paper");
  for (int i = 0; i < kStepCount; ++i) {
    std::vector<double>& s = samples[i];
    std::sort(s.begin(), s.end());
    tps[i] = s[s.size() / 2];
    double step_gain = i == 0 ? 1.0 : tps[i] / tps[i - 1];
    std::printf("%-26s %10.1f   [%6.0f, %6.0f] %11.2fx %11.2fx %10.1f %10s\n",
                kSteps[i].label, tps[i], s.front(), s.back(), step_gain,
                tps[i] / tps[0], trans[i], kSteps[i].paper_gain);
  }

  std::printf("\nshape checks (paper Figure 12):\n");
  double g1 = tps[1] / tps[0];
  double g2 = tps[2] / tps[1];
  double g3 = tps[3] / tps[2];
  double g4 = tps[4] / tps[3];
  std::printf("  OPT1 gives a significant gain (>1.2x): %s (%.2fx, paper ~2x)\n",
              g1 > 1.2 ? "yes" : "NO", g1);
  std::printf("  OPT2 gives a significant gain (>1.3x): %s (%.2fx, paper ~2.5x)\n",
              g2 > 1.3 ? "yes" : "NO", g2);
  std::printf("  OPT3 gives a modest gain: %s (%.2fx, paper ~1.06x)\n",
              g3 > 1.0 ? "yes" : "NO", g3);
  double fusion_micro = VmFusionSpeedup();
  std::printf("  OPT4 end-to-end: %.2fx (noise-bound on this host); direct "
              "VM-level fusion speedup: %.2fx (paper ~1.17x)\n",
              g4, fusion_micro);
  // OPT5 is judged on the deterministic cost model, not wall time: the
  // batched journal must strictly cut enclave transitions per tx.
  bool opt5_fewer_transitions = trans[5] < trans[4];
  std::printf("  OPT5 cuts enclave transitions/tx: %s (%.1f -> %.1f)\n",
              opt5_fewer_transitions ? "yes" : "NO", trans[4], trans[5]);
  bool monotone = tps[1] > tps[0] && tps[2] > tps[1] && tps[3] >= tps[2] * 0.95 &&
                  tps[4] >= tps[3] * 0.75 && tps[5] >= tps[4] * 0.75;
  std::printf("  ladder is (near-)monotone: %s\n", monotone ? "yes" : "NO");
  bool ok = g1 > 1.2 && g2 > 1.3 && monotone && fusion_micro > 1.15 &&
            opt5_fewer_transitions;
  std::printf("overall: %s\n", ok ? "PASS" : "MISMATCH");
  confide::bench::DumpMetrics();
  return ok ? 0 : 1;
}
