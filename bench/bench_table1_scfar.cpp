/// \file bench_table1_scfar.cpp
/// \brief Reproduces **Table 1**: the operation profile of one SCF-AR
/// asset-transfer flow.
///
/// Paper row | Duration (ms) | Counts | Ratio
///   Contract Call          32.46   31   86.1%
///   GetStorage              4.80  151   12.7%
///   SetStorage              0.55    9    1.5%
///   Transaction Verify      0.22    1    0.6%
///   Transaction Decryption  0.10    1    0.3%
///
/// We measure the real operation counts from the enclave, the end-to-end
/// execution wall time, and attribute per-category durations by
/// micro-measuring each operation's cost on this host.

#include <algorithm>

#include "bench/bench_util.h"
#include "confide/protocol.h"

using namespace confide;
using namespace confide::bench;

int main() {
  std::printf("== Table 1: operations of the SCF-AR contract flow ==\n\n");

  core::SystemOptions options;
  options.seed = 777;
  options.block_max_bytes = 64 * 1024;
  auto sys = MustBootstrap(options);
  core::Client client(9, sys->pk_tx());

  for (const auto& [name, source] : workloads::ScfArContracts()) {
    MustDeploy(sys.get(), &client, name, source, true);
  }
  MustCall(sys.get(), &client, "scf.manager", "seed", Bytes{});
  MustCall(sys.get(), &client, "scf.fee", "seed", Bytes{});
  MustCall(sys.get(), &client, "scf.account", "seed",
           ToBytes(std::string_view("supplier-alpha")));
  MustCall(sys.get(), &client, "scf.account", "seed",
           ToBytes(std::string_view("bank-one")));
  for (int i = 0; i < 4; ++i) {
    MustCall(sys.get(), &client, "scf.asset", "seed",
             ToBytes("ar-cert-" + std::to_string(i) + "\nsupplier-alpha"));
  }

  // Transfers run without the pre-verification cache assist (Table 1
  // profiles a full execution including decrypt + verify). They run in
  // rounds interleaved with the verify and decrypt micro-measures, and each
  // cost is the median over rounds: a scheduling hiccup skews one round,
  // not the verify+decrypt share the shape check bounds.
  constexpr int kRounds = 9;
  constexpr int kTransfersPerRound = 8;
  constexpr int kSigRuns = 20;  // per round
  constexpr int kTransfers = kRounds * kTransfersPerRound;
  crypto::Drbg rng(11);
  std::vector<chain::Transaction> txs;
  for (int i = 0; i <= kTransfers; ++i) {
    auto sub = client.MakeConfidentialTx(chain::NamedAddress("scf.gateway"),
                                         "transfer",
                                         workloads::MakeScfTransferInput(&rng, i));
    txs.push_back(sub->tx);
  }

  auto* engine = sys->confidential_engine();
  chain::CommitStateDb* state = sys->node()->state();
  auto transfer = [&](const chain::Transaction& tx) {
    auto receipt = engine->Execute(tx, state);
    if (!receipt.ok() || !receipt->success) {
      std::fprintf(stderr, "transfer failed: %s\n",
                   receipt.ok() ? receipt->status_message.c_str()
                                : receipt.status().ToString().c_str());
      std::abort();
    }
  };
  transfer(txs[0]);  // warm-up (code caches)

  crypto::Drbg rng2(3);
  crypto::KeyPair kp = crypto::GenerateKeyPair(&rng2);
  crypto::Hash256 digest = crypto::Sha256::Digest(AsByteView("msg"));
  auto sig = crypto::EcdsaSign(kp.priv, digest);
  core::TxKey k_tx{};
  auto envelope = core::SealEnvelope(kp.pub, k_tx, crypto::Drbg(4).Generate(300), 1);

  // Per-call VM work a steady-state transfer must not repeat: linear
  // memory re-zeroed, modules decoded, bytes hashed with SHA-256. Counted
  // over the transfers only.
  metrics::Counter* zeroed = metrics::GetCounter("vm.cvm.memory.zeroed_bytes");
  metrics::Counter* decodes = metrics::GetCounter("vm.cvm.module.decode.count");
  metrics::Counter* sha256 = metrics::GetCounter("crypto.sha256.bytes");
  uint64_t zeroed_total = 0, decodes_total = 0, sha256_total = 0;
  std::vector<double> flow_samples, verify_samples, decrypt_samples;
  size_t next = 1;
  for (int round = 0; round < kRounds; ++round) {
    const uint64_t zeroed_before = zeroed->Value();
    const uint64_t decodes_before = decodes->Value();
    const uint64_t sha256_before = sha256->Value();
    const double seconds = TimeSeconds([&] {
      for (int i = 0; i < kTransfersPerRound; ++i) transfer(txs[next++]);
    });
    zeroed_total += zeroed->Value() - zeroed_before;
    decodes_total += decodes->Value() - decodes_before;
    sha256_total += sha256->Value() - sha256_before;
    flow_samples.push_back(seconds / kTransfersPerRound * 1e3);
    verify_samples.push_back(TimeSeconds([&] {
                               for (int i = 0; i < kSigRuns; ++i) {
                                 (void)crypto::EcdsaVerify(kp.pub, digest, *sig);
                               }
                             }) /
                             kSigRuns * 1e3);
    decrypt_samples.push_back(TimeSeconds([&] {
                                for (int i = 0; i < kSigRuns; ++i) {
                                  (void)core::OpenEnvelope(kp.priv, *envelope);
                                }
                              }) /
                              kSigRuns * 1e3);
  }
  auto median = [](std::vector<double> samples) {
    std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                     samples.end());
    return samples[samples.size() / 2];
  };
  const double flow_ms = median(flow_samples);
  const double verify_ms = median(verify_samples);
  const double decrypt_ms = median(decrypt_samples);
  auto stats = engine->last_response();
  const double zeroed_per_tx = double(zeroed_total) / kTransfers;
  const double decodes_per_tx = double(decodes_total) / kTransfers;
  const double sha256_per_tx = double(sha256_total) / kTransfers;

  // Micro-measure the state-op costs on this host.
  core::StateKey k_states{};
  crypto::Drbg(1).Fill(k_states.data(), 32);
  Bytes value = crypto::Drbg(2).Generate(96);
  Bytes aad = core::StateAad(AsByteView("contract"), AsByteView("key"), 1);
  auto sealed_value = core::SealState(k_states, value, aad);

  constexpr int kMicro = 2000;
  double get_ms = TimeSeconds([&] {
                    for (int i = 0; i < kMicro; ++i) {
                      (void)core::OpenState(k_states, *sealed_value, aad);
                    }
                  }) /
                  kMicro * 1e3;
  double set_ms = TimeSeconds([&] {
                    for (int i = 0; i < kMicro; ++i) {
                      (void)core::SealState(k_states, value, aad);
                    }
                  }) /
                  kMicro * 1e3;

  double get_total = get_ms * double(stats.get_storage_ops);
  double set_total = set_ms * double(stats.set_storage_ops);
  double call_total = flow_ms - get_total - set_total - verify_ms - decrypt_ms;
  if (call_total < 0) call_total = 0;
  double sum = call_total + get_total + set_total + verify_ms + decrypt_ms;

  std::printf("%-24s %14s %8s %8s   %s\n", "Method", "Duration (ms)", "Counts",
              "Ratio", "paper: duration / counts / ratio");
  std::printf("%-24s %14.2f %8lu %7.1f%%   32.46 / 31 / 86.1%%\n",
              "Contract Call", call_total, (unsigned long)stats.contract_calls,
              call_total / sum * 100);
  std::printf("%-24s %14.2f %8lu %7.1f%%    4.80 / 151 / 12.7%%\n", "GetStorage",
              get_total, (unsigned long)stats.get_storage_ops,
              get_total / sum * 100);
  std::printf("%-24s %14.2f %8lu %7.1f%%    0.55 / 9 / 1.5%%\n", "SetStorage",
              set_total, (unsigned long)stats.set_storage_ops,
              set_total / sum * 100);
  std::printf("%-24s %14.2f %8d %7.1f%%    0.22 / 1 / 0.6%%\n",
              "Transaction Verify", verify_ms, 1, verify_ms / sum * 100);
  std::printf("%-24s %14.2f %8d %7.1f%%    0.10 / 1 / 0.3%%\n",
              "Transaction Decryption", decrypt_ms, 1, decrypt_ms / sum * 100);
  std::printf("%-24s %14.2f\n\n", "Total flow", flow_ms);

  std::printf("per steady-state transfer: %.0f bytes of VM memory zeroed, "
              "%.2f module decodes, %.0f bytes of SHA-256\n\n",
              zeroed_per_tx, decodes_per_tx, sha256_per_tx);

  bool calls_dominate = call_total / sum > 0.5;
  bool gets_second = get_total > set_total && get_total < call_total;
  bool tx_ops_negligible = (verify_ms + decrypt_ms) / sum < 0.2;
  std::printf("shape checks (paper Table 1):\n");
  std::printf("  contract calls dominate (>50%%): %s\n",
              calls_dominate ? "yes" : "NO");
  std::printf("  GetStorage second, SetStorage small: %s\n",
              gets_second ? "yes" : "NO");
  std::printf("  verify+decrypt negligible: %s\n",
              tx_ops_negligible ? "yes" : "NO");
  // A cached call decodes nothing, hashes no code and re-zeroes only the
  // linear memory it wrote (a fresh 1 MiB per execution was 32 MiB).
  bool memory_pooled = zeroed_per_tx < double(1 << 20);
  bool no_decodes = decodes_per_tx == 0;
  bool no_code_hashing = sha256_per_tx < 8 * 1024;
  std::printf("per-call VM work checks:\n");
  std::printf("  VM memory zeroed < 1 MiB per transfer: %s\n",
              memory_pooled ? "yes" : "NO");
  std::printf("  no module decodes in steady state: %s\n",
              no_decodes ? "yes" : "NO");
  std::printf("  SHA-256 < 8 KB per transfer: %s\n",
              no_code_hashing ? "yes" : "NO");
  bool ok = calls_dominate && gets_second && tx_ops_negligible && memory_pooled &&
            no_decodes && no_code_hashing;
  std::printf("overall: %s\n", ok ? "PASS" : "MISMATCH");
  confide::bench::DumpMetrics();
  return ok ? 0 : 1;
}
