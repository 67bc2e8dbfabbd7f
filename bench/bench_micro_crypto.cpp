/// \file bench_micro_crypto.cpp
/// \brief Microbenchmarks for the crypto substrate (everything here is
/// implemented from scratch; see src/crypto/). These set the cost floor
/// under the protocol-level numbers in bench_overhead_decomposition.
///
/// The hot primitives run as portable/accelerated pairs: AES-GCM seal and
/// open and SHA-256 pin each implementation (cpu.h), and secp256k1 runs
/// the `portable::` oracle against the fast path. After the runs the
/// accelerated ÷ portable speedup of every pair is written to metrics.json
/// as `crypto.bench.<pair>.speedup_milli` (plus both per-op times), next
/// to the `crypto.impl.*` gauges that say which ISA paths this CPU has;
/// tools/check_crypto_perf.py gates the ratios in CI. Env var
/// CONFIDE_METRICS_OUT overrides the metrics.json path.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "crypto/cpu.h"
#include "crypto/drbg.h"
#include "crypto/gcm.h"
#include "crypto/keccak.h"
#include "crypto/merkle.h"
#include "crypto/secp256k1.h"
#include "crypto/sha256.h"

using namespace confide;
using namespace confide::crypto;

namespace {

void GcmSeal(benchmark::State& state, CryptoImpl impl, size_t size) {
  Drbg rng(3);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(12);
  Bytes data = rng.Generate(size);
  auto gcm = AesGcm::Create(key, impl);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Seal(iv, data, AsByteView("aad")));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(size));
}

void GcmOpen(benchmark::State& state, CryptoImpl impl, size_t size) {
  Drbg rng(4);
  Bytes key = rng.Generate(32);
  Bytes iv = rng.Generate(12);
  auto gcm = AesGcm::Create(key, impl);
  Bytes sealed = *gcm->Seal(iv, rng.Generate(size), AsByteView("aad"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(gcm->Open(iv, sealed, AsByteView("aad")));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(size));
}

void Sha(benchmark::State& state, CryptoImpl impl, size_t size) {
  Bytes data = Drbg(1).Generate(size);
  for (auto _ : state) {
    Sha256 ctx(impl);
    ctx.Update(data);
    benchmark::DoNotOptimize(ctx.Finish());
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * int64_t(size));
}

void Sign(benchmark::State& state, CryptoImpl impl) {
  Drbg rng(5);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(rng.Generate(32));
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl == CryptoImpl::kPortable
                                 ? portable::EcdsaSign(kp.priv, digest)
                                 : EcdsaSign(kp.priv, digest));
  }
}

void Verify(benchmark::State& state, CryptoImpl impl) {
  Drbg rng(6);
  KeyPair kp = GenerateKeyPair(&rng);
  Hash256 digest = Sha256::Digest(rng.Generate(32));
  Signature sig = *EcdsaSign(kp.priv, digest);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl == CryptoImpl::kPortable
                                 ? portable::EcdsaVerify(kp.pub, digest, sig)
                                 : EcdsaVerify(kp.pub, digest, sig));
  }
}

void Ecdh(benchmark::State& state, CryptoImpl impl) {
  Drbg rng(7);
  KeyPair a = GenerateKeyPair(&rng);
  KeyPair b = GenerateKeyPair(&rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(impl == CryptoImpl::kPortable
                                 ? portable::EcdhSharedSecret(a.priv, b.pub)
                                 : EcdhSharedSecret(a.priv, b.pub));
  }
}

void BM_Keccak256(benchmark::State& state) {
  Bytes data = Drbg(2).Generate(size_t(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Keccak256::Digest(data));
  }
  state.SetBytesProcessed(int64_t(state.iterations()) * state.range(0));
}
BENCHMARK(BM_Keccak256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_MerkleBuild(benchmark::State& state) {
  Drbg rng(8);
  std::vector<Bytes> leaves;
  for (int i = 0; i < state.range(0); ++i) leaves.push_back(rng.Generate(200));
  for (auto _ : state) {
    MerkleTree tree(leaves);
    benchmark::DoNotOptimize(tree.Root());
  }
}
BENCHMARK(BM_MerkleBuild)->Arg(16)->Arg(256);

// Remembers each run's CPU time per iteration so main() can form ratios.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) cpu_time_[run.benchmark_name()] = run.GetAdjustedCPUTime();
    ConsoleReporter::ReportRuns(runs);
  }

  const std::map<std::string, double>& cpu_time() const { return cpu_time_; }

 private:
  std::map<std::string, double> cpu_time_;
};

}  // namespace

int main(int argc, char** argv) {
  // Each pair is "<op>/<arg>" run once per implementation.
  using PairFn = std::function<void(benchmark::State&, CryptoImpl)>;
  std::vector<std::pair<std::string, PairFn>> pairs;
  for (size_t size : {64, 1024, 4096}) {
    const std::string arg = std::to_string(size);
    pairs.push_back({"gcm_seal/" + arg,
                     [size](benchmark::State& s, CryptoImpl i) { GcmSeal(s, i, size); }});
    pairs.push_back({"gcm_open/" + arg,
                     [size](benchmark::State& s, CryptoImpl i) { GcmOpen(s, i, size); }});
  }
  for (size_t size : {64, 1024, 65536}) {
    pairs.push_back({"sha256/" + std::to_string(size),
                     [size](benchmark::State& s, CryptoImpl i) { Sha(s, i, size); }});
  }
  pairs.push_back({"ecdsa_sign", Sign});
  pairs.push_back({"ecdsa_verify", Verify});
  pairs.push_back({"ecdh", Ecdh});
  for (const auto& [name, fn] : pairs) {
    for (CryptoImpl impl : {CryptoImpl::kPortable, CryptoImpl::kAccelerated}) {
      const char* side = impl == CryptoImpl::kPortable ? "/portable" : "/accelerated";
      benchmark::RegisterBenchmark((name + side).c_str(),
                                   [fn = fn, impl](benchmark::State& s) { fn(s, impl); });
    }
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  CapturingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();

  DetectedCpu();  // registers the crypto.impl.* gauges
  for (const auto& [name, fn] : pairs) {
    auto portable = reporter.cpu_time().find(name + "/portable");
    auto accelerated = reporter.cpu_time().find(name + "/accelerated");
    if (portable == reporter.cpu_time().end() ||
        accelerated == reporter.cpu_time().end() || accelerated->second <= 0) {
      continue;  // filtered out
    }
    std::string prefix = "crypto.bench." + name;
    std::replace(prefix.begin(), prefix.end(), '/', '.');
    metrics::GetGauge(prefix + ".portable_ns")->Set(int64_t(portable->second));
    metrics::GetGauge(prefix + ".accelerated_ns")->Set(int64_t(accelerated->second));
    metrics::GetGauge(prefix + ".speedup_milli")
        ->Set(int64_t(1000 * portable->second / accelerated->second));
  }
  bench::DumpMetrics("metrics.json");
  return 0;
}
