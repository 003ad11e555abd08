// E7 — substrate microbenchmarks (no direct paper counterpart; these
// establish that the simulation substrate is fast enough for the
// strategy-space exploration in E6, bench_scenario_sweep, to count as
// "reasonable time").

#include <benchmark/benchmark.h>

#include "chain/blockchain.hpp"
#include "crypto/hashkey.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/secret.hpp"
#include "crypto/sha256.hpp"
#include "graph/digraph.hpp"

using namespace xchain;

namespace {

void BM_Sha256(benchmark::State& state) {
  const crypto::Bytes data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    auto d = crypto::sha256(data);
    benchmark::DoNotOptimize(d);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(32)->Arg(1024)->Arg(65536);

void BM_SchnorrSign(benchmark::State& state) {
  const auto kp = crypto::keygen("bench");
  const auto msg = crypto::to_bytes("cross-chain message");
  for (auto _ : state) {
    auto sig = crypto::sign(kp.priv, kp.pub, msg);
    benchmark::DoNotOptimize(sig);
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  const auto kp = crypto::keygen("bench");
  const auto msg = crypto::to_bytes("cross-chain message");
  const auto sig = crypto::sign(kp.priv, kp.pub, msg);
  for (auto _ : state) {
    auto ok = crypto::verify(kp.pub, msg, sig);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_SchnorrVerify);

void BM_HashkeyChainVerify(benchmark::State& state) {
  const int len = static_cast<int>(state.range(0));
  std::vector<crypto::KeyPair> keys;
  for (int i = 0; i < len; ++i) {
    keys.push_back(crypto::keygen("party-" + std::to_string(i)));
  }
  const auto secret = crypto::Secret::from_label("s");
  crypto::Hashkey key = crypto::make_leader_hashkey(
      secret.value(), static_cast<PartyId>(len - 1), keys.back());
  for (int i = len - 2; i >= 0; --i) {
    key = crypto::extend_hashkey(key, static_cast<PartyId>(i),
                                 keys[static_cast<std::size_t>(i)]);
  }
  const auto lookup = [&keys](PartyId p) { return keys[p].pub; };
  for (auto _ : state) {
    auto ok = crypto::verify_hashkey(key, secret.hashlock(), lookup);
    benchmark::DoNotOptimize(ok);
  }
}
BENCHMARK(BM_HashkeyChainVerify)->Arg(2)->Arg(4)->Arg(8)->Arg(16);

void BM_BlockProduction(benchmark::State& state) {
  const int txs = static_cast<int>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    chain::MultiChain chains;
    auto& bc = chains.add_chain("bench");
    bc.ledger_for_setup().mint(chain::Address::party(0), bc.native(),
                               1'000'000);
    for (int i = 0; i < txs; ++i) {
      bc.submit({0, "t", [](chain::TxContext& ctx) {
                   ctx.ledger().transfer(chain::Address::party(0),
                                         chain::Address::party(1),
                                         ctx.native(), 1);
                 }});
    }
    state.ResumeTiming();
    chains.produce_all(0);
    benchmark::DoNotOptimize(bc.height());
  }
  state.SetItemsProcessed(state.iterations() * txs);
}
BENCHMARK(BM_BlockProduction)->Arg(10)->Arg(100)->Arg(1000);

void BM_MinimumFvs(benchmark::State& state) {
  const auto g = graph::Digraph::complete(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto fvs = g.minimum_feedback_vertex_set();
    benchmark::DoNotOptimize(fvs);
  }
}
BENCHMARK(BM_MinimumFvs)->DenseRange(3, 7);

void BM_SimplePaths(benchmark::State& state) {
  const auto g = graph::Digraph::complete(
      static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto paths = g.simple_paths(0, 1);
    benchmark::DoNotOptimize(paths);
  }
}
BENCHMARK(BM_SimplePaths)->DenseRange(3, 8);

}  // namespace

BENCHMARK_MAIN();
