// Shared-chain load generator (src/load/load_gen.hpp) and the
// instance-namespacing layer under it (core/binding.hpp bound worlds).
//
// Pinned here:
//   * namespacing — two instances bound to one shared MultiChain at
//     disjoint account bases produce exactly the payoffs of a private
//     solo world: ledger rows never bleed across instances;
//   * determinism — the LoadReport is identical at any thread count
//     (modulo the wall block: wall_seconds, phase_seconds, pool_ticks, as
//     load::deterministic_mismatch compares it) and for repeated runs of
//     one seed, also when the actor phase runs sharded on the worker pool;
//   * the audit contract — an uncongested load is violation-free, and a
//     congested one attributes every violation to the chain faults
//     (unattributed == 0, the xchain-bench gate);
//   * the report itself — a 2,000-user congested run's deterministic
//     fields, pinned value by value at 1, 2 and 4 threads.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "core/binding.hpp"
#include "load/load_gen.hpp"
#include "sim/party.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain {
namespace {

sim::Schedule conforming(std::size_t parties) {
  sim::Schedule s;
  s.plans.assign(parties, sim::DeviationPlan::conforming());
  s.label = "conform";
  return s;
}

/// Drives bound instances on a shared MultiChain to completion, the same
/// tick discipline as the load loop (tick -> drain -> produce).
void drive(chain::MultiChain& chains,
           std::vector<sim::LoadInstance*> instances,
           std::vector<sim::TxSink*> sinks) {
  Tick end = 0;
  for (const sim::LoadInstance* inst : instances) {
    end = std::max(end, inst->end_tick());
  }
  for (Tick now = 0; now < end; ++now) {
    for (std::size_t i = 0; i < instances.size(); ++i) {
      for (sim::Party* actor : instances[i]->actors()) {
        actor->tick(chains, now);
      }
    }
    for (sim::TxSink* sink : sinks) sink->drain();
    chains.produce_all(now);
  }
}

TEST(LoadInstanceNamespacing, TwoInstancesMatchSoloPayoffs) {
  const sim::ProtocolRegistry& reg = sim::ProtocolRegistry::global();
  const auto adapter = reg.make("two-party");

  // Reference: one conforming run on a private world.
  const std::vector<sim::PartyOutcome> solo = adapter->run(conforming(2));

  // Two instances sharing one MultiChain at disjoint account bases.
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  core::WorldBinding b0;
  b0.chains = &chains;
  b0.party_base = 0;
  b0.tag = "two-party#0";
  core::WorldBinding b1;
  b1.chains = &chains;
  b1.party_base = 2;
  b1.tag = "two-party#1";
  const auto i0 = adapter->bind_instance(b0);
  const auto i1 = adapter->bind_instance(b1);

  sim::TxSink s0, s1;
  for (sim::Party* p : i0->actors()) p->set_tx_sink(&s0);
  for (sim::Party* p : i1->actors()) p->set_tx_sink(&s1);
  drive(chains, {i0.get(), i1.get()}, {&s0, &s1});

  // Both instances complete with exactly the solo payoffs — a shared
  // ledger row would show up as a by_symbol / coin_delta difference.
  for (const auto& bound : {i0->collect(), i1->collect()}) {
    ASSERT_EQ(bound.size(), solo.size());
    for (std::size_t p = 0; p < solo.size(); ++p) {
      EXPECT_EQ(bound[p].name, solo[p].name);
      EXPECT_EQ(bound[p].payoff.coin_delta, solo[p].payoff.coin_delta);
      EXPECT_EQ(bound[p].payoff.value_delta, solo[p].payoff.value_delta);
      EXPECT_EQ(bound[p].payoff.by_symbol, solo[p].payoff.by_symbol);
    }
  }
}

TEST(LoadInstanceNamespacing, StaggeredArrivalMatchesSoloPayoffs) {
  const sim::ProtocolRegistry& reg = sim::ProtocolRegistry::global();
  const auto adapter = reg.make("broker");
  const std::vector<sim::PartyOutcome> solo = adapter->run(conforming(3));

  // The second instance arrives mid-run (start = 5): its deadline ladder
  // is offset, its endowments are minted on live chains.
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  core::WorldBinding b0;
  b0.chains = &chains;
  b0.party_base = 0;
  b0.tag = "broker#0";
  core::WorldBinding b1;
  b1.chains = &chains;
  b1.party_base = 3;
  b1.start = 5;
  b1.tag = "broker#1";
  const auto i0 = adapter->bind_instance(b0);
  sim::TxSink s0, s1;
  for (sim::Party* p : i0->actors()) p->set_tx_sink(&s0);

  std::unique_ptr<sim::LoadInstance> i1;
  Tick end = i0->end_tick();
  for (Tick now = 0; now < end; ++now) {
    if (now == 5) {
      i1 = adapter->bind_instance(b1);
      for (sim::Party* p : i1->actors()) p->set_tx_sink(&s1);
      end = std::max(end, i1->end_tick());
    }
    for (sim::Party* actor : i0->actors()) actor->tick(chains, now);
    if (i1) {
      for (sim::Party* actor : i1->actors()) actor->tick(chains, now);
    }
    s0.drain();
    s1.drain();
    chains.produce_all(now);
  }

  for (const auto& bound : {i0->collect(), i1->collect()}) {
    ASSERT_EQ(bound.size(), solo.size());
    for (std::size_t p = 0; p < solo.size(); ++p) {
      EXPECT_EQ(bound[p].payoff.by_symbol, solo[p].payoff.by_symbol)
          << bound[p].name;
    }
  }
}

TEST(LoadGenerator, UncongestedLoadIsViolationFree) {
  load::LoadConfig cfg;
  cfg.users = 60;
  cfg.seed = 11;
  cfg.block_capacity = 0;  // unbounded blocks: the reliable substrate
  cfg.mix = {{"two-party", 1}, {"broker", 1}, {"bridge-transfer", 1}};
  const load::LoadReport r = load::run_load(cfg);
  EXPECT_EQ(r.instances, 60u);
  EXPECT_TRUE(r.violations.empty())
      << r.violations.front().str();
  EXPECT_EQ(r.unattributed, 0u);
  std::size_t total = 0;
  for (const load::ProtocolStats& p : r.per_protocol) total += p.instances;
  EXPECT_EQ(total, 60u);
  EXPECT_GT(r.txs_included, 0u);
  EXPECT_GT(r.latency.p50, 0);
}

TEST(LoadGenerator, ReportIsThreadCountInvariant) {
  load::LoadConfig cfg;
  cfg.users = 200;
  cfg.seed = 3;
  cfg.block_capacity = 3;  // congested: fee escalation in play
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};

  cfg.threads = 1;
  const load::LoadReport serial = load::run_load(cfg);
  cfg.threads = 4;
  const load::LoadReport parallel = load::run_load(cfg);
  EXPECT_EQ(load::deterministic_mismatch(serial, parallel), "");
}

TEST(LoadGenerator, ShardedActorPhaseIsThreadCountInvariant) {
  // Every instance arrives at tick 0, so every tick holds up to 1,000
  // active: enough for a grain per shard at 4 threads, and the worker
  // pool runs those actor phases. Blocks of 64 keep most instances in
  // play; at the usual cap of 4 a burst this size is crowded out almost
  // entirely and the report would not notice a shard skipping one.
  load::LoadConfig cfg;
  cfg.users = 1000;
  cfg.seed = 9;
  cfg.arrival_gap = 0;
  cfg.block_capacity = 64;
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};

  cfg.threads = 1;
  const load::LoadReport serial = load::run_load(cfg);
  EXPECT_EQ(serial.pool_ticks, 0u);
  for (unsigned threads : {2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    cfg.threads = threads;
    const load::LoadReport pooled = load::run_load(cfg);
    EXPECT_GT(pooled.pool_ticks, 0u);
    EXPECT_EQ(load::deterministic_mismatch(serial, pooled), "");
  }
}

TEST(LoadGenerator, MismatchNamesTheFirstDifferingField) {
  load::LoadConfig cfg;
  cfg.users = 200;
  cfg.seed = 3;
  cfg.block_capacity = 3;
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  const load::LoadReport base = load::run_load(cfg);
  ASSERT_FALSE(base.violations.empty());
  EXPECT_EQ(load::deterministic_mismatch(base, base), "");

  // Wall-block fields never count.
  load::LoadReport r = base;
  r.wall_seconds += 1;
  r.phase_seconds.actor += 1;
  ++r.pool_ticks;
  EXPECT_EQ(load::deterministic_mismatch(base, r), "");

  const auto mutated = [&](auto&& edit) {
    load::LoadReport m = base;
    edit(m);
    return load::deterministic_mismatch(base, m);
  };
  EXPECT_EQ(mutated([](load::LoadReport& m) { ++m.ticks; }), "ticks");
  EXPECT_EQ(mutated([](load::LoadReport& m) { ++m.chains; }), "chains");
  EXPECT_EQ(mutated([](load::LoadReport& m) { m.latency.mean += 1e-9; }),
            "latency.mean");
  EXPECT_EQ(mutated([](load::LoadReport& m) {
              ++m.per_protocol[1].latency.p95;
            }),
            "per_protocol[1].latency.p95");
  EXPECT_EQ(mutated([](load::LoadReport& m) {
              ++m.per_protocol[2].fault_caused;
            }),
            "per_protocol[2].fault_caused");
  EXPECT_EQ(mutated([](load::LoadReport& m) { ++m.unattributed; }),
            "unattributed");
  const std::string last =
      "violations[" + std::to_string(base.violations.size() - 1) + "]";
  EXPECT_EQ(mutated([](load::LoadReport& m) {
              --m.violations.back().coin_delta;
            }),
            last);
  EXPECT_EQ(mutated([](load::LoadReport& m) {
              m.violations.back().party += "x";
            }),
            last);
  EXPECT_EQ(mutated([](load::LoadReport& m) {
              m.violations.back().schedule += "x";
            }),
            last);
  EXPECT_EQ(mutated([](load::LoadReport& m) { m.violations.pop_back(); }),
            "violations.size");
}

TEST(LoadGenerator, PhaseSecondsAddUpToTheTickLoop) {
  load::LoadConfig cfg;
  cfg.users = 200;
  cfg.seed = 3;
  cfg.block_capacity = 3;
  cfg.threads = 2;
  const load::LoadReport r = load::run_load(cfg);
  const load::PhaseSeconds& p = r.phase_seconds;
  for (double s : {p.bind, p.actor, p.drain, p.produce, p.audit,
                   p.attribution}) {
    EXPECT_GE(s, 0.0);
  }
  EXPECT_GT(p.bind, 0.0);
  EXPECT_GT(p.produce, 0.0);
  EXPECT_NEAR(p.bind + p.actor + p.drain + p.produce + p.audit,
              r.wall_seconds, 1e-9 * static_cast<double>(r.ticks));
}

TEST(LoadGenerator, CongestedViolationsAllAttributed) {
  load::LoadConfig cfg;
  cfg.users = 150;
  cfg.seed = 5;
  cfg.arrival_gap = 0;  // every instance arrives at tick 0: worst case
  cfg.block_capacity = 2;
  cfg.mix = {{"two-party", 1}, {"broker", 1}};
  const load::LoadReport r = load::run_load(cfg);
  EXPECT_EQ(r.instances, 150u);
  // Congestion this brutal may breach floors — but every breach must
  // re-audit clean on the faultless twin (congestion-caused, never a
  // protocol bug).
  EXPECT_EQ(r.unattributed, 0u);
  EXPECT_EQ(r.fault_caused + r.unattributed, r.violations.size());
}

TEST(LoadGenerator, SameSeedSameReport) {
  load::LoadConfig cfg;
  cfg.users = 80;
  cfg.seed = 42;
  const load::LoadReport a = load::run_load(cfg);
  const load::LoadReport b = load::run_load(cfg);
  EXPECT_EQ(a.txs_included, b.txs_included);
  EXPECT_EQ(a.ticks, b.ticks);
  EXPECT_EQ(a.latency.p99, b.latency.p99);
  EXPECT_EQ(a.violations.size(), b.violations.size());
}

/// Runs the pinned 2,000-user congested load at `threads` and checks
/// every deterministic field against its pinned value.
void check_pinned_congested_report(unsigned threads) {
  load::LoadConfig cfg;
  cfg.users = 2000;
  cfg.threads = threads;
  cfg.seed = 1;
  cfg.arrival_gap = 1;
  cfg.block_capacity = 4;
  cfg.max_fee = 64;
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  const load::LoadReport r = load::run_load(cfg);

  EXPECT_EQ(r.instances, 2000u);
  EXPECT_EQ(r.txs_included, 18257u);
  EXPECT_EQ(r.chains, 6u);
  EXPECT_EQ(r.ticks, 1011);
  EXPECT_EQ(r.latency.p50, 7);
  EXPECT_EQ(r.latency.p95, 14);
  EXPECT_EQ(r.latency.p99, 24);
  EXPECT_EQ(r.latency.max, 75);
  EXPECT_DOUBLE_EQ(r.latency.mean, 8.6305);

  struct Expected {
    const char* protocol;
    std::size_t instances, txs_included;
    Tick p50, p95, p99, max;
    std::size_t violations;
  };
  const std::vector<Expected> expected = {
      {"two-party", 1006, 6013, 7, 10, 12, 13, 0},
      {"broker", 479, 7306, 12, 22, 30, 75, 32},
      {"bridge-transfer", 515, 4938, 7, 10, 11, 13, 12},
  };
  ASSERT_EQ(r.per_protocol.size(), expected.size());
  for (std::size_t m = 0; m < expected.size(); ++m) {
    const load::ProtocolStats& p = r.per_protocol[m];
    const Expected& e = expected[m];
    EXPECT_EQ(p.protocol, e.protocol);
    EXPECT_EQ(p.instances, e.instances) << e.protocol;
    EXPECT_EQ(p.txs_included, e.txs_included) << e.protocol;
    EXPECT_EQ(p.latency.p50, e.p50) << e.protocol;
    EXPECT_EQ(p.latency.p95, e.p95) << e.protocol;
    EXPECT_EQ(p.latency.p99, e.p99) << e.protocol;
    EXPECT_EQ(p.latency.max, e.max) << e.protocol;
    EXPECT_EQ(p.violations, e.violations) << e.protocol;
    EXPECT_EQ(p.fault_caused, e.violations) << e.protocol;
  }

  // Every breach, in completion order, as "instance/party:coin delta".
  const std::vector<std::string> expected_violations = {
      "bridge-transfer#134/user:-2", "bridge-transfer#224/user:-2",
      "bridge-transfer#267/user:-2", "broker#332/bob:-8",
      "broker#332/carol:-8",         "broker#351/bob:-8",
      "broker#351/carol:-8",         "broker#585/bob:-8",
      "broker#585/carol:-8",         "bridge-transfer#586/user:-2",
      "bridge-transfer#593/user:-2", "broker#626/bob:-8",
      "broker#626/carol:-8",         "broker#647/alice:-4",
      "broker#715/bob:-8",           "broker#715/carol:-8",
      "broker#719/bob:-7",           "broker#719/carol:-9",
      "bridge-transfer#727/user:-2", "broker#838/alice:-4",
      "bridge-transfer#951/user:-2", "bridge-transfer#1004/user:-2",
      "broker#1032/carol:-6",        "bridge-transfer#1054/user:-2",
      "broker#1094/alice:-4",        "broker#1126/alice:-4",
      "broker#1128/bob:-9",          "broker#1128/carol:-9",
      "bridge-transfer#1191/user:-2", "broker#1421/bob:-8",
      "broker#1421/carol:-8",        "broker#1455/alice:-4",
      "broker#1472/alice:-4",        "broker#1561/carol:-6",
      "broker#1567/bob:-3",          "broker#1591/alice:-4",
      "bridge-transfer#1646/user:-2", "bridge-transfer#1723/user:-2",
      "broker#1786/bob:-8",          "broker#1786/carol:-4",
      "broker#1842/bob:-8",          "broker#1842/carol:-8",
      "broker#1943/bob:-9",          "broker#1943/carol:-9",
  };
  std::vector<std::string> labels;
  for (const sim::Violation& v : r.violations) {
    labels.push_back(v.schedule + "/" + v.party + ":" +
                     std::to_string(v.coin_delta));
  }
  EXPECT_EQ(labels, expected_violations);
  EXPECT_EQ(r.fault_caused, expected_violations.size());
  EXPECT_EQ(r.unattributed, 0u);
}

TEST(LoadGenerator, PinnedCongestedReport) {
  // The deterministic fields of a 2,000-user congested run, pinned so any
  // change to block production or the timeout sweep that shifts a single
  // inclusion, refund or breach shows here. The same values hold at every
  // thread count. With tens of active instances per tick, no tick clears
  // the pool's grain: ShardedActorPhaseIsThreadCountInvariant covers the
  // pooled path.
  for (unsigned threads : {1u, 2u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    check_pinned_congested_report(threads);
  }
}

TEST(LoadGenerator, RejectsBadConfigs) {
  load::LoadConfig cfg;
  cfg.users = 0;
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.users = 1;
  cfg.mix = {{"two-party", 0}};
  EXPECT_THROW(load::run_load(cfg), std::invalid_argument);
  cfg.mix = {{"no-such-protocol", 1}};
  EXPECT_THROW(load::run_load(cfg), sim::RegistryError);
  // Protocols without a bound-world form are rejected at bind time.
  cfg.mix = {{"auction-open", 1}};
  EXPECT_THROW(load::run_load(cfg), std::logic_error);
}

}  // namespace
}  // namespace xchain
