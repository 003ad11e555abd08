// The parallel sharded sweep must be a pure accelerator: whatever the
// worker count, the merged report is identical — schedule for schedule,
// violation for violation — to the serial sweep's. These tests pin that
// equivalence on every reference protocol adapter and on a synthetic
// adapter engineered to emit a violation per deviating schedule, so the
// violation *ordering* is checked, not just the counts. Planted liveness
// and principal-safety faults pin the run-property audit the same way,
// across the serial, sharded and tree executors.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "chain/fault.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// The reference configurations, fetched through the protocol registry (the
// defaults are pinned byte-identical to the historical structs in
// tests/registry_campaign_test.cpp).
std::vector<std::unique_ptr<ProtocolAdapter>> reference_adapters() {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  std::vector<std::unique_ptr<ProtocolAdapter>> out;
  out.push_back(reg.make("two-party"));
  out.push_back(reg.make("multi-party-fig3a"));
  ParamSet ring = reg.defaults("multi-party-ring");
  ring.set("n", "4");
  out.push_back(reg.make("multi-party-ring", ring));
  out.push_back(reg.make("auction-open"));
  out.push_back(reg.make("auction-sealed"));
  out.push_back(reg.make("broker"));
  out.push_back(reg.make("bootstrap"));
  out.push_back(reg.make("crr-ladder"));
  return out;
}

void expect_identical(const SweepReport& serial, const SweepReport& parallel) {
  EXPECT_EQ(parallel.protocol, serial.protocol);
  EXPECT_EQ(parallel.schedules_run, serial.schedules_run);
  EXPECT_EQ(parallel.conforming_audited, serial.conforming_audited);
  ASSERT_EQ(parallel.violations.size(), serial.violations.size());
  for (std::size_t i = 0; i < serial.violations.size(); ++i) {
    EXPECT_EQ(parallel.violations[i].schedule, serial.violations[i].schedule)
        << "violation " << i << " out of order";
    EXPECT_EQ(parallel.violations[i].party, serial.violations[i].party);
    EXPECT_EQ(parallel.violations[i].coin_delta,
              serial.violations[i].coin_delta);
    EXPECT_EQ(parallel.violations[i].required_min,
              serial.violations[i].required_min);
    EXPECT_EQ(parallel.violations[i].detail, serial.violations[i].detail);
  }
}

TEST(ParallelSweep, MatchesSerialOnEveryReferenceAdapter) {
  for (const auto& adapter : reference_adapters()) {
    ScenarioRunner runner(*adapter);
    const SweepReport serial = runner.sweep();
    for (const unsigned threads : {2u, 4u, 8u}) {
      const SweepReport parallel = runner.sweep({-1, threads, {}});
      SCOPED_TRACE(adapter->name() + " @ " + std::to_string(threads) +
                   " threads");
      expect_identical(serial, parallel);
    }
  }
}

// The enlarged strategy spaces shard exactly like the halt-only space:
// every worker derives the same capped plan lists from its adapter clone,
// so the merged report — counts, truncation notices, violations — is
// schedule-identical to the serial sweep's.
TEST(ParallelSweep, MatchesSerialOnDelayStrategySpaces) {
  for (const StrategySpace::Kind kind : {StrategySpace::Kind::kTimelyDelays,
                                         StrategySpace::Kind::kLateDelays}) {
    SweepOptions serial_opts;
    serial_opts.strategies.kind = kind;
    for (const auto& adapter : reference_adapters()) {
      ScenarioRunner runner(*adapter);
      const SweepReport serial = runner.sweep(serial_opts);
      for (const unsigned threads : {2u, 8u}) {
        SweepOptions opts = serial_opts;
        opts.threads = threads;
        const SweepReport parallel = runner.sweep(opts);
        SCOPED_TRACE(adapter->name() + " / " + opts.strategies.name() +
                     " @ " + std::to_string(threads) + " threads");
        expect_identical(serial, parallel);
        EXPECT_EQ(parallel.truncations, serial.truncations);
      }
    }
  }
}

TEST(ParallelSweep, MaxDeviatorsRespected) {
  const auto adapter = ProtocolRegistry::global().make("multi-party-fig3a");
  ScenarioRunner runner(*adapter);
  const SweepReport serial = runner.sweep(1);
  const SweepReport parallel = runner.sweep({1, 4, {}});
  expect_identical(serial, parallel);
  EXPECT_EQ(parallel.schedules_run, 13u);  // 1 all-conform + 3 * 4 halts
}

TEST(ParallelSweep, ZeroMeansHardwareConcurrency) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  ScenarioRunner runner(*adapter);
  expect_identical(runner.sweep(), runner.sweep({-1, 0, {}}));
}

TEST(ParallelSweep, MoreThreadsThanSchedules) {
  // two-party: 16 schedules.
  const auto adapter = ProtocolRegistry::global().make("two-party");
  ScenarioRunner runner(*adapter);
  expect_identical(runner.sweep(), runner.sweep({-1, 64, {}}));
}

// A fault-injecting sweep must shard exactly like the reliable one: clause
// windows, the stateless drop hash, and the faultless-twin attribution
// pass are all pure functions of (schedule, tick), never of worker
// interleaving — so the merged report, fault_caused flags included, is
// identical whatever the thread count.
TEST(ParallelSweep, FaultEnvironmentShardsDeterministically) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  const chain::ChainEnvironment envs[] = {
      {chain::FaultPlan::parse("banana:squeeze@4-10,cap=1,spam=2,fee=3"), {}},
      {chain::FaultPlan::parse("*:outage@5-5;apricot:drop@0-9,p=400,seed=3"),
       chain::ResiliencePolicy::parse("rebroadcast")},
      {chain::FaultPlan::parse("banana:squeeze@4-10,cap=1,spam=2,fee=3"),
       chain::ResiliencePolicy::parse("fee-escalate")},
  };
  for (const auto& env : envs) {
    for (const std::string proto : {"two-party", "multi-party-fig3a"}) {
      const auto adapter = reg.make(proto);
      adapter->set_environment(env);
      ScenarioRunner runner(*adapter);
      const SweepReport serial = runner.sweep();
      for (const unsigned threads : {2u, 4u}) {
        const SweepReport parallel = runner.sweep({-1, threads, {}});
        SCOPED_TRACE(proto + " / " + env.str() + " @ " +
                     std::to_string(threads) + " threads");
        expect_identical(serial, parallel);
        EXPECT_EQ(parallel.fault_caused, serial.fault_caused);
        for (std::size_t i = 0; i < serial.violations.size(); ++i) {
          EXPECT_EQ(parallel.violations[i].fault_caused,
                    serial.violations[i].fault_caused)
              << "attribution flag diverged at violation " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Violation ordering under load: a synthetic protocol whose every deviating
// schedule produces exactly one violation with a schedule-specific label
// and amount. If shard merging ever reordered or dropped results, these
// lists would disagree.
// ---------------------------------------------------------------------------

class TattletaleAdapter final : public ProtocolAdapter {
 public:
  std::string name() const override { return "tattletale"; }
  std::size_t party_count() const override { return 3; }
  int action_count(PartyId) const override { return 4; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<TattletaleAdapter>(*this);
  }

  std::vector<PartyOutcome> run(const Schedule& s) const override {
    // The conforming victim loses coins proportional to the deviators'
    // halt points; the deviators split the spoils so coins stay zero-sum.
    Amount stolen = 0;
    for (std::size_t p = 1; p < s.plans.size(); ++p) {
      if (!s.plans[p].is_conforming()) stolen += s.plans[p].halt_point() + 1;
    }
    PartyOutcome victim{"victim", s.plans[0].is_conforming(), {}, {}};
    victim.payoff.coin_delta = -stolen;
    PartyOutcome thief{"thief", false, {}, {}};
    thief.payoff.coin_delta = stolen;
    PartyOutcome bystander{"bystander", false, {}, {}};
    return {std::move(victim), std::move(thief), std::move(bystander)};
  }
};

TEST(ParallelSweep, ViolationOrderingMatchesSerialExactly) {
  TattletaleAdapter adapter;
  ScenarioRunner runner(adapter);
  const SweepReport serial = runner.sweep();
  EXPECT_EQ(serial.schedules_run, 125u);
  // Victim conforming (1/5 of plans) while either other party deviates
  // (1 - (1/5)^2 of their joint space): 25 - 1 = 24 violating schedules.
  EXPECT_EQ(serial.violations.size(), 24u);

  for (const unsigned threads : {2u, 3u, 8u, 16u}) {
    const SweepReport parallel = runner.sweep({-1, threads, {}});
    SCOPED_TRACE(threads);
    expect_identical(serial, parallel);
  }
}

// ---------------------------------------------------------------------------
// Planted run-property faults: a real engine whose outcomes are corrupted
// after the fact. The run-property audit must report each plant exactly
// once, and every executor must report it identically.
// ---------------------------------------------------------------------------

enum class Plant {
  kStall,  ///< no run ever completes, the all-conforming one included
  kTheft,  ///< Bob's tickets count as taken on every completed deal
};

/// Wraps a tree-capable registry adapter and plants `Plant` into its
/// outcomes. Both plants read only path-determined outcome fields, so the
/// tree executor's memoized leaves stay exact.
class PlantedAdapter final : public ProtocolAdapter {
 public:
  PlantedAdapter(std::unique_ptr<ProtocolAdapter> inner, Plant plant)
      : inner_(std::move(inner)), plant_(plant) {}

  std::string name() const override { return inner_->name(); }
  std::size_t party_count() const override { return inner_->party_count(); }
  int action_count(PartyId p) const override {
    return inner_->action_count(p);
  }
  Tick delta() const override { return inner_->delta(); }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<PlantedAdapter>(inner_->clone(), plant_);
  }
  std::vector<PartyOutcome> run(const Schedule& s) const override {
    return planted(inner_->run(s));
  }
  TreeFrame* tree_frame() const override { return inner_->tree_frame(); }
  void tree_set_plans(const Schedule& s) const override {
    inner_->tree_set_plans(s);
  }
  std::vector<PartyOutcome> tree_collect(const Schedule& s) const override {
    return planted(inner_->tree_collect(s));
  }

 private:
  std::vector<PartyOutcome> planted(std::vector<PartyOutcome> out) const {
    if (plant_ == Plant::kStall) {
      out[0].bound.run_completed = false;
    } else if (out[0].bound.run_completed) {
      out[1].bound.principal_safe = false;
    }
    return out;
  }

  std::unique_ptr<ProtocolAdapter> inner_;
  Plant plant_;
};

/// Sweeps the planted broker serially (brute), sharded over four workers
/// and on the tree executor; returns the serial report after pinning the
/// other two identical to it.
SweepReport sweep_everywhere(const ProtocolAdapter& adapter) {
  ScenarioRunner runner(adapter);
  SweepOptions brute;
  brute.executor = SweepExecutor::kBrute;
  const SweepReport serial = runner.sweep(brute);

  SweepOptions sharded = brute;
  sharded.threads = 4;
  const SweepReport parallel = runner.sweep(sharded);
  EXPECT_EQ(parallel.workers, 4u);
  expect_identical(serial, parallel);

  SweepOptions tree;
  tree.executor = SweepExecutor::kTree;
  const SweepReport memoized = runner.sweep(tree);
  EXPECT_GT(memoized.dedup_hits, 0u);
  expect_identical(serial, memoized);
  return serial;
}

TEST(RunProperties, PlantedStallGivesExactlyOneLivenessViolation) {
  const PlantedAdapter adapter(ProtocolRegistry::global().make("broker"),
                               Plant::kStall);
  const SweepReport report = sweep_everywhere(adapter);
  EXPECT_EQ(report.schedules_run, 125u);
  ASSERT_EQ(report.violations.size(), 1u) << report.str();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.schedule, "hedged-broker[conform,conform,conform]");
  EXPECT_EQ(v.party, "<all>");
  EXPECT_EQ(v.detail, "every party conformed but the run did not complete");
}

TEST(RunProperties, PlantedTheftGivesExactlyOneSafetyViolation) {
  const PlantedAdapter adapter(ProtocolRegistry::global().make("broker"),
                               Plant::kTheft);
  const SweepReport report = sweep_everywhere(adapter);
  ASSERT_EQ(report.violations.size(), 1u) << report.str();
  const Violation& v = report.violations.front();
  EXPECT_EQ(v.schedule, "hedged-broker[conform,conform,conform]");
  EXPECT_EQ(v.party, "bob");
  EXPECT_EQ(v.detail, "escrowed principal left without the counter-asset");
}

}  // namespace
}  // namespace xchain::sim
