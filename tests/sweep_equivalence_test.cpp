// The reusable-world path (one traceless world per adapter, rolled back
// to its post-setup state per schedule) must be a pure accelerator: for
// every registry protocol, every schedule's audited outcomes — and the
// whole sweep report — must be identical to a reference built by
// construction: a fresh, fully-traced world per schedule, run through the
// same replay routine. This is the contract that lets the sweep run 5-10x
// faster without weakening the paper's universally-quantified guarantee.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// The reference configurations, fetched through the protocol registry —
// the same defaults the campaign layer and the CLI sweep (and that
// tests/registry_campaign_test.cpp pins byte-identical to the historical
// hard-coded structs). All ten registry protocols.
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
  out.push_back(reg.make("bridge-transfer"));
  out.push_back(reg.make("bridge-account-create"));
  return out;
}

// The reference run: a brand-new world with full tracing (event logs and
// per-transaction notes on), replayed once and dropped.
template <class Protocol>
bool fresh_traced_run(const ProtocolAdapter& adapter, const Schedule& s,
                      std::vector<PartyOutcome>& out) {
  const auto* typed = dynamic_cast<const WorldAdapter<Protocol>*>(&adapter);
  if (typed == nullptr) return false;
  const auto world =
      make_world(typed->protocol(), chain::TraceMode::kFull);
  out = typed->protocol().outcomes(replay(*world, s.plans, adapter.delta()),
                                   s);
  return true;
}

std::vector<PartyOutcome> fresh_run(const ProtocolAdapter& adapter,
                                    const Schedule& s) {
  std::vector<PartyOutcome> out;
  const bool known = fresh_traced_run<TwoPartyProtocol>(adapter, s, out) ||
                     fresh_traced_run<MultiPartyProtocol>(adapter, s, out) ||
                     fresh_traced_run<AuctionProtocol>(adapter, s, out) ||
                     fresh_traced_run<BrokerProtocol>(adapter, s, out) ||
                     fresh_traced_run<BootstrapProtocol>(adapter, s, out) ||
                     fresh_traced_run<BridgeProtocol>(adapter, s, out);
  EXPECT_TRUE(known) << adapter.name() << " is not a WorldAdapter";
  return out;
}

// What ScenarioRunner::sweep(opts) reports, built from fresh traced runs.
SweepReport fresh_report(const ProtocolAdapter& adapter,
                         const SweepOptions& opts) {
  const ScenarioRunner runner(adapter);
  SweepReport r;
  r.protocol = adapter.name();
  runner.schedule_count(opts, &r.truncations);
  for (const Schedule& s : runner.enumerate(opts)) {
    r.conforming_audited +=
        audit_schedule(s.label, fresh_run(adapter, s), r.violations);
    ++r.schedules_run;
  }
  return r;
}

void expect_same_outcomes(const std::vector<PartyOutcome>& fresh,
                          const std::vector<PartyOutcome>& reused,
                          const std::string& label) {
  ASSERT_EQ(reused.size(), fresh.size()) << label;
  for (std::size_t p = 0; p < fresh.size(); ++p) {
    SCOPED_TRACE(label + " / " + fresh[p].name);
    EXPECT_EQ(reused[p].name, fresh[p].name);
    EXPECT_EQ(reused[p].conforming, fresh[p].conforming);
    EXPECT_EQ(reused[p].payoff.by_symbol, fresh[p].payoff.by_symbol);
    EXPECT_EQ(reused[p].payoff.coin_delta, fresh[p].payoff.coin_delta);
    EXPECT_EQ(reused[p].payoff.value_delta, fresh[p].payoff.value_delta);
    EXPECT_EQ(reused[p].bound.min_coin_delta, fresh[p].bound.min_coin_delta);
    EXPECT_EQ(reused[p].bound.spend_allowance, fresh[p].bound.spend_allowance);
    EXPECT_EQ(reused[p].bound.goods_received, fresh[p].bound.goods_received);
  }
}

// Schedule-for-schedule: the reused world (one adapter instance resetting
// one traceless world) must report exactly what a fresh traced world
// reports, for every schedule of every reference adapter.
TEST(SweepEquivalence, ReusedWorldMatchesFreshWorldPerSchedule) {
  for (const auto& adapter : reference_adapters()) {
    const auto reused_engine = adapter->clone();

    for (const Schedule& s : ScenarioRunner(*adapter).enumerate()) {
      const auto fresh = fresh_run(*adapter, s);
      const auto reused = reused_engine->run(s);
      expect_same_outcomes(fresh, reused, s.label);
      // Re-running the SAME schedule on the reused world must also be
      // stable: reset() rolls everything back, not just most things.
      expect_same_outcomes(fresh, reused_engine->run(s),
                           s.label + " (rerun)");
    }
  }
}

// Whole-report equivalence: ScenarioRunner on the reused world vs the
// same sweep assembled from fresh traced runs.
TEST(SweepEquivalence, SweepReportsIdenticalAcrossWorldModes) {
  for (const auto& adapter : reference_adapters()) {
    const SweepReport reused = ScenarioRunner(*adapter).sweep();
    const SweepReport fresh = fresh_report(*adapter, SweepOptions{});

    SCOPED_TRACE(adapter->name());
    EXPECT_EQ(reused.protocol, fresh.protocol);
    EXPECT_EQ(reused.schedules_run, fresh.schedules_run);
    EXPECT_EQ(reused.conforming_audited, fresh.conforming_audited);
    EXPECT_EQ(reused.violations.size(), fresh.violations.size());
    EXPECT_TRUE(reused.ok()) << reused.str();
    EXPECT_TRUE(fresh.ok()) << fresh.str();
  }
}

// Delay schedules must behave identically on a reused (reset-per-run)
// world and on a fresh traced world: pending delayed submissions live on
// the persistent actors' queues, which every replay restores to their
// construction-time (empty) state, so a reset can never leak a queued
// action into the next schedule. Pinned per schedule over the timely
// space, and as whole reports over a bounded late space.
TEST(SweepEquivalence, DelaySchedulesMatchAcrossWorldModesPerSchedule) {
  SweepOptions opts;
  opts.strategies.kind = StrategySpace::Kind::kTimelyDelays;
  // Keep the per-schedule fresh-world pass affordable; the whole-report
  // check below covers the larger spaces.
  opts.strategies.max_schedules = 400;
  for (const auto& adapter : reference_adapters()) {
    const auto reused_engine = adapter->clone();

    for (const Schedule& s : ScenarioRunner(*adapter).enumerate(opts)) {
      const auto fresh = fresh_run(*adapter, s);
      const auto reused = reused_engine->run(s);
      expect_same_outcomes(fresh, reused, s.label);
      // Re-running the SAME delayed schedule on the reused world must be
      // stable: reset() rolls chains back and the actors' delay queues
      // are restored empty.
      expect_same_outcomes(fresh, reused_engine->run(s),
                           s.label + " (rerun)");
    }
  }
}

TEST(SweepEquivalence, LateDelayReportsIdenticalAcrossWorldModes) {
  SweepOptions opts;
  opts.strategies.kind = StrategySpace::Kind::kLateDelays;
  opts.strategies.max_schedules = 1500;
  for (const auto& adapter : reference_adapters()) {
    const SweepReport reused = ScenarioRunner(*adapter).sweep(opts);
    const SweepReport fresh = fresh_report(*adapter, opts);

    SCOPED_TRACE(adapter->name());
    EXPECT_EQ(reused.protocol, fresh.protocol);
    EXPECT_EQ(reused.schedules_run, fresh.schedules_run);
    EXPECT_EQ(reused.conforming_audited, fresh.conforming_audited);
    EXPECT_EQ(reused.violations.size(), fresh.violations.size());
    EXPECT_EQ(reused.truncations, fresh.truncations);
    EXPECT_TRUE(reused.ok()) << reused.str();
    EXPECT_TRUE(fresh.ok()) << fresh.str();
  }
}

// Parallel sweeps (which clone the adapter per worker, each clone
// building its own world) stay identical to serial.
TEST(SweepEquivalence, ParallelReusedSweepMatchesSerial) {
  for (const auto& adapter : reference_adapters()) {
    ScenarioRunner runner(*adapter);
    const SweepReport serial = runner.sweep();
    const SweepReport parallel = runner.sweep({-1, 4, {}});
    SCOPED_TRACE(adapter->name());
    EXPECT_EQ(parallel.schedules_run, serial.schedules_run);
    EXPECT_EQ(parallel.conforming_audited, serial.conforming_audited);
    EXPECT_EQ(parallel.violations.size(), serial.violations.size());
  }
}

}  // namespace
}  // namespace xchain::sim
