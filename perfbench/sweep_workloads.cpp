// sweep-tree and sweep-faults: serial late-delays sweeps of registry
// protocols at their default configurations.
//
// sweep-tree runs the nine tree-capable protocols through
// ScenarioRunner::sweep, which picks the prefix-sharing tree executor for
// serial sweeps. sweep-faults runs all ten under a block squeeze with
// fee-escalating parties; the active chain environment forces the brute
// ProtocolAdapter::run() path plus faultless-twin attribution. Each
// workload bypasses the other's mechanism.
//
// The sweeps draw no random input. The seed rotates the order in which the
// protocols run; the report is assembled in a fixed order, so it must be
// identical at every seed.

#include <algorithm>
#include <memory>
#include <numeric>

#include "chain/fault.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace sim = xchain::sim;

const std::vector<std::string> kTreeProtocols = {
    "two-party",     "multi-party-ring", "multi-party-fig3a",
    "auction-open",  "auction-sealed",   "broker",
    "bootstrap",     "crr-ladder",       "bridge-transfer"};

/// Sweeps brute in every configuration; excluded from sweep-tree so it
/// cannot drown the tree executor's share of the time.
const char* const kBruteOnlyProtocol = "bridge-account-create";

/// Schedule budget of one sweep-tree protocol sweep (825,152 schedules
/// over the nine protocols at the default per-party plan cap).
constexpr std::size_t kTreeMaxSchedules = 200000;

const char* const kFaults = "*:squeeze@0-1000,cap=1";
const char* const kResilience = "fee-escalate";

sim::SweepOptions late_delays(std::size_t max_schedules) {
  sim::SweepOptions opts;
  opts.threads = 1;
  opts.strategies.kind = sim::StrategySpace::Kind::kLateDelays;
  opts.strategies.max_schedules = max_schedules;
  return opts;
}

/// Protocol indices in run order: rotated by the seed.
std::vector<std::size_t> run_order(std::size_t n, std::uint64_t seed) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::rotate(order.begin(), order.begin() + static_cast<long>(seed % n),
              order.end());
  return order;
}

/// Every deterministic field of one protocol's SweepReport, including the
/// executor statistics and the violation labels in order.
std::string canonical(const std::string& protocol,
                      const sim::SweepReport& r) {
  std::string out = protocol + " (" + r.protocol + ")" +
                    " schedules=" + std::to_string(r.schedules_run) +
                    " audited=" + std::to_string(r.conforming_audited) +
                    " covered=" + std::to_string(r.schedules_covered) +
                    " nodes=" + std::to_string(r.nodes_executed) +
                    " dedup=" + std::to_string(r.dedup_hits) +
                    " workers=" + std::to_string(r.workers) +
                    " violations=" + std::to_string(r.violations.size()) +
                    " fault_caused=" + std::to_string(r.fault_caused) + "\n";
  for (const std::string& t : r.truncations) {
    out += "  truncated: ";
    out += t;
    out += '\n';
  }
  for (const sim::Violation& v : r.violations) {
    out += "  ";
    out += v.str();  // tags fault-caused violations [chain-fault]
    out += '\n';
  }
  return out;
}

/// Cross-protocol sums shared by both sweep workloads.
void summarize(const std::vector<std::string>& protocols,
               const std::vector<sim::SweepReport>& reports, Result& res) {
  std::size_t nodes = 0, dedup = 0, truncated = 0, violations = 0;
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const sim::SweepReport& r = reports[i];
    res.report += canonical(protocols[i], r);
    res.attempted += r.schedules_run;
    res.breaches += r.fault_caused;
    nodes += r.nodes_executed;
    dedup += r.dedup_hits;
    violations += r.violations.size();
    if (!r.truncations.empty()) ++truncated;
    if (r.schedules_covered != r.schedules_run) {
      res.failures.push_back(protocols[i] + ": covered " +
                             std::to_string(r.schedules_covered) + " of " +
                             std::to_string(r.schedules_run) + " schedules");
      res.failed += r.schedules_run - std::min(r.schedules_run,
                                               r.schedules_covered);
    }
  }
  res.loop_s = res.run_s;
  res.outcomes["sim.nodes_executed"] = static_cast<double>(nodes);
  res.outcomes["sim.dedup_hits"] = static_cast<double>(dedup);
  res.outcomes["sim.exec_ratio"] =
      static_cast<double>(nodes) / static_cast<double>(res.attempted);
  res.outcomes["sim.truncated_configs"] = static_cast<double>(truncated);
  res.outcomes["sim.violations"] = static_cast<double>(violations);
}

}  // namespace

Result run_sweep_tree(std::uint64_t seed, Tracer& tr) {
  Result res;
  const std::vector<std::string>& protocols = kTreeProtocols;
  const std::vector<std::size_t> order = run_order(protocols.size(), seed);
  const sim::SweepOptions opts = late_delays(kTreeMaxSchedules);

  // Set-up: registry lookup, adapter construction, and the reusable world
  // with its tree frame (sweep() would build it on first use).
  std::vector<std::unique_ptr<sim::ProtocolAdapter>> adapters(
      protocols.size());
  const auto t_setup = Clock::now();
  {
    SpanGuard setup(tr, "sweep.setup");
    const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
    for (std::size_t i : order) {
      {
        SpanGuard span(tr, "core.adapter_build", setup.id());
        adapters[i] = registry.make(protocols[i]);
      }
      SpanGuard span(tr, "core.world_build", setup.id());
      if (adapters[i]->tree_frame() == nullptr) {
        res.failures.push_back(protocols[i] + " is not tree-capable");
      }
    }
  }
  res.setup_s = seconds_since(t_setup);

  std::vector<sim::SweepReport> reports(protocols.size());
  std::vector<double> sweep_s(protocols.size());
  for (std::size_t i : order) {
    SpanGuard span(tr, "sim.sweep." + protocols[i]);
    const auto t0 = Clock::now();
    reports[i] = sim::ScenarioRunner(*adapters[i]).sweep(opts);
    sweep_s[i] = seconds_since(t0);
    res.run_s += sweep_s[i];
  }

  summarize(protocols, reports, res);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    if (!reports[i].violations.empty()) {
      res.failures.push_back(protocols[i] + ": " +
                             std::to_string(reports[i].violations.size()) +
                             " violations in a fault-free sweep");
      res.failed += reports[i].violations.size();
    }
  }
  if (tr.enabled()) {
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      res.layers["sim.sweep_s." + protocols[i]] = sweep_s[i];
    }
    res.layers["core.adapter_build_s"] = tr.total_s("core.adapter_build");
  }
  return res;
}

Result run_sweep_faults(std::uint64_t seed, Tracer& tr) {
  Result res;
  std::vector<std::string> protocols = kTreeProtocols;
  protocols.emplace_back(kBruteOnlyProtocol);
  const std::vector<std::size_t> order = run_order(protocols.size(), seed);
  const sim::SweepOptions opts =
      late_delays(sim::StrategySpace{}.max_schedules);  // the default cap

  xchain::chain::ChainEnvironment env;
  env.faults = xchain::chain::FaultPlan::parse(kFaults);
  env.resilience = xchain::chain::ResiliencePolicy::parse(kResilience);

  // Set-up: registry lookup and adapter construction. The faulted world
  // is built lazily by the first run(), inside the sweep.
  std::vector<std::unique_ptr<sim::ProtocolAdapter>> adapters(
      protocols.size());
  const auto t_setup = Clock::now();
  {
    SpanGuard setup(tr, "sweep.setup");
    const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
    for (std::size_t i : order) {
      SpanGuard span(tr, "core.adapter_build", setup.id());
      adapters[i] = registry.make(protocols[i]);
      adapters[i]->set_environment(env);
    }
  }
  res.setup_s = seconds_since(t_setup);

  std::vector<sim::SweepReport> reports(protocols.size());
  std::vector<double> sweep_s(protocols.size());
  std::size_t twin_runs = 0;
  for (std::size_t i : order) {
    const sim::ProtocolAdapter& adapter = *adapters[i];
    const auto t0 = Clock::now();
    if (!tr.enabled()) {
      reports[i] = sim::ScenarioRunner(adapter).sweep(opts);
    } else {
      // What sweep() does on its serial brute path, call by call:
      // enumerate, run + audit every schedule, then re-run each violating
      // schedule on a faultless twin to attribute it.
      SpanGuard sweep(tr, "sim.sweep." + protocols[i]);
      sim::SweepReport& r = reports[i];
      r.protocol = adapter.name();
      const sim::ScenarioRunner runner(adapter);
      std::vector<sim::Schedule> schedules;
      {
        SpanGuard span(tr, "sim.enumerate", sweep.id());
        runner.schedule_count(opts, &r.truncations);
        schedules = runner.enumerate(opts);
      }
      std::vector<std::size_t> violating;  // schedule index per violation
      for (std::size_t s = 0; s < schedules.size(); ++s) {
        std::vector<sim::PartyOutcome> outcomes;
        {
          SpanGuard span(tr, "sim.run", sweep.id(), s);
          outcomes = adapter.run(schedules[s]);
        }
        SpanGuard span(tr, "sim.audit", sweep.id(), s);
        r.conforming_audited +=
            sim::audit_schedule(schedules[s].label, outcomes, r.violations);
        violating.resize(r.violations.size(), s);
      }
      r.schedules_run = schedules.size();
      r.nodes_executed = r.schedules_run;
      r.schedules_covered = r.schedules_run;
      if (!r.violations.empty()) {
        const std::unique_ptr<sim::ProtocolAdapter> twin = adapter.clone();
        twin->set_environment({});
        std::vector<sim::Violation> twin_violations;
        std::size_t last = schedules.size();
        for (std::size_t v = 0; v < r.violations.size(); ++v) {
          if (violating[v] != last) {
            last = violating[v];
            SpanGuard span(tr, "sim.twin", sweep.id(), last);
            twin_violations.clear();
            sim::audit_schedule(schedules[last].label,
                                twin->run(schedules[last]), twin_violations);
            ++twin_runs;
          }
          sim::Violation& violation = r.violations[v];
          violation.fault_caused = std::none_of(
              twin_violations.begin(), twin_violations.end(),
              [&](const sim::Violation& tv) {
                return tv.party == violation.party;
              });
          if (violation.fault_caused) ++r.fault_caused;
        }
      }
    }
    sweep_s[i] = seconds_since(t0);
    res.run_s += sweep_s[i];
  }

  summarize(protocols, reports, res);
  for (std::size_t i = 0; i < reports.size(); ++i) {
    for (const sim::Violation& v : reports[i].violations) {
      if (v.fault_caused) continue;
      res.failures.push_back("unattributed: " + v.str());
      ++res.failed;
    }
  }
  if (tr.enabled()) {
    for (std::size_t i = 0; i < protocols.size(); ++i) {
      res.layers["sim.sweep_s." + protocols[i]] = sweep_s[i];
    }
    res.layers["core.adapter_build_s"] = tr.total_s("core.adapter_build");
    res.layers["sim.enumerate_s"] = tr.total_s("sim.enumerate");
    res.layers["sim.run_s"] = tr.total_s("sim.run");
    res.layers["sim.audit_s"] = tr.total_s("sim.audit");
    res.layers["sim.twin_s"] = tr.total_s("sim.twin");
    res.layers["sim.twin_runs"] = static_cast<double>(twin_runs);
  }
  return res;
}

}  // namespace perfbench
