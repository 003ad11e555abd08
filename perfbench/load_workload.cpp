// load-congested: 10,000 instances of a two-party/broker/bridge mix on one
// shared MultiChain whose blocks admit 4 transactions each.
//
// The untraced run is one call to load::run_load. The traced run drives
// the same public calls in the same order as run_load does (bind, actor
// tick, sink drain, produce_all, collect + audit, faultless twin), with a
// span around each, and must reproduce run_load's report field for field.

#include <algorithm>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <unordered_map>
#include <utility>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "core/binding.hpp"
#include "crypto/rng.hpp"
#include "load/load_gen.hpp"
#include "sim/party.hpp"
#include "sim/payoff_audit.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using xchain::ChainId;
using xchain::PartyId;
using xchain::Tick;
namespace chain = xchain::chain;
namespace load = xchain::load;
namespace sim = xchain::sim;

/// Two actor-phase workers: the parallel phase on half of a 4-core host.
constexpr unsigned kThreads = 2;

load::LoadConfig congested_config(std::uint64_t seed) {
  load::LoadConfig cfg;
  cfg.users = 10000;
  cfg.threads = kThreads;
  cfg.seed = seed;
  cfg.mix = {{"two-party", 2}, {"broker", 1}, {"bridge-transfer", 1}};
  cfg.arrival_gap = 1;
  cfg.block_capacity = 4;
  cfg.max_fee = 64;
  return cfg;
}

void put_latency(std::string& out, const load::LatencyStats& l) {
  char buf[128];
  std::snprintf(buf, sizeof buf,
                "p50=%lld p95=%lld p99=%lld max=%lld mean=%.9g",
                static_cast<long long>(l.p50), static_cast<long long>(l.p95),
                static_cast<long long>(l.p99), static_cast<long long>(l.max),
                l.mean);
  out += buf;
}

/// Every deterministic field of a LoadReport (all but wall_seconds).
std::string canonical(const load::LoadReport& r) {
  std::string out = "instances=" + std::to_string(r.instances) +
                    " txs=" + std::to_string(r.txs_included) +
                    " chains=" + std::to_string(r.chains) +
                    " ticks=" + std::to_string(r.ticks) + "\nlatency ";
  put_latency(out, r.latency);
  for (const load::ProtocolStats& p : r.per_protocol) {
    out += '\n';
    out += p.protocol + " instances=" + std::to_string(p.instances) +
           " txs=" + std::to_string(p.txs_included) +
           " violations=" + std::to_string(p.violations) +
           " fault_caused=" + std::to_string(p.fault_caused) + " ";
    put_latency(out, p.latency);
  }
  out += "\nfault_caused=" + std::to_string(r.fault_caused) +
         " unattributed=" + std::to_string(r.unattributed);
  for (const sim::Violation& v : r.violations) {
    out += '\n';
    out += v.str();  // tags fault-caused violations [chain-fault]
  }
  return out + "\n";
}

// ---------------------------------------------------------------------------
// Traced driver: the tick loop of src/load/load_gen.cpp, rebuilt from the
// library's public calls. Keep the call order identical to run_load's, or
// the fidelity check fails.
// ---------------------------------------------------------------------------

struct Instance {
  std::size_t idx = 0;
  std::size_t proto = 0;
  PartyId base = 0;
  PartyId base_end = 0;
  Tick start = 0;
  Tick end = 0;
  std::unique_ptr<sim::LoadInstance> bound;
  sim::TxSink sink;
  Tick last_inclusion = -1;
  std::size_t txs = 0;
};

Tick percentile(const std::vector<Tick>& sorted, int p) {
  if (sorted.empty()) return 0;
  return sorted[(static_cast<std::size_t>(p) * (sorted.size() - 1)) / 100];
}

load::LatencyStats latency_stats(std::vector<Tick> lats) {
  load::LatencyStats s;
  if (lats.empty()) return s;
  std::sort(lats.begin(), lats.end());
  s.p50 = percentile(lats, 50);
  s.p95 = percentile(lats, 95);
  s.p99 = percentile(lats, 99);
  s.max = lats.back();
  double sum = 0;
  for (Tick t : lats) sum += static_cast<double>(t);
  s.mean = sum / static_cast<double>(lats.size());
  return s;
}

sim::Schedule conforming_schedule(std::size_t parties, std::string label) {
  sim::Schedule s;
  s.plans.assign(parties, sim::DeviationPlan::conforming());
  s.label = std::move(label);
  return s;
}

/// Deadline bookkeeping for the chain.* counters. Each contract's
/// deadline_schedule() is read once, when the benchmark first sees it.
class DeadlineIndex {
 public:
  /// Reads the deadlines of contracts deployed since the last call.
  void scan(const chain::MultiChain& chains) {
    seen_.resize(chains.count(), 0);
    due_.resize(chains.count());
    for (std::size_t c = 0; c < chains.count(); ++c) {
      const chain::Blockchain& bc = chains.at(static_cast<ChainId>(c));
      for (; seen_[c] < bc.contract_count(); ++seen_[c]) {
        std::vector<Tick> ds = bc.contract_at(seen_[c]).deadline_schedule();
        if (ds.empty()) ++undeclared_;
        std::sort(ds.begin(), ds.end());
        ds.erase(std::unique(ds.begin(), ds.end()), ds.end());
        for (Tick t : ds) ++due_[c][t];
      }
    }
  }

  /// Counts the block every chain produced at height `now`.
  void on_blocks(const chain::MultiChain& chains, Tick now) {
    for (std::size_t c = 0; c < chains.count(); ++c) {
      ++blocks_;
      resident_ += chains.at(static_cast<ChainId>(c)).contract_count();
      const auto it = due_[c].find(now);
      if (it != due_[c].end()) due_total_ += it->second;
    }
  }

  double blocks() const { return static_cast<double>(blocks_); }
  double resident() const { return static_cast<double>(resident_); }
  double due() const { return static_cast<double>(due_total_); }
  double undeclared() const { return static_cast<double>(undeclared_); }

 private:
  std::vector<std::size_t> seen_;
  std::vector<std::unordered_map<Tick, std::size_t>> due_;
  std::size_t blocks_ = 0;
  std::size_t resident_ = 0;
  std::size_t due_total_ = 0;
  std::size_t undeclared_ = 0;
};

load::LoadReport traced_run_load(const load::LoadConfig& cfg, Tracer& tr,
                                 Result& res) {
  const std::uint32_t setup_span = tr.begin("load.setup");
  const std::vector<load::MixEntry>& mix = cfg.mix;
  int total_weight = 0;
  for (const load::MixEntry& m : mix) total_weight += m.weight;
  const unsigned threads = std::max(1u, cfg.threads);

  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  std::vector<std::unique_ptr<sim::ProtocolAdapter>> adapters;
  for (const load::MixEntry& m : mix) {
    SpanGuard span(tr, "core.adapter_build", setup_span);
    adapters.push_back(registry.make(m.protocol));
  }

  // Owned through a pointer so the teardown below can time its release.
  auto chains_owner = std::make_unique<chain::MultiChain>();
  chain::MultiChain& chains = *chains_owner;
  chains.set_trace(chain::TraceMode::kOff);
  chain::ChainEnvironment env;
  chain::FaultClause squeeze;
  squeeze.kind = chain::FaultClause::Kind::kSqueeze;
  squeeze.from = 0;
  squeeze.to = std::numeric_limits<Tick>::max() / 2;
  squeeze.cap = cfg.block_capacity;
  env.faults.entries.emplace_back("*", squeeze);
  env.resilience.kind = chain::ResiliencePolicy::Kind::kFeeEscalate;
  env.resilience.max_fee = cfg.max_fee;
  chains.set_environment(env);

  xchain::crypto::Rng rng(cfg.seed);
  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(cfg.users);
  {
    Tick at = 0;
    for (std::size_t i = 0; i < cfg.users; ++i) {
      if (i > 0) {
        at += static_cast<Tick>(rng.next_below(
            static_cast<std::uint64_t>(cfg.arrival_gap) + 1));
      }
      auto inst = std::make_unique<Instance>();
      inst->idx = i;
      std::uint64_t pick =
          rng.next_below(static_cast<std::uint64_t>(total_weight));
      for (std::size_t m = 0; m < mix.size(); ++m) {
        const std::uint64_t w = static_cast<std::uint64_t>(mix[m].weight);
        if (pick < w) {
          inst->proto = m;
          break;
        }
        pick -= w;
      }
      inst->start = at;
      instances.push_back(std::move(inst));
    }
  }

  std::size_t txs_included = 0;
  std::vector<std::pair<PartyId, std::size_t>> bases;
  chains.set_inclusion_observer([&](ChainId, PartyId sender, Tick height) {
    ++txs_included;
    auto it = std::upper_bound(
        bases.begin(), bases.end(), sender,
        [](PartyId s, const std::pair<PartyId, std::size_t>& b) {
          return s < b.first;
        });
    if (it == bases.begin()) return;
    Instance& inst = *instances[(--it)->second];
    if (sender >= inst.base_end) return;
    inst.last_inclusion = std::max(inst.last_inclusion, height);
    ++inst.txs;
  });
  tr.end(setup_span);

  load::LoadReport report;
  DeadlineIndex deadlines;
  std::size_t actor_calls = 0;
  std::size_t active_sum = 0;
  const auto t_loop = Clock::now();
  const std::uint32_t loop_span = tr.begin("load.loop");

  PartyId next_base = 0;
  std::size_t next_arrival = 0;
  std::vector<Instance*> active;
  Tick now = 0;
  while (next_arrival < instances.size() || !active.empty()) {
    SpanGuard tick_span(tr, "load.tick", loop_span);
    while (next_arrival < instances.size() &&
           instances[next_arrival]->start == now) {
      Instance& inst = *instances[next_arrival];
      {
        SpanGuard span(tr, "load.bind", tick_span.id(), inst.idx);
        const sim::ProtocolAdapter& adapter = *adapters[inst.proto];
        inst.base = next_base;
        inst.base_end =
            next_base + static_cast<PartyId>(adapter.party_count());
        next_base = inst.base_end;
        xchain::core::WorldBinding binding;
        binding.chains = &chains;
        binding.party_base = inst.base;
        binding.start = inst.start;
        binding.tag =
            mix[inst.proto].protocol + "#" + std::to_string(inst.idx);
        inst.bound = adapter.bind_instance(binding);
        inst.end = inst.bound->end_tick();
        for (sim::Party* actor : inst.bound->actors()) {
          actor->set_tx_sink(&inst.sink);
        }
        bases.emplace_back(inst.base, next_arrival);
        active.push_back(&inst);
      }
      ++next_arrival;
    }
    deadlines.scan(chains);

    active_sum += active.size();
    for (const Instance* inst : active) {
      actor_calls += inst->bound->actors().size();
    }
    {
      SpanGuard span(tr, "load.actor", tick_span.id());
      const auto tick_range = [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          for (sim::Party* actor : active[i]->bound->actors()) {
            actor->tick(chains, now);
          }
        }
      };
      if (threads == 1 || active.size() < 2 * threads) {
        tick_range(0, active.size());
      } else {
        const std::size_t chunk = (active.size() + threads - 1) / threads;
        std::vector<std::thread> pool;
        pool.reserve(threads - 1);
        for (unsigned t = 1; t < threads; ++t) {
          const std::size_t lo = std::min(active.size(), t * chunk);
          const std::size_t hi = std::min(active.size(), lo + chunk);
          if (lo < hi) pool.emplace_back(tick_range, lo, hi);
        }
        tick_range(0, std::min(active.size(), chunk));
        for (std::thread& th : pool) th.join();
      }
    }
    {
      SpanGuard span(tr, "load.drain", tick_span.id());
      for (Instance* inst : active) inst->sink.drain();
    }
    {
      SpanGuard span(tr, "chain.produce", tick_span.id());
      chains.produce_all(now);
    }
    deadlines.on_blocks(chains, now);

    std::size_t kept = 0;
    for (Instance* inst : active) {
      if (inst->end > now + 1) {
        active[kept++] = inst;
        continue;
      }
      SpanGuard span(tr, "sim.audit", tick_span.id(), inst->idx);
      sim::audit_schedule(
          mix[inst->proto].protocol + "#" + std::to_string(inst->idx),
          inst->bound->collect(), report.violations);
    }
    active.resize(kept);
    ++now;
  }
  tr.end(loop_span);
  res.loop_s = seconds_since(t_loop);

  report.wall_seconds = res.loop_s;
  report.ticks = now;
  report.instances = instances.size();
  report.txs_included = txs_included;
  report.chains = chains.count();

  {
    SpanGuard span(tr, "load.aggregate");
    std::vector<Tick> all_lats;
    all_lats.reserve(instances.size());
    std::vector<std::vector<Tick>> proto_lats(mix.size());
    report.per_protocol.resize(mix.size());
    for (std::size_t m = 0; m < mix.size(); ++m) {
      report.per_protocol[m].protocol = mix[m].protocol;
    }
    for (const auto& inst : instances) {
      const Tick lat = inst->txs > 0 ? inst->last_inclusion - inst->start + 1
                                     : inst->end - inst->start;
      all_lats.push_back(lat);
      proto_lats[inst->proto].push_back(lat);
      load::ProtocolStats& ps = report.per_protocol[inst->proto];
      ++ps.instances;
      ps.txs_included += inst->txs;
    }
    report.latency = latency_stats(std::move(all_lats));
    for (std::size_t m = 0; m < mix.size(); ++m) {
      report.per_protocol[m].latency = latency_stats(std::move(proto_lats[m]));
    }
  }

  {
    SpanGuard attribution(tr, "load.attribution");
    std::vector<int> twin_clean(mix.size(), -1);
    for (sim::Violation& v : report.violations) {
      const std::string proto = v.schedule.substr(0, v.schedule.find('#'));
      std::size_t m = 0;
      while (m < mix.size() && mix[m].protocol != proto) ++m;
      if (m == mix.size()) {
        ++report.unattributed;
        continue;
      }
      if (twin_clean[m] < 0) {
        SpanGuard span(tr, "load.twin", attribution.id());
        const std::unique_ptr<sim::ProtocolAdapter> twin =
            registry.make(mix[m].protocol);
        std::vector<sim::Violation> scratch;
        sim::audit_schedule(
            "twin",
            twin->run(conforming_schedule(twin->party_count(), "twin")),
            scratch);
        twin_clean[m] = scratch.empty() ? 1 : 0;
      }
      v.fault_caused = twin_clean[m] == 1;
      if (v.fault_caused) {
        ++report.fault_caused;
        ++report.per_protocol[m].fault_caused;
      } else {
        ++report.unattributed;
      }
      ++report.per_protocol[m].violations;
    }
  }

  {
    // run_load frees its instances and chains on return, inside the call.
    SpanGuard span(tr, "load.teardown");
    instances.clear();
    chains_owner.reset();
  }

  const double ticks = static_cast<double>(report.ticks);
  res.layers["load.bind_s"] = tr.total_s("load.bind");
  res.layers["load.actor_s"] = tr.total_s("load.actor");
  res.layers["load.drain_s"] = tr.total_s("load.drain");
  res.layers["chain.produce_s"] = tr.total_s("chain.produce");
  res.layers["sim.audit_s"] = tr.total_s("sim.audit");
  res.layers["load.attribution_s"] = tr.total_s("load.attribution");
  res.layers["core.adapter_build_s"] = tr.total_s("core.adapter_build");
  res.layers["load.setup_s"] = tr.total_s("load.setup");
  res.layers["load.teardown_s"] = tr.total_s("load.teardown");
  res.layers["load.ticks"] = ticks;
  res.layers["load.active_mean"] = static_cast<double>(active_sum) / ticks;
  res.layers["load.actor_calls"] = static_cast<double>(actor_calls);
  res.layers["chain.blocks"] = deadlines.blocks();
  res.layers["chain.txs_applied"] = static_cast<double>(txs_included);
  const double resident = deadlines.resident() / deadlines.blocks();
  const double due = deadlines.due() / deadlines.blocks();
  res.layers["chain.contracts_resident_per_block"] = resident;
  res.layers["chain.deadlines_due_per_block"] = due;
  res.layers["chain.due_ratio"] = due > 0 ? resident / due : 0.0;
  res.layers["chain.undeclared_contracts"] = deadlines.undeclared();
  return report;
}

}  // namespace

Result run_load_congested(std::uint64_t seed, Tracer& tracer) {
  const load::LoadConfig cfg = congested_config(seed);
  Result res;
  res.threads = cfg.threads;
  load::LoadReport report;
  const auto t0 = Clock::now();
  if (tracer.enabled()) {
    report = traced_run_load(cfg, tracer, res);
  } else {
    report = load::run_load(cfg);
    res.loop_s = report.wall_seconds;
  }
  res.run_s = seconds_since(t0);
  // Everything run_load does outside its tick loop: registry lookup,
  // adapters, the shared world and the arrival plan before the loop;
  // latency aggregation, twin attribution and freeing the instances after
  // it. The traced run splits it into load.setup_s, load.attribution_s and
  // load.teardown_s.
  res.setup_s = res.run_s - res.loop_s;

  res.report = canonical(report);
  res.attempted = cfg.users;
  res.breaches = report.fault_caused;
  res.failed = report.unattributed;
  if (!report.ok()) {
    res.failures.push_back(std::to_string(report.unattributed) +
                           " unattributed violations (LoadReport::ok false)");
  }
  if (report.instances != cfg.users) {
    res.failures.push_back("completed " + std::to_string(report.instances) +
                           " of " + std::to_string(cfg.users) + " instances");
    res.failed += cfg.users - std::min(cfg.users, report.instances);
  }
  res.outcomes["latency_p50_ticks"] = static_cast<double>(report.latency.p50);
  res.outcomes["latency_p99_ticks"] = static_cast<double>(report.latency.p99);
  return res;
}

}  // namespace perfbench
