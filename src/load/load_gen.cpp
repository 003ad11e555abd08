#include "load/load_gen.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <stdexcept>
#include <utility>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "core/binding.hpp"
#include "crypto/rng.hpp"
#include "load/worker_pool.hpp"
#include "sim/party.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::load {

namespace {

/// One arrived protocol instance: the bound world plus the scheduler's
/// bookkeeping. Never destroyed before the run ends — mempools may carry
/// crowded-out transactions whose effects reference the instance's
/// contracts and actors long after it completed.
struct Instance {
  std::size_t idx = 0;    ///< arrival index (the "#<idx>" of its tag)
  std::size_t proto = 0;  ///< mix index
  PartyId base = 0;       ///< first account id of the instance's range
  PartyId base_end = 0;   ///< one past the last account id
  Tick start = 0;         ///< arrival tick
  Tick end = 0;           ///< exclusive end tick (LoadInstance::end_tick)
  std::unique_ptr<sim::LoadInstance> bound;
  /// This tick's deferred submissions: filled only by the pool shard that
  /// ticks the instance, drained serially once every shard has finished.
  sim::TxSink sink;
  Tick last_inclusion = -1;    ///< newest block holding one of its txs
  std::size_t txs = 0;         ///< its included transactions
};

/// Fewest active instances per shard for which a tick's actor phase goes
/// to the worker pool; smaller ticks run serially on the calling thread
/// while the workers sleep. Measured on a 4-core host:
///   * serial actor work costs ~1.1 us per active instance per tick in
///     the 10k-user congested load (0.155 s over 27.8 active x 5,038
///     ticks);
///   * a pool round costs ~20-25 us of wake-up and hand-back (an empty
///     job, workers asleep between rounds), and a pooled tick ~30-90 us
///     more in all: that load's actor phase took 0.31-0.61 s at 2
///     threads, and its serial phases ran 15-40% slower as instance
///     state moved between cores.
/// A shard thus pays for its round from ~30-80 instances; 128 (~140 us of
/// work) clears the worst measured cost. Cross-check on all-at-once
/// arrivals (arrival_gap 0): 256 instances at 2 threads (128 per shard)
/// tie the serial tick loop, 512 at 2 or 4 threads beat it by ~20%.
constexpr std::size_t kShardGrain = 128;

/// Nearest-rank percentile over sorted latencies: index p*(n-1)/100.
Tick percentile(const std::vector<Tick>& sorted, int p) {
  if (sorted.empty()) return 0;
  return sorted[(static_cast<std::size_t>(p) * (sorted.size() - 1)) / 100];
}

LatencyStats latency_stats(std::vector<Tick> lats) {
  LatencyStats s;
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

/// The first LatencyStats field that differs, as "<prefix>.<field>", or "".
std::string latency_mismatch(const std::string& prefix, const LatencyStats& a,
                             const LatencyStats& b) {
  if (a.p50 != b.p50) return prefix + ".p50";
  if (a.p95 != b.p95) return prefix + ".p95";
  if (a.p99 != b.p99) return prefix + ".p99";
  if (a.max != b.max) return prefix + ".max";
  if (a.mean != b.mean) return prefix + ".mean";
  return "";
}

/// The all-conforming schedule every load instance runs (and every
/// attribution twin replays).
sim::Schedule conforming_schedule(std::size_t parties, std::string label) {
  sim::Schedule s;
  s.plans.assign(parties, sim::DeviationPlan::conforming());
  s.label = std::move(label);
  return s;
}

}  // namespace

LoadReport run_load(const LoadConfig& cfg) {
  if (cfg.users == 0) throw std::invalid_argument("load: users must be >= 1");
  std::vector<MixEntry> mix = cfg.mix;
  if (mix.empty()) mix.push_back({"two-party", 1});
  int total_weight = 0;
  for (const MixEntry& m : mix) {
    if (m.weight <= 0) {
      throw std::invalid_argument("load: mix weight for '" + m.protocol +
                                  "' must be >= 1");
    }
    total_weight += m.weight;
  }
  const unsigned threads = std::max(1u, cfg.threads);

  // One adapter per mix entry (unknown names throw RegistryError here;
  // protocols without a bound world form throw at their first bind).
  const sim::ProtocolRegistry& registry = sim::ProtocolRegistry::global();
  std::vector<std::unique_ptr<sim::ProtocolAdapter>> adapters;
  adapters.reserve(mix.size());
  for (const MixEntry& m : mix) adapters.push_back(registry.make(m.protocol));

  // The shared world. Capacity squeeze on every chain (current and
  // future) plus the fee-escalation defense — installed before any
  // instance binds, so chains created later inherit both.
  chain::MultiChain chains;
  chains.set_trace(chain::TraceMode::kOff);
  chain::ChainEnvironment env;
  if (cfg.block_capacity > 0) {
    chain::FaultClause squeeze;
    squeeze.kind = chain::FaultClause::Kind::kSqueeze;
    squeeze.from = 0;
    squeeze.to = std::numeric_limits<Tick>::max() / 2;
    squeeze.cap = cfg.block_capacity;
    env.faults.entries.emplace_back("*", squeeze);
  }
  env.resilience.kind = chain::ResiliencePolicy::Kind::kFeeEscalate;
  env.resilience.max_fee = cfg.max_fee;
  chains.set_environment(env);

  // Seeded arrival plan: protocol draw and arrival tick per instance.
  // Account bases are assigned at bind time (arrival order), so the plan
  // is a pure function of (seed, mix, arrival_gap).
  crypto::Rng rng(cfg.seed);
  std::vector<std::unique_ptr<Instance>> instances;
  instances.reserve(cfg.users);
  {
    Tick at = 0;
    for (std::size_t i = 0; i < cfg.users; ++i) {
      if (i > 0) at += static_cast<Tick>(rng.next_below(
                      static_cast<std::uint64_t>(cfg.arrival_gap) + 1));
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

  // Inclusion observer: map each applied transaction's sender back to its
  // instance through the disjoint account-id ranges. `bases` is sorted by
  // construction (bases grow in arrival order).
  std::size_t txs_included = 0;
  std::vector<std::pair<PartyId, std::size_t>> bases;  // (base, instance)
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

  PartyId next_base = 0;
  std::size_t next_arrival = 0;
  std::vector<Instance*> active;  // arrival order — the drain order
  Tick now = 0;

  // The actor phase's work: contiguous instance shards in arrival order,
  // one per pool shard. Actors only read chain state and fill their
  // instance's private sink, so shards share nothing mutable. The pool
  // starts its threads here, once: even a tick large enough to split
  // costs less than starting a thread. Declared after everything its
  // shards touch, so it joins before they are destroyed.
  const auto tick_range = [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) {
      for (sim::Party* actor : active[i]->bound->actors()) {
        actor->tick(chains, now);
      }
    }
  };
  std::size_t chunk = 0;  // instances per shard this tick
  const std::function<void(unsigned)> tick_shard = [&](unsigned s) {
    const std::size_t lo = std::min(active.size(), s * chunk);
    tick_range(lo, std::min(active.size(), lo + chunk));
  };
  WorkerPool pool(threads);

  using Clock = std::chrono::steady_clock;
  LoadReport report;
  PhaseSeconds& phase = report.phase_seconds;
  const auto t0 = Clock::now();
  auto mark = t0;  // the last phase boundary
  const auto lap = [&mark](double& into) {
    const auto t = Clock::now();
    into += std::chrono::duration<double>(t - mark).count();
    mark = t;
  };

  while (next_arrival < instances.size() || !active.empty()) {
    // 1. Serial arrivals: bind every instance due this tick.
    while (next_arrival < instances.size() &&
           instances[next_arrival]->start == now) {
      Instance& inst = *instances[next_arrival];
      const sim::ProtocolAdapter& adapter = *adapters[inst.proto];
      inst.base = next_base;
      inst.base_end =
          next_base + static_cast<PartyId>(adapter.party_count());
      next_base = inst.base_end;
      core::WorldBinding binding;
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
      ++next_arrival;
    }
    lap(phase.bind);

    // 2. Actor ticks: on the pool only when every shard gets a grain's
    // worth of instances, else serially here with the workers asleep.
    if (threads == 1 || active.size() < kShardGrain * threads) {
      tick_range(0, active.size());
    } else {
      chunk = (active.size() + threads - 1) / threads;
      pool.run(tick_shard);
      ++report.pool_ticks;
    }
    lap(phase.actor);

    // 3. Serial drain in arrival order: mempool sequence numbers are
    // independent of thread count.
    for (Instance* inst : active) inst->sink.drain();
    lap(phase.drain);

    // 4. One fee-ordered bounded block per chain over the whole tick.
    chains.produce_all(now);
    lap(phase.produce);

    // Completions: the block at end - 1 has been produced.
    std::size_t kept = 0;
    for (Instance* inst : active) {
      if (inst->end > now + 1) {
        active[kept++] = inst;
        continue;
      }
      sim::audit_schedule(
          mix[inst->proto].protocol + "#" + std::to_string(inst->idx),
          inst->bound->collect(), report.violations);
    }
    active.resize(kept);
    lap(phase.audit);
    ++now;
  }

  report.wall_seconds = std::chrono::duration<double>(mark - t0).count();
  report.ticks = now;
  report.instances = instances.size();
  report.txs_included = txs_included;
  report.chains = chains.count();

  // Latency + per-protocol aggregation.
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
    ProtocolStats& ps = report.per_protocol[inst->proto];
    ++ps.instances;
    ps.txs_included += inst->txs;
  }
  report.latency = latency_stats(std::move(all_lats));
  for (std::size_t m = 0; m < mix.size(); ++m) {
    report.per_protocol[m].latency = latency_stats(std::move(proto_lats[m]));
  }

  // Fault attribution: a violating protocol re-runs solo, all-conforming,
  // on a faultless private world. All load instances of one protocol are
  // identical modulo binding, so one twin per protocol decides them all.
  mark = Clock::now();
  std::vector<int> twin_clean(mix.size(), -1);  // -1 unknown, 0/1 decided
  for (sim::Violation& v : report.violations) {
    const std::size_t m = [&] {
      const std::string proto = v.schedule.substr(0, v.schedule.find('#'));
      for (std::size_t i = 0; i < mix.size(); ++i) {
        if (mix[i].protocol == proto) return i;
      }
      return mix.size();
    }();
    if (m == mix.size()) {
      ++report.unattributed;
      continue;
    }
    if (twin_clean[m] < 0) {
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
  lap(phase.attribution);

  return report;
}

std::string deterministic_mismatch(const LoadReport& a, const LoadReport& b) {
  if (a.instances != b.instances) return "instances";
  if (a.txs_included != b.txs_included) return "txs_included";
  if (a.chains != b.chains) return "chains";
  if (a.ticks != b.ticks) return "ticks";
  std::string field = latency_mismatch("latency", a.latency, b.latency);
  if (!field.empty()) return field;
  if (a.per_protocol.size() != b.per_protocol.size()) {
    return "per_protocol.size";
  }
  for (std::size_t m = 0; m < a.per_protocol.size(); ++m) {
    const ProtocolStats& pa = a.per_protocol[m];
    const ProtocolStats& pb = b.per_protocol[m];
    const std::string at = "per_protocol[" + std::to_string(m) + "]";
    if (pa.protocol != pb.protocol) return at + ".protocol";
    if (pa.instances != pb.instances) return at + ".instances";
    if (pa.txs_included != pb.txs_included) return at + ".txs_included";
    if (pa.violations != pb.violations) return at + ".violations";
    if (pa.fault_caused != pb.fault_caused) return at + ".fault_caused";
    field = latency_mismatch(at + ".latency", pa.latency, pb.latency);
    if (!field.empty()) return field;
  }
  if (a.fault_caused != b.fault_caused) return "fault_caused";
  if (a.unattributed != b.unattributed) return "unattributed";
  if (a.violations.size() != b.violations.size()) return "violations.size";
  for (std::size_t v = 0; v < a.violations.size(); ++v) {
    // str(): schedule label, party, coin delta, floor, detail, attribution.
    if (a.violations[v].str() != b.violations[v].str()) {
      return "violations[" + std::to_string(v) + "]";
    }
  }
  return "";
}

}  // namespace xchain::load
