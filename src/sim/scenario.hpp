#pragma once

// Adversarial scenario-sweep engine.
//
// The paper's central claim is quantitative: under *any* sore-loser
// deviation, every conforming party ends no worse off than its premium
// compensation (Definition 1 and the per-protocol lemmas). A handful of
// hand-picked deviations cannot establish that — this module enumerates
// whole adversary-strategy spaces instead.
//
// A deviation schedule assigns every party a DeviationPlan: one ActionPolicy
// — Perform, Delay(d ticks), or Drop — per scheduled-action ordinal, with
// halting as the suffix-of-Drops special case and protocol-specific
// dishonesty (e.g. the auctioneer's seven declaration strategies) folded in
// as variant-tagged plans rather than side knobs. Which plans are
// enumerated is a first-class sweep dimension, the StrategySpace
// (sim/strategy_space.hpp): halt-only reproduces the historical schedule
// space byte-identically; timely-delays adds last-moment-but-compliant
// lateness (which must sweep clean — a timely-delayed party is still
// conforming and keeps its hedged floor); late-delays adds delays at and
// past the synchrony bound, whose submissions can land past contract
// deadlines — the audit then treats the delayer as the sore loser and
// checks that everyone else is premium-compensated. Enlarged spaces are
// bounded (per-party plan cap + schedule budget) with ParamGrid-style loud
// truncation reports.
//
// A ProtocolAdapter describes one protocol engine: how many parties it has,
// how many deviation ordinals each party's script exposes, its synchrony
// bound Δ (from which delay menus derive), and — when the generic generator
// doesn't fit — the party's plan space itself. ScenarioRunner takes an
// adapter, enumerates the cross product of per-party plan spaces, runs
// every schedule through the engine (each adapter replays schedules on
// one reusable traceless world — sim/tree.hpp's replay(), the same
// routine the core::run_* functions run on a fresh traced world), and
// feeds each final state to payoff_audit, which flags any schedule where a
// conforming party loses more than its earned premiums — and, without an
// active chain environment, where an all-conforming run fails to complete
// or a conforming party's principal leaves without the counter-asset.
//
// Serial sweeps default to the prefix-sharing *schedule-tree executor*
// instead of replaying every schedule from tick 0. It drives the
// adapter's world frame (sim/tree.hpp TreeFrame, the persistent actors);
// the executor snapshots the whole world — ledgers, contracts, actors — at
// every tick boundary onto a layered checkpoint stack
// (Blockchain::snap_push / snap_rewind, chain/snapshot.hpp), logs which
// (party, ordinal) plan coordinates each run actually consulted
// (sim/consult.hpp), and memoizes finished runs in a trie keyed by those
// consulted decisions. A new schedule first walks the trie: reaching a
// leaf means some already-executed schedule made identical consulted
// decisions under the same engine variants, so by determinism the outcome
// is the cached one (a dedup hit — only the conforming flags, which depend
// on unconsulted plan coordinates, are recomputed). Otherwise the executor
// diffs the schedule against the last executed run's consult log and
// resumes from the first divergent tick via the snapshot stack, executing
// only the un-shared suffix. Rewinds are integrity-checked by a 64-bit
// state hash recorded at each push: a contract or actor whose state_tie()
// misses a mutable member fails loudly instead of silently corrupting the
// sweep. The tree report is identical, schedule for schedule, to the
// brute-force replay's (pinned by tests/tree_equivalence_test.cpp);
// SweepOptions.executor forces either engine.
//
// Sweeps are parallelizable: sweep(SweepOptions{.threads = N}) partitions
// the enumerated schedule space into contiguous shards, runs the shards on
// a worker pool (each worker drives its own adapter clone so per-run chain
// state never crosses threads), and merges the per-shard results in shard
// order — the merged report is identical, schedule for schedule, to the
// serial sweep's, whatever the strategy space.
//
// Adapters for all the protocol families — two-party hedged swap (§5),
// multi-party ARC swap (§7), ticket auction open + sealed (§9), the
// three-party brokered sale (§8), the bootstrapped premium-ladder swap
// (§6), the CRR-priced ladder (§4 + §6), and the witness bridges — are one
// generic WorldAdapter over a small protocol description each, at the
// bottom of this header. New engines should still not be hand-wired to
// them: register a named factory in sim/registry.hpp instead. The registry
// maps stable protocol names to ParamSet-driven adapter factories, and the
// campaign layer (sim/campaign.hpp, the `xchain-sweep` CLI, CI) sweeps
// whole configuration × strategy grids through it with zero recompilation —
// that is the entry point future fuzzing / scaling PRs should drive.

#include <concepts>
#include <cstddef>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/fault.hpp"
#include "common/types.hpp"
#include "core/auction.hpp"
#include "core/binding.hpp"
#include "core/bootstrap.hpp"
#include "core/bridge.hpp"
#include "core/broker.hpp"
#include "core/multi_party.hpp"
#include "core/two_party.hpp"
#include "sim/deviation.hpp"
#include "sim/payoff_audit.hpp"
#include "sim/strategy_space.hpp"
#include "sim/tree.hpp"

namespace xchain::sim {

/// One fully-specified adversarial schedule: a deviation plan per party.
/// Protocol-specific dishonesty rides on the plans' variant tags.
struct Schedule {
  std::vector<DeviationPlan> plans;
  std::string label;
};

/// One protocol instance bound into a shared MultiChain — what
/// ProtocolAdapter::bind_instance returns and the load generator
/// (src/load/) drives. The instance owns its (bound) world; the load
/// scheduler ticks the actors each round and, once the global tick reaches
/// end_tick(), collects the per-party outcomes for the payoff audit. All
/// plans are conforming: under load, every violation is the substrate's
/// fault, never a party's.
class LoadInstance {
 public:
  virtual ~LoadInstance() = default;

  /// Actors in scheduler add-order; tick each exactly once per round.
  virtual const std::vector<Party*>& actors() const = 0;

  /// Exclusive global end tick: the instance is complete once the load
  /// scheduler has produced the block at end_tick() - 1.
  virtual Tick end_tick() const = 0;

  /// End-of-run outcomes under the all-conforming schedule.
  virtual std::vector<PartyOutcome> collect() const = 0;
};

/// How ScenarioRunner talks to one protocol engine. run() must execute the
/// schedule on clean state so schedules never contaminate each other; the
/// protocol adapters (WorldAdapter below) build ONE reusable, traceless
/// world per adapter instance and replay every schedule on it from its
/// post-setup state, which is what makes deep sweeps cheap
/// (tests/sweep_equivalence_test.cpp pins each run identical to a fresh,
/// fully traced world's).
class ProtocolAdapter {
 public:
  virtual ~ProtocolAdapter() = default;

  virtual std::string name() const = 0;
  virtual std::size_t party_count() const = 0;

  /// Chain-side execution environment (chain/fault.hpp): the fault plan
  /// injected into this adapter's chains and the resilience policy its
  /// parties follow. Installed on the world when it is built, so set
  /// it before the first run; the default inactive environment keeps the
  /// substrate byte-identical to the historical reliable one. Active
  /// environments are brute-executor only — carried-over mempool entries
  /// break the tree executor's tick-boundary snapshot invariant — and
  /// clone() copies the environment, so parallel shards inject
  /// identically.
  void set_environment(chain::ChainEnvironment env) { env_ = std::move(env); }
  const chain::ChainEnvironment& environment() const { return env_; }

  /// Number of deviation ordinals in party p's script; the generic plan
  /// space tries halt@0 .. halt@(count-1) plus conforming, and delay/drop
  /// combinations over the same ordinals. (halt@count would repeat
  /// conforming: the party performs its whole script.)
  virtual int action_count(PartyId p) const = 0;

  /// The configured synchrony bound Δ in ticks — the unit strategy-space
  /// delay menus are derived from ({Δ-1} timely, {Δ-1, Δ, 2Δ} late).
  virtual Tick delta() const { return 1; }

  /// Party p's enumerated plan space under `strategies`, at most `cap`
  /// plans. Default: the generic generator over action_count(p) and
  /// delta(). Adapters whose parties deviate through protocol-specific
  /// variants (the auctioneer) override this to emit variant-tagged plans.
  virtual PartyPlanSpace plan_space(
      PartyId p, const StrategySpace& strategies,
      std::size_t cap = std::numeric_limits<std::size_t>::max()) const {
    return party_plan_space(action_count(p), delta(), strategies, cap);
  }

  /// How party p's plan renders inside a schedule label. Default: the
  /// plan's own str(); adapters with variant plans give them names.
  virtual std::string plan_label(PartyId p, const DeviationPlan& plan) const {
    (void)p;
    return plan.str();
  }

  /// An independent adapter driving the same protocol with the same
  /// parameters and environment. Parallel sweeps give every worker thread
  /// its own clone: adapters keep a reusable world (stateful chains) on
  /// themselves, so workers must never share one instance. A clone is a
  /// new adapter built from the same configuration — it builds its own
  /// world on first use.
  virtual std::unique_ptr<ProtocolAdapter> clone() const = 0;

  virtual std::vector<PartyOutcome> run(const Schedule& s) const = 0;

  /// Binds one all-conforming instance of this protocol onto the shared
  /// MultiChain described by `binding` (core/binding.hpp) and returns it
  /// for the load generator to drive. The instance's ledger rows live at
  /// [binding.party_base, party_base + party_count()) and its deadline
  /// ladder starts at binding.start; the adapter itself is not captured
  /// (the instance copies what it needs). Adapters without a bound world
  /// form throw.
  virtual std::unique_ptr<LoadInstance> bind_instance(
      const core::WorldBinding& binding) const {
    (void)binding;
    throw std::logic_error(name() + ": bind_instance not implemented");
  }

  /// --- Schedule-tree executor hooks ---------------------------------------
  /// The reusable world's frame (persistent actors + chains + horizon),
  /// built on first use, or nullptr when the adapter cannot be tree-swept.
  /// When this returns non-null, tree_set_plans / tree_collect must be
  /// implemented; they are const for the same reason run() is (the world
  /// is a mutable cache on a logically-const adapter).
  virtual TreeFrame* tree_frame() const { return nullptr; }
  /// Installs one schedule's plans (and variant knobs, e.g. the
  /// auctioneer's declaration strategy) on the frame's persistent actors.
  virtual void tree_set_plans(const Schedule& s) const {
    (void)s;
    throw std::logic_error(name() + ": tree executor hooks not implemented");
  }
  /// Maps the world's current end-of-run state to per-party outcomes —
  /// run()'s result assembly, without the replay.
  virtual std::vector<PartyOutcome> tree_collect(const Schedule& s) const {
    (void)s;
    throw std::logic_error(name() + ": tree executor hooks not implemented");
  }

 private:
  chain::ChainEnvironment env_;
};

/// Result of sweeping one adapter's schedule space.
struct SweepReport {
  std::string protocol;
  std::size_t schedules_run = 0;
  std::size_t conforming_audited = 0;
  std::vector<Violation> violations;

  /// Strategy-space truncation notices (ParamGrid-style): non-empty iff
  /// the enumerated space was capped below its full size. Halt-only
  /// sweeps are never truncated.
  std::vector<std::string> truncations;

  /// Worker threads actually used (small spaces clamp below the request:
  /// a worker only pays for itself over a batch of schedules).
  unsigned workers = 1;

  /// --- Executor statistics -------------------------------------------------
  /// Deliberately NOT part of line()/str(): those summary strings are
  /// pinned by tests and aggregated verbatim by campaign reports. Benches
  /// and campaign JSON export these fields instead.
  ///
  /// Schedules the executor actually ran on a world. Tree sweeps run one
  /// per distinct consulted-decision path; brute sweeps run every
  /// schedule, so nodes_executed == schedules_run there.
  std::size_t nodes_executed = 0;
  /// Schedules whose outcomes were produced and audited (executed plus
  /// dedup-served) — always equal to schedules_run; reported separately so
  /// JSON consumers need not know the identity.
  std::size_t schedules_covered = 0;
  /// Schedules served from a memo-trie leaf without touching the world
  /// (== schedules_run - nodes_executed; 0 on the brute path).
  std::size_t dedup_hits = 0;

  /// Violations attributed to the injected chain faults rather than any
  /// party's deviation (Violation::fault_caused — the schedule re-audits
  /// clean on a faultless twin world). Like the executor statistics this
  /// is NOT part of line()/str()'s pinned summary; campaign JSON exports
  /// it when an environment is active.
  std::size_t fault_caused = 0;

  bool ok() const { return violations.empty(); }

  /// One-line summary ("<protocol>: N schedules, ... V violations") — the
  /// per-protocol form campaign reports aggregate. Pinned in
  /// tests/strategy_sweep_test.cpp; campaign/CLI output depends on it.
  std::string line() const;
  /// line() plus one indented line per violation and per truncation.
  std::string str() const;
};

/// Which engine executes a sweep's schedules.
enum class SweepExecutor {
  /// Serial sweeps of tree-capable adapters use the schedule-tree
  /// executor; everything else (parallel shards, adapters without tree
  /// support, active chain environments) brute-force replays every
  /// schedule.
  kAuto,
  /// Force the schedule-tree executor (always serial). Throws
  /// std::invalid_argument when the adapter is not tree-capable.
  kTree,
  /// Force brute-force replay of every schedule.
  kBrute,
};

/// How to run a sweep.
struct SweepOptions {
  /// Schedules with more deviating parties are skipped (-1 = unbounded,
  /// the full cross product). Any non-reference plan — halt, delay, drop,
  /// or dishonest variant — counts its party as one deviator.
  int max_deviators = -1;

  /// Worker threads. 1 = serial; 0 = one per hardware thread. The result
  /// is bit-identical whatever the count.
  unsigned threads = 1;

  /// Which adversary strategies to enumerate (and the bounds on the
  /// enlarged spaces). Defaults to halt-only: byte-identical to the
  /// historical sweeps.
  StrategySpace strategies;

  /// Execution engine. The report is identical whichever engine runs
  /// (pinned by tests/tree_equivalence_test.cpp) — only the executor
  /// statistics and the wall-clock differ.
  SweepExecutor executor = SweepExecutor::kAuto;
};

/// Rejects malformed options (max_deviators below -1, zero strategy-space
/// caps) with std::invalid_argument instead of letting them skip every
/// schedule silently. Called by ScenarioRunner::sweep and Campaign::run.
void validate_sweep_options(const SweepOptions& opts);

/// Enumerates and audits deviation schedules for one protocol.
class ScenarioRunner {
 public:
  explicit ScenarioRunner(const ProtocolAdapter& adapter)
      : adapter_(adapter) {}

  /// All halt-only schedules with at most `max_deviators` deviating
  /// parties (-1 = unbounded, the full cross product).
  std::vector<Schedule> enumerate(int max_deviators = -1) const;

  /// All schedules of `opts`' strategy space within its deviator bound.
  std::vector<Schedule> enumerate(const SweepOptions& opts) const;

  /// How many schedules sweep(opts) would run, without running any — the
  /// `xchain-sweep --dry-run` number (decodes the space, applies the
  /// max_deviators filter, skips execution). When `truncations` is given,
  /// the strategy-space truncation notices a real sweep would report are
  /// appended to it — a dry run must be as loud about capping as the run
  /// it previews.
  std::size_t schedule_count(const SweepOptions& opts,
                             std::vector<std::string>* truncations =
                                 nullptr) const;

  /// Runs and audits every enumerated schedule serially.
  SweepReport sweep(int max_deviators = -1) const;

  /// Runs and audits every enumerated schedule, sharded over
  /// `opts.threads` workers. Violations arrive in enumeration order
  /// regardless of thread count.
  SweepReport sweep(const SweepOptions& opts) const;

 private:
  const ProtocolAdapter& adapter_;
};

// ---------------------------------------------------------------------------
// Protocol adapters: one generic WorldAdapter over six protocol descriptions
// ---------------------------------------------------------------------------

/// Builds a private world for `protocol` (a protocol description below)
/// with the given trace mode: World(cfg, trace), unless the protocol needs
/// more constructor arguments and says so with a make_world(trace) member.
template <class Protocol>
std::unique_ptr<typename Protocol::World> make_world(
    const Protocol& protocol, chain::TraceMode trace) {
  if constexpr (requires { protocol.make_world(trace); }) {
    return protocol.make_world(trace);
  } else {
    return std::make_unique<typename Protocol::World>(protocol.cfg, trace);
  }
}

/// The ProtocolAdapter for one protocol world (sim/tree.hpp world
/// contract), written once. `Protocol` is a small copyable description —
/// the config `cfg`, the World type, name(), party_count(),
/// action_count(p), and outcomes(result, schedule), the mapping from the
/// world's result to audited per-party outcomes, their hedge floors and
/// run properties — plus optional hooks: plan_space / plan_label
/// (variant-tagged parties), tree_capable() and bindable() (default true
/// when the world supports it), and make_world(trace).
///
/// The adapter owns ONE private traceless world, built on first use with
/// the adapter's environment installed, and reuses it for every schedule:
/// run() is sim::replay on it, and the tree hooks hand its frame to the
/// schedule-tree executor. Adapters are not copyable; clone() builds a new
/// adapter from the same description (its world is built on its own first
/// use), so parallel workers never share chain state. bind_instance()
/// builds a bound world on the shared chain, for protocols whose world has
/// a bound form.
template <class Protocol>
class WorldAdapter final : public ProtocolAdapter {
 public:
  using World = typename Protocol::World;

  template <class... Args>
    requires std::constructible_from<Protocol, Args...>
  explicit WorldAdapter(Args&&... args)
      : protocol_(std::forward<Args>(args)...) {}

  const Protocol& protocol() const { return protocol_; }
  const auto& config() const { return protocol_.cfg; }

  std::string name() const override { return protocol_.name(); }
  std::size_t party_count() const override {
    return protocol_.party_count();
  }
  int action_count(PartyId p) const override {
    return protocol_.action_count(p);
  }
  Tick delta() const override { return protocol_.cfg.delta; }
  PartyPlanSpace plan_space(
      PartyId p, const StrategySpace& strategies,
      std::size_t cap =
          std::numeric_limits<std::size_t>::max()) const override;
  std::string plan_label(PartyId p,
                         const DeviationPlan& plan) const override;

  std::unique_ptr<ProtocolAdapter> clone() const override;
  std::vector<PartyOutcome> run(const Schedule& s) const override;
  std::unique_ptr<LoadInstance> bind_instance(
      const core::WorldBinding& binding) const override;
  TreeFrame* tree_frame() const override;
  void tree_set_plans(const Schedule& s) const override;
  std::vector<PartyOutcome> tree_collect(const Schedule& s) const override;

 private:
  World& world() const;

  Protocol protocol_;
  /// The reusable private world — a cache the logically-const run() path
  /// fills on first use.
  mutable std::unique_ptr<World> world_;
};

/// Hedged two-party swap (§5.2, Figure 1). Bound: a conforming party whose
/// principal was locked up and refunded earns at least the counterparty's
/// premium (p_b for Alice, p_a for Bob).
struct TwoPartyProtocol {
  using World = core::TwoPartyWorld;
  explicit TwoPartyProtocol(core::TwoPartyConfig c) : cfg(c) {}

  std::string name() const { return "hedged-two-party"; }
  std::size_t party_count() const { return 2; }
  int action_count(PartyId) const { return core::kHedgedTwoPartyActions; }
  std::vector<PartyOutcome> outcomes(const core::TwoPartyResult& r,
                                     const Schedule& s) const;

  core::TwoPartyConfig cfg;
};

/// Multi-party ARC swap on a digraph (§7). Bound (Lemma 6): a conforming
/// party earns at least premium_unit per locked-and-refunded asset.
struct MultiPartyProtocol {
  using World = core::MultiPartyWorld;
  explicit MultiPartyProtocol(core::MultiPartyConfig c) : cfg(std::move(c)) {}

  std::string name() const {
    return std::string(cfg.hedged ? "hedged" : "base") + "-multi-party-n" +
           std::to_string(cfg.g.size());
  }
  std::size_t party_count() const { return cfg.g.size(); }
  int action_count(PartyId) const {
    return cfg.hedged ? core::kMultiPartyHedgedActions
                      : core::kMultiPartyBaseActions;
  }
  std::vector<PartyOutcome> outcomes(const core::MultiPartyResult& r,
                                     const Schedule& s) const;

  core::MultiPartyConfig cfg;
};

/// Ticket auction (§9), open or sealed-bid. Party 0 is the auctioneer: the
/// smart contracts confine her to publishing (or withholding) hashkeys, so
/// her whole behaviour space is the seven declaration strategies — folded
/// into the plan space as variant-tagged plans (variant 0 = honest,
/// core::auctioneer_strategy_of) rather than halt ordinals. Bidder
/// ordinals: open 0 = bid, 1 = forward; sealed 0 = commit, 1 = reveal,
/// 2 = forward. Bound (Lemma 8): a conforming bidder's coins move only
/// against the tickets, and never by more than its bid.
struct AuctionProtocol {
  using World = core::AuctionWorld;
  AuctionProtocol(core::AuctionConfig c, bool s)
      : cfg(std::move(c)), sealed(s) {}

  std::string name() const {
    return sealed ? "sealed-ticket-auction" : "ticket-auction";
  }
  std::size_t party_count() const { return cfg.bids.size() + 1; }
  int action_count(PartyId p) const {
    if (p == 0) return 0;  // the auctioneer deviates via variants only
    return sealed ? 3 : 2;
  }
  /// Party 0's space is the seven variant-tagged auctioneer plans; bidders
  /// use the generic generator.
  PartyPlanSpace plan_space(PartyId p, const StrategySpace& strategies,
                            std::size_t cap) const;
  /// The auctioneer's plans render as her declaration-strategy name.
  std::string plan_label(PartyId p, const DeviationPlan& plan) const;
  std::vector<PartyOutcome> outcomes(const core::AuctionResult& r,
                                     const Schedule& s) const;
  std::unique_ptr<World> make_world(chain::TraceMode trace) const {
    return std::make_unique<World>(cfg, sealed, trace);
  }

  core::AuctionConfig cfg;
  bool sealed;
};

/// Three-party brokered sale (§8, after Herlihy–Liskov–Shrira): Alice
/// brokers Bob's tickets to Carol. Bound (§8.2): a conforming seller whose
/// principal was locked up and refunded earns at least the base premium p;
/// Alice escrows nothing, so her floor is breaking even.
struct BrokerProtocol {
  using World = core::BrokerWorld;
  explicit BrokerProtocol(core::BrokerConfig c) : cfg(c) {}

  std::string name() const { return "hedged-broker"; }
  std::size_t party_count() const { return 3; }
  int action_count(PartyId) const { return core::kBrokerActions; }
  std::vector<PartyOutcome> outcomes(const core::BrokerResult& r,
                                     const Schedule& s) const;

  core::BrokerConfig cfg;
};

/// Bootstrapped premium-ladder swap (§6, Figure 2), driven through the
/// LadderContract pair. Bound (§6 via §5.2): a conforming party whose
/// principal was locked up and refunded is awarded the rung-1 premium on
/// its own chain (net of the rung-1 premium it forfeits on the
/// counterparty's chain when both principals were escrowed — the exact
/// two-party floors p_b and p_a generalized to the ladder amounts).
/// Ladder variants (like the CRR-priced one) are expressed as config
/// factories with their own name, never as new adapter types.
struct BootstrapProtocol {
  using World = core::BootstrapWorld;
  explicit BootstrapProtocol(core::BootstrapConfig c, std::string name = "");

  std::string name() const { return label; }
  std::size_t party_count() const { return 2; }
  int action_count(PartyId) const {
    return core::bootstrap_action_count(cfg.rounds);
  }
  std::vector<PartyOutcome> outcomes(const core::BootstrapResult& r,
                                     const Schedule& s) const;

  core::BootstrapConfig cfg;
  std::string label;
  Amount alice_floor = 0;  ///< apricot rung-1 premium (Bob's deposit)
  Amount bob_floor = 0;    ///< banana rung-1 minus apricot rung-1
};

/// Witness/attestation bridge (XChainBridge-style door account + claim
/// contract), value-transfer or account-create flavor, hedged with the
/// paper's premium construction: the user's premium and the witness bonds
/// escrow on the locking-chain door, the witness reward pool escrows on
/// the issuing side. Bound: a conforming user recovers
/// principal-or-premium — the wrapped asset on a completed transfer (the
/// reward pool is the legitimate spend), at least the premium when a
/// commit was stranded by a witness stall or quorum failure (funded by
/// the forfeited bonds); a conforming witness nets at least its
/// attestation cost — the reward on a completed transfer, break-even
/// otherwise. The transfer path is tree-capable and load-bindable;
/// account-create sweeps brute.
struct BridgeProtocol {
  using World = core::BridgeWorld;
  explicit BridgeProtocol(core::BridgeConfig c) : cfg(c) {}

  std::string name() const {
    return transfer() ? "bridge-transfer" : "bridge-account-create";
  }
  std::size_t party_count() const {
    return static_cast<std::size_t>(cfg.party_count());
  }
  int action_count(PartyId p) const {
    return p == 0 ? cfg.user_actions() : cfg.witness_actions();
  }
  bool tree_capable() const { return transfer(); }
  bool bindable() const { return transfer(); }
  std::vector<PartyOutcome> outcomes(const core::BridgeResult& r,
                                     const Schedule& s) const;

  bool transfer() const {
    return cfg.variant == core::BridgeVariant::kTransfer;
  }

  core::BridgeConfig cfg;
};

using TwoPartySwapAdapter = WorldAdapter<TwoPartyProtocol>;
using MultiPartySwapAdapter = WorldAdapter<MultiPartyProtocol>;
using TicketAuctionAdapter = WorldAdapter<AuctionProtocol>;
using BrokerDealAdapter = WorldAdapter<BrokerProtocol>;
using BootstrapSwapAdapter = WorldAdapter<BootstrapProtocol>;
using BridgeAdapter = WorldAdapter<BridgeProtocol>;

// Defined, and instantiated for the six protocols, in scenario.cpp.
extern template class WorldAdapter<TwoPartyProtocol>;
extern template class WorldAdapter<MultiPartyProtocol>;
extern template class WorldAdapter<AuctionProtocol>;
extern template class WorldAdapter<BrokerProtocol>;
extern template class WorldAdapter<BootstrapProtocol>;
extern template class WorldAdapter<BridgeProtocol>;

/// Market parameters for CRR premium pricing (§4).
struct CrrMarket {
  double volatility = 0.8;       ///< annualized sigma (crypto-grade)
  double rate = 0.0;             ///< risk-free rate
  double ticks_per_year = 1460;  ///< tick = 6h (paper's Delta = 12h)
};

/// A single-rung ladder whose premiums are priced by the
/// Cox–Ross–Rubinstein model (§4) instead of the geometric bootstrap
/// factor: p_b prices the walk-away option on Alice's principal over its
/// lock-up window, p_a on Bob's, and the banana rung carries p_a + p_b per
/// §5.2. Wires the CRR engine (core/crr.*) and the ladder contract
/// (contracts/ladder.*) into the sweep as the "crr-ladder" protocol.
BootstrapSwapAdapter make_crr_ladder_adapter(core::BootstrapConfig cfg,
                                             const CrrMarket& market = {});

}  // namespace xchain::sim
