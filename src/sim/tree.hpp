#pragma once

// The world contract every protocol engine implements, and the one brute
// replay routine that drives it.
//
// A protocol world (core/two_party.hpp, core/multi_party.hpp, ...) has
// four parts:
//
//   * construction — private (owns its chains, checkpoints them) or bound
//     into a shared MultiChain (core/binding.hpp);
//   * frame()      — the TreeFrame below: chains, persistent actors in
//     scheduler order, and the run horizon, all built at construction;
//   * set_plans()  — installs one schedule's deviation plans (and variant
//     knobs, e.g. the auctioneer's declaration strategy) on the actors;
//   * collect()    — maps the world's current end-of-run state to the
//     protocol's result struct.
//
// Nothing else: the worlds own no tick loop. Every executor runs ticks
// through sim::run_ticks (sim/scheduler.hpp) — replay() below from tick 0
// on a private world, the schedule-tree executor (sim/scenario.cpp) with
// a snapshot push per tick, and the load generator (src/load/) on a shared
// chain.

#include <stdexcept>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/snapshot.hpp"
#include "common/types.hpp"
#include "sim/deviation.hpp"
#include "sim/party.hpp"
#include "sim/scheduler.hpp"

namespace xchain::sim {

/// What every executor ticks. Built once per world (the actors persist
/// across runs — their mutable state rides the snapshot stack); `actors`
/// is in scheduler add-order, `horizon` the exclusive end tick of a run.
///
/// On a private world every actor's snapshot slot 0 holds its
/// construction-time state (pin_start(), called by the world's
/// constructor) — the start-of-tick-0 baseline that replay() restores and
/// that the tree executor's slot 0 shares.
struct TreeFrame {
  chain::MultiChain* chains = nullptr;
  std::vector<Party*> actors;
  Tick horizon = 0;
};

/// Pushes every actor's construction-time state as its snapshot slot 0.
/// Private worlds call this once, right after building their actors.
inline void pin_start(TreeFrame& frame) {
  for (Party* p : frame.actors) p->snapshot(chain::SnapshotOp::kPush, 0);
}

/// Brings a private world back to its start-of-tick-0 state: chains to
/// their post-setup checkpoint (which also clears their snapshot stack),
/// actors to their pinned slot 0.
inline void restart(TreeFrame& frame) {
  frame.chains->reset();
  for (Party* p : frame.actors) p->snapshot(chain::SnapshotOp::kRestore, 0);
}

/// Brute replay of one schedule on a private world: restart it, install
/// `plans`, drive ticks [0, horizon), finalize the chains (no further
/// submissions are meaningful once results are collected), and collect.
/// The one execution path of every core::run_* function and of every
/// registry adapter's run(). Debug builds also check the deployed deadline
/// ladders against Δ = `delta` (validate_deadlines).
template <class World>
auto replay(World& world, const std::vector<DeviationPlan>& plans,
            [[maybe_unused]] Tick delta) {
  TreeFrame& frame = world.frame();
  if (plans.size() != frame.actors.size()) {
    throw std::invalid_argument(
        "replay: one plan per party (expected " +
        std::to_string(frame.actors.size()) + ", got " +
        std::to_string(plans.size()) + ")");
  }
  restart(frame);
  world.set_plans(plans);
#ifndef NDEBUG
  validate_deadlines(*frame.chains, delta);
#endif
  run_ticks(*frame.chains, frame.actors, 0, frame.horizon);
  frame.chains->finalize_all();
  return world.collect();
}

}  // namespace xchain::sim
