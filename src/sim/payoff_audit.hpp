#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/payoff.hpp"

namespace xchain::sim {

/// The paper's hedging guarantee (Definition 1) instantiated for one party
/// in one finished run: a conforming party must end no worse off than its
/// earned premium compensation. The protocol adapter fills in the numbers —
/// the audit only compares them against the observed payoff.
struct HedgeBound {
  /// Premium-compensation floor on the party's native-coin delta. 0 for a
  /// party that was never harmed; each locked-and-refunded principal raises
  /// it by the premium the paper awards for that lock-up.
  Amount min_coin_delta = 0;

  /// Coins the party may legitimately spend in exchange for goods (e.g. the
  /// winning bid in the ticket auction). The coin delta is allowed to dip
  /// to `min_coin_delta - spend_allowance` only when `goods_received`.
  Amount spend_allowance = 0;
  bool goods_received = false;

  /// The synchronous model's two non-payoff properties, as path-determined
  /// facts of the run (audit_run_properties checks them). Both default to
  /// "holds", so protocols and parties without the notion never trip them.
  /// Whether the run completed (swap swapped, deal closed, transfer
  /// delivered). A run-wide fact: protocols set it on the first outcome
  /// only, and the audit reads it there alone.
  bool run_completed = true;
  /// False when the party's escrowed principal left it and the
  /// counter-asset did not arrive (see principal_safe()).
  bool principal_safe = true;
};

/// One party's end-of-run state as seen by the audit.
struct PartyOutcome {
  std::string name;
  bool conforming = true;
  core::PayoffDelta payoff;
  HedgeBound bound;
};

/// A schedule on which the hedging bound failed for a conforming party.
struct Violation {
  std::string schedule;  ///< label of the offending schedule
  std::string party;
  Amount coin_delta = 0;    ///< observed
  Amount required_min = 0;  ///< the floor that was breached
  std::string detail;

  /// True when the loss is attributed to the injected chain faults rather
  /// than any party's deviation: the same schedule re-audits clean on a
  /// faultless twin world (ScenarioRunner::sweep's attribution pass).
  /// Within the fault plan's tolerance envelope this still breaches the
  /// paper's guarantee — the substrate stayed inside the slack the
  /// deadlines are provisioned for — so fault-caused violations keep
  /// failing sweeps; the flag tells the reader which knob to blame.
  bool fault_caused = false;

  std::string str() const;
};

/// Audits one schedule's outcomes against each conforming party's
/// HedgeBound, and checks that native-coin flows are zero-sum across
/// parties when `check_conservation` (premiums only move between parties;
/// contracts never strand coins). Appends any violations to `out` and
/// returns the number of conforming parties audited.
std::size_t audit_schedule(const std::string& schedule_label,
                           const std::vector<PartyOutcome>& outcomes,
                           std::vector<Violation>& out,
                           bool check_conservation = true);

/// Principal safety for one party's payoff: true unless `given` (the
/// principal it escrowed) left its holdings while `wanted` (the
/// counter-asset) did not arrive.
bool principal_safe(const core::PayoffDelta& payoff, const std::string& given,
                    const std::string& wanted);

/// The two properties the paper's §10 model check verifies beyond the
/// payoff floors, read from the HedgeBound bits:
///  * liveness: when every party conforms, the run completes (the first
///    outcome's `run_completed`) — one "<all>" violation per schedule
///    otherwise;
///  * principal safety: a conforming party whose escrowed principal left
///    received the counter-asset — one violation per such party.
/// Both hold only in the synchronous model: chain faults and shared-chain
/// congestion can stall a conforming run through no party's deviation, so
/// fault sweeps and load runs audit the payoff floors alone. Appends any
/// violations to `out`.
void audit_run_properties(const std::string& schedule_label,
                          const std::vector<PartyOutcome>& outcomes,
                          std::vector<Violation>& out);

}  // namespace xchain::sim
