#include "sim/payoff_audit.hpp"

#include <algorithm>

namespace xchain::sim {

std::string Violation::str() const {
  // Append-only string building (GCC 12 -Wrestrict, PR 105651).
  std::string out = schedule;
  out += ": ";
  out += party;
  out += " ended at ";
  out += std::to_string(coin_delta);
  out += " coins, floor ";
  out += std::to_string(required_min);
  if (!detail.empty()) {
    out += " (";
    out += detail;
    out += ')';
  }
  if (fault_caused) out += " [chain-fault]";
  return out;
}

std::size_t audit_schedule(const std::string& schedule_label,
                           const std::vector<PartyOutcome>& outcomes,
                           std::vector<Violation>& out,
                           bool check_conservation) {
  std::size_t audited = 0;
  Amount total = 0;
  for (const PartyOutcome& o : outcomes) {
    total += o.payoff.coin_delta;
    if (!o.conforming) continue;
    ++audited;

    Amount floor = o.bound.min_coin_delta;
    if (o.bound.goods_received) {
      floor -= o.bound.spend_allowance;
    }
    if (o.payoff.coin_delta < floor) {
      out.push_back({schedule_label, o.name, o.payoff.coin_delta, floor,
                     o.bound.goods_received
                         ? "spent more than allowance over premium floor"
                         : "lost more than earned premiums"});
    } else if (!o.bound.goods_received && o.payoff.coin_delta < 0) {
      // A conforming party that received nothing must never end coin-
      // negative, whatever floor the adapter computed (defence in depth
      // against adapters under-reporting entitlements).
      out.push_back({schedule_label, o.name, o.payoff.coin_delta, 0,
                     "coin-negative without goods"});
    }
  }
  if (check_conservation && total != 0) {
    out.push_back({schedule_label, "<all>", total, 0,
                   "native-coin flows not zero-sum across parties"});
  }
  return audited;
}

bool principal_safe(const core::PayoffDelta& payoff, const std::string& given,
                    const std::string& wanted) {
  const auto lost = payoff.by_symbol.find(given);
  if (lost == payoff.by_symbol.end() || lost->second >= 0) return true;
  const auto got = payoff.by_symbol.find(wanted);
  return got != payoff.by_symbol.end() && got->second > 0;
}

void audit_run_properties(const std::string& schedule_label,
                          const std::vector<PartyOutcome>& outcomes,
                          std::vector<Violation>& out) {
  // Bits first: both hold on almost every schedule, so the common case
  // costs one test per party plus one per run.
  for (const PartyOutcome& o : outcomes) {
    if (!o.bound.principal_safe && o.conforming) {
      out.push_back({schedule_label, o.name, o.payoff.coin_delta, 0,
                     "escrowed principal left without the counter-asset"});
    }
  }
  if (!outcomes.empty() && !outcomes.front().bound.run_completed &&
      std::all_of(outcomes.begin(), outcomes.end(),
                  [](const PartyOutcome& o) { return o.conforming; })) {
    out.push_back({schedule_label, "<all>", 0, 0,
                   "every party conformed but the run did not complete"});
  }
}

}  // namespace xchain::sim
