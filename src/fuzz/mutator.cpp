#include "fuzz/mutator.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdlib>

#include "common/strict_int.hpp"

namespace xchain::fuzz {

namespace {

/// Dense working form of one party's plan.
struct Sketch {
  int variant = 0;
  std::vector<sim::ActionPolicy> acts;
};

Sketch sketch_of(const FuzzInput& in, std::size_t p, const Instance& shape) {
  const sim::DeviationPlan& plan = in.plan_of(p);
  return Sketch{plan.variant(), decode_plan(plan, shape.action_counts[p])};
}

void store(FuzzInput& in, std::size_t p, const Sketch& sk) {
  if (in.plans.size() <= p) in.plans.resize(p + 1);
  in.plans[p] = encode_plan(sk.acts, sk.variant);
}

/// The delay values mutation draws from: the strategy-space menu {Δ-1, Δ,
/// 2Δ} plus 1 tick (the smallest delay), deduplicated. Bump operators
/// then walk off-menu one tick at a time, which is how "past-Δ boundary"
/// values like Δ+1 arise.
std::vector<Tick> delay_menu(Tick delta) {
  std::vector<Tick> menu{1, delta - 1, delta, 2 * delta};
  menu.erase(std::remove_if(menu.begin(), menu.end(),
                            [](Tick d) { return d < 1; }),
             menu.end());
  std::sort(menu.begin(), menu.end());
  menu.erase(std::unique(menu.begin(), menu.end()), menu.end());
  return menu;
}

/// Parties with at least one deviation ordinal.
std::vector<std::size_t> actionable(const Instance& shape) {
  std::vector<std::size_t> out;
  for (std::size_t p = 0; p < shape.party_count(); ++p) {
    if (shape.action_counts[p] > 0) out.push_back(p);
  }
  return out;
}

}  // namespace

FuzzInput Mutator::mutate(const FuzzInput& parent, const Instance& shape,
                          const FuzzInput* crossover, Rng& rng) const {
  FuzzInput child = parent;
  // Mostly single-op children (small, attributable steps); occasionally
  // stack a second op so two-coordinate bugs stay reachable in one hop.
  const int ops = rng.chance(1, 4) ? 2 : 1;
  for (int i = 0; i < ops; ++i) mutate_once(child, shape, crossover, rng);
  return child;
}

void Mutator::mutate_once(FuzzInput& child, const Instance& shape,
                          const FuzzInput* crossover, Rng& rng) const {
  enum Op { kFlip, kBumpDelay, kHalt, kSplice, kVariant, kCross, kParam,
            kReset, kFault };
  const std::vector<std::size_t> parties = actionable(shape);

  // Weighted op menu, gated on applicability.
  std::vector<Op> menu;
  const auto add = [&](Op op, int weight) {
    for (int i = 0; i < weight; ++i) menu.push_back(op);
  };
  if (!parties.empty()) {
    add(kFlip, 3);
    add(kBumpDelay, 2);
    add(kHalt, 1);
    add(kReset, 1);
    if (parties.size() >= 2) add(kSplice, 1);
  }
  bool any_variants = false;
  for (const auto& vs : shape.variants) any_variants |= vs.size() > 1;
  if (any_variants) add(kVariant, 1);
  if (crossover != nullptr) add(kCross, 2);
  if (!target_.schema.specs().empty()) add(kParam, 2);
  add(kFault, 2);
  if (menu.empty()) return;

  const std::vector<Tick> delays = delay_menu(shape.delta);
  switch (menu[rng.below(menu.size())]) {
    case kFlip: {
      const std::size_t p = parties[rng.below(parties.size())];
      Sketch sk = sketch_of(child, p, shape);
      sim::ActionPolicy& pol = sk.acts[rng.below(sk.acts.size())];
      const std::uint64_t pick = rng.below(delays.size() + 2);
      if (pick == 0) {
        pol = {sim::ActionChoice::kPerform, 0};
      } else if (pick == 1) {
        pol = {sim::ActionChoice::kDrop, 0};
      } else {
        pol = {sim::ActionChoice::kDelay, delays[pick - 2]};
      }
      store(child, p, sk);
      break;
    }
    case kBumpDelay: {
      // Nudge an existing delay one tick up or down — this is what walks
      // values across the Δ and 2Δ boundaries one step at a time.
      std::vector<std::pair<std::size_t, std::size_t>> sites;
      for (const std::size_t p : parties) {
        const Sketch sk = sketch_of(child, p, shape);
        for (std::size_t o = 0; o < sk.acts.size(); ++o) {
          if (sk.acts[o].choice == sim::ActionChoice::kDelay) {
            sites.emplace_back(p, o);
          }
        }
      }
      if (sites.empty()) {
        // No delays to bump: plant one at the Δ-1 boundary instead.
        const std::size_t p = parties[rng.below(parties.size())];
        Sketch sk = sketch_of(child, p, shape);
        sk.acts[rng.below(sk.acts.size())] = {sim::ActionChoice::kDelay,
                                              delays.front()};
        store(child, p, sk);
        break;
      }
      const auto [p, o] = sites[rng.below(sites.size())];
      Sketch sk = sketch_of(child, p, shape);
      const Tick cap = 2 * shape.delta + 2;
      Tick d = sk.acts[o].delay + (rng.chance(1, 2) ? 1 : -1);
      d = std::clamp<Tick>(d, 1, cap);
      sk.acts[o] = {sim::ActionChoice::kDelay, d};
      store(child, p, sk);
      break;
    }
    case kHalt: {
      const std::size_t p = parties[rng.below(parties.size())];
      Sketch sk = sketch_of(child, p, shape);
      if (rng.chance(1, 3)) {
        // Clear every drop (halt suffixes included).
        for (sim::ActionPolicy& pol : sk.acts) {
          if (pol.choice == sim::ActionChoice::kDrop) {
            pol = {sim::ActionChoice::kPerform, 0};
          }
        }
      } else {
        const std::size_t k = rng.below(sk.acts.size());
        for (std::size_t o = k; o < sk.acts.size(); ++o) {
          sk.acts[o] = {sim::ActionChoice::kDrop, 0};
        }
      }
      store(child, p, sk);
      break;
    }
    case kSplice: {
      const std::size_t ia = rng.below(parties.size());
      std::size_t ib = rng.below(parties.size() - 1);
      if (ib >= ia) ++ib;
      const std::size_t a = parties[ia];
      const std::size_t b = parties[ib];
      Sketch src = sketch_of(child, a, shape);
      Sketch dst = sketch_of(child, b, shape);
      const std::size_t span = std::min(src.acts.size(), dst.acts.size());
      if (span == 0) break;
      std::size_t i = rng.below(span);
      std::size_t j = i + 1 + rng.below(span - i);
      for (std::size_t o = i; o < j; ++o) dst.acts[o] = src.acts[o];
      store(child, b, dst);
      break;
    }
    case kVariant: {
      std::vector<std::size_t> vp;
      for (std::size_t p = 0; p < shape.party_count(); ++p) {
        if (shape.variants[p].size() > 1) vp.push_back(p);
      }
      const std::size_t p = vp[rng.below(vp.size())];
      Sketch sk = sketch_of(child, p, shape);
      sk.variant = static_cast<int>(
          shape.variants[p][rng.below(shape.variants[p].size())]);
      store(child, p, sk);
      break;
    }
    case kCross: {
      // Uniform plan-level crossover with the donor input.
      const std::size_t n = shape.party_count();
      for (std::size_t p = 0; p < n; ++p) {
        if (rng.chance(1, 2)) {
          if (child.plans.size() <= p) child.plans.resize(p + 1);
          child.plans[p] = crossover->plan_of(p);
        }
      }
      break;
    }
    case kParam:
      mutate_param(child, rng);
      break;
    case kFault:
      mutate_fault(child, shape, rng);
      break;
    case kReset: {
      const std::size_t p = parties[rng.below(parties.size())];
      if (p < child.plans.size()) {
        child.plans[p] = sim::DeviationPlan::conforming();
      }
      break;
    }
  }
}

void Mutator::mutate_fault(FuzzInput& child, const Instance& shape,
                           Rng& rng) const {
  // All synthesized clauses target '*' so they apply on any chain roster;
  // windows are drawn inside the typical horizon (a few Δ) and lengths
  // straddle the tolerance boundary (outages both shorter and longer than
  // Δ), so mutation explores both recoverable and guarantee-voiding
  // substrates. Fault-only violations are reclassified by the pool, so
  // the latter cost nothing but coverage.
  using chain::FaultClause;
  const Tick delta = std::max<Tick>(shape.delta, 1);
  const std::size_t clause_count = child.faults.entries.size();
  const std::uint64_t mode =
      clause_count >= 4 ? 1 + rng.below(2) : rng.below(3);
  if (mode == 0) {
    FaultClause c;
    c.from = static_cast<Tick>(rng.below(
        static_cast<std::uint64_t>(6 * delta + 2)));
    c.to = c.from + static_cast<Tick>(rng.below(
                        static_cast<std::uint64_t>(2 * delta + 1)));
    switch (rng.below(3)) {
      case 0:
        c.kind = FaultClause::Kind::kOutage;
        break;
      case 1:
        c.kind = FaultClause::Kind::kSqueeze;
        c.cap = static_cast<int>(rng.below(3));  // 0..2 txs per block
        if (rng.chance(1, 2)) {
          c.spam = 1 + static_cast<int>(rng.below(3));
          c.spam_fee = static_cast<Amount>(rng.below(5));
        }
        if (rng.chance(1, 4)) c.mem = static_cast<int>(rng.below(4));
        break;
      default:
        c.kind = FaultClause::Kind::kDrop;
        c.permille = 1 + static_cast<int>(rng.below(1000));
        if (rng.chance(1, 2)) c.seed = 1 + rng.below(7);
        break;
    }
    child.faults.entries.emplace_back("*", c);
  } else if (mode == 1 && clause_count > 0) {
    child.faults.entries.erase(child.faults.entries.begin() +
                               static_cast<std::ptrdiff_t>(
                                   rng.below(clause_count)));
  } else {
    // Cycle the resilience policy: naive -> rebroadcast -> fee-escalate.
    using chain::ResiliencePolicy;
    switch (child.resilience.kind) {
      case ResiliencePolicy::Kind::kNaive:
        child.resilience.kind = ResiliencePolicy::Kind::kRebroadcast;
        break;
      case ResiliencePolicy::Kind::kRebroadcast:
        child.resilience.kind = ResiliencePolicy::Kind::kFeeEscalate;
        break;
      case ResiliencePolicy::Kind::kFeeEscalate:
        child.resilience = ResiliencePolicy{};
        break;
    }
  }
}

void Mutator::mutate_param(FuzzInput& child, Rng& rng) const {
  const sim::ParamSet ps = child.params(target_.schema);
  const std::vector<sim::ParamSpec>& specs = ps.specs();
  const sim::ParamSpec& spec = specs[rng.below(specs.size())];
  std::string next;
  switch (spec.type) {
    case sim::ParamType::kInt:
    case sim::ParamType::kAmount: {
      const std::int64_t cur = spec.type == sim::ParamType::kInt
                                   ? ps.get_int(spec.key)
                                   : ps.get_amount(spec.key);
      // Schema bounds, intersected with a fuzz window around the default
      // so worlds stay tractable (a 10^12-token principal is legal but
      // finds nothing a 10^6 one would not).
      std::int64_t lo = spec.has_min
                            ? static_cast<std::int64_t>(std::ceil(spec.min))
                            : 0;
      std::int64_t hi = spec.int_default * 2 + 8;
      if (spec.has_max) {
        hi = std::min(hi, static_cast<std::int64_t>(std::floor(spec.max)));
      }
      if (hi < lo) hi = lo;
      const std::int64_t spread = std::max<std::int64_t>(
          std::int64_t{1}, std::llabs(cur) / 8);
      std::int64_t step =
          1 + static_cast<std::int64_t>(
                  rng.below(static_cast<std::uint64_t>(spread)));
      std::int64_t value = rng.chance(1, 2) ? cur + step : cur - step;
      value = std::clamp(value, lo, hi);
      if (value == cur) value = cur < hi ? cur + 1 : (cur > lo ? cur - 1 : cur);
      if (value == cur) return;  // bounds pin the value; nothing to jitter
      next = std::to_string(value);
      break;
    }
    case sim::ParamType::kDouble: {
      const double cur = ps.get_double(spec.key);
      double value = cur == 0.0
                         ? static_cast<double>(rng.below(20)) / 10.0
                         : cur * (0.75 + static_cast<double>(rng.below(51)) /
                                             100.0);
      if (spec.has_min) value = std::max(value, spec.min);
      if (spec.has_max) value = std::min(value, spec.max);
      value = std::min(value, spec.double_default * 4.0 + 1.0);
      next = std::to_string(value);
      break;
    }
    case sim::ParamType::kString: {
      // The only string param in the registry is the auction bid list;
      // jitter it element-wise (the input is canonical, so the list has
      // already passed the registry's own parse).
      std::vector<std::int64_t> bids;
      for (const std::string& v :
           sim::split_csv(spec.key, ps.get_string(spec.key))) {
        long long bid = 0;
        if (!parse_long(v, LLONG_MIN, LLONG_MAX, bid)) return;
        bids.push_back(bid);
      }
      const std::uint64_t mode = rng.below(5);
      if (mode == 0 && bids.size() < 4) {
        bids.push_back(std::max<std::int64_t>(
            std::int64_t{0},
            bids.back() + static_cast<std::int64_t>(rng.below(21)) - 10));
      } else if (mode == 1 && bids.size() > 1) {
        bids.pop_back();
      } else {
        std::int64_t& bid = bids[rng.below(bids.size())];
        bid += static_cast<std::int64_t>(rng.below(41)) - 20;
        bid = std::max<std::int64_t>(bid, std::int64_t{0});
      }
      for (std::size_t i = 0; i < bids.size(); ++i) {
        if (i) next += ',';
        next += std::to_string(bids[i]);
      }
      break;
    }
  }
  child.overrides.emplace_back(spec.key, next);  // last assignment wins
}

}  // namespace xchain::fuzz
