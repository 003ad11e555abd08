#pragma once

#include "core/auction.hpp"
#include "core/bootstrap.hpp"
#include "core/broker.hpp"
#include "core/multi_party.hpp"
#include "core/two_party.hpp"
#include "graph/digraph.hpp"
#include "sim/registry.hpp"

namespace xchain::sim {

/// Canonical paper-parameter protocol configurations, shared by the
/// scenario-sweep tests and benchmarks so both always audit and measure the
/// same schedule space. Since the protocol-registry redesign these are thin
/// shims over ProtocolRegistry::global() defaults: the canonical numbers
/// live in the registry's ParamSpec declarations (sim/registry.cpp), and
/// tests/registry_campaign_test.cpp pins that they still byte-match the
/// historical structs (A=100 apricot vs B=50 banana with p_a=2, p_b=1;
/// Figure 3a with uniform p=1; a 10-ticket auction with bids 100/80 and
/// p=2; the §8 broker deal with a 1-coin spread; a 2-round $1M/$1M
/// bootstrap at P=100; a CRR-priced single-rung ladder over $100k/$100k).

inline core::TwoPartyConfig reference_two_party_config() {
  return two_party_config_from(ProtocolRegistry::global().defaults("two-party"));
}

inline core::MultiPartyConfig reference_multi_party_config(
    graph::Digraph g = graph::Digraph::figure3a()) {
  return multi_party_config_from(
      ProtocolRegistry::global().defaults("multi-party-fig3a"), std::move(g));
}

inline core::AuctionConfig reference_auction_config() {
  return auction_config_from(
      ProtocolRegistry::global().defaults("auction-open"), /*sealed=*/false);
}

inline core::BrokerConfig reference_broker_config() {
  return broker_config_from(ProtocolRegistry::global().defaults("broker"));
}

inline core::BootstrapConfig reference_bootstrap_config(int rounds = 2) {
  ParamSet p = ProtocolRegistry::global().defaults("bootstrap");
  p.set("rounds", std::to_string(rounds));
  return bootstrap_config_from(p);
}

/// Principals for the CRR-priced ladder: $100k a side, Delta = 2 ticks
/// (the §4 market parameters live in the crr-ladder schema defaults,
/// mirroring CrrMarket's).
inline core::BootstrapConfig reference_crr_ladder_config() {
  return crr_principals_from(
      ProtocolRegistry::global().defaults("crr-ladder"));
}

}  // namespace xchain::sim
