// The protocol registry + campaign layer: every registered protocol must
// build from its default ParamSet and sweep clean; malformed names, keys,
// and values must fail with descriptive errors (never UB); registry
// defaults must stay byte-identical to the historical hard-coded reference
// structs; and a grid campaign's report must be deterministic whatever the
// worker-thread count.

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "sim/campaign.hpp"
#include "sim/param.hpp"
#include "sim/reference_configs.hpp"
#include "sim/registry.hpp"
#include "sim/scenario.hpp"

namespace xchain::sim {
namespace {

// ---------------------------------------------------------------------------
// ParamSet / ParamGrid
// ---------------------------------------------------------------------------

ParamSet demo_schema() {
  return ParamSet({
      ParamSpec::integer("count", 3, "a count").between(1, 10),
      ParamSpec::amount("tokens", 100, "an amount").at_least(0),
      ParamSpec::real("rate", 0.5, "a rate").between(0, 1),
      ParamSpec::text("label", "x", "a label"),
  });
}

TEST(ParamSet, DefaultsAndTypedGetters) {
  const ParamSet p = demo_schema();
  EXPECT_EQ(p.get_int("count"), 3);
  EXPECT_EQ(p.get_amount("tokens"), 100);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.5);
  EXPECT_EQ(p.get_string("label"), "x");
  EXPECT_FALSE(p.is_set("count"));
  EXPECT_EQ(p.overrides_str(), "");
}

TEST(ParamSet, SetParsesAndTracksOverrides) {
  ParamSet p = demo_schema();
  p.set("count", "7");
  p.set("rate", "0.25");
  p.set("label", "hello");
  EXPECT_EQ(p.get_int("count"), 7);
  EXPECT_DOUBLE_EQ(p.get_double("rate"), 0.25);
  EXPECT_EQ(p.get_string("label"), "hello");
  EXPECT_TRUE(p.is_set("count"));
  EXPECT_FALSE(p.is_set("tokens"));
  EXPECT_EQ(p.overrides_str(), "count=7 rate=0.25 label=hello");
}

TEST(ParamSet, UnknownKeyIsADescriptiveError) {
  ParamSet p = demo_schema();
  try {
    p.set("no_such_key", "1");
    FAIL() << "expected ParamError";
  } catch (const ParamError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no_such_key"), std::string::npos) << msg;
    EXPECT_NE(msg.find("count"), std::string::npos)
        << "message should list valid keys: " << msg;
  }
  EXPECT_THROW(p.get_int("no_such_key"), ParamError);
  EXPECT_THROW((void)demo_schema().get_string("count"), ParamError)
      << "type-mismatched reads must throw too";
}

TEST(ParamSet, OutOfBoundsAndUnparsableValuesThrow) {
  ParamSet p = demo_schema();
  EXPECT_THROW(p.set("count", "0"), ParamError);    // below [1, 10]
  EXPECT_THROW(p.set("count", "11"), ParamError);   // above
  EXPECT_THROW(p.set("count", "two"), ParamError);  // not an integer
  EXPECT_THROW(p.set("rate", "1.5"), ParamError);   // above [0, 1]
  EXPECT_THROW(p.set("rate", "nan"), ParamError);
  // Failed sets must not corrupt the current value.
  EXPECT_EQ(p.get_int("count"), 3);
}

TEST(ParamGrid, ExpandsCrossProductInDeclarationOrder) {
  ParamGrid grid;
  grid.add_axis_csv("count", "1,2");
  grid.add_axis_csv("label", "a,b,c");
  const GridExpansion ex = grid.expand(demo_schema());
  ASSERT_EQ(ex.total_points, 6u);
  ASSERT_EQ(ex.points.size(), 6u);
  EXPECT_FALSE(ex.truncated());
  // First axis varies slowest.
  EXPECT_EQ(ex.points[0].overrides_str(), "count=1 label=a");
  EXPECT_EQ(ex.points[1].overrides_str(), "count=1 label=b");
  EXPECT_EQ(ex.points[3].overrides_str(), "count=2 label=a");
}

TEST(ParamGrid, CapTruncatesLoudly) {
  ParamGrid grid;
  grid.add_axis_csv("count", "1,2,3,4,5");
  const GridExpansion ex = grid.expand(demo_schema(), /*cap=*/3);
  EXPECT_EQ(ex.total_points, 5u);
  EXPECT_EQ(ex.points.size(), 3u);
  EXPECT_TRUE(ex.truncated());
  EXPECT_NE(ex.truncation_report().find("5"), std::string::npos);
}

TEST(ParamGrid, BadAxisValueFailsBeforeAnySweep) {
  ParamGrid grid;
  grid.add_axis_csv("count", "1,zebra");
  EXPECT_THROW(grid.expand(demo_schema()), ParamError);
  ParamGrid unknown;
  unknown.add_axis_csv("no_such_key", "1");
  EXPECT_THROW(unknown.expand(demo_schema()), ParamError);
  // Even when the cap truncates before the bad value's row would
  // materialize, expansion must still reject it.
  ParamGrid capped;
  capped.add_axis_csv("count", "1,zebra");
  EXPECT_THROW(capped.expand(demo_schema(), /*cap=*/1), ParamError);
}

// ---------------------------------------------------------------------------
// Registry: coverage, defaults, errors
// ---------------------------------------------------------------------------

TEST(Registry, AllReferenceProtocolsAreRegistered) {
  const auto names = ProtocolRegistry::global().names();
  const std::vector<std::string> expected = {
      "two-party",    "multi-party-ring", "multi-party-fig3a",
      "auction-open", "auction-sealed",   "broker",
      "bootstrap",    "crr-ladder"};
  for (const std::string& name : expected) {
    EXPECT_TRUE(ProtocolRegistry::global().contains(name)) << name;
  }
  EXPECT_GE(names.size(), expected.size());
}

TEST(Registry, EveryProtocolBuildsFromDefaultsAndSweepsClean) {
  for (const std::string& name : ProtocolRegistry::global().names()) {
    SCOPED_TRACE(name);
    const auto adapter = ProtocolRegistry::global().make(name);
    ASSERT_NE(adapter, nullptr);
    const SweepReport report = ScenarioRunner(*adapter).sweep();
    EXPECT_GT(report.schedules_run, 0u);
    EXPECT_GT(report.conforming_audited, 0u);
    EXPECT_TRUE(report.ok()) << report.str();
  }
}

TEST(Registry, UnknownProtocolIsADescriptiveError) {
  try {
    ProtocolRegistry::global().make("no-such-protocol");
    FAIL() << "expected RegistryError";
  } catch (const RegistryError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("no-such-protocol"), std::string::npos) << msg;
    EXPECT_NE(msg.find("two-party"), std::string::npos)
        << "message should list registered names: " << msg;
  }
}

TEST(Registry, OutOfBoundsParamsAreRejectedNotUB) {
  ParamSet ring = ProtocolRegistry::global().defaults("multi-party-ring");
  EXPECT_THROW(ring.set("n", "1"), ParamError);   // a 1-cycle is not a swap
  EXPECT_THROW(ring.set("n", "99"), ParamError);  // 5^99 schedules: bounded
  EXPECT_THROW(ring.set("delta", "0"), ParamError);
  EXPECT_THROW(ring.set("premium_unit", "-1"), ParamError);
  ParamSet auction = ProtocolRegistry::global().defaults("auction-open");
  EXPECT_THROW(auction.set("bogus_key", "1"), ParamError);
  // Malformed bid lists surface as ParamError at factory time.
  auction.set("bids", "100,frog");
  EXPECT_THROW(ProtocolRegistry::global().make("auction-open", auction),
               ParamError);
}

// An auction no bid can win is a configuration error, not a liveness
// failure: with every reveal above the sealed collateral, or every bid
// zero, a conforming run has no winner and refunds everyone.
TEST(Registry, AuctionsNoBidCanWinAreRejected) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  ParamSet sealed = reg.defaults("auction-sealed");
  sealed.set("collateral", "50");  // below both default bids
  EXPECT_THROW(reg.make("auction-sealed", sealed), ParamError);
  sealed.set("collateral", "99");  // below the top bid only
  EXPECT_THROW(reg.make("auction-sealed", sealed), ParamError);
  ParamSet open = reg.defaults("auction-open");
  open.set("bids", "0,0");
  EXPECT_THROW(reg.make("auction-open", open), ParamError);
  open.set("collateral", "50");  // the open auction takes no collateral
  open.set("bids", "100,80");
  EXPECT_NO_THROW(reg.make("auction-open", open));

  // The edges that stay valid pass the full audit, run properties too.
  sealed.set("collateral", "100");
  sealed.set("bids", "100,0");
  open.set("bids", "0,80");
  for (const auto& [name, params] :
       {std::pair{"auction-sealed", sealed}, std::pair{"auction-open", open}}) {
    const auto adapter = reg.make(name, params);
    const SweepReport r = ScenarioRunner(*adapter).sweep(SweepOptions{});
    EXPECT_GT(r.schedules_run, 0u) << name;
    EXPECT_TRUE(r.violations.empty()) << name << ": " << r.str();
  }
}

// Values the schema's minimums admit but the engines cannot run are
// configuration errors: a bootstrap premium factor P <= 1 never shrinks
// the premium, and a zero-volatility CRR lattice has nothing to price.
// Both fail as ParamError at make time, never as std::invalid_argument
// mid-sweep; the edges just inside stay valid and sweep clean.
TEST(Registry, EngineRejectedValuesAreParamErrors) {
  const ProtocolRegistry& reg = ProtocolRegistry::global();
  ParamSet boot = reg.defaults("bootstrap");
  boot.set("factor", "1");
  EXPECT_THROW(reg.make("bootstrap", boot), ParamError);
  ParamSet crr = reg.defaults("crr-ladder");
  crr.set("volatility", "0");
  EXPECT_THROW(reg.make("crr-ladder", crr), ParamError);

  boot.set("factor", "1.01");
  crr.set("volatility", "0.01");
  for (const auto& [name, params] :
       {std::pair{"bootstrap", boot}, std::pair{"crr-ladder", crr}}) {
    const auto adapter = reg.make(name, params);
    const SweepReport r = ScenarioRunner(*adapter).sweep(SweepOptions{});
    EXPECT_GT(r.schedules_run, 0u) << name;
    EXPECT_TRUE(r.violations.empty()) << name << ": " << r.str();
  }
}

// Registry defaults must stay byte-identical to the historical hard-coded
// reference structs (the numbers the whole PR-1..3 test/bench corpus was
// pinned on). reference_configs.hpp is now a shim over these defaults, so
// this is the single place the canonical numbers are spelled out.
TEST(Registry, DefaultsByteMatchLegacyReferenceStructs) {
  const core::TwoPartyConfig tp = reference_two_party_config();
  EXPECT_EQ(tp.alice_tokens, 100);
  EXPECT_EQ(tp.bob_tokens, 50);
  EXPECT_EQ(tp.premium_a, 2);
  EXPECT_EQ(tp.premium_b, 1);
  EXPECT_EQ(tp.delta, 2);

  const core::MultiPartyConfig mp = reference_multi_party_config();
  EXPECT_EQ(mp.g.size(), graph::Digraph::figure3a().size());
  EXPECT_EQ(mp.asset_amount, 100);
  EXPECT_EQ(mp.premium_unit, 1);
  EXPECT_EQ(mp.delta, 1);
  EXPECT_TRUE(mp.hedged);
  EXPECT_TRUE(mp.leaders.empty());

  const core::AuctionConfig au = reference_auction_config();
  EXPECT_EQ(au.ticket_count, 10);
  EXPECT_EQ(au.bids, (std::vector<Amount>{100, 80}));
  EXPECT_EQ(au.premium_unit, 2);
  EXPECT_EQ(au.delta, 2);
  EXPECT_EQ(au.collateral, 150);

  const core::BrokerConfig br = reference_broker_config();
  EXPECT_EQ(br.ticket_count, 10);
  EXPECT_EQ(br.sale_price, 101);
  EXPECT_EQ(br.purchase_price, 100);
  EXPECT_EQ(br.premium_unit, 1);
  EXPECT_EQ(br.delta, 1);

  const core::BootstrapConfig bs = reference_bootstrap_config();
  EXPECT_EQ(bs.alice_tokens, 1'000'000);
  EXPECT_EQ(bs.bob_tokens, 1'000'000);
  EXPECT_DOUBLE_EQ(bs.factor, 100.0);
  EXPECT_EQ(bs.rounds, 2);
  EXPECT_EQ(bs.delta, 2);
  EXPECT_TRUE(bs.apricot_premiums.empty());
  EXPECT_TRUE(bs.banana_premiums.empty());

  const core::BootstrapConfig crr = reference_crr_ladder_config();
  EXPECT_EQ(crr.alice_tokens, 100'000);
  EXPECT_EQ(crr.bob_tokens, 100'000);
  EXPECT_EQ(crr.rounds, 1);
  EXPECT_EQ(crr.delta, 2);

  // The crr-ladder schema's market defaults mirror CrrMarket's.
  const CrrMarket market =
      crr_market_from(ProtocolRegistry::global().defaults("crr-ladder"));
  const CrrMarket hard_coded;
  EXPECT_DOUBLE_EQ(market.volatility, hard_coded.volatility);
  EXPECT_DOUBLE_EQ(market.rate, hard_coded.rate);
  EXPECT_DOUBLE_EQ(market.ticks_per_year, hard_coded.ticks_per_year);
}

// Registry-built adapters must sweep bit-identically to adapters built
// straight from the legacy structs — the refactor is a pure re-plumbing.
TEST(Registry, RegistryAdaptersSweepIdenticalToLegacyConstruction) {
  struct Pair {
    std::unique_ptr<ProtocolAdapter> legacy;
    std::string registry_name;
  };
  std::vector<Pair> pairs;
  pairs.push_back({std::make_unique<TwoPartySwapAdapter>(
                       reference_two_party_config()),
                   "two-party"});
  pairs.push_back({std::make_unique<MultiPartySwapAdapter>(
                       reference_multi_party_config()),
                   "multi-party-fig3a"});
  pairs.push_back({std::make_unique<TicketAuctionAdapter>(
                       reference_auction_config(), /*sealed=*/true),
                   "auction-sealed"});
  pairs.push_back({std::make_unique<BrokerDealAdapter>(
                       reference_broker_config()),
                   "broker"});
  pairs.push_back({std::make_unique<BootstrapSwapAdapter>(
                       reference_bootstrap_config()),
                   "bootstrap"});
  pairs.push_back({std::make_unique<BootstrapSwapAdapter>(
                       make_crr_ladder_adapter(reference_crr_ladder_config())),
                   "crr-ladder"});
  for (const Pair& pair : pairs) {
    SCOPED_TRACE(pair.registry_name);
    const auto from_registry =
        ProtocolRegistry::global().make(pair.registry_name);
    const SweepReport a = ScenarioRunner(*pair.legacy).sweep();
    const SweepReport b = ScenarioRunner(*from_registry).sweep();
    EXPECT_EQ(a.protocol, b.protocol);
    EXPECT_EQ(a.schedules_run, b.schedules_run);
    EXPECT_EQ(a.conforming_audited, b.conforming_audited);
    EXPECT_EQ(a.violations.size(), b.violations.size());
  }
}

// ---------------------------------------------------------------------------
// Campaigns
// ---------------------------------------------------------------------------

CampaignSpec two_protocol_grid(unsigned threads) {
  CampaignSpec spec;
  CampaignEntry ring;
  ring.protocol = "multi-party-ring";
  ring.grid.add_axis_csv("n", "3,4");
  ring.grid.add_axis_csv("premium_unit", "1,2");
  spec.entries.push_back(std::move(ring));
  CampaignEntry two_party;
  two_party.protocol = "two-party";
  two_party.overrides.emplace_back("premium_b", "3");
  two_party.grid.add_axis_csv("premium_a", "1,2");
  spec.entries.push_back(std::move(two_party));
  spec.sweep.threads = threads;
  return spec;
}

void expect_identical(const CampaignReport& a, const CampaignReport& b) {
  ASSERT_EQ(a.configurations(), b.configurations());
  for (std::size_t i = 0; i < a.configs.size(); ++i) {
    SCOPED_TRACE(a.configs[i].line());
    EXPECT_EQ(a.configs[i].protocol, b.configs[i].protocol);
    EXPECT_EQ(a.configs[i].params, b.configs[i].params);
    EXPECT_EQ(a.configs[i].report.protocol, b.configs[i].report.protocol);
    EXPECT_EQ(a.configs[i].report.schedules_run,
              b.configs[i].report.schedules_run);
    EXPECT_EQ(a.configs[i].report.conforming_audited,
              b.configs[i].report.conforming_audited);
    ASSERT_EQ(a.configs[i].report.violations.size(),
              b.configs[i].report.violations.size());
    for (std::size_t v = 0; v < a.configs[i].report.violations.size(); ++v) {
      EXPECT_EQ(a.configs[i].report.violations[v].schedule,
                b.configs[i].report.violations[v].schedule);
    }
  }
  EXPECT_EQ(a.truncations, b.truncations);
}

TEST(Campaign, TwoProtocolGridIsDeterministicAcrossThreadCounts) {
  const CampaignReport serial = Campaign(two_protocol_grid(1)).run();
  // 2x2 ring grid + 2-point two-party grid.
  ASSERT_EQ(serial.configurations(), 6u);
  EXPECT_EQ(serial.configs[0].protocol, "multi-party-ring");
  EXPECT_EQ(serial.configs[0].params, "n=3 premium_unit=1");
  EXPECT_EQ(serial.configs[4].protocol, "two-party");
  EXPECT_EQ(serial.configs[4].params, "premium_a=1 premium_b=3");
  EXPECT_TRUE(serial.ok()) << serial.str();
  EXPECT_EQ(serial.total_schedules(),
            125u + 125u + 625u + 625u + 16u + 16u);

  const CampaignReport parallel = Campaign(two_protocol_grid(4)).run();
  expect_identical(serial, parallel);
  const CampaignReport hardware = Campaign(two_protocol_grid(0)).run();
  expect_identical(serial, hardware);
}

TEST(Campaign, SingleConfigurationUsesTheShardedSweep) {
  CampaignSpec spec;
  spec.entries.push_back({"multi-party-fig3a", {}, {}});
  spec.sweep.threads = 4;
  const CampaignReport report = Campaign(spec).run();
  ASSERT_EQ(report.configurations(), 1u);
  EXPECT_EQ(report.configs[0].params, "");
  EXPECT_EQ(report.configs[0].report.schedules_run, 125u);
  EXPECT_TRUE(report.ok()) << report.str();
}

TEST(Campaign, UnknownProtocolFailsBeforeAnySweep) {
  CampaignSpec spec;
  spec.entries.push_back({"no-such-protocol", {}, {}});
  EXPECT_THROW(Campaign(spec).run(), RegistryError);
  CampaignSpec empty;
  EXPECT_THROW(Campaign(empty).run(), ParamError);
  CampaignSpec bad_override;
  bad_override.entries.push_back(
      {"two-party", {{"no_such_param", "1"}}, {}});
  EXPECT_THROW(Campaign(bad_override).run(), ParamError);
}

TEST(Campaign, GridCapReportsTruncation) {
  CampaignSpec spec;
  CampaignEntry entry;
  entry.protocol = "two-party";
  entry.grid.add_axis_csv("premium_a", "1,2,3,4");
  spec.entries.push_back(std::move(entry));
  spec.max_configs_per_entry = 2;
  const CampaignReport report = Campaign(spec).run();
  EXPECT_EQ(report.configurations(), 2u);
  ASSERT_EQ(report.truncations.size(), 1u);
  EXPECT_NE(report.truncations[0].find("truncated"), std::string::npos);
  EXPECT_NE(report.str().find("truncated"), std::string::npos);
}

TEST(Campaign, JsonCarriesTotalsStampAndConfigs) {
  CampaignSpec spec;
  CampaignEntry entry;
  entry.protocol = "two-party";
  entry.grid.add_axis_csv("premium_a", "1,2");
  spec.entries.push_back(std::move(entry));
  const CampaignReport report = Campaign(spec).run();
  const std::string json =
      campaign_json(report, {"deadbeef", "Release", "test-compiler"});
  EXPECT_NE(json.find("\"benchmark\": \"campaign\""), std::string::npos);
  EXPECT_NE(json.find("\"git_commit\": \"deadbeef\""), std::string::npos);
  EXPECT_NE(json.find("\"build_type\": \"Release\""), std::string::npos);
  EXPECT_NE(json.find("\"configurations\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"violations\": 0"), std::string::npos);
  EXPECT_NE(json.find("\"params\": \"premium_a=1\""), std::string::npos);
  EXPECT_NE(json.find("\"params\": \"premium_a=2\""), std::string::npos);
}

// Campaign violations surface per configuration: a campaign over a
// synthetic always-violating protocol (a private registry, exercising the
// same plumbing) reports them in deterministic order with labels.
class ViolatingAdapter final : public ProtocolAdapter {
 public:
  std::string name() const override { return "violating"; }
  std::size_t party_count() const override { return 2; }
  int action_count(PartyId) const override { return 1; }
  std::unique_ptr<ProtocolAdapter> clone() const override {
    return std::make_unique<ViolatingAdapter>(*this);
  }
  std::vector<PartyOutcome> run(const Schedule& s) const override {
    PartyOutcome victim{"victim", s.plans[0].is_conforming(), {}, {}};
    PartyOutcome thief{"thief", false, {}, {}};
    if (!s.plans[1].is_conforming()) {
      victim.payoff.coin_delta = -1;
      thief.payoff.coin_delta = 1;
    }
    return {victim, thief};
  }
};

TEST(Campaign, ViolationsPropagateIntoReportAndExitStatusContract) {
  ProtocolRegistry reg;
  reg.add({"violating", "synthetic sore loser", ParamSet(),
           [](const ParamSet&) {
             return std::make_unique<ViolatingAdapter>();
           }});
  CampaignSpec spec;
  spec.entries.push_back({"violating", {}, {}});
  const CampaignReport report = Campaign(spec, reg).run();
  EXPECT_FALSE(report.ok());
  // Exactly one violating schedule: victim conforming, thief halting.
  EXPECT_EQ(report.total_violations(), 1u);
  const std::string json = campaign_json(report);
  EXPECT_NE(json.find("violation_details"), std::string::npos);
  EXPECT_NE(json.find("violating["), std::string::npos)
      << "violation labels should carry the schedule: " << json;
}

// ---------------------------------------------------------------------------
// SweepOptions validation (satellite: nonsense no longer accepted silently)
// ---------------------------------------------------------------------------

TEST(SweepOptionsValidation, MaxDeviatorsBelowMinusOneThrows) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  ScenarioRunner runner(*adapter);
  EXPECT_THROW(runner.sweep({-2, 1, {}}), std::invalid_argument);
  EXPECT_THROW(runner.sweep({-100, 4, {}}), std::invalid_argument);
  // The boundary values stay legal.
  EXPECT_EQ(runner.sweep({-1, 1, {}}).schedules_run, 16u);
  EXPECT_EQ(runner.sweep({0, 1, {}}).schedules_run, 1u);
}

TEST(SweepOptionsValidation, CampaignRejectsMalformedOptionsUpFront) {
  CampaignSpec spec;
  spec.entries.push_back({"two-party", {}, {}});
  spec.sweep.max_deviators = -3;
  EXPECT_THROW(Campaign(spec).run(), std::invalid_argument);
}

TEST(SweepReportLine, OneLineFormIsTheStrHeader) {
  const auto adapter = ProtocolRegistry::global().make("two-party");
  const SweepReport report = ScenarioRunner(*adapter).sweep();
  EXPECT_EQ(report.line(),
            "hedged-two-party: 16 schedules, " +
                std::to_string(report.conforming_audited) +
                " conforming-party audits, 0 violations");
  EXPECT_EQ(report.str(), report.line());  // no violations -> no extra lines
}

}  // namespace
}  // namespace xchain::sim
