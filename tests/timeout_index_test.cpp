// The chain's deadline-indexed timeout sweep (Blockchain::apply_batch):
// a block calls on_block only on the contracts with a declared wake tick
// d where previous height <= d < now, in contract-id order.
//
// Pinned here:
//   * an outage that covers a timelock still refunds, in the first block
//     after the outage;
//   * contracts waking in one block emit their kFull events in id order,
//     also when many of them share each deadline;
//   * snap_push/snap_rewind across a wake tick replays the same refund;
//   * a contract deployed mid-run (a load bind) is woken;
//   * the debug-build wake oracle catches a contract acting at a tick it
//     did not declare.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "chain/blockchain.hpp"
#include "chain/fault.hpp"
#include "contracts/htlc.hpp"
#include "crypto/secret.hpp"

namespace xchain::chain {
namespace {

using contracts::HtlcContract;

constexpr PartyId kAlice = 0;
constexpr PartyId kBob = 1;

/// Deploys an HTLC Alice funds with 100 apricot; Bob never redeems, so
/// the principal refunds in the first block past `timelock`.
HtlcContract& deploy_htlc(Blockchain& bc, Tick escrow_deadline,
                          Tick timelock) {
  auto& htlc = bc.deploy<HtlcContract>(HtlcContract::Params{
      kAlice, kBob, "apricot", 100,
      crypto::Secret::from_label("s").hashlock(), escrow_deadline, timelock});
  bc.ledger_for_setup().mint(Address::party(kAlice), "apricot", 100);
  bc.submit({kAlice, "fund", [&htlc](TxContext& c) { htlc.fund(c); }});
  return htlc;
}

void produce_through(MultiChain& chains, Tick from, Tick to) {
  for (Tick t = from; t <= to; ++t) chains.produce_all(t);
}

TEST(TimeoutIndex, OutageOverTimelockRefundsInFirstBlockAfter) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("apricot");
  chains.set_environment({FaultPlan::parse("apricot:outage@5-8"), {}});
  HtlcContract& htlc = deploy_htlc(bc, /*escrow_deadline=*/2,
                                   /*timelock=*/6);
  produce_through(chains, 0, 10);
  ASSERT_TRUE(htlc.funded());
  EXPECT_TRUE(htlc.refunded());
  // Blocks 5-8 are never produced; block 9 follows block 4 and is the
  // first past the timelock.
  EXPECT_EQ(htlc.resolved_at(), Tick{9});
  EXPECT_EQ(bc.ledger().balance(Address::party(kAlice), "apricot"), 100);
}

TEST(TimeoutIndex, SameBlockWakesEmitInContractIdOrder) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("apricot");
  chains.set_environment({FaultPlan::parse("apricot:outage@2-6"), {}});
  // Contract 0 expires later than contract 1, so the wake index holds
  // contract 1's entry first; the outage makes both due in block 7.
  HtlcContract& late = deploy_htlc(bc, 0, /*timelock=*/5);
  HtlcContract& early = deploy_htlc(bc, 0, /*timelock=*/3);
  produce_through(chains, 0, 8);
  EXPECT_EQ(late.resolved_at(), Tick{7});
  EXPECT_EQ(early.resolved_at(), Tick{7});

  std::vector<ContractId> refunds;
  for (const Event& e : bc.events()) {
    if (e.kind == "refunded") refunds.push_back(e.contract);
  }
  EXPECT_EQ(refunds, (std::vector<ContractId>{late.id(), early.id()}));
}

TEST(TimeoutIndex, ManySharedDeadlinesWakeInContractIdOrder) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("apricot");
  chains.set_environment({FaultPlan::parse("apricot:outage@2-6"), {}});
  // 60 contracts on three shared timelocks, later deadlines deployed
  // first; the outage makes all of them due in block 7.
  constexpr Tick kTimelocks[] = {5, 3, 4};
  std::vector<ContractId> deployed;
  for (int i = 0; i < 60; ++i) {
    deployed.push_back(deploy_htlc(bc, 0, kTimelocks[i % 3]).id());
  }
  produce_through(chains, 0, 8);

  std::vector<ContractId> refunds;
  for (const Event& e : bc.events()) {
    if (e.kind != "refunded") continue;
    refunds.push_back(e.contract);
    EXPECT_EQ(e.tick, Tick{7}) << "contract " << e.contract;
  }
  EXPECT_EQ(refunds, deployed);
}

TEST(TimeoutIndex, SnapshotRewindAcrossWakeTickReplaysRefund) {
  MultiChain chains;
  chains.set_trace(TraceMode::kOff);  // snapshots stack on traceless chains
  Blockchain& bc = chains.add_chain("apricot");
  HtlcContract& htlc = deploy_htlc(bc, 0, /*timelock=*/3);
  produce_through(chains, 0, 2);
  chains.snap_push();  // depth 0: height 2, funded, unresolved

  produce_through(chains, 3, 5);
  ASSERT_EQ(htlc.resolved_at(), Tick{4});
  const std::uint64_t first = chains.state_hash();

  chains.snap_rewind(0);
  EXPECT_EQ(bc.height(), 2);
  EXPECT_FALSE(htlc.resolved());
  EXPECT_EQ(bc.ledger().balance(htlc.address(), "apricot"), 100);

  produce_through(chains, 3, 5);
  EXPECT_EQ(htlc.resolved_at(), Tick{4});
  EXPECT_TRUE(htlc.refunded());
  EXPECT_EQ(chains.state_hash(), first);
}

TEST(TimeoutIndex, ContractDeployedMidRunIsWoken) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("apricot");
  HtlcContract& first = deploy_htlc(bc, 0, /*timelock=*/2);
  produce_through(chains, 0, 4);
  ASSERT_EQ(first.resolved_at(), Tick{3});

  // Bound the way a load bind is: on a live chain, at height 4, with a
  // ladder offset past the current height.
  HtlcContract& bound = deploy_htlc(bc, /*escrow_deadline=*/6,
                                    /*timelock=*/8);
  produce_through(chains, 5, 12);
  EXPECT_EQ(bound.funded_at(), Tick{5});
  EXPECT_TRUE(bound.refunded());
  EXPECT_EQ(bound.resolved_at(), Tick{9});
}

/// Pays its escrow out once now > 3 but declares only tick 6: the sweep
/// first visits it in block 7, three blocks late.
class UndeclaredWakeContract : public Contract {
 public:
  std::vector<Tick> wake_ticks() const override { return {6}; }
  void on_block(TxContext& ctx) override {
    if (ctx.now() > 3) {
      ctx.ledger().transfer(address(), Address::party(kAlice),
                            ctx.native_id(), 1);
    }
  }
};

TEST(TimeoutIndex, DebugOracleCatchesUndeclaredWake) {
#ifdef NDEBUG
  GTEST_SKIP() << "the wake oracle runs in debug builds only";
#else
  MultiChain chains;
  Blockchain& bc = chains.add_chain("apricot");
  auto& c = bc.deploy<UndeclaredWakeContract>();
  bc.ledger_for_setup().mint(c.address(), bc.native(), 10);
  produce_through(chains, 0, 3);
  try {
    chains.produce_all(4);
    FAIL() << "block 4 must trip the wake oracle";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("contract 0"), std::string::npos) << what;
    EXPECT_NE(what.find("'apricot'"), std::string::npos) << what;
    EXPECT_NE(what.find("block 4"), std::string::npos) << what;
  }
#endif
}

}  // namespace
}  // namespace xchain::chain
