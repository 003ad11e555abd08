#include <gtest/gtest.h>

#include <vector>

#include "chain/blockchain.hpp"

namespace xchain::chain {
namespace {

TEST(Ledger, MintAndBalance) {
  Ledger l;
  const Address a = Address::party(0);
  EXPECT_EQ(l.balance(a, "apricot"), 0);
  l.mint(a, "apricot", 50);
  EXPECT_EQ(l.balance(a, "apricot"), 50);
  l.mint(a, "apricot", 25);
  EXPECT_EQ(l.balance(a, "apricot"), 75);
}

TEST(Ledger, TransferMovesFunds) {
  Ledger l;
  const Address a = Address::party(0), b = Address::party(1);
  l.mint(a, "x", 10);
  EXPECT_TRUE(l.transfer(a, b, "x", 4));
  EXPECT_EQ(l.balance(a, "x"), 6);
  EXPECT_EQ(l.balance(b, "x"), 4);
}

TEST(Ledger, TransferRejectsInsufficient) {
  Ledger l;
  const Address a = Address::party(0), b = Address::party(1);
  l.mint(a, "x", 3);
  EXPECT_FALSE(l.transfer(a, b, "x", 4));
  EXPECT_EQ(l.balance(a, "x"), 3);
  EXPECT_EQ(l.balance(b, "x"), 0);
}

TEST(Ledger, TransferRejectsNegative) {
  Ledger l;
  const Address a = Address::party(0), b = Address::party(1);
  l.mint(a, "x", 3);
  EXPECT_FALSE(l.transfer(a, b, "x", -1));
}

TEST(Ledger, ZeroTransferIsNoopSuccess) {
  Ledger l;
  EXPECT_TRUE(l.transfer(Address::party(0), Address::party(1), "x", 0));
}

TEST(Ledger, DistinctSymbolsIndependent) {
  Ledger l;
  const Address a = Address::party(0);
  l.mint(a, "x", 5);
  EXPECT_EQ(l.balance(a, "y"), 0);
}

TEST(Ledger, HoldingsSortedAndNonzero) {
  Ledger l;
  l.mint(Address::party(1), "b", 2);
  l.mint(Address::party(0), "a", 1);
  l.mint(Address::contract(0), "c", 3);
  l.mint(Address::party(1), "z", 4);
  l.transfer(Address::party(1), Address::party(0), "z", 4);  // drains to 0
  const auto h = l.holdings();
  ASSERT_EQ(h.size(), 4u);  // the zero balance entry is dropped
  EXPECT_EQ(std::get<0>(h[0]), Address::party(0));
}

TEST(Address, Identity) {
  EXPECT_EQ(Address::party(3), Address::party(3));
  EXPECT_NE(Address::party(3), Address::contract(3));
  EXPECT_EQ(Address::party(3).str(), "party:3");
  EXPECT_EQ(Address::contract(7).str(), "contract:7");
}

// A trivial contract for framework tests: accepts deposits.
class CounterContract : public Contract {
 public:
  void deposit(TxContext& ctx, Amount amt) {
    if (ctx.ledger().transfer(Address::party(ctx.sender()), address(),
                              ctx.native(), amt)) {
      ctx.emit(id(), "deposit", std::to_string(amt));
      order.push_back(ctx.sender());
    }
  }
  std::vector<PartyId> order;
};

TEST(Blockchain, TxAppliedAtBlockProduction) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 10);
  auto& c = bc.deploy<CounterContract>();

  bc.submit({0, "deposit", [&](TxContext& ctx) { c.deposit(ctx, 5); }});
  // Nothing moves until the block is produced.
  EXPECT_EQ(bc.ledger().balance(c.address(), bc.native()), 0);
  chains.produce_all(0);
  EXPECT_EQ(bc.ledger().balance(c.address(), bc.native()), 5);
  EXPECT_EQ(bc.height(), 0);
  EXPECT_EQ(bc.applied_tx_count(), 1u);
}

TEST(Blockchain, TxOrderPreserved) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 10);
  bc.ledger_for_setup().mint(Address::party(1), bc.native(), 10);
  auto& c = bc.deploy<CounterContract>();
  bc.submit({1, "p1", [&](TxContext& ctx) { c.deposit(ctx, 1); }});
  bc.submit({0, "p0", [&](TxContext& ctx) { c.deposit(ctx, 1); }});
  chains.produce_all(0);
  EXPECT_EQ(c.order, (std::vector<PartyId>{1, 0}));
}

// Records the block in which each declared deadline first passed, the
// way a timelock contract resolves; counts every on_block call.
class WakeContract : public Contract {
 public:
  explicit WakeContract(std::vector<Tick> ds)
      : deadlines(std::move(ds)), fired(deadlines.size(), -1) {}
  std::vector<Tick> wake_ticks() const override { return deadlines; }
  void on_block(TxContext& ctx) override {
    ++calls;
    for (std::size_t i = 0; i < deadlines.size(); ++i) {
      if (fired[i] < 0 && ctx.now() > deadlines[i]) fired[i] = ctx.now();
    }
  }

  const std::vector<Tick> deadlines;
  std::vector<Tick> fired;
  int calls = 0;
};

TEST(Blockchain, OnBlockRunsOnlyAtWakeTicks) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  auto& c = bc.deploy<WakeContract>(std::vector<Tick>{1, 3});
  [[maybe_unused]] auto& silent = bc.deploy<WakeContract>(std::vector<Tick>{});
  for (Tick t = 0; t < 6; ++t) chains.produce_all(t);
  // Each deadline fires in the first block past it.
  EXPECT_EQ(c.fired, (std::vector<Tick>{2, 4}));
  EXPECT_EQ(bc.height(), 5);
#ifdef NDEBUG
  // Only the two due blocks visit the contract, and a contract declaring
  // no deadline is never swept. (Debug builds also run the wake oracle,
  // which calls on_block on every contract the sweep skipped.)
  EXPECT_EQ(c.calls, 2);
  EXPECT_EQ(silent.calls, 0);
#endif
}

TEST(Blockchain, EventsRecorded) {
  MultiChain chains;
  Blockchain& bc = chains.add_chain("test");
  bc.ledger_for_setup().mint(Address::party(0), bc.native(), 10);
  auto& c = bc.deploy<CounterContract>();
  bc.submit({0, "d", [&](TxContext& ctx) { c.deposit(ctx, 2); }});
  chains.produce_all(0);
  ASSERT_EQ(bc.events().size(), 1u);
  EXPECT_EQ(bc.events()[0].kind, "deposit");
  EXPECT_EQ(bc.events()[0].tick, 0);
  EXPECT_FALSE(bc.events()[0].str().empty());
}

TEST(MultiChain, ChainsAreIndependent) {
  MultiChain chains;
  Blockchain& a = chains.add_chain("alpha");
  Blockchain& b = chains.add_chain("beta");
  EXPECT_EQ(a.id(), 0u);
  EXPECT_EQ(b.id(), 1u);
  EXPECT_EQ(a.native(), "alpha-coin");
  EXPECT_EQ(b.native(), "beta-coin");
  a.ledger_for_setup().mint(Address::party(0), "alpha-coin", 5);
  EXPECT_EQ(b.ledger().balance(Address::party(0), "alpha-coin"), 0);
}

TEST(MultiChain, AllEventsMergedSorted) {
  MultiChain chains;
  Blockchain& a = chains.add_chain("alpha");
  Blockchain& b = chains.add_chain("beta");
  auto& ca = a.deploy<CounterContract>();
  auto& cb = b.deploy<CounterContract>();
  a.ledger_for_setup().mint(Address::party(0), a.native(), 10);
  b.ledger_for_setup().mint(Address::party(0), b.native(), 10);
  chains.produce_all(0);
  b.submit({0, "d", [&](TxContext& ctx) { cb.deposit(ctx, 1); }});
  chains.produce_all(1);
  a.submit({0, "d", [&](TxContext& ctx) { ca.deposit(ctx, 1); }});
  chains.produce_all(2);
  const auto events = chains.all_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].tick, 1);
  EXPECT_EQ(events[0].chain, 1u);
  EXPECT_EQ(events[1].tick, 2);
  EXPECT_EQ(events[1].chain, 0u);
}

}  // namespace
}  // namespace xchain::chain
