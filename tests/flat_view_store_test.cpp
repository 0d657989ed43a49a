// Tests for the flat simulation core: FlatViewStore storage invariants and
// the bit-for-bit equivalence between the flat:: kernels and the legacy
// View algebra they mirror.
//
// The equivalence tests are the contract that lets CycleEngine batch
// exchanges over raw arena slots while GossipNode keeps exposing Views:
// every flat op must produce the identical canonical array AND consume the
// node's Rng stream identically (same number of draws in the same order),
// or seeded experiments would silently fork between the two paths. Each
// randomized trial therefore checks outputs and then draws one more value
// from both generators to pin the stream position.
#include <gtest/gtest.h>

#include <vector>

#include "pss/membership/flat_ops.hpp"
#include "pss/membership/flat_view_store.hpp"
#include "pss/membership/view.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/network.hpp"

namespace pss {
namespace {

std::vector<NodeDescriptor> random_entries(Rng& rng, std::size_t max_size,
                                           NodeId address_space = 40,
                                           HopCount max_hop = 12) {
  std::vector<NodeDescriptor> entries;
  const auto size = static_cast<std::size_t>(rng.below(max_size + 1));
  for (std::size_t i = 0; i < size; ++i) {
    entries.push_back({static_cast<NodeId>(rng.below(address_space)),
                       static_cast<HopCount>(rng.below(max_hop))});
  }
  return entries;
}

View random_view(Rng& rng, std::size_t max_size, NodeId address_space = 40,
                 HopCount max_hop = 12) {
  return View(random_entries(rng, max_size, address_space, max_hop));
}

std::vector<NodeDescriptor> to_vec(flat::DescSpan s) {
  return {s.begin(), s.end()};
}

// --- FlatViewStore storage ------------------------------------------------

TEST(FlatViewStore, SlotsStartEmptyAndCapacityIsEnforced) {
  FlatViewStore store(3);
  EXPECT_EQ(store.view_capacity(), 3u);
  const NodeId a = store.add_node();
  const NodeId b = store.add_node();
  EXPECT_EQ(store.node_count(), 2u);
  EXPECT_TRUE(store.view_of(a).empty());
  EXPECT_TRUE(store.view_of(b).empty());

  const std::vector<NodeDescriptor> three = {{1, 0}, {2, 0}, {3, 1}};
  store.assign(a, three);
  EXPECT_EQ(store.view_size(a), 3u);
  EXPECT_EQ(to_vec(store.view_of(a)), three);
  // Slot b is untouched by a's assignment (no cross-slot bleed).
  EXPECT_TRUE(store.view_of(b).empty());

  const std::vector<NodeDescriptor> four = {{1, 0}, {2, 0}, {3, 1}, {4, 1}};
  EXPECT_THROW(store.assign(a, four), std::logic_error);
  EXPECT_THROW(store.assign(99, three), std::logic_error);

  store.clear(a);
  EXPECT_TRUE(store.view_of(a).empty());
}

TEST(FlatViewStore, ZeroCapacityRejected) {
  EXPECT_THROW(FlatViewStore store(0), std::logic_error);
}

TEST(FlatViewStore, AgeIncrementsEveryEntry) {
  FlatViewStore store(4);
  const NodeId s = store.add_node();
  store.assign(s, std::vector<NodeDescriptor>{{5, 0}, {1, 2}, {9, 7}});
  store.age(s);
  EXPECT_EQ(to_vec(store.view_of(s)),
            (std::vector<NodeDescriptor>{{5, 1}, {1, 3}, {9, 8}}));
  store.age(s);
  EXPECT_EQ(to_vec(store.view_of(s)),
            (std::vector<NodeDescriptor>{{5, 2}, {1, 4}, {9, 9}}));
}

TEST(FlatViewStore, EraseAddressShiftsAndReports) {
  FlatViewStore store(4);
  const NodeId s = store.add_node();
  store.assign(s, std::vector<NodeDescriptor>{{5, 0}, {1, 2}, {9, 7}});
  EXPECT_FALSE(store.erase_address(s, 42));
  EXPECT_TRUE(store.erase_address(s, 1));
  EXPECT_EQ(to_vec(store.view_of(s)),
            (std::vector<NodeDescriptor>{{5, 0}, {9, 7}}));
  EXPECT_FALSE(store.erase_address(s, 1));
}

TEST(FlatViewStore, StorageIsEntriesAndSizesOnly) {
  // A slot is its c entries and its size: no per-slot state beyond them,
  // before or after the mutators run over every slot.
  constexpr std::size_t kN = 100;
  constexpr std::size_t kC = 7;
  constexpr std::size_t kSlotBytes = kC * 8 + 4;  // c 8-byte entries, a u32
  FlatViewStore store(kC);
  store.reserve_nodes(kN);
  Rng rng(5);
  for (std::size_t i = 0; i < kN; ++i) {
    const NodeId s = store.add_node();
    store.assign(s, View(random_entries(rng, kC)).entries());
  }
  EXPECT_EQ(store.storage_bytes(), kN * kSlotBytes);
  std::vector<NodeDescriptor> out(kC);
  for (NodeId s = 0; s < kN; ++s) {
    store.age(s);
    store.age_and_copy(s, out.data());
    store.erase_address(s, s % 40);
    if (s % 3 == 0) store.clear(s);
  }
  EXPECT_EQ(store.storage_bytes(), kN * kSlotBytes);
}

// --- flat ops vs the View algebra ----------------------------------------

TEST(FlatOps, MergeMatchesViewMergeIncludingDuplicates) {
  Rng rng(11);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  for (int trial = 0; trial < 500; ++trial) {
    const View a = random_view(rng, 20);
    const View b = random_view(rng, 20);
    flat::merge_into(a.entries(), b.entries(), out, scratch);
    EXPECT_EQ(out, View::merge(a, b).entries()) << "trial " << trial;
  }
}

TEST(FlatOps, MergeOversizedInputsFallBackToSortPath) {
  Rng rng(12);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  // Address space 400 with up to 120 entries per side: the combined size
  // exceeds AddressSet::kMaxEntries and must route through normalize().
  for (int trial = 0; trial < 50; ++trial) {
    const View a = random_view(rng, 120, 400);
    const View b = random_view(rng, 120, 400);
    flat::merge_into(a.entries(), b.entries(), out, scratch);
    EXPECT_EQ(out, View::merge(a, b).entries()) << "trial " << trial;
  }
}

TEST(FlatOps, SelectionsMatchViewWithClonedRngs) {
  Rng rng(13);
  flat::Scratch scratch;
  for (int trial = 0; trial < 500; ++trial) {
    const View v = random_view(rng, 25);
    const auto c = static_cast<std::size_t>(rng.below(28));
    const std::uint64_t seed = rng();

    // Each policy gets two generators seeded identically: one consumed by
    // the View implementation, one by the flat mirror. Outputs must match
    // and both generators must land on the same stream position.
    {
      Rng r1(seed), r2(seed);
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_head_unbiased(buf, c, r2, scratch);
      EXPECT_EQ(buf, v.select_head_unbiased(c, r1).entries())
          << "head trial " << trial;
      EXPECT_EQ(r1(), r2()) << "head rng divergence, trial " << trial;
    }
    {
      Rng r1(seed), r2(seed);
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_tail_unbiased(buf, c, r2, scratch);
      EXPECT_EQ(buf, v.select_tail_unbiased(c, r1).entries())
          << "tail trial " << trial;
      EXPECT_EQ(r1(), r2()) << "tail rng divergence, trial " << trial;
    }
    {
      Rng r1(seed), r2(seed);
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_rand(buf, c, r2, scratch);
      EXPECT_EQ(buf, v.select_rand(c, r1).entries())
          << "rand trial " << trial;
      EXPECT_EQ(r1(), r2()) << "rand rng divergence, trial " << trial;
    }
    {
      std::vector<NodeDescriptor> buf = v.entries();
      flat::select_head(buf, c);
      EXPECT_EQ(buf, v.select_head(c).entries()) << "det head trial " << trial;
    }
  }
}

TEST(FlatOps, PeerSelectionMatchesViewWithClonedRngs) {
  Rng rng(14);
  for (int trial = 0; trial < 500; ++trial) {
    const View v = random_view(rng, 25);
    if (v.empty()) continue;
    const std::uint64_t seed = rng();
    {
      Rng r1(seed), r2(seed);
      EXPECT_EQ(flat::peer_rand(v.entries(), r2), v.peer_rand(r1));
      EXPECT_EQ(r1(), r2());
    }
    {
      Rng r1(seed), r2(seed);
      EXPECT_EQ(flat::peer_tail_unbiased(v.entries(), r2),
                v.peer_tail_unbiased(r1));
      EXPECT_EQ(r1(), r2());
    }
    EXPECT_EQ(flat::peer_head(v.entries()), v.peer_head());
  }
}

TEST(FlatOps, AgeWriteActiveBufferEqualsAgeThenWrite) {
  Rng rng(71);
  for (int trial = 0; trial < 150; ++trial) {
    const View v = random_view(rng, 8, 40, 6);
    const NodeId self_addr = 41;  // outside the address space above
    // Two identical stores; one runs the fused kernel, one the two-pass
    // reference composition.
    FlatViewStore fused(8), split(8);
    const NodeId slot = fused.add_node();
    (void)split.add_node();
    fused.assign(slot, v.entries());
    split.assign(slot, v.entries());
    std::vector<NodeDescriptor> fused_buf(v.size() + 1);
    std::vector<NodeDescriptor> split_buf(v.size() + 1);
    const auto fused_n = flat::age_write_active_buffer(
        fused, slot, self_addr, true, fused_buf.data());
    split.age(slot);
    const auto split_n = flat::write_active_buffer(
        split.view_of(slot), self_addr, true, split_buf.data());
    ASSERT_EQ(fused_n, split_n);
    EXPECT_EQ(fused_buf, split_buf) << "fused wakeup buffer, trial " << trial;
    EXPECT_EQ(to_vec(fused.view_of(slot)), to_vec(split.view_of(slot)))
        << "aged slot, trial " << trial;
  }
}

TEST(FlatOps, RandomizedTraceKeepsSlotAndViewInLockstep) {
  // Drive one flat slot and one View through the same random op sequence:
  // merge-in, age, erase — the full mutation surface a node's view sees.
  Rng rng(15);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> buf;
  for (int run = 0; run < 30; ++run) {
    FlatViewStore store(64);
    const NodeId slot = store.add_node();
    View reference;
    for (int step = 0; step < 60; ++step) {
      switch (rng.below(3)) {
        case 0: {
          const View incoming = random_view(rng, 12);
          flat::merge_into(incoming.entries(), store.view_of(slot), buf,
                           scratch);
          store.assign(slot, buf);
          reference = View::merge(incoming, reference);
          break;
        }
        case 1:
          store.age(slot);
          reference.increase_hop_count();
          break;
        default: {
          const auto victim = static_cast<NodeId>(rng.below(40));
          EXPECT_EQ(store.erase_address(slot, victim),
                    reference.erase(victim));
          break;
        }
      }
      ASSERT_EQ(to_vec(store.view_of(slot)), reference.entries())
          << "run " << run << " step " << step;
    }
  }
}

// --- Engine vs adapter: identical protocol semantics ----------------------

// Replays the legacy CycleEngine loop one message at a time through the
// public GossipNode adapter API and checks that the batched flat engine
// produces the identical network state at every cycle. This is the
// acceptance check that the flat refactor preserved the paper's semantics
// through the adapter, including Rng stream consumption, stats accounting
// and the dead-contact path.
void expect_networks_identical(sim::Network& a, sim::Network& b,
                               const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (NodeId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(to_vec(a.view_span(id)), to_vec(b.view_span(id)))
        << where << ", node " << id;
    // The adapter's materialized View must agree with the raw slot.
    ASSERT_EQ(a.node(id).view().entries(), to_vec(a.view_span(id)))
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().initiated, b.node(id).stats().initiated)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().received, b.node(id).stats().received)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().replies_sent, b.node(id).stats().replies_sent)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().contact_failures,
              b.node(id).stats().contact_failures)
        << where << ", node " << id;
  }
}

void run_legacy_style_cycle(sim::Network& net) {
  auto order = net.live_nodes();
  net.rng().shuffle(order);
  for (NodeId initiator : order) {
    if (!net.is_live(initiator)) continue;
    GossipNode& active = net.node(initiator);
    active.age_view();
    auto peer = active.select_peer();
    if (!peer) continue;
    active.note_initiated();
    if (!net.is_live(*peer) || !net.can_communicate(initiator, *peer)) {
      active.on_contact_failure(*peer);
      continue;
    }
    GossipNode& passive = net.node(*peer);
    const View buffer = active.make_active_buffer();
    auto reply = passive.handle_message(buffer);
    if (active.spec().pull()) active.handle_reply(*reply);
  }
}

void check_engine_adapter_equivalence(ProtocolSpec spec) {
  constexpr std::size_t kNodes = 60;
  constexpr std::uint64_t kSeed = 97;
  const ProtocolOptions options{8, false};
  sim::Network engine_net =
      sim::bootstrap::make_random(spec, options, kNodes, kSeed);
  sim::Network manual_net =
      sim::bootstrap::make_random(spec, options, kNodes, kSeed);
  sim::CycleEngine engine(engine_net);
  for (Cycle cycle = 0; cycle < 8; ++cycle) {
    if (cycle == 3) {
      // Kill the same nodes in both networks so dead-contact handling and
      // the failure stats path are exercised identically.
      for (NodeId id = 0; id < kNodes / 5; ++id) {
        engine_net.kill(id);
        manual_net.kill(id);
      }
    }
    engine.run_cycle();
    run_legacy_style_cycle(manual_net);
    expect_networks_identical(engine_net, manual_net, spec.name().c_str());
  }
}

TEST(FlatEngineEquivalence, NewscastMatchesAdapterDrivenExchanges) {
  check_engine_adapter_equivalence(ProtocolSpec::newscast());
}

TEST(FlatEngineEquivalence, AllEvaluatedInstancesMatchAdapterDriven) {
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    check_engine_adapter_equivalence(spec);
  }
}

// --- GossipNode adapter specifics ----------------------------------------

TEST(GossipNodeAdapter, SetViewRejectsOversizedViews) {
  GossipNode node(0, ProtocolSpec::newscast(), ProtocolOptions{3, false},
                  Rng(1));
  node.set_view(View{{1, 0}, {2, 0}, {3, 0}});
  EXPECT_EQ(node.view().size(), 3u);
  EXPECT_THROW(node.set_view(View{{1, 0}, {2, 0}, {3, 0}, {4, 0}}),
               std::logic_error);
}

TEST(GossipNodeAdapter, CopyOfStandaloneNodeIsIndependent) {
  GossipNode a(0, ProtocolSpec::newscast(), ProtocolOptions{4, false}, Rng(7));
  a.set_view(View{{1, 1}, {2, 2}});
  GossipNode b(a);
  b.set_view(View{{9, 0}});
  EXPECT_EQ(a.view(), (View{{1, 1}, {2, 2}}));
  EXPECT_EQ(b.view(), (View{{9, 0}}));
}

TEST(GossipNodeAdapter, CopyOfAttachedNodeDetachesFromTheNetwork) {
  sim::Network net = sim::bootstrap::make_random(
      ProtocolSpec::newscast(), ProtocolOptions{5, false}, 20, 21);
  GossipNode snapshot = net.node(3);
  const View before = snapshot.view();
  EXPECT_EQ(before.entries(), to_vec(net.view_span(3)));
  sim::CycleEngine engine(net);
  engine.run(3);
  // The copy kept its pre-run state; mutating it touches nothing in the
  // network.
  EXPECT_EQ(snapshot.view(), before);
  snapshot.set_view(View{{19, 0}});
  EXPECT_NE(to_vec(net.view_span(3)), snapshot.view().entries());
}

TEST(GossipNodeAdapter, ViewCacheTracksEngineMutations) {
  // The engine mutates arena slots without going through the adapter; the
  // adapter's cached View must still follow via the version stamps.
  sim::Network net = sim::bootstrap::make_random(
      ProtocolSpec::newscast(), ProtocolOptions{5, false}, 20, 3);
  const View before = net.node(4).view();
  EXPECT_EQ(before.entries(), to_vec(net.view_span(4)));
  sim::CycleEngine engine(net);
  engine.run(2);
  EXPECT_EQ(net.node(4).view().entries(), to_vec(net.view_span(4)));
}

}  // namespace
}  // namespace pss
