// Unit tests for the churn model and overlay behaviour under sustained
// membership turnover.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "pss/graph/metrics.hpp"
#include "pss/graph/undirected_graph.hpp"
#include "pss/membership/view.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/churn.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss::sim {
namespace {

TEST(ChurnModel, JoinsAndLeavesAreApplied) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 50, 1);
  ChurnModel churn({.leaves_per_cycle = 3, .joins_per_cycle = 2,
                    .contacts_per_join = 2},
                   Rng(2));
  churn.apply(net);
  EXPECT_EQ(churn.stats().left, 3u);
  EXPECT_EQ(churn.stats().joined, 2u);
  EXPECT_EQ(net.live_count(), 50u - 3u + 2u);
  EXPECT_EQ(net.size(), 52u);
}

TEST(ChurnModel, NewcomersGetContactViews) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 20, 3);
  ChurnModel churn({.leaves_per_cycle = 0, .joins_per_cycle = 1,
                    .contacts_per_join = 3},
                   Rng(4));
  churn.apply(net);
  const NodeId newcomer = 20;
  EXPECT_TRUE(net.is_live(newcomer));
  EXPECT_EQ(net.node(newcomer).view().size(), 3u);
  for (const auto& d : net.view_span(newcomer)) {
    EXPECT_LT(d.address, 20u);  // contacts come from the old population
  }
}

TEST(ChurnModel, NeverKillsBelowFloor) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{3, false}, 5, 5);
  ChurnModel churn({.leaves_per_cycle = 100, .joins_per_cycle = 0,
                    .contacts_per_join = 2},
                   Rng(6));
  churn.apply(net);
  EXPECT_GE(net.live_count(), 3u);  // contacts_per_join + 1
  churn.apply(net);
  EXPECT_GE(net.live_count(), 3u);
}

TEST(ChurnModel, OverlayStaysConnectedUnderMildChurn) {
  // Newscast under 2% churn per cycle must keep the live overlay connected
  // (its self-healing headline property).
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{15, false}, 300, 7);
  CycleEngine engine(net);
  ChurnModel churn({.leaves_per_cycle = 5, .joins_per_cycle = 5,
                    .contacts_per_join = 1},
                   Rng(8));
  for (int cycle = 0; cycle < 40; ++cycle) {
    churn.apply(net);
    engine.run_cycle();
  }
  EXPECT_EQ(net.live_count(), 300u);
  const auto g = graph::UndirectedGraph::from_network(net);
  EXPECT_TRUE(graph::connected_components(g).connected());
}

TEST(ChurnModel, FlatJoinPathMatchesHistoricalInitViewPath) {
  // The flat join (descriptors written straight into the newcomer's arena
  // slot) must be indistinguishable — views, liveness, Rng consumption —
  // from the historical path that went through GossipNode::init_view and a
  // heap View. The reference below reimplements that path verbatim.
  constexpr std::uint64_t kChurnSeed = 77;
  const ChurnConfig config{.leaves_per_cycle = 4, .joins_per_cycle = 6,
                           .contacts_per_join = 9};
  const ProtocolOptions options{5, false};  // contacts > c: truncation path
  auto flat_net = bootstrap::make_random(ProtocolSpec::newscast(), options,
                                         60, 12);
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(), options,
                                        60, 12);
  ChurnModel churn(config, Rng(kChurnSeed));
  Rng ref_rng(kChurnSeed);
  for (int round = 0; round < 8; ++round) {
    churn.apply(flat_net);
    // Reference: the pre-flat ChurnModel::apply body.
    {
      const std::size_t floor = config.contacts_per_join + 1;
      std::size_t kills = config.leaves_per_cycle;
      if (ref_net.live_count() > floor) {
        kills = std::min(kills, ref_net.live_count() - floor);
      } else {
        kills = 0;
      }
      if (kills > 0) ref_net.kill_random(kills, ref_rng);
      for (std::size_t j = 0; j < config.joins_per_cycle; ++j) {
        const auto live = ref_net.live_ids();
        const std::size_t contacts =
            std::min(config.contacts_per_join, live.size());
        auto picks = ref_rng.sample_indices(live.size(), contacts);
        std::vector<NodeDescriptor> entries;
        entries.reserve(contacts);
        for (std::size_t p : picks) entries.push_back({live[p], 0});
        const NodeId newcomer = ref_net.add_node();
        ref_net.node(newcomer).init_view(View(std::move(entries)));
      }
    }
    ASSERT_EQ(flat_net.size(), ref_net.size());
    ASSERT_EQ(flat_net.live_count(), ref_net.live_count());
    for (NodeId id = 0; id < flat_net.size(); ++id) {
      ASSERT_EQ(flat_net.is_live(id), ref_net.is_live(id)) << "node " << id;
      const auto a = flat_net.view_span(id);
      const auto b = ref_net.view_span(id);
      ASSERT_EQ(std::vector<NodeDescriptor>(a.begin(), a.end()),
                std::vector<NodeDescriptor>(b.begin(), b.end()))
          << "node " << id;
    }
    // Divergent Rng consumption would desynchronize every later round, so
    // 8 identical rounds also pin the draw sequence, not just the views.
  }
}

TEST(ChurnModel, FlatJoinTruncatesToViewSize) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{4, false}, 30, 21);
  ChurnModel churn({.leaves_per_cycle = 0, .joins_per_cycle = 1,
                    .contacts_per_join = 10},
                   Rng(22));
  churn.apply(net);
  const auto view = net.view_span(30);
  ASSERT_EQ(view.size(), 4u);
  // Normalized (I1/I2) straight out of the join: hop-0 entries in
  // ascending address order, no duplicates, no self.
  for (std::size_t i = 0; i < view.size(); ++i) {
    EXPECT_EQ(view[i].hop_count, 0u);
    EXPECT_NE(view[i].address, 30u);
    if (i + 1 < view.size()) {
      EXPECT_LT(view[i].address, view[i + 1].address);
    }
  }
}

TEST(ChurnModel, KillFloorLandsExactlyAtContactsPlusOne) {
  // The floor is contacts_per_join + 1, exactly: a kill budget larger than
  // the population must stop at the floor, not one above or below it.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{4, false}, 40, 31);
  ChurnModel churn({.leaves_per_cycle = 1000, .joins_per_cycle = 0,
                    .contacts_per_join = 6},
                   Rng(32));
  churn.apply(net);
  EXPECT_EQ(net.live_count(), 7u);
  EXPECT_EQ(churn.stats().left, 33u);
  // At the floor, further kill budgets are entirely suppressed — but joins
  // still work and bootstrap from the floor population.
  ChurnModel more({.leaves_per_cycle = 5, .joins_per_cycle = 2,
                   .contacts_per_join = 6},
                  Rng(33));
  more.apply(net);
  EXPECT_EQ(more.stats().left, 0u);
  EXPECT_EQ(more.stats().joined, 2u);
  EXPECT_EQ(net.live_count(), 9u);
}

TEST(ChurnModel, ZeroChurnIsAPerfectNoOp) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 30, 35);
  std::vector<std::vector<NodeDescriptor>> before;
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto v = net.view_span(id);
    before.emplace_back(v.begin(), v.end());
  }
  ChurnModel churn({.leaves_per_cycle = 0, .joins_per_cycle = 0,
                    .contacts_per_join = 2},
                   Rng(36));
  churn.apply(net);
  churn.apply(net);
  EXPECT_EQ(churn.stats().left, 0u);
  EXPECT_EQ(churn.stats().joined, 0u);
  ASSERT_EQ(net.size(), 30u);
  EXPECT_EQ(net.live_count(), 30u);
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto v = net.view_span(id);
    EXPECT_EQ(before[id],
              std::vector<NodeDescriptor>(v.begin(), v.end()))
        << "node " << id;
  }
}

TEST(ChurnModel, JoinsIntoNearEmptyNetworkClampContacts) {
  // One live node: every newcomer asks for 5 contacts but can only get as
  // many as are live at its join instant — earlier newcomers count.
  Network net(ProtocolSpec::newscast(), ProtocolOptions{8, false}, 37);
  net.add_node();
  ChurnModel churn({.leaves_per_cycle = 0, .joins_per_cycle = 3,
                    .contacts_per_join = 5},
                   Rng(38));
  churn.apply(net);
  ASSERT_EQ(net.live_count(), 4u);
  EXPECT_EQ(net.view_span(1).size(), 1u);  // only node 0 was live
  EXPECT_EQ(net.view_span(2).size(), 2u);  // nodes 0 and 1
  EXPECT_EQ(net.view_span(3).size(), 3u);
  for (NodeId id = 1; id < 4; ++id) {
    for (const auto& d : net.view_span(id)) {
      EXPECT_NE(d.address, id);
      EXPECT_LT(d.address, id);  // contacts predate the newcomer
    }
  }
}

TEST(ChurnModel, JoinIntoFullyDeadNetworkYieldsEmptyView) {
  // Degenerate but reachable via external kills: no live contacts at all.
  // The join must still succeed, producing an isolated empty-view node.
  Network net(ProtocolSpec::newscast(), ProtocolOptions{4, false}, 39);
  net.add_nodes(3);
  for (NodeId id = 0; id < 3; ++id) net.kill(id);
  ASSERT_EQ(net.live_count(), 0u);
  ChurnModel churn({.leaves_per_cycle = 0, .joins_per_cycle = 1,
                    .contacts_per_join = 4},
                   Rng(40));
  churn.apply(net);
  EXPECT_EQ(net.live_count(), 1u);
  EXPECT_TRUE(net.is_live(3));
  EXPECT_TRUE(net.view_span(3).empty());
}

TEST(ChurnModel, DeadLinksStayBoundedWithHeadSelection) {
  // Head view selection ages dead descriptors out quickly; under steady
  // churn the dead-link count must stabilize well below the total link
  // count rather than growing without bound.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{10, false}, 200, 9);
  CycleEngine engine(net);
  ChurnModel churn({.leaves_per_cycle = 4, .joins_per_cycle = 4,
                    .contacts_per_join = 1},
                   Rng(10));
  std::uint64_t last = 0;
  for (int cycle = 0; cycle < 60; ++cycle) {
    churn.apply(net);
    engine.run_cycle();
    last = net.count_dead_links();
  }
  const std::uint64_t total_links = net.live_count() * 10u;
  EXPECT_LT(last, total_links / 4);
}

}  // namespace
}  // namespace pss::sim
