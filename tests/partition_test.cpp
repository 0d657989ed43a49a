// Tests for temporary network partitions (Section 8 discussion) and the
// dual-view combination (Section 10): partition plumbing in Network and
// both engines, cross-link memory decay, re-merge outcomes, DualViewNode
// and DualOverlay behaviour.
#include <gtest/gtest.h>

#include "pss/experiments/dual_overlay.hpp"
#include "pss/experiments/partition.hpp"
#include "pss/graph/metrics.hpp"
#include "pss/protocol/dual_view_node.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"

namespace pss {
namespace {

TEST(NetworkPartition, GroupAssignmentAndQueries) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 1);
  net.add_nodes(4);
  EXPECT_FALSE(net.partitioned());
  EXPECT_TRUE(net.can_communicate(0, 1));
  net.set_partition_group(2, 1);
  net.set_partition_group(3, 1);
  EXPECT_TRUE(net.partitioned());
  EXPECT_EQ(net.partition_group(2), 1u);
  EXPECT_TRUE(net.can_communicate(0, 1));
  EXPECT_TRUE(net.can_communicate(2, 3));
  EXPECT_FALSE(net.can_communicate(0, 2));
  net.clear_partitions();
  EXPECT_FALSE(net.partitioned());
  EXPECT_TRUE(net.can_communicate(0, 2));
}

TEST(NetworkPartition, CrossLinkCounting) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 2);
  net.add_nodes(4);
  net.node(0).set_view(View{{1, 0}, {2, 0}});
  net.node(2).set_view(View{{3, 0}, {0, 0}});
  EXPECT_EQ(net.count_cross_partition_links(), 0u);
  net.set_partition_group(2, 1);
  net.set_partition_group(3, 1);
  // 0->2 crosses, 2->0 crosses; 0->1 and 2->3 do not.
  EXPECT_EQ(net.count_cross_partition_links(), 2u);
}

TEST(NetworkPartition, CycleEngineBlocksCrossGroupExchanges) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 3);
  net.add_nodes(2);
  net.node(0).set_view(View{{1, 0}});
  net.node(1).set_view(View{{0, 0}});
  net.set_partition_group(1, 1);
  sim::CycleEngine engine(net);
  engine.run(3);
  EXPECT_EQ(engine.stats().exchanges, 0u);
  EXPECT_EQ(engine.stats().failed_contacts, 6u);
  // Views unchanged apart from aging.
  EXPECT_TRUE(net.node(0).view().contains(1));
  EXPECT_TRUE(net.node(1).view().contains(0));
}

TEST(NetworkPartition, EventEngineDropsCrossGroupMessages) {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{5, false}, 20, 4);
  for (NodeId id = 10; id < 20; ++id) net.set_partition_group(id, 1);
  sim::EventEngine engine(net, {});
  engine.run_until(10.0);
  EXPECT_GT(engine.stats().messages_to_dead, 0u);  // cross-group drops
  // Group-internal gossip still works.
  EXPECT_GT(engine.stats().replies_delivered, 0u);
}

TEST(PartitionExperiment, HeadSelectionForgetsOtherSideFast) {
  experiments::ScenarioParams p;
  p.n = 400;
  p.view_size = 15;
  p.cycles = 30;
  p.seed = 5;
  const auto r =
      experiments::run_partition_experiment(ProtocolSpec::newscast(), p, 0.5,
                                            /*partition_cycles=*/25,
                                            /*post_cycles=*/15);
  EXPECT_GT(r.cross_links_at_split, 100u);
  // Exponentially fast forgetting: essentially no memory after 25 cycles.
  EXPECT_LT(r.cross_links_at_heal, r.cross_links_at_split / 20);
  // Memory decays monotonically (allowing small jitter).
  EXPECT_LT(r.cross_links_during.back(), r.cross_links_during.front() + 1);
}

TEST(PartitionExperiment, RandSelectionRetainsMemoryAndRemerges) {
  experiments::ScenarioParams p;
  p.n = 400;
  p.view_size = 15;
  p.cycles = 30;
  p.seed = 6;
  const ProtocolSpec rand_vs{PeerSelection::kRand, ViewSelection::kRand,
                             ViewPropagation::kPushPull};
  const auto r = experiments::run_partition_experiment(rand_vs, p, 0.5, 25, 15);
  // Long memory: a solid fraction of cross links survives the split...
  EXPECT_GT(r.cross_links_at_heal, r.cross_links_at_split / 20);
  // ...so the overlay re-merges after healing.
  EXPECT_TRUE(r.remerged());
}

TEST(PartitionExperiment, LongSplitPermanentlyPartitionsNewscast) {
  experiments::ScenarioParams p;
  p.n = 400;
  p.view_size = 15;
  p.cycles = 30;
  p.seed = 7;
  const auto r = experiments::run_partition_experiment(
      ProtocolSpec::newscast(), p, 0.5, /*partition_cycles=*/40, 20);
  EXPECT_EQ(r.cross_links_at_heal, 0u);
  EXPECT_FALSE(r.remerged());
  EXPECT_EQ(r.components_after_rejoin, 2u);
}

TEST(PartitionExperiment, ValidatesSplitFraction) {
  experiments::ScenarioParams p;
  p.n = 50;
  p.view_size = 5;
  p.cycles = 5;
  EXPECT_THROW(experiments::run_partition_experiment(ProtocolSpec::newscast(),
                                                     p, 0.0, 5, 5),
               std::logic_error);
  EXPECT_THROW(experiments::run_partition_experiment(ProtocolSpec::newscast(),
                                                     p, 1.0, 5, 5),
               std::logic_error);
}

TEST(DualViewNode, CombinedViewMergesBothProtocols) {
  DualViewNode node(0, ProtocolOptions{4, false}, Rng(8));
  node.init_view(View{{1, 0}, {2, 0}});
  EXPECT_TRUE(node.combined_view().contains(1));
  EXPECT_TRUE(node.combined_view().contains(2));
  // Feed different information into the two sub-views.
  node.fast().handle_message(View{{3, 0}});
  node.slow().handle_message(View{{4, 0}});
  const View combined = node.combined_view();
  EXPECT_TRUE(combined.contains(3));
  EXPECT_TRUE(combined.contains(4));
  EXPECT_FALSE(combined.contains(0));  // never self
}

TEST(DualViewNode, GetPeerSamplesUnion) {
  DualViewNode node(0, ProtocolOptions{4, false}, Rng(9));
  node.init_view(View{{1, 0}});
  node.slow().handle_message(View{{2, 0}});
  std::set<NodeId> seen;
  for (int i = 0; i < 200; ++i) seen.insert(node.get_peer());
  EXPECT_TRUE(seen.contains(1));
  EXPECT_TRUE(seen.contains(2));
  DualViewNode empty(1, ProtocolOptions{4, false}, Rng(10));
  EXPECT_EQ(empty.get_peer(), kInvalidNode);
}

TEST(DualOverlay, RunsBothProtocolsAndStaysConnected) {
  experiments::DualOverlay dual(300, ProtocolOptions{12, false}, 11);
  dual.run(30);
  EXPECT_TRUE(dual.combined_connected());
  EXPECT_EQ(dual.count_dead_links(), 0u);
  // Both sub-overlays actually gossiped.
  EXPECT_GT(dual.fast_network().node(0).stats().initiated, 0u);
  EXPECT_GT(dual.slow_network().node(0).stats().initiated, 0u);
}

TEST(DualOverlay, SurvivesLongPartitionWhereNewscastDoesNot) {
  // The Section-10 payoff: the slow view keeps the memory, the fast view
  // keeps the healing. A split long enough to permanently break Newscast
  // leaves the dual overlay re-mergeable.
  experiments::DualOverlay dual(400, ProtocolOptions{15, false}, 12);
  dual.run(30);
  Rng rng(13);
  for (std::size_t idx : rng.sample_indices(400, 200))
    dual.set_partition_group(static_cast<NodeId>(idx), 1);
  dual.run(40);  // same duration that permanently splits plain Newscast
  EXPECT_GT(dual.count_cross_partition_links(), 0u);
  dual.clear_partitions();
  dual.run(20);
  EXPECT_TRUE(dual.combined_connected());
}

/// The oracle's answer: the undirected graph over every live node's fast
/// and slow view entries (live targets only), re-indexed into the live
/// vertex space, through graph::connected_components.
bool oracle_combined_connected(experiments::DualOverlay& dual) {
  const sim::Network& fast = dual.fast_network();
  const sim::Network& slow = dual.slow_network();
  const auto live = fast.live_nodes();
  std::vector<std::uint32_t> vertex_of(fast.size(),
                                       graph::UndirectedGraph::kNoVertex);
  for (std::uint32_t v = 0; v < live.size(); ++v) vertex_of[live[v]] = v;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
  for (std::uint32_t v = 0; v < live.size(); ++v) {
    for (const sim::Network* overlay : {&fast, &slow}) {
      for (const auto& d : overlay->view_span(live[v])) {
        if (d.address < vertex_of.size() &&
            vertex_of[d.address] != graph::UndirectedGraph::kNoVertex) {
          edges.emplace_back(v, vertex_of[d.address]);
        }
      }
    }
  }
  return graph::connected_components(
             graph::UndirectedGraph(live.size(), std::move(edges)))
      .connected();
}

TEST(DualOverlay, CombinedConnectivityMatchesGraphOracle) {
  experiments::DualOverlay dual(300, ProtocolOptions{10, false}, 21);
  dual.run(20);
  EXPECT_TRUE(oracle_combined_connected(dual));
  EXPECT_EQ(dual.combined_connected(), oracle_combined_connected(dual));

  // During a split long enough for the fast overlay to lose the other side.
  Rng rng(22);
  for (std::size_t idx : rng.sample_indices(300, 150)) {
    dual.set_partition_group(static_cast<NodeId>(idx), 1);
  }
  dual.run(40);
  EXPECT_EQ(dual.combined_connected(), oracle_combined_connected(dual));

  dual.clear_partitions();
  dual.run(20);
  EXPECT_EQ(dual.combined_connected(), oracle_combined_connected(dual));

  // Kills that leave a few survivors, too sparse to stay in one piece.
  for (std::size_t idx : rng.sample_indices(300, 285)) {
    dual.kill(static_cast<NodeId>(idx));
  }
  EXPECT_FALSE(oracle_combined_connected(dual));
  EXPECT_EQ(dual.combined_connected(), oracle_combined_connected(dual));
}

TEST(DualOverlay, KillPropagatesToBothOverlays) {
  experiments::DualOverlay dual(100, ProtocolOptions{8, false}, 14);
  dual.run(10);
  dual.kill(5);
  EXPECT_FALSE(dual.fast_network().is_live(5));
  EXPECT_FALSE(dual.slow_network().is_live(5));
  dual.run(15);
  // Dead links to node 5 age out of the combined views eventually (the
  // fast view heals; the slow view may retain some for a while).
  EXPECT_LT(dual.count_dead_links(), 100u);
}

}  // namespace
}  // namespace pss
