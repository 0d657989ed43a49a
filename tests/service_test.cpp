// Unit tests for the peer sampling service API (init/getPeer) and the
// ideal uniform baseline sampler.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "get_peer_oracle.hpp"
#include "pss/service/ideal_uniform_sampler.hpp"
#include "pss/service/peer_sampling_service.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss {
namespace {

GossipNode make_node(NodeId self = 0) {
  return GossipNode(self, ProtocolSpec::newscast(), ProtocolOptions{8, false},
                    Rng(self + 1));
}

TEST(PeerSamplingService, InitSeedsViewFromContacts) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(2));
  EXPECT_FALSE(service.initialized());
  const std::vector<NodeId> contacts{3, 4, 5};
  service.init(contacts);
  EXPECT_TRUE(service.initialized());
  EXPECT_EQ(node.view().size(), 3u);
  for (NodeId c : contacts) EXPECT_TRUE(node.view().contains(c));
}

TEST(PeerSamplingService, InitIsIdempotent) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(2));
  const std::vector<NodeId> first{1, 2};
  const std::vector<NodeId> second{7, 8};
  service.init(first);
  service.init(second);  // must be ignored per the specification
  EXPECT_TRUE(node.view().contains(1));
  EXPECT_FALSE(node.view().contains(7));
}

TEST(PeerSamplingService, InitDropsSelfContact) {
  auto node = make_node(5);
  PeerSamplingService service(node, Rng(3));
  const std::vector<NodeId> contacts{5, 6};
  service.init(contacts);
  EXPECT_FALSE(node.view().contains(5));
  EXPECT_TRUE(node.view().contains(6));
}

TEST(PeerSamplingService, GetPeerOnEmptyViewReturnsInvalid) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(4));
  EXPECT_EQ(service.get_peer(), kInvalidNode);
  service.init(std::vector<NodeId>{});
  EXPECT_EQ(service.get_peer(), kInvalidNode);
}

TEST(PeerSamplingService, GetPeerSamplesFromView) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(5));
  const std::vector<NodeId> contacts{1, 2, 3, 4};
  service.init(contacts);
  std::set<NodeId> seen;
  for (int i = 0; i < 500; ++i) {
    const NodeId p = service.get_peer();
    EXPECT_TRUE(node.view().contains(p));
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 4u);  // every view entry eventually sampled
}

TEST(PeerSamplingService, UniformStrategyIsRoughlyUniform) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(6));
  const std::vector<NodeId> contacts{1, 2, 3, 4, 5};
  service.init(contacts);
  std::map<NodeId, int> counts;
  constexpr int kDraws = 10000;
  for (int i = 0; i < kDraws; ++i) ++counts[service.get_peer()];
  for (const auto& [peer, count] : counts) {
    EXPECT_NEAR(count, kDraws / 5, kDraws / 5 * 0.15) << "peer " << peer;
  }
}

TEST(PeerSamplingService, ShuffledQueueMaximizesDiversity) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(7),
                              PeerSamplingService::GetPeerStrategy::kShuffledQueue);
  const std::vector<NodeId> contacts{1, 2, 3, 4, 5, 6};
  service.init(contacts);
  // Any window of 6 consecutive samples contains all 6 distinct peers.
  for (int round = 0; round < 20; ++round) {
    std::set<NodeId> window;
    for (int i = 0; i < 6; ++i) window.insert(service.get_peer());
    EXPECT_EQ(window.size(), 6u) << "round " << round;
  }
}

TEST(PeerSamplingService, ShuffledQueueSkipsEvictedEntries) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(8),
                              PeerSamplingService::GetPeerStrategy::kShuffledQueue);
  const std::vector<NodeId> contacts{1, 2, 3};
  service.init(contacts);
  (void)service.get_peer();  // queue now primed with the old view
  node.set_view(View{{9, 0}});  // the gossip layer replaced the view
  for (int i = 0; i < 5; ++i) EXPECT_EQ(service.get_peer(), 9u);
}

TEST(PeerSamplingService, GetPeersReturnsKSamples) {
  auto node = make_node(0);
  PeerSamplingService service(node, Rng(9));
  const std::vector<NodeId> contacts{1, 2, 3};
  service.init(contacts);
  EXPECT_EQ(service.get_peers(10).size(), 10u);
  auto empty_node = make_node(1);
  PeerSamplingService empty_service(empty_node, Rng(10));
  EXPECT_TRUE(empty_service.get_peers(3).empty());
}

TEST(PeerSamplingService, WorksOverRunningOverlay) {
  // End-to-end: services on a live overlay return ever-changing peers.
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{10, false}, 100, 11);
  sim::CycleEngine engine(net);
  PeerSamplingService service(net.node(0), Rng(12));
  std::set<NodeId> seen;
  for (int cycle = 0; cycle < 30; ++cycle) {
    engine.run_cycle();
    for (int i = 0; i < 5; ++i) seen.insert(service.get_peer());
  }
  // The union of samples over time must cover far more than one view.
  EXPECT_GT(seen.size(), 20u);
  EXPECT_FALSE(seen.contains(0));       // never returns the node itself
  EXPECT_FALSE(seen.contains(kInvalidNode));
}

TEST(PeerSamplingService, OutputMatchesViewOracleOverRunningOverlay) {
  // Both strategies read the arena slot in place; the View-based oracle
  // with a cloned Rng pins every returned peer, call for call, while the
  // views change under it. 13 draws per cycle at c = 10 make the queue
  // refill mid-cycle and skip addresses the last cycle evicted.
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{10, false}, 200, 13);
  sim::CycleEngine engine(net);
  std::vector<GossipNode*> nodes;
  for (NodeId id = 0; id < 200; id += 25) nodes.push_back(&net.node(id));
  const auto outputs = expect_get_peer_matches_view_oracle(
      nodes, [&] { engine.run_cycle(); }, /*cycles=*/20, /*draws=*/13,
      /*seed=*/0x6E7CEE5);
  ASSERT_EQ(outputs.size(), 2u * nodes.size() * 20 * 13);
  const std::set<NodeId> distinct(outputs.begin(), outputs.end());
  EXPECT_GT(distinct.size(), 100u);
  EXPECT_FALSE(distinct.contains(kInvalidNode));
}

TEST(IdealUniformSampler, NeverReturnsSelfAndCoversGroup) {
  IdealUniformSampler sampler(3, 10, Rng(13));
  std::set<NodeId> seen;
  for (int i = 0; i < 2000; ++i) {
    const NodeId p = sampler.get_peer();
    EXPECT_NE(p, 3u);
    EXPECT_LT(p, 10u);
    seen.insert(p);
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(IdealUniformSampler, UniformityChiSquareish) {
  IdealUniformSampler sampler(0, 5, Rng(14));
  std::map<NodeId, int> counts;
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) ++counts[sampler.get_peer()];
  for (const auto& [peer, count] : counts) {
    EXPECT_NEAR(count, kDraws / 4, kDraws / 4 * 0.1) << "peer " << peer;
  }
}

TEST(IdealUniformSampler, TinyGroups) {
  IdealUniformSampler lonely(0, 1, Rng(15));
  EXPECT_EQ(lonely.get_peer(), kInvalidNode);
  IdealUniformSampler pair(0, 2, Rng(16));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(pair.get_peer(), 1u);
}

TEST(IdealUniformSampler, GroupResizeRespected) {
  IdealUniformSampler sampler(0, 3, Rng(17));
  sampler.set_group_size(6);
  std::set<NodeId> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(sampler.get_peer());
  EXPECT_EQ(seen.size(), 5u);
}

}  // namespace
}  // namespace pss
