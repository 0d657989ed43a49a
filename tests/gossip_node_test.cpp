// Unit tests for the Figure-1 skeleton semantics: active buffer
// construction, passive handling with aging and reply, view absorption per
// selection policy, and the dead-contact extension hook.
#include <gtest/gtest.h>

#include "pss/protocol/gossip_node.hpp"

namespace pss {
namespace {

GossipNode make_node(NodeId self, ProtocolSpec spec, std::size_t c = 30,
                     bool remove_dead = false) {
  return GossipNode(self, spec, ProtocolOptions{c, remove_dead}, Rng(self + 100));
}

TEST(GossipNode, InitViewDropsSelfAndTruncates) {
  auto node = make_node(5, ProtocolSpec::newscast(), 2);
  node.init_view(View{{5, 0}, {1, 0}, {2, 1}, {3, 2}});
  EXPECT_EQ(node.view().size(), 2u);
  EXPECT_FALSE(node.view().contains(5));
  EXPECT_TRUE(node.view().contains(1));  // head selection keeps freshest
  EXPECT_TRUE(node.view().contains(2));
}

TEST(GossipNode, ZeroViewSizeRejected) {
  EXPECT_THROW(GossipNode(0, ProtocolSpec::newscast(), ProtocolOptions{0, false},
                          Rng(1)),
               std::logic_error);
}

TEST(GossipNode, SelectPeerOnEmptyViewIsNullopt) {
  auto node = make_node(0, ProtocolSpec::newscast());
  EXPECT_FALSE(node.select_peer().has_value());
}

TEST(GossipNode, SelectPeerHonoursPolicy) {
  const View view{{10, 1}, {20, 3}, {30, 7}};
  auto head = make_node(0, {PeerSelection::kHead, ViewSelection::kHead,
                            ViewPropagation::kPushPull});
  head.set_view(view);
  EXPECT_EQ(head.select_peer(), 10u);

  auto tail = make_node(0, {PeerSelection::kTail, ViewSelection::kHead,
                            ViewPropagation::kPushPull});
  tail.set_view(view);
  EXPECT_EQ(tail.select_peer(), 30u);

  auto rand_node = make_node(0, ProtocolSpec::newscast());
  rand_node.set_view(view);
  for (int i = 0; i < 50; ++i) {
    auto peer = rand_node.select_peer();
    ASSERT_TRUE(peer.has_value());
    EXPECT_TRUE(view.contains(*peer));
  }
}

TEST(GossipNode, ActiveBufferContainsSelfAtHopZeroWhenPushing) {
  auto node = make_node(7, ProtocolSpec::newscast());
  node.set_view(View{{1, 2}, {2, 3}});
  const View buffer = node.make_active_buffer();
  EXPECT_EQ(buffer.size(), 3u);
  EXPECT_TRUE(buffer.contains(7));
  EXPECT_EQ(buffer.hop_count_of(7), 0u);
  EXPECT_EQ(buffer.head().address, 7u);  // hop 0 sorts first
}

TEST(GossipNode, ActiveBufferEmptyForPullOnly) {
  auto node = make_node(7, {PeerSelection::kRand, ViewSelection::kHead,
                            ViewPropagation::kPull});
  node.set_view(View{{1, 2}, {2, 3}});
  EXPECT_TRUE(node.make_active_buffer().empty());
}

TEST(GossipNode, HandleMessageAgesIncomingByOneHop) {
  auto node = make_node(0, {PeerSelection::kRand, ViewSelection::kHead,
                            ViewPropagation::kPush});
  node.set_view(View{});
  node.handle_message(View{{9, 0}, {8, 4}});
  EXPECT_EQ(node.view().hop_count_of(9), 1u);
  EXPECT_EQ(node.view().hop_count_of(8), 5u);
}

TEST(GossipNode, HandleMessageRepliesOnlyWhenPulling) {
  auto push_node = make_node(1, {PeerSelection::kRand, ViewSelection::kHead,
                                 ViewPropagation::kPush});
  EXPECT_FALSE(push_node.handle_message(View{{2, 0}}).has_value());

  auto pushpull_node = make_node(1, ProtocolSpec::newscast());
  auto reply = pushpull_node.handle_message(View{{2, 0}});
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->contains(1));
  EXPECT_EQ(reply->hop_count_of(1), 0u);
}

TEST(GossipNode, ReplyIsBuiltFromPreMergeView) {
  // Figure 1(b): the passive thread sends merge(view, {me,0}) BEFORE
  // absorbing the incoming buffer.
  auto node = make_node(1, ProtocolSpec::newscast());
  node.set_view(View{{5, 2}});
  auto reply = node.handle_message(View{{9, 0}});
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->contains(5));
  EXPECT_TRUE(reply->contains(1));
  EXPECT_FALSE(reply->contains(9));  // 9 must not leak into the reply
  EXPECT_TRUE(node.view().contains(9));  // but is absorbed afterwards
}

TEST(GossipNode, AbsorbDropsOwnDescriptor) {
  auto node = make_node(3, ProtocolSpec::newscast());
  node.set_view(View{{1, 1}});
  node.handle_message(View{{3, 0}, {2, 0}});
  EXPECT_FALSE(node.view().contains(3));
  EXPECT_TRUE(node.view().contains(1));
  EXPECT_TRUE(node.view().contains(2));
}

TEST(GossipNode, AbsorbTruncatesToViewSizeHead) {
  auto node = make_node(0, ProtocolSpec::newscast(), 3);
  node.set_view(View{{1, 1}, {2, 2}, {3, 3}});
  node.handle_message(View{{4, 0}, {5, 0}});
  EXPECT_EQ(node.view().size(), 3u);
  // Head selection keeps the freshest: 4 and 5 arrive at hop 1.
  EXPECT_TRUE(node.view().contains(4));
  EXPECT_TRUE(node.view().contains(5));
  EXPECT_TRUE(node.view().contains(1));
  EXPECT_FALSE(node.view().contains(3));
}

TEST(GossipNode, AbsorbTailSelectionKeepsOldest) {
  auto node = make_node(0, {PeerSelection::kRand, ViewSelection::kTail,
                            ViewPropagation::kPushPull}, 2);
  node.set_view(View{{1, 5}, {2, 6}});
  node.handle_message(View{{3, 0}});
  EXPECT_EQ(node.view().size(), 2u);
  EXPECT_TRUE(node.view().contains(1));
  EXPECT_TRUE(node.view().contains(2));
  EXPECT_FALSE(node.view().contains(3));  // freshest is truncated away
}

TEST(GossipNode, AbsorbRandSelectionKeepsSubset) {
  auto node = make_node(0, {PeerSelection::kRand, ViewSelection::kRand,
                            ViewPropagation::kPushPull}, 4);
  node.set_view(View{{1, 1}, {2, 2}, {3, 3}, {4, 4}});
  node.handle_message(View{{5, 0}, {6, 0}});
  EXPECT_EQ(node.view().size(), 4u);
  for (const auto& d : node.view_span()) {
    EXPECT_GE(d.address, 1u);
    EXPECT_LE(d.address, 6u);
  }
  node.view().validate();
}

TEST(GossipNode, HandleReplyMergesAndAges) {
  auto node = make_node(0, ProtocolSpec::newscast());
  node.set_view(View{{1, 3}});
  node.handle_reply(View{{2, 0}, {1, 0}});
  EXPECT_EQ(node.view().hop_count_of(2), 1u);
  EXPECT_EQ(node.view().hop_count_of(1), 1u);  // fresher copy wins
}

TEST(GossipNode, MergeKeepsLowestHopAcrossExchange) {
  auto node = make_node(0, ProtocolSpec::newscast());
  node.set_view(View{{1, 1}});
  node.handle_message(View{{1, 5}});  // aged to 6, staler than local 1
  EXPECT_EQ(node.view().hop_count_of(1), 1u);
}

TEST(GossipNode, ContactFailureDefaultKeepsDeadLink) {
  auto node = make_node(0, ProtocolSpec::newscast());
  node.set_view(View{{1, 1}, {2, 2}});
  node.on_contact_failure(1);
  EXPECT_TRUE(node.view().contains(1));  // paper-faithful: no eviction
  EXPECT_EQ(node.stats().contact_failures, 1u);
}

TEST(GossipNode, ContactFailureWithRemovalEvicts) {
  auto node = make_node(0, ProtocolSpec::newscast(), 30, /*remove_dead=*/true);
  node.set_view(View{{1, 1}, {2, 2}});
  node.on_contact_failure(1);
  EXPECT_FALSE(node.view().contains(1));
  EXPECT_TRUE(node.view().contains(2));
}

TEST(GossipNode, StatsCountHandledMessagesAndReplies) {
  auto node = make_node(0, ProtocolSpec::newscast());
  node.handle_message(View{{1, 0}});
  node.handle_message(View{{2, 0}});
  EXPECT_EQ(node.stats().received, 2u);
  EXPECT_EQ(node.stats().replies_sent, 2u);
  auto push_node = make_node(1, ProtocolSpec::lpbcast());
  push_node.handle_message(View{{2, 0}});
  EXPECT_EQ(push_node.stats().replies_sent, 0u);
}

TEST(GossipNode, PullOnlyPassiveViewUnchangedByEmptyTrigger) {
  // In pull-only mode the active side sends {}; the passive side replies
  // but its own view must not change (selectView of its own view).
  auto node = make_node(1, {PeerSelection::kRand, ViewSelection::kHead,
                            ViewPropagation::kPull});
  node.set_view(View{{5, 2}, {6, 3}});
  const View before = node.view();
  auto reply = node.handle_message(View{});
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(node.view(), before);
}

TEST(GossipNode, DeterministicGivenSameSeed) {
  auto spec = ProtocolSpec{PeerSelection::kRand, ViewSelection::kRand,
                           ViewPropagation::kPushPull};
  auto a = GossipNode(0, spec, ProtocolOptions{5, false}, Rng(77));
  auto b = GossipNode(0, spec, ProtocolOptions{5, false}, Rng(77));
  const View incoming{{1, 0}, {2, 0}, {3, 0}, {4, 0}, {5, 0}, {6, 0}, {7, 0}};
  a.set_view(View{{8, 1}, {9, 2}});
  b.set_view(View{{8, 1}, {9, 2}});
  for (int i = 0; i < 10; ++i) {
    a.handle_message(incoming);
    b.handle_message(incoming);
    EXPECT_EQ(a.view(), b.view());
    EXPECT_EQ(a.select_peer(), b.select_peer());
  }
}

}  // namespace
}  // namespace pss
