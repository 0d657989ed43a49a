// The View-based getPeer() that PeerSamplingService ran before it read the
// node's arena slot in place, kept as the oracle for the service tests:
// View::peer_rand over the node's materialized View for kUniformFromView,
// and for kShuffledQueue a queue refilled from a shuffled view().entries()
// that skips addresses no longer in the view. Built over the same node as
// a service, with a clone of the service's Rng, it must return the same
// peer on every call.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/service/peer_sampling_service.hpp"

namespace pss {

class ViewGetPeer {
 public:
  using Strategy = PeerSamplingService::GetPeerStrategy;

  ViewGetPeer(const GossipNode& node, Rng rng, Strategy strategy)
      : node_(&node), rng_(rng), strategy_(strategy) {}

  NodeId get_peer() {
    const View& view = node_->view();
    if (view.empty()) return kInvalidNode;
    if (strategy_ == Strategy::kUniformFromView) return view.peer_rand(rng_);
    while (true) {
      if (queue_.empty()) {
        for (const NodeDescriptor& d : view.entries()) {
          queue_.push_back(d.address);
        }
        rng_.shuffle(queue_);
      }
      const NodeId candidate = queue_.back();
      queue_.pop_back();
      if (view.contains(candidate)) return candidate;
    }
  }

 private:
  const GossipNode* node_;
  Rng rng_;
  Strategy strategy_;
  std::vector<NodeId> queue_;
};

/// Gives every node a service and an oracle per strategy, with cloned
/// Rngs. Then, `cycles` times, calls advance() and draws `draws` peers from
/// each pair; the two must agree call for call. Returns every service
/// output in call order, so callers can check the sequence is not trivial.
inline std::vector<NodeId> expect_get_peer_matches_view_oracle(
    const std::vector<GossipNode*>& nodes, const std::function<void()>& advance,
    std::size_t cycles, std::size_t draws, std::uint64_t seed) {
  using Strategy = PeerSamplingService::GetPeerStrategy;
  std::vector<PeerSamplingService> services;
  std::vector<ViewGetPeer> oracles;
  for (const Strategy strategy :
       {Strategy::kUniformFromView, Strategy::kShuffledQueue}) {
    for (GossipNode* node : nodes) {
      const Rng rng(seed + node->self());
      services.emplace_back(*node, rng, strategy);
      oracles.emplace_back(*node, rng, strategy);
    }
  }
  std::vector<NodeId> outputs;
  for (std::size_t cycle = 0; cycle < cycles; ++cycle) {
    advance();
    for (std::size_t k = 0; k < services.size(); ++k) {
      for (std::size_t i = 0; i < draws; ++i) {
        const NodeId got = services[k].get_peer();
        EXPECT_EQ(got, oracles[k].get_peer())
            << "cycle " << cycle << ", service " << k << ", draw " << i;
        outputs.push_back(got);
      }
    }
  }
  return outputs;
}

}  // namespace pss
