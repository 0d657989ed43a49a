#include "pss/service/peer_sampling_service.hpp"

#include <algorithm>

#include "pss/membership/flat_ops.hpp"

namespace pss {

PeerSamplingService::PeerSamplingService(GossipNode& node, Rng rng,
                                         GetPeerStrategy strategy)
    : node_(&node), rng_(rng), strategy_(strategy) {}

void PeerSamplingService::init(std::span<const NodeId> contacts) {
  if (initialized_) return;
  std::vector<NodeDescriptor> entries;
  entries.reserve(contacts.size());
  for (NodeId contact : contacts) entries.push_back({contact, 0});
  node_->init_view(View(std::move(entries)));
  initialized_ = true;
}

NodeId PeerSamplingService::pop_from_queue() {
  const flat::DescSpan view = node_->view_span();
  // Drop queued addresses that have since left the view; refill from a
  // shuffled copy of the live view when drained. get_peer() has refused an
  // empty view, so every refill holds a member and the loop ends.
  while (true) {
    if (queue_.empty()) {
      queue_.reserve(view.size());
      for (const NodeDescriptor& d : view) queue_.push_back(d.address);
      rng_.shuffle(queue_);
    }
    const NodeId candidate = queue_.back();
    queue_.pop_back();
    if (std::ranges::find(view, candidate, &NodeDescriptor::address) !=
        view.end()) {
      return candidate;
    }
  }
}

NodeId PeerSamplingService::get_peer() {
  const flat::DescSpan view = node_->view_span();
  if (view.empty()) return kInvalidNode;
  switch (strategy_) {
    case GetPeerStrategy::kUniformFromView:
      return flat::peer_rand(view, rng_);
    case GetPeerStrategy::kShuffledQueue:
      return pop_from_queue();
  }
  return kInvalidNode;
}

std::vector<NodeId> PeerSamplingService::get_peers(std::size_t k) {
  std::vector<NodeId> out;
  out.reserve(k);
  for (std::size_t i = 0; i < k; ++i) {
    const NodeId peer = get_peer();
    if (peer == kInvalidNode) break;
    out.push_back(peer);
  }
  return out;
}

}  // namespace pss
