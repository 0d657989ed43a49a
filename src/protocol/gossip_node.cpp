#include "pss/protocol/gossip_node.hpp"

#include <utility>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/protocol/flat_exchange.hpp"

namespace pss {

GossipNode::GossipNode(NodeId self, ProtocolSpec spec, ProtocolOptions options,
                       Rng rng)
    : self_(self), slot_(0), spec_(spec), options_(options) {
  PSS_CHECK_MSG(options_.view_size > 0, "view size c must be positive");
  owned_ = std::make_unique<flat::NodeArena>(options_.view_size);
  owned_->add_node(rng);
  arena_ = owned_.get();
}

GossipNode::GossipNode(NodeId self, ProtocolSpec spec, ProtocolOptions options,
                       flat::NodeArena* arena, NodeId slot)
    : self_(self), slot_(slot), spec_(spec), options_(options), arena_(arena) {
  PSS_CHECK_MSG(options_.view_size > 0, "view size c must be positive");
  PSS_CHECK_MSG(arena_ != nullptr && slot_ < arena_->node_count(),
                "adapter slot out of arena range");
}

GossipNode::GossipNode(const GossipNode& other)
    : self_(other.self_),
      slot_(0),
      spec_(other.spec_),
      options_(other.options_),
      owned_(std::make_unique<flat::NodeArena>(
          other.arena_->views.view_capacity())) {
  // A copy is always an independent standalone node — the legacy value
  // semantics — even when the source is a window into a network arena:
  // its view, rng stream and counters are snapshotted into a private
  // single-slot arena, so mutating the copy never touches the network.
  owned_->add_node(other.arena_->rngs[other.slot_]);
  owned_->stats[0] = other.arena_->stats[other.slot_];
  owned_->views.assign(0, other.arena_->views.view_of(other.slot_));
  arena_ = owned_.get();
}

GossipNode& GossipNode::operator=(const GossipNode& other) {
  if (this == &other) return *this;
  GossipNode copy(other);
  *this = std::move(copy);
  return *this;
}

void GossipNode::init_view(const View& bootstrap) {
  std::vector<NodeDescriptor> buf(bootstrap.entries());
  flat::remove_address(buf, self_);
  // kInvalidNode is the "no peer" value: a stored copy would come back out
  // of getPeer() and selectPeer(), and no frame may address it.
  flat::remove_address(buf, kInvalidNode);
  flat::select_head(buf, options_.view_size);
  arena_->views.assign(slot_, buf);
}

void GossipNode::set_view(View v) {
  v.remove(self_);
  arena_->views.assign(slot_, v.entries());
}

std::optional<NodeId> GossipNode::select_peer() {
  return flat::select_peer(view_span(), spec_.peer_selection, rng());
}

View GossipNode::make_active_buffer() const {
  std::vector<NodeDescriptor> out;
  flat::make_active_buffer(view_span(), self_, spec_.push(), out);
  return View(std::move(out));
}

std::optional<View> GossipNode::handle_message(const View& incoming) {
  ++mutable_stats().received;
  std::optional<View> reply;
  if (spec_.pull()) {
    // Reply is built from the pre-merge view, exactly as in Figure 1(b).
    std::vector<NodeDescriptor> out;
    flat::make_active_buffer(view_span(), self_, /*push=*/true, out);
    reply = View(std::move(out));
    ++mutable_stats().replies_sent;
  }
  flat::Scratch scratch;
  // Aging the incoming buffer happens inside the merge (age_incoming = 1),
  // sparing the aged copy this method used to materialize.
  flat::absorb(arena_->views, slot_, self_, spec_, options_,
               incoming.entries(), rng(), scratch, /*age_incoming=*/1);
  return reply;
}

void GossipNode::handle_reply(const View& reply) {
  PSS_DCHECK(spec_.pull());
  flat::Scratch scratch;
  flat::absorb(arena_->views, slot_, self_, spec_, options_, reply.entries(),
               rng(), scratch, /*age_incoming=*/1);
}

void GossipNode::on_contact_failure(NodeId peer) {
  flat::contact_failure(*arena_, slot_, peer, options_);
}

}  // namespace pss
