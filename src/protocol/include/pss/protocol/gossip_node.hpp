// The generic gossip skeleton (paper Figure 1), factored as a pair of
// message handlers so the same node logic runs unchanged under the
// cycle-driven engine (atomic exchanges, as in the paper's simulator) and
// the asynchronous event-driven engine (explicit messages with latency).
//
// Mapping from the paper's pseudo-code:
//   active thread                         GossipNode
//   -------------                         ----------
//   p <- selectPeer()                     select_peer(rng)
//   if push: send merge(view,{me,0})      make_active_buffer()
//   else:    send {}                      make_active_buffer() (empty)
//   if pull: receive viewp; age; merge;   handle_reply(viewp)
//            view <- selectView(buffer)
//
//   passive thread
//   --------------
//   receive (p, viewp); age viewp;        handle_message(viewp) ->
//   if pull: reply merge(view,{me,0})       optional reply buffer
//   view <- selectView(merge(viewp,view))
//
// Deviations from the raw pseudo-code (both documented in DESIGN.md):
//  1. A node's own descriptor is removed from the merged buffer before view
//     selection, so the final view never contains the node itself. Without
//     this, descriptors of the node itself bouncing back would occupy view
//     slots and (under head selection) could evict all genuine neighbours.
//  2. age_view() increments every stored hop count once per cycle (called
//     by the engines when the active thread fires). The Figure-1 pseudo-code
//     ages descriptors only while they travel, under which a locally stored
//     hop-0 descriptor would remain "freshest" forever and head view
//     selection would stagnate (a lattice bootstrap would never converge and
//     dead links would never age out — contradicting the paper's own
//     Figures 3 and 7). Per-cycle aging is exactly the timestamp semantics
//     of the authors' Newscast implementation [Jelasity, Kowalczyk, van
//     Steen, 2003] and of the journal version of this paper (TOCS 2007,
//     "view.increaseAge()"), so hop count = age in cycles + hops travelled.
//
// Storage: since the flat-core refactor, a GossipNode is an adapter over
// one slot of a flat::NodeArena rather than the owner of a heap-allocated
// View. Attached to sim::Network's arena it is a thin window whose state
// lives in the network's structs-of-arrays; constructed standalone (tests,
// DualViewNode) it owns a private single-slot arena. Either way the slot
// is the only copy of the view: view() copies it out on demand, and the
// adapter keeps no View of its own. The protocol mechanics are the shared
// flat_exchange/flat_ops routines either way, so this class is pure API
// surface — the paper's semantics, including per-policy Rng consumption,
// are identical through both the adapter and the batched engine (pinned
// by tests/flat_view_store_test.cpp).
#pragma once

#include <memory>
#include <optional>
#include <span>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/membership/view.hpp"
#include "pss/protocol/node_arena.hpp"
#include "pss/protocol/spec.hpp"

namespace pss {

/// One protocol participant: a partial view plus the Figure-1 handlers.
class GossipNode {
 public:
  /// Standalone node owning its backing storage. `rng` drives this node's
  /// random choices (peer/view selection); derive it from the experiment
  /// master seed for reproducibility.
  GossipNode(NodeId self, ProtocolSpec spec, ProtocolOptions options, Rng rng);

  /// Adapter over slot `slot` of `arena`, which must outlive the node and
  /// already contain the slot (sim::Network appends the slot, then the
  /// adapter). The arena's spec/options uniformity is the caller's
  /// invariant.
  GossipNode(NodeId self, ProtocolSpec spec, ProtocolOptions options,
             flat::NodeArena* arena, NodeId slot);

  /// Copies are always independent standalone nodes (legacy value
  /// semantics): even when the source is attached to a network arena, the
  /// copy snapshots its view/rng/stats into a private single-slot arena.
  GossipNode(const GossipNode& other);
  GossipNode& operator=(const GossipNode& other);
  GossipNode(GossipNode&&) noexcept = default;
  GossipNode& operator=(GossipNode&&) noexcept = default;

  NodeId self() const { return self_; }
  const ProtocolSpec& spec() const { return spec_; }
  const ProtocolOptions& options() const { return options_; }
  const NodeStats& stats() const { return arena_->stats[slot_]; }

  /// Zero-copy access to the flat slot (sorted, duplicate-free entries).
  std::span<const NodeDescriptor> view_span() const {
    return arena_->views.view_of(slot_);
  }

  /// A copy of the flat slot, for inspection and tests (the engines and
  /// PeerSamplingService read view_span()). Loop over view_span(), not
  /// over the entries of this temporary.
  View view() const { return View({view_span().begin(), view_span().end()}); }

  /// init() of the peer sampling API: seeds the view with bootstrap
  /// descriptors (hop count 0), dropping any descriptor of the node itself
  /// or of kInvalidNode and truncating to c.
  void init_view(const View& bootstrap);

  /// Ages every stored descriptor by one hop. Engines call this exactly
  /// once per cycle, when this node's active thread fires (see deviation 2
  /// in the header comment).
  void age_view() { arena_->views.age(slot_); }

  /// selectPeer(): applies the peer-selection policy to the current view.
  /// Returns nullopt when the view is empty (nothing to gossip with).
  std::optional<NodeId> select_peer();

  /// Buffer the active thread sends: merge(view, {myDescriptor}) when the
  /// protocol pushes, the empty view otherwise (pull-only trigger).
  View make_active_buffer() const;

  /// Passive thread: ages the incoming buffer, builds the pull reply from
  /// the pre-merge view if the protocol pulls, then merges and selects.
  /// Returns the reply buffer to send back, or nullopt for push-only.
  std::optional<View> handle_message(const View& incoming);

  /// Active thread tail: ages the pull reply, merges and selects.
  void handle_reply(const View& reply);

  /// Called by the engine when the contacted peer was dead. With the
  /// remove_dead_on_failure extension the dead descriptor is evicted;
  /// paper-faithful default is to do nothing.
  void on_contact_failure(NodeId peer);

  /// Engine bookkeeping hook: counts an initiated exchange.
  void note_initiated() { ++arena_->stats[slot_].initiated; }

  /// Direct view replacement for bootstrap drivers and tests. The flat
  /// slot enforces size <= c (invariant I3), which every in-repo caller
  /// already satisfied.
  void set_view(View v);

 private:
  Rng& rng() { return arena_->rngs[slot_]; }
  NodeStats& mutable_stats() { return arena_->stats[slot_]; }

  NodeId self_;
  NodeId slot_;
  ProtocolSpec spec_;
  ProtocolOptions options_;
  std::unique_ptr<flat::NodeArena> owned_;  ///< standalone mode backing
  flat::NodeArena* arena_;                  ///< owned_.get() or the network's
};

}  // namespace pss
