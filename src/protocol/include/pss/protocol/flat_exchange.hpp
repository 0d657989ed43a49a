// Figure-1 exchange mechanics over flat storage.
//
// These free functions are the single implementation of the gossip skeleton
// shared by every execution surface:
//   - the cycle engine's honest path calls run_exchange directly on the
//     network's NodeArena with a persistent Scratch — the batched,
//     allocation-free atomic-exchange path;
//   - every byzantine-hooked exchange and every asynchronous driver
//     (EventEngine at any lane count and the wire-level ServiceNode)
//     reach the request/reply split kernels below through sim::ExchangeCore
//     (pss/sim/exchange_apply.hpp) — the same Figure-1 halves, decoupled in
//     time by a message layer, or run back to back in the cycle model;
//   - GossipNode's handler methods call the same functions on its own slot,
//     preserving the legacy message-level API for the service layer, the
//     reference LegacyEventEngine and the tests.
// Because every path runs this code, the adapter and the engines cannot
// diverge; equivalence with the original View-based node logic is pinned by
// the randomized traces in tests/flat_view_store_test.cpp (and the engine
// replay in tests/event_engine_flat_test.cpp). Defined inline
// for the same reason as flat_ops.hpp: these run tens of millions of times
// per scale run.
//
// Policy vs mechanism: everything here is mechanism. The H/S design-space
// knobs (peer selection, view selection, propagation, view size) arrive as
// ProtocolSpec/ProtocolOptions values and are only ever dispatched on —
// adding a policy means touching spec.hpp and the two switches below,
// nothing else (see docs/ARCHITECTURE.md).
#pragma once

#include <algorithm>
#include <optional>

#include "pss/membership/flat_ops.hpp"
#include "pss/protocol/node_arena.hpp"
#include "pss/protocol/spec.hpp"

namespace pss::flat {

/// selectPeer() on a normalized view span. Returns nullopt when the view is
/// empty. Dispatches to the same per-policy routines (deterministic head,
/// tie-unbiased tail) as GossipNode always has; see gossip_node.hpp for why
/// head stays deterministic.
inline std::optional<NodeId> select_peer(DescSpan view, PeerSelection policy,
                                         Rng& rng) {
  if (view.empty()) return std::nullopt;
  switch (policy) {
    case PeerSelection::kRand:
      return peer_rand(view, rng);
    case PeerSelection::kHead:
      // Deliberately deterministic; see the rationale in gossip_node.hpp
      // (herding is exactly why the paper excludes (head,*,*)).
      return peer_head(view);
    case PeerSelection::kTail:
      return peer_tail_unbiased(view, rng);
  }
  return std::nullopt;
}

/// Buffer the active thread sends: merge(view, {self, 0}) — the view with
/// {self, 0} at its sorted position — when pushing, nothing otherwise.
/// Writes it into `out`, which must hold view.size() + 1 entries, and
/// returns the entry count. The one buffer builder: the cycle exchange, the
/// split kernels below and the View adapter all write through it.
/// Precondition: `self` is not in `view` (a node never stores its own
/// descriptor).
inline std::uint32_t write_active_buffer(DescSpan view, NodeId self, bool push,
                                         NodeDescriptor* out) {
  if (!push) return 0;  // empty buffer triggers the pull reply
  PSS_DCHECK(std::ranges::find(view, self, &NodeDescriptor::address) ==
             view.end());
  const NodeDescriptor me{self, 0};
  // The insertion point is the count of keys below (0 << 32 | self); the
  // two bulk copies around it vectorize as plain memmoves.
  const std::uint64_t key = detail::sort_key(me);
  std::size_t split = 0;
  while (split < view.size() && detail::sort_key(view[split]) < key) ++split;
  std::copy_n(view.data(), split, out);
  out[split] = me;
  std::copy_n(view.data() + split, view.size() - split, out + split + 1);
  return static_cast<std::uint32_t>(view.size() + 1);
}

/// write_active_buffer into a vector, which ends up holding the buffer.
inline void make_active_buffer(DescSpan view, NodeId self, bool push,
                               std::vector<NodeDescriptor>& out) {
  out.resize(view.size() + 1);
  out.resize(write_active_buffer(view, self, push, out.data()));
}

/// age + merge + drop-self + selectView on one slot: the shared tail of
/// both Figure-1 handlers. `incoming` is aged by `age_incoming` hops on the
/// fly inside the merge (pass 0 for a buffer the caller already aged — the
/// adapter's View-level API does) and must not alias scratch.merged/sel.
inline void absorb(FlatViewStore& store, NodeId slot, NodeId self,
                   const ProtocolSpec& spec, const ProtocolOptions& options,
                   DescSpan incoming, Rng& rng, Scratch& scratch,
                   HopCount age_incoming = 0) {
  switch (spec.view_selection) {
    case ViewSelection::kRand:
      merge_into(incoming, store.view_of(slot), scratch.merged, scratch,
                 age_incoming);
      remove_address(scratch.merged, self);
      select_rand(scratch.merged, options.view_size, rng, scratch);
      break;
    case ViewSelection::kHead:
      // Head selection takes the fused streaming kernel: identical result
      // and Rng draws, but the merge stops at the selection boundary
      // instead of materializing the full union (see flat_ops.hpp), and the
      // result goes from the stream's landing zone straight into the slot.
      if (incoming.size() + store.view_size(slot) <= AddressSet::kMaxEntries &&
          options.view_size <= AddressSet::kMaxEntries) {
        const std::size_t n = merge_select_head_arr(
            incoming, store.view_of(slot), self, options.view_size, rng,
            scratch, age_incoming);
        store.assign(slot, {scratch.merge_arr.data(), n});
        return;
      }
      merge_select_head(incoming, store.view_of(slot), self,
                        options.view_size, rng, scratch.merged, scratch,
                        age_incoming);
      break;
    case ViewSelection::kTail:
      // Tail keeps the oldest entries, which only the full union knows.
      merge_into(incoming, store.view_of(slot), scratch.merged, scratch,
                 age_incoming);
      remove_address(scratch.merged, self);
      select_tail_unbiased(scratch.merged, options.view_size, rng, scratch);
      break;
  }
  store.assign(slot, scratch.merged);
}

/// Engine hook for a contact that hit a dead or unreachable peer: counts
/// the failure and applies the remove_dead_on_failure extension.
inline void contact_failure(NodeArena& arena, NodeId node, NodeId peer,
                            const ProtocolOptions& options) {
  ++arena.stats[node].contact_failures;
  if (options.remove_dead_on_failure) arena.views.erase_address(node, peer);
}

// --- Request/reply split kernels (the event engine's hot path) ------------
// run_exchange() below is the two Figure-1 halves fused into one atomic
// step. Under asynchrony the halves run at different simulated times with a
// message buffer in flight between them, so they are also exposed
// separately, operating on raw fixed-stride buffers (message-pool slabs),
// as run_exchange does on Scratch's buffer and reply; the active tail is
// absorb() with age_incoming = 1. Semantics, stats updates and Rng
// consumption mirror GossipNode::handle_message / handle_reply exactly —
// pinned by the engine trace-equivalence suite in
// tests/event_engine_flat_test.cpp.

/// Wakeup-path fusion of FlatViewStore::age + write_active_buffer: ages the
/// slot in place while streaming the aged entries into `out`, with
/// {self, 0} leading. After a uniform +1 every aged key is >= (1 << 32) and
/// the self descriptor's key is `self` < 2^32, so its sorted position is
/// always index 0 — the insertion scan disappears along with the second
/// pass over the slot. Bit-identical to age-then-write (the flat-vs-legacy
/// replay suite pins it through the event engine).
inline std::uint32_t age_write_active_buffer(FlatViewStore& store, NodeId slot,
                                             NodeId self, bool push,
                                             NodeDescriptor* out) {
  if (!push) {
    store.age(slot);
    return 0;  // empty buffer triggers the pull reply
  }
  out[0] = NodeDescriptor{self, 0};
  return store.age_and_copy(slot, out + 1) + 1;
}

/// Passive half of Figure 1 over message buffers: writes the pull reply
/// (pre-merge view plus self) into `reply_out` when one is wanted, then
/// merges the request — aged one hop inside the merge — into the passive
/// slot. Returns the reply entry count (0 when none was written).
/// `passive` is the arena slot and `self` the node's address (the slot/self
/// split of absorb; equal except in a standalone daemon).
/// `reply_out == nullptr` skips building a reply the caller already knows
/// will be lost; counters still mirror GossipNode::handle_message (received
/// always, replies_sent whenever the protocol pulls), and neither the reply
/// build nor the skip consumes Rng, so the node's stream is unaffected.
inline std::uint32_t handle_request(NodeArena& arena, NodeId passive,
                                    NodeId self, const NodeDescriptor* request,
                                    std::uint32_t request_size,
                                    NodeDescriptor* reply_out,
                                    const ProtocolSpec& spec,
                                    const ProtocolOptions& options,
                                    Scratch& scratch) {
  ++arena.stats[passive].received;
  std::uint32_t reply_size = 0;
  if (spec.pull()) {
    if (reply_out != nullptr) {
      reply_size = write_active_buffer(arena.views.view_of(passive), self,
                                       /*push=*/true, reply_out);
    }
    ++arena.stats[passive].replies_sent;
  }
  absorb(arena.views, passive, self, spec, options,
         DescSpan{request, request_size}, arena.rngs[passive], scratch,
         /*age_incoming=*/1);
  return reply_size;
}

/// One complete atomic exchange between two live, reachable nodes — the
/// cycle engine's fast path. Mirrors exactly the legacy sequence
///   buffer = active.make_active_buffer();
///   reply  = passive.handle_message(buffer);
///   if (pull) active.handle_reply(*reply);
/// including the order of stats updates and Rng consumption. The caller has
/// already aged the active view, selected `passive` and checked liveness.
inline void run_exchange(NodeArena& arena, NodeId active, NodeId passive,
                         const ProtocolSpec& spec,
                         const ProtocolOptions& options, Scratch& scratch) {
  FlatViewStore& store = arena.views;
  // Both messages fit c + 1 entries; after the first call these resizes
  // change nothing.
  const std::size_t capacity = store.view_capacity() + 1;
  scratch.buffer.resize(capacity);
  scratch.reply.resize(capacity);
  const std::uint32_t sent = write_active_buffer(
      store.view_of(active), active, spec.push(), scratch.buffer.data());
  // Passive thread (handle_message): build the pull reply from the
  // pre-merge view, then merge (aging the incoming buffer in-merge) and
  // select.
  ++arena.stats[passive].received;
  const bool pull = spec.pull();
  std::uint32_t replied = 0;
  if (pull) {
    replied = write_active_buffer(store.view_of(passive), passive,
                                  /*push=*/true, scratch.reply.data());
    ++arena.stats[passive].replies_sent;
  }
  absorb(store, passive, passive, spec, options,
         DescSpan{scratch.buffer.data(), sent}, arena.rngs[passive], scratch,
         /*age_incoming=*/1);
  // Active thread tail (handle_reply): merge the aged reply and select.
  if (pull) {
    absorb(store, active, active, spec, options,
           DescSpan{scratch.reply.data(), replied}, arena.rngs[active],
           scratch, /*age_incoming=*/1);
  }
}

}  // namespace pss::flat
