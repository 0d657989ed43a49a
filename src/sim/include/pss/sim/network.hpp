// Simulated network: the registry of gossip nodes with liveness state.
//
// Addresses are dense ids assigned in creation order; a killed node keeps
// its slot (so descriptors pointing to it become dead links, exactly the
// failure model of the paper's Section 7) and can optionally be revived.
//
// Storage: the network is arena-backed. All node state lives in a
// flat::NodeArena — one contiguous FlatViewStore for every view, plus flat
// vectors of Rng streams and counters — instead of per-node objects with
// per-node heap allocations. The GossipNode objects handed out by node()
// are thin adapters over arena slots (kept in a parallel vector so the
// `GossipNode&` accessor stays reference-stable); they hold no view state,
// so the arena's slot is the only copy of every view. The engines bypass
// them and run exchanges directly over the arena. The arena lives behind a
// unique_ptr so moving a Network never invalidates the adapters' back
// pointers.
//
// Liveness is tracked twice: a per-slot byte (the O(1) is_live lookup the
// engines hit on every contact) and an incremental swap-remove pool of live
// ids (live_ids()), so sampling k live nodes — churn joins, kill_random —
// is O(k) instead of a fresh O(N) list build per cycle.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/protocol/node_arena.hpp"
#include "pss/protocol/spec.hpp"

namespace pss::sim {

class Network {
 public:
  /// All nodes run `spec` with `options`; `seed` drives every random choice
  /// of the whole simulation (node RNGs are split off deterministically).
  Network(ProtocolSpec spec, ProtocolOptions options, std::uint64_t seed);

  Network(Network&&) noexcept = default;
  Network& operator=(Network&&) noexcept = default;

  const ProtocolSpec& spec() const { return spec_; }
  const ProtocolOptions& options() const { return options_; }

  /// Creates a live node with an empty view; returns its address.
  NodeId add_node();

  /// Creates `n` nodes; returns the address of the first one.
  NodeId add_nodes(std::size_t n);

  /// Pre-allocates every per-node array for `n` nodes — one contiguous
  /// growth per array instead of repeated doubling (the difference between
  /// seconds and noise when standing up a 10^6-node network).
  void reserve_nodes(std::size_t n);

  /// Total slots ever created (live + dead).
  std::size_t size() const { return adapters_.size(); }

  /// Number of currently live nodes.
  std::size_t live_count() const { return live_ids_.size(); }

  GossipNode& node(NodeId id);
  const GossipNode& node(NodeId id) const;

  /// Zero-copy view access straight from the arena (no adapter, no View
  /// copy) — the inspection fast path for metrics and graphs.
  std::span<const NodeDescriptor> view_span(NodeId id) const;

  /// The structs-of-arrays node state. CycleEngine and the scale bench run
  /// on this directly; everything else should go through node()/view_span().
  flat::NodeArena& arena() { return *arena_; }
  const flat::NodeArena& arena() const { return *arena_; }

  bool is_live(NodeId id) const {
    return id < live_.size() && live_[id] != 0;
  }

  /// Marks a node dead. Its descriptors elsewhere become dead links; its own
  /// view is kept (irrelevant while dead, realistic if revived).
  void kill(NodeId id);

  /// Brings a dead node back with an empty view (a rejoin must re-bootstrap).
  void revive(NodeId id);

  /// Kills a uniform random sample of `count` live nodes. O(count) via the
  /// incremental live-id pool.
  void kill_random(std::size_t count, Rng& rng);

  /// Addresses of all live nodes, ascending. Allocates and scans every
  /// slot; per-cycle callers (churn, engines) should sample live_ids()
  /// instead.
  std::vector<NodeId> live_nodes() const;

  /// The incremental live-id pool: every live address exactly once, in
  /// UNSPECIFIED order (kills swap-remove, so churn perturbs it). O(1) to
  /// read, maintained incrementally by add/kill/revive — this is what makes
  /// per-cycle churn O(changes) instead of O(N). The span is invalidated by
  /// any membership change (add_node, kill, revive).
  std::span<const NodeId> live_ids() const { return live_ids_; }

  /// Total descriptors across live nodes' views that point at dead nodes
  /// (the paper's "overall dead links" metric, Figure 7).
  std::uint64_t count_dead_links() const;

  /// Master RNG of the simulation (engines use it for cycle permutations).
  Rng& rng() { return rng_; }

  /// Bytes resident in the per-node state arrays (arena storage, adapters,
  /// liveness/partition maps) — the bytes/node numerator in BENCH_scale.
  std::size_t resident_bytes() const;

  // --- Temporary network partitions (paper Section 8 discussion) ----------
  // Nodes carry a partition group id (default 0 = everyone together).
  // Engines treat a contact between different groups like a contact to a
  // dead node: the message is lost, views do not change. This models a
  // network-level split with all nodes still running.

  /// Assigns a node to a partition group.
  void set_partition_group(NodeId id, std::uint32_t group);

  /// Puts every node back into group 0 (heals the split).
  void clear_partitions();

  /// Group of a node (0 when partitions are unused).
  std::uint32_t partition_group(NodeId id) const;

  /// True when a and b can exchange messages (same group, both in range).
  bool can_communicate(NodeId a, NodeId b) const {
    if (a >= group_.size() || b >= group_.size()) return false;
    // Unpartitioned fast path: skips two random reads of the group map on
    // every exchange (all groups are 0, so in-range ids always match).
    if (!partitioned_) return true;
    return group_[a] == group_[b];
  }

  /// True when any node is outside group 0.
  bool partitioned() const { return partitioned_; }

  /// Number of view entries of live group-`from` nodes that point at live
  /// nodes of a DIFFERENT group — the "memory" each side retains of the
  /// other during a split (the quantity the Section 8 discussion is about).
  std::uint64_t count_cross_partition_links() const;

 private:
  ProtocolSpec spec_;
  ProtocolOptions options_;
  Rng rng_;
  std::unique_ptr<flat::NodeArena> arena_;
  std::vector<GossipNode> adapters_;
  std::vector<std::uint8_t> live_;
  std::vector<std::uint32_t> group_;
  // Swap-remove live-id pool: live_ids_ holds every live address once;
  // live_pos_[id] is its index in live_ids_ (kNotLive when dead).
  std::vector<NodeId> live_ids_;
  std::vector<std::uint32_t> live_pos_;
  bool partitioned_ = false;

  static constexpr std::uint32_t kNotLive = ~std::uint32_t{0};
};

}  // namespace pss::sim
