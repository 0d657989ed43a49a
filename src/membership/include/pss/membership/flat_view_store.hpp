// Flat, cache-friendly storage for every node's partial view.
//
// The legacy representation (one heap-allocated std::vector<NodeDescriptor>
// per GossipNode) caps practical simulation size: at 10^6 nodes it means a
// million small allocations, pointer-chasing on every exchange, and no
// locality between the views the cycle permutation visits back to back.
// FlatViewStore replaces it with one contiguous (NodeId, age) array indexed
// by `slot * view_capacity`, plus side arrays for per-slot sizes and change
// stamps. All simulation state lives in three flat vectors; growing the
// network is an O(capacity) append and the whole store is one cache-walkable
// block.
//
// Invariants per slot (the same I1/I2 the View class maintains):
//   I1  entries are sorted by (hop_count, address) — ByHopThenAddress;
//   I2  at most one entry per address;
//   I3  size <= view_capacity. Unlike View (which tolerates oversized merge
//       buffers because the *node* enforces c), flat slots enforce I3 at the
//       storage boundary: assign() rejects oversized views. Merge buffers
//       never live in the store — they live in flat::Scratch.
//
// Versioning: every mutation bumps a per-slot counter (starting at 1 when
// the slot is created). The GossipNode adapter uses the stamp to cache a
// materialized View for the legacy `const View&` accessor without
// re-copying on every call; nothing on the exchange hot path reads the
// stamps. The counters are per-slot — not one global counter — so that
// the lanes of a multi-lane cycle engine mutating disjoint slots never
// share a memory location: every FlatViewStore mutator touches only the
// slot it is given, which is the storage half of the engine's race-freedom
// argument (see pss/sim/cycle_engine.hpp).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/types.hpp"
#include "pss/membership/node_descriptor.hpp"

namespace pss {

class FlatViewStore {
 public:
  /// `view_capacity` is the fixed per-slot stride — the protocol's c.
  explicit FlatViewStore(std::size_t view_capacity) : capacity_(view_capacity) {
    PSS_CHECK_MSG(capacity_ > 0, "view capacity must be positive");
  }

  std::size_t view_capacity() const { return capacity_; }
  std::size_t node_count() const { return sizes_.size(); }

  /// Pre-allocates storage for `n` slots (one contiguous growth instead of
  /// doubling through ~20 reallocations at 10^6 nodes).
  void reserve_nodes(std::size_t n) {
    slots_.reserve(n * capacity_);
    sizes_.reserve(n);
    versions_.reserve(n);
  }

  /// Appends an empty slot; returns its index (dense, creation order).
  NodeId add_node() {
    const NodeId slot = static_cast<NodeId>(sizes_.size());
    slots_.resize(slots_.size() + capacity_);
    sizes_.push_back(0);
    versions_.push_back(1);
    return slot;
  }

  /// Sorted, duplicate-free entries of a slot (freshest first).
  std::span<const NodeDescriptor> view_of(NodeId slot) const {
    PSS_DCHECK(slot < sizes_.size());
    return {slots_.data() + static_cast<std::size_t>(slot) * capacity_,
            sizes_[slot]};
  }

  std::size_t view_size(NodeId slot) const {
    PSS_DCHECK(slot < sizes_.size());
    return sizes_[slot];
  }

  /// Change stamp of a slot; strictly increases across mutations of that
  /// slot (mutating one slot never stamps another).
  std::uint64_t version(NodeId slot) const {
    PSS_DCHECK(slot < versions_.size());
    return versions_[slot];
  }

  void clear(NodeId slot) {
    PSS_DCHECK(slot < sizes_.size());
    sizes_[slot] = 0;
    touch(slot);
  }

  /// Replaces a slot's entries. `entries` must already satisfy I1/I2 (the
  /// flat ops and View both produce normalized data); I3 is enforced here.
  void assign(NodeId slot, std::span<const NodeDescriptor> entries);

  /// increaseHopCount for one slot: ages every entry by one hop. Order by
  /// (hop, address) is preserved under a uniform +1.
  void age(NodeId slot) {
    PSS_DCHECK(slot < sizes_.size());
    NodeDescriptor* const view =
        slots_.data() + static_cast<std::size_t>(slot) * capacity_;
    const std::uint32_t n = sizes_[slot];
    for (std::uint32_t i = 0; i < n; ++i) ++view[i].hop_count;
    touch(slot);
  }

  /// age() fused with the active-buffer export: ages the slot in place
  /// while streaming the aged entries to `out` (which must hold
  /// view_size(slot) entries). One pass over the slot where the event
  /// engine's wakeup used to pay two — aging, then a re-read to build the
  /// outgoing request. Returns the entry count written.
  std::uint32_t age_and_copy(NodeId slot, NodeDescriptor* out) {
    PSS_DCHECK(slot < sizes_.size());
    // A descriptor's 8 bytes read as a little-endian u64 are its
    // (hop << 32 | address) sort key, so aging is one add of 1 << 32 per
    // entry, and the compiler turns the loop into vector adds (the
    // field-wise form does not vectorize with the second store).
    static_assert(std::endian::native == std::endian::little &&
                  sizeof(NodeDescriptor) == sizeof(std::uint64_t));
    NodeDescriptor* const view =
        slots_.data() + static_cast<std::size_t>(slot) * capacity_;
    const std::uint32_t n = sizes_[slot];
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t key;
      std::memcpy(&key, view + i, sizeof(key));
      key += std::uint64_t{1} << 32;
      // The void* casts mute GCC's class-memaccess warning (NodeDescriptor
      // is trivially copyable but has default member initializers).
      std::memcpy(static_cast<void*>(view + i), &key, sizeof(key));
      std::memcpy(static_cast<void*>(out + i), &key, sizeof(key));
    }
    touch(slot);
    return n;
  }

  /// Removes the entry for `address` if present; returns true when removed.
  bool erase_address(NodeId slot, NodeId address);

  /// Hints the prefetcher at every cache line of a slot about to be
  /// exchanged (the cycle engine calls this a few permutation steps ahead
  /// for initiators, and as soon as the peer is drawn for the passive side).
  void prefetch(NodeId slot) const {
#if defined(__GNUC__) || defined(__clang__)
    const char* base = reinterpret_cast<const char*>(
        slots_.data() + static_cast<std::size_t>(slot) * capacity_);
    const std::size_t bytes = capacity_ * sizeof(NodeDescriptor);
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(base + off, 1, 1);
    }
#else
    (void)slot;
#endif
  }

  /// Bytes of flat storage currently reserved (slots + sizes + stamps).
  std::size_t storage_bytes() const {
    return slots_.capacity() * sizeof(NodeDescriptor) +
           sizes_.capacity() * sizeof(std::uint32_t) +
           versions_.capacity() * sizeof(std::uint64_t);
  }

 private:
  void touch(NodeId slot) { ++versions_[slot]; }

  std::size_t capacity_;
  std::vector<NodeDescriptor> slots_;   ///< node_count * capacity, SoA block
  std::vector<std::uint32_t> sizes_;    ///< live prefix length per slot
  std::vector<std::uint64_t> versions_; ///< change stamp per slot
};

}  // namespace pss
