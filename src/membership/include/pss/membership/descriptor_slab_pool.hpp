// Recycling pool of fixed-stride descriptor slabs: the flat message payload
// type.
//
// A gossip message carries at most view_size + 1 descriptors (a full view
// plus the sender's own). The legacy event engine shipped each one as a
// heap-allocated View inside the event record — one allocation and one
// unbounded copy per message, millions of times per run. A slab is instead
// a fixed-size window into one contiguous array: acquiring recycles a freed
// slot when one exists and only appends (amortized growth) while the
// in-flight population is still climbing, so the steady state allocates
// nothing and message payloads stay as cache-dense as the views themselves.
//
// Slabs are addressed by index, not pointer: acquire() may grow the backing
// array and move it, so callers must re-derive data() after any acquire and
// never hold a slab pointer across one. Ownership is a strict
// acquire/release protocol — whoever dequeues the message (delivery, drop
// at a dead/unreachable target) releases the slab; the pool does not track
// double frees (the event engine's queue holds each slab id exactly once).
//
// Content contract: slab entries obey the same I1/I2 invariants as views
// (sorted by (hop, address), one entry per address) because they are only
// ever written by the flat_exchange buffer builders; that is what lets the
// merge kernels consume a slab span directly.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/membership/node_descriptor.hpp"

namespace pss {

class DescriptorSlabPool {
 public:
  using SlabId = std::uint32_t;
  static constexpr SlabId kNoSlab = ~SlabId{0};

  /// `stride` is the fixed entry capacity of every slab (the engine passes
  /// view_size + 1, the worst-case Figure-1 buffer).
  explicit DescriptorSlabPool(std::size_t stride) : stride_(stride) {
    PSS_CHECK_MSG(stride_ > 0, "slab stride must be positive");
  }

  std::size_t stride() const { return stride_; }

  /// Slabs ever created (the pool's high-water mark of in-flight messages).
  std::size_t slab_count() const { return sizes_.size(); }

  /// Slabs currently acquired and not yet released.
  std::size_t in_use() const { return sizes_.size() - free_.size(); }

  /// Pre-grows the pool to `n` slabs (bench warm-up aid).
  void reserve(std::size_t n) {
    entries_.reserve(n * stride_);
    sizes_.reserve(n);
    free_.reserve(n);
  }

  /// Hands out an empty slab, recycling the most recently released one
  /// (LIFO keeps the hot slab in cache). May move the backing array.
  SlabId acquire() {
    if (!free_.empty()) {
      const SlabId id = free_.back();
      free_.pop_back();
      return id;
    }
    const SlabId id = static_cast<SlabId>(sizes_.size());
    entries_.resize(entries_.size() + stride_);
    sizes_.push_back(0);
    // The free list can come to hold every slab: size it with the pool's
    // capacity, so it reallocates only when the pool itself grows, never
    // when the in-flight population dips to a new low.
    free_.reserve(sizes_.capacity());
    return id;
  }

  /// Returns a slab to the free list. The id must be acquired and must not
  /// be used afterwards.
  void release(SlabId id) {
    PSS_DCHECK(id < sizes_.size());
    sizes_[id] = 0;
    free_.push_back(id);
  }

  NodeDescriptor* data(SlabId id) {
    PSS_DCHECK(id < sizes_.size());
    return entries_.data() + static_cast<std::size_t>(id) * stride_;
  }

  const NodeDescriptor* data(SlabId id) const {
    PSS_DCHECK(id < sizes_.size());
    return entries_.data() + static_cast<std::size_t>(id) * stride_;
  }

  std::uint32_t size(SlabId id) const {
    PSS_DCHECK(id < sizes_.size());
    return sizes_[id];
  }

  void set_size(SlabId id, std::uint32_t n) {
    PSS_DCHECK(id < sizes_.size() && n <= stride_);
    sizes_[id] = n;
  }

  /// The slab's entries as a read-only span.
  std::span<const NodeDescriptor> span(SlabId id) const {
    return {data(id), sizes_[id]};
  }

  /// Hints the prefetcher at a slab about to be consumed (the event
  /// engine's lookahead: a message payload was written thousands of events
  /// ago and is cold by delivery time).
  void prefetch(SlabId id) const {
#if defined(__GNUC__) || defined(__clang__)
    const char* base = reinterpret_cast<const char*>(
        entries_.data() + static_cast<std::size_t>(id) * stride_);
    const std::size_t bytes = stride_ * sizeof(NodeDescriptor);
    for (std::size_t off = 0; off < bytes; off += 64) {
      __builtin_prefetch(base + off, 0, 1);
    }
    __builtin_prefetch(sizes_.data() + id, 0, 1);
#else
    (void)id;
#endif
  }

  /// Bytes reserved by the pool (payload + size + free-list arrays).
  std::size_t storage_bytes() const {
    return entries_.capacity() * sizeof(NodeDescriptor) +
           sizes_.capacity() * sizeof(std::uint32_t) +
           free_.capacity() * sizeof(SlabId);
  }

 private:
  std::size_t stride_;
  std::vector<NodeDescriptor> entries_;  ///< slab_count * stride, contiguous
  std::vector<std::uint32_t> sizes_;     ///< live entry count per slab
  std::vector<SlabId> free_;             ///< released ids, LIFO
};

}  // namespace pss
