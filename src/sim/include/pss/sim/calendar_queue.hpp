// Index-based calendar queue: the message scheduler inside EventQueue
// (event_queue.hpp), which keeps the periodic wake-ups in a ring beside
// it. The event engine queues its messages there, and LoopbackTransport
// its wire frames.
//
// A binary heap makes every schedule/pop O(log n) with n random touches of
// a multi-megabyte array; at 10^5-10^6 nodes the in-flight messages alone
// number about a tenth of the network, so the heap becomes a per-event
// cache-miss tax. A calendar queue
// (Brown, CACM 1988) exploits what a discrete-event gossip simulation
// actually looks like: timestamps are dense, near-future, and advance
// monotonically. Time is divided into fixed-width buckets laid out
// circularly over one "year"; scheduling hashes the timestamp to a bucket
// (O(1) amortized) and popping sweeps the current bucket window forward.
//
// Determinism: items are totally ordered by (at, seq) — the caller supplies
// a unique monotonic seq per push — and pop() yields exactly that order, so
// an engine built on this queue replays bit-identically against one built
// on std::priority_queue (pinned by tests/event_engine_flat_test.cpp).
//
// Layout and policies:
//   - items live in one recycling node pool (flat array + free list, like
//     the message slab pool); a bucket is an intrusive doubly-linked list
//     through the pool, sorted descending so the bucket minimum is the tail
//     and popping it is O(1). No per-bucket containers means no per-bucket
//     capacity growth: after the pool reaches its high-water mark the queue
//     performs no allocation at all;
//   - an item's virtual bucket is floor(at / width); the physical bucket is
//     virtual mod bucket_count. The sweep cursor walks virtual buckets, so
//     items a year ahead wait in place without being rescanned;
//   - the queue resizes (doubling / halving bucket_count, width scaled to
//     keep the year span constant) when the average occupancy leaves
//     [1/kShrinkAt, kGrowAt], re-linking every node — O(n) amortized over
//     the pushes that caused it. Steady state never resizes;
//   - when a whole lap of the calendar holds nothing in its current-year
//     window (a sparse far-future tail), pop falls back to a direct scan of
//     all bucket minima and jumps the cursor there.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "pss/common/check.hpp"

namespace pss::sim {

template <typename T>
class CalendarQueue {
 public:
  struct Item {
    double at = 0;
    std::uint64_t seq = 0;  ///< unique tie-break; caller keeps it monotonic
    T value{};
  };

  /// `year_span` is the stretch of simulated time mapped across the whole
  /// bucket array; width = year_span / bucket_count. Choose it around the
  /// natural event horizon (EventQueue uses twice the largest message
  /// latency) so one lap of the calendar covers the pending set without
  /// crowding it into a few buckets.
  explicit CalendarQueue(double year_span, std::size_t min_buckets = 16)
      : year_span_(year_span), min_buckets_(ceil_pow2(min_buckets)) {
    PSS_CHECK_MSG(year_span_ > 0, "calendar year span must be positive");
    rebuild(min_buckets_);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  std::size_t bucket_count() const { return head_.size(); }
  double bucket_width() const { return width_; }

  /// Schedules `value` at time `at` (>= 0). `seq` breaks timestamp ties;
  /// pushes must use strictly increasing seq for deterministic replay.
  void push(double at, std::uint64_t seq, const T& value) {
    PSS_DCHECK(at >= 0);
    const std::uint32_t nid = acquire_node();
    Node& node = pool_[nid];
    node.item.at = at;
    node.item.seq = seq;
    node.item.value = value;
    const std::uint64_t vb = virtual_bucket(at);
    link(nid, static_cast<std::size_t>(vb & mask_));
    ++size_;
    // An item behind the sweep cursor (same-timestamp scheduling) must pull
    // the cursor back or the lap scan would overlook it until a full lap.
    if (vb < cursor_) cursor_ = vb;
    if (size_ > kGrowAt * head_.size()) rebuild(head_.size() * 2);
  }

  /// Smallest (at, seq) item. Advances the sweep cursor; amortized O(1)
  /// under the dense near-future workload the engine produces, and O(1)
  /// when called again with nothing popped, so a driver may peek at the
  /// next item to prefetch it at no extra scan. The reference stays valid
  /// until the next push or pop (a push may grow the node pool).
  const Item& top() {
    PSS_CHECK_MSG(size_ > 0, "top() on empty calendar queue");
    // Lap scan. Invariant: no item has a virtual bucket below cursor_, and
    // timestamp ties always share a bucket, so the first bucket minimum
    // that falls inside its own current-year window is the global minimum:
    // every item in a bucket already swept past belongs to a later year and
    // therefore to a later window than the one found.
    const std::uint64_t lap_end = cursor_ + head_.size();
    for (std::uint64_t vb = cursor_; vb < lap_end; ++vb) {
      const std::uint32_t min_node = tail_[vb & mask_];
      if (min_node != kNil &&
          pool_[min_node].item.at < static_cast<double>(vb + 1) * width_) {
        cursor_ = vb;
        return pool_[min_node].item;
      }
    }
    // Sparse tail: everything pending lies more than a year ahead. Compare
    // the bucket minima directly and jump the cursor to the winner.
    const Item* best = nullptr;
    for (const std::uint32_t min_node : tail_) {
      if (min_node == kNil) continue;
      const Item& cand = pool_[min_node].item;
      if (best == nullptr || item_less(cand, *best)) best = &cand;
    }
    cursor_ = virtual_bucket(best->at);
    return *best;
  }

  /// Removes and returns the smallest (at, seq) item.
  Item pop() {
    top();  // positions cursor_ on the bucket holding the minimum
    return pop_at_cursor();
  }

  /// Single-scan conditional pop: removes and returns the minimum when its
  /// timestamp is <= `until`, nullptr otherwise (or when empty). The
  /// returned pointer stays valid until the next pop — pushes in between
  /// are fine, which is exactly the engine's handle-then-reschedule shape.
  const Item* pop_if_at_most(double until) {
    if (size_ == 0) return nullptr;
    if (top().at > until) return nullptr;
    popped_ = pop_at_cursor();
    return &popped_;
  }

  /// Bytes held in the node pool, bucket tables and resize spill buffer —
  /// the queue's contribution to resident_bytes().
  std::size_t storage_bytes() const {
    return pool_.capacity() * sizeof(Node) +
           free_.capacity() * sizeof(std::uint32_t) +
           (head_.capacity() + tail_.capacity()) * sizeof(std::uint32_t) +
           spill_.capacity() * sizeof(std::uint32_t);
  }

 private:
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};
  // Resize thresholds in items per bucket: grow above kGrowAt average
  // occupancy, halve when occupancy drops below 1/kShrinkAt. The wide
  // hysteresis band keeps a fluctuating population from thrashing rebuilds.
  static constexpr std::size_t kGrowAt = 2;
  static constexpr std::size_t kShrinkAt = 4;

  struct Node {
    Item item;
    std::uint32_t prev = kNil;  ///< toward the bucket head (larger items)
    std::uint32_t next = kNil;  ///< toward the bucket tail (smaller items)
  };

  static std::size_t ceil_pow2(std::size_t v) {
    std::size_t p = 1;
    while (p < v) p <<= 1;
    return p;
  }

  static bool item_less(const Item& a, const Item& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  std::uint64_t virtual_bucket(double at) const {
    const double q = at / width_;
    PSS_DCHECK(q < 9.0e18);  // stays far inside uint64 for sane time scales
    return static_cast<std::uint64_t>(q);
  }

  std::uint32_t acquire_node() {
    if (!free_.empty()) {
      const std::uint32_t nid = free_.back();
      free_.pop_back();
      return nid;
    }
    const std::uint32_t nid = static_cast<std::uint32_t>(pool_.size());
    pool_.emplace_back();
    return nid;
  }

  /// Links node `nid` into bucket `b`, keeping the list sorted descending
  /// (minimum at tail). The walk starts at the head: pushes arrive in
  /// near-monotone timestamp order (each handler schedules at now + delta),
  /// so a new item usually outranks the current head and links in O(1).
  void link(std::uint32_t nid, std::size_t b) {
    Node& node = pool_[nid];
    std::uint32_t above = kNil;
    std::uint32_t below = head_[b];
    while (below != kNil && item_less(node.item, pool_[below].item)) {
      above = below;
      below = pool_[below].next;
    }
    node.prev = above;
    node.next = below;
    if (above == kNil) {
      head_[b] = nid;
    } else {
      pool_[above].next = nid;
    }
    if (below == kNil) {
      tail_[b] = nid;
    } else {
      pool_[below].prev = nid;
    }
  }

  /// Unlinks and returns the minimum of the bucket the cursor is parked on
  /// (which top() just established holds the global minimum).
  Item pop_at_cursor() {
    const std::size_t b = cursor_ & mask_;
    const std::uint32_t nid = tail_[b];
    Node& node = pool_[nid];
    tail_[b] = node.prev;
    if (node.prev == kNil) {
      head_[b] = kNil;
    } else {
      pool_[node.prev].next = kNil;
    }
    free_.push_back(nid);
    --size_;
    if (head_.size() > min_buckets_ && size_ * kShrinkAt < head_.size()) {
      rebuild(head_.size() / 2);
    }
    return node.item;
  }

  void rebuild(std::size_t bucket_count) {
    spill_.clear();
    spill_.reserve(size_);
    for (std::uint32_t nid : head_) {
      for (; nid != kNil; nid = pool_[nid].next) spill_.push_back(nid);
    }
    head_.assign(bucket_count, kNil);
    tail_.assign(bucket_count, kNil);
    mask_ = bucket_count - 1;
    width_ = year_span_ / static_cast<double>(bucket_count);
    cursor_ = ~std::uint64_t{0};
    for (const std::uint32_t nid : spill_) {
      const std::uint64_t vb = virtual_bucket(pool_[nid].item.at);
      link(nid, static_cast<std::size_t>(vb & mask_));
      if (vb < cursor_) cursor_ = vb;
    }
    if (size_ == 0) cursor_ = 0;
  }

  double year_span_;
  std::size_t min_buckets_;
  double width_ = 0;
  std::uint64_t mask_ = 0;
  std::uint64_t cursor_ = 0;  ///< virtual bucket the sweep is parked on
  std::size_t size_ = 0;
  std::vector<Node> pool_;             ///< recycling node storage
  std::vector<std::uint32_t> free_;    ///< released node ids, LIFO
  std::vector<std::uint32_t> head_;    ///< per-bucket list head (maximum)
  std::vector<std::uint32_t> tail_;    ///< per-bucket list tail (minimum)
  std::vector<std::uint32_t> spill_;   ///< rebuild staging, capacity reused
  Item popped_;                        ///< pop_if_at_most landing slot
};

}  // namespace pss::sim
