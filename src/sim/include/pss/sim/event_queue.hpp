// The asynchronous engines' event queue: periodic wake-ups in a FIFO ring,
// in-flight messages in a calendar queue, popped as one stream in
// (at, seq) order. EventEngine queues its engine messages here, at any
// lane count; LoopbackTransport queues its wire frames here, and the
// LoopbackDriver that runs it keeps the node timers on the same ring.
//
// Every node's active thread wakes once per period T (the skeleton's
// wait(T)), so wake-ups need no priority queue:
//   - a re-arm is pushed at now + T with the next seq, and now never
//     decreases, so appending it keeps the ring sorted by (at, seq);
//   - a first wake-up (at construction, or for a late joiner) lands in
//     [now, now + T), ahead of every re-arm pushed after it, so each batch
//     of first wake-ups is sorted and merged into the ring once.
// The calendar then holds only messages: about 0.11 n at the default
// latency instead of n + 0.11 n. pop_if_at_most takes whichever of the
// ring's head and the calendar's minimum is smaller by (at, seq), so the
// popped sequence is exactly a single calendar's. seq is unique: the
// queue hands out one counter to both sides.
//
// The calendar's year spans twice the message horizon (2 max_latency, or
// 2 T for zero-latency messages), so in-flight messages spread over about
// half of its buckets whatever the period.
//
// The ring names the coming wake-ups exactly (wakeup_ahead), and the
// calendar its next message (message_hint): the drivers prefetch what
// those events will touch while the current one is handled.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/types.hpp"
#include "pss/sim/calendar_queue.hpp"

namespace pss::sim {

template <typename T>
class EventQueue {
 public:
  /// One popped event: a wake-up of `node`, or a message when `node` is
  /// kInvalidNode.
  struct Event {
    double at = 0;
    std::uint64_t seq = 0;
    NodeId node = kInvalidNode;  ///< the woken node; kInvalidNode: message
    T message{};                 ///< valid when !wakeup()

    bool wakeup() const { return node != kInvalidNode; }
  };

  /// The wake-up period and the largest message latency size the
  /// calendar's year (see above).
  EventQueue(double period, double max_latency)
      : messages_(max_latency > 0 ? 2.0 * max_latency
                                  : 2.0 * (period > 0 ? period : 1.0)) {}

  /// How far ahead of the ring's head the drivers prefetch a wake-up's
  /// node (see wakeup_ahead).
  static constexpr std::size_t kPrefetchAhead = 8;

  /// Wake-ups plus in-flight messages.
  std::size_t size() const { return wakes_ + messages_.size(); }

  /// In-flight messages alone.
  std::size_t message_count() const { return messages_.size(); }

  /// Schedules `message` at `at` (>= the last popped time) under the next
  /// seq.
  void push(double at, const T& message) {
    messages_.push(at, next_seq_++, message);
  }

  /// Re-arms `node`'s periodic timer at `at` under the next seq. `at` must
  /// not sort before the ring's tail: a re-arm is the popped time plus one
  /// period, and popped times never decrease.
  void rearm(double at, NodeId node) {
    const Wake w{at, next_seq_++, node};
    // Engines pop a wake-up before re-arming it, so their ring is never
    // full here.
    if (wakes_ == ring_.size()) unroll(std::max<std::size_t>(1, 2 * wakes_));
    PSS_DCHECK(wakes_ == 0 || !earlier(w, ring_[slot(wakes_ - 1)]));
    ring_[slot(wakes_)] = w;
    ++wakes_;
  }

  /// Schedules first wake-ups for the `count` nodes from `first`, in id
  /// order: node `first + i` wakes at `phase(first + i)` under the next
  /// seq. `phase` is called once per node in that order (callers draw from
  /// an Rng) and must return a time in [now, now + period], so no later
  /// re-arm sorts before it. The batch is written straight into the
  /// ring's tail, sorted there and merged with the pending wake-ups. At
  /// construction nothing is pending and no merge buffer is taken; later,
  /// libstdc++'s inplace_merge buffers the shorter run, the batch.
  template <typename Phase>
  void add_first_wakeups(NodeId first, std::size_t count, Phase&& phase) {
    const std::size_t pending = wakes_;
    unroll(pending + count);
    for (std::size_t i = 0; i < count; ++i) {
      const NodeId id = first + static_cast<NodeId>(i);
      const double at = phase(id);
      ring_[pending + i] = Wake{at, next_seq_++, id};
    }
    const auto mid = ring_.begin() + static_cast<std::ptrdiff_t>(pending);
    std::sort(mid, ring_.end(), earlier<Wake, Wake>);
    std::inplace_merge(ring_.begin(), mid, ring_.end(), earlier<Wake, Wake>);
    wakes_ = pending + count;
  }

  /// Removes and returns the smallest (at, seq) event when its time is
  /// <= `until`; nullptr otherwise (or when empty). The event stays valid
  /// until the next pop; pushes and re-arms in between leave it alone.
  const Event* pop_if_at_most(double until) {
    if (wakes_ > 0) {
      const Wake& w = ring_[head_];
      if (messages_.empty() || earlier(w, messages_.top())) {
        if (w.at > until) return nullptr;
        popped_.at = w.at;
        popped_.seq = w.seq;
        popped_.node = w.node;
        if (++head_ == ring_.size()) head_ = 0;
        --wakes_;
        return &popped_;
      }
    }
    const auto* m = messages_.pop_if_at_most(until);
    if (m == nullptr) return nullptr;
    popped_.at = m->at;
    popped_.seq = m->seq;
    popped_.node = kInvalidNode;
    popped_.message = m->value;
    return &popped_;
  }

  /// The node whose wake-up is `k` places behind the ring's head (0: the
  /// next wake-up), or kInvalidNode when fewer are pending. Exact, so a
  /// caller can prefetch the node wake-ups are about to touch.
  NodeId wakeup_ahead(std::size_t k) const {
    return k < wakes_ ? ring_[slot(k)].node : kInvalidNode;
  }

  /// The next message, the calendar's (at, seq) minimum, or nullptr when
  /// none is in flight. It runs the calendar's top(), whose bucket scan
  /// the next pop would run anyway; that pop then finds the cursor parked
  /// on its bucket. The item stays valid until the next push or pop.
  const typename CalendarQueue<T>::Item* message_hint() {
    return messages_.empty() ? nullptr : &messages_.top();
  }

  /// Bytes held by the ring and the calendar.
  std::size_t storage_bytes() const {
    return ring_.capacity() * sizeof(Wake) + messages_.storage_bytes();
  }

 private:
  /// A pending wake-up; a calendar node holding an engine message takes
  /// twice the bytes.
  struct Wake {
    double at = 0;
    std::uint64_t seq = 0;
    NodeId node = kInvalidNode;
  };
  static_assert(sizeof(Wake) == 24);

  /// (at, seq) order, between wake-ups and against calendar items.
  template <typename A, typename B>
  static bool earlier(const A& a, const B& b) {
    return a.at < b.at || (a.at == b.at && a.seq < b.seq);
  }

  /// Physical index of the wake-up `k` places behind the head (k < size).
  std::size_t slot(std::size_t k) const {
    const std::size_t i = head_ + k;
    return i < ring_.size() ? i : i - ring_.size();
  }

  /// Moves the pending wake-ups to [0, wakes_) in pop order and resizes
  /// the ring to `slots` (>= wakes_) slots.
  void unroll(std::size_t slots) {
    std::rotate(ring_.begin(),
                ring_.begin() + static_cast<std::ptrdiff_t>(head_),
                ring_.end());
    head_ = 0;
    ring_.resize(slots);
  }

  std::vector<Wake> ring_;  ///< circular; wakes_ entries from head_
  std::size_t head_ = 0;
  std::size_t wakes_ = 0;
  CalendarQueue<T> messages_;
  std::uint64_t next_seq_ = 0;
  Event popped_;  ///< pop_if_at_most landing slot
};

}  // namespace pss::sim
