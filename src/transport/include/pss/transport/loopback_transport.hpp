#pragma once

// Deterministic in-process Transport backend.
//
// Frames wait in a sim::EventQueue, the event engines' own scheduler,
// under (deliver_at, seq): seq is the queue's monotone counter, so the
// order is a strict total order with exactly the tie-break discipline of
// EventEngine's queue. The differential tests lean on a stronger property:
// LoopbackTransport draws its fault decisions from the SAME master Rng, in
// the SAME per-message pattern, as EventEngine's send path —
//
//     chance(loss_probability)            (no draw consumed at p = 0)
//     min_delay + uniform() * (max_delay - min_delay)
//
// — so a LoopbackDriver run over this backend consumes master-stream draws
// value-for-value like an EventEngine run of the same seed, and the two
// finish digest-identical even under nonzero latency and loss. The
// reorder / duplication knobs have no EventEngine counterpart and consume
// extra draws, so they are only exercised by the invariant tests.
//
// A LoopbackDriver keeps its node timers on the same queue's wake-up ring
// (queue()), so timers and frames draw their seqs from one counter and pop
// as EventEngine's single totally-ordered event stream. The driver pops
// frames straight off the queue, reads them in place (bytes), prefetches
// the calendar's hinted frame (prefetch) and frees each slot (release);
// poll() is the Transport path for everyone else.
//
// Payloads live in one contiguous array of fixed-stride slots, recycled
// through a free list: a queued frame is a 12-byte (to, slot, size) record
// and steady state allocates nothing. The stride is the longest frame seen
// so far (276 bytes for a c = 30 request), and a longer frame restrides
// the array once, moving every slot's bytes.

#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/sim/event_queue.hpp"
#include "pss/transport/transport.hpp"

namespace pss::transport {

struct LoopbackConfig {
  double min_delay = 0.0;
  double max_delay = 0.0;
  double loss_probability = 0.0;
  // With probability `reorder_probability`, a frame's delay is stretched by
  // uniform() * reorder_jitter, letting later sends overtake it.
  double reorder_probability = 0.0;
  double reorder_jitter = 0.0;
  // With probability `duplicate_probability`, a second copy is enqueued
  // with an independently drawn delay.
  double duplicate_probability = 0.0;
};

struct LoopbackStats {
  std::uint64_t frames_sent = 0;        // send() calls accepted
  std::uint64_t frames_dropped = 0;     // lost to the loss knob
  std::uint64_t frames_duplicated = 0;  // extra copies enqueued
  std::uint64_t frames_delivered = 0;   // handed to a handler or released
};

class LoopbackTransport final : public Transport {
 public:
  /// A queued frame: its destination as send() was given it, and where its
  /// bytes wait.
  struct Frame {
    NodeId to = kInvalidNode;
    std::uint32_t slot = 0;  ///< payload slot index
    std::uint32_t size = 0;  ///< frame length in bytes
  };
  using Queue = sim::EventQueue<Frame>;

  // `rng` must outlive the transport. Pass the simulation's master Rng to
  // share its draw stream with an EventEngine reference run.
  LoopbackTransport(LoopbackConfig config, Rng& rng);

  bool send(NodeId to, std::span<const std::byte> frame) override;

  // Delivers every frame with deliver_at <= now(), earliest (at, seq)
  // first. The handler gets a copy the bus does not move while it sends.
  // For a bus no driver runs: a queue that also holds wake-ups throws
  // std::logic_error.
  std::size_t poll(const FrameHandler& handler) override;

  void set_now(double now) { now_ = now; }
  double now() const { return now_; }

  /// The frame queue, whose wake-up ring a driver may use for its timers.
  /// A frame popped from it is delivered by release().
  Queue& queue() { return queue_; }

  /// A queued or popped frame's bytes, valid until the next send() or
  /// release().
  std::span<const std::byte> bytes(const Frame& frame) const {
    return {slots_.data() + std::size_t{frame.slot} * stride_, frame.size};
  }

  /// Hints the prefetcher at a frame's bytes (the driver's look-ahead: a
  /// payload was written thousands of events ago and is cold by delivery).
  void prefetch(const Frame& frame) const {
#if defined(__GNUC__) || defined(__clang__)
    const std::byte* base = slots_.data() + std::size_t{frame.slot} * stride_;
    for (std::size_t off = 0; off < frame.size; off += 64) {
      __builtin_prefetch(base + off, 0, 1);
    }
#else
    (void)frame;
#endif
  }

  /// Counts a frame popped from queue() as delivered and frees its slot;
  /// its bytes are gone once the next send() takes the slot.
  void release(const Frame& frame) {
    ++stats_.frames_delivered;
    free_slots_.push_back(frame.slot);
  }

  const LoopbackStats& stats() const { return stats_; }

  /// Frames in flight; a driver's pending wake-ups are not counted.
  std::size_t in_flight() const { return queue_.message_count(); }

 private:
  void enqueue(NodeId to, std::span<const std::byte> frame, double delay);
  std::uint32_t store(std::span<const std::byte> frame);

  LoopbackConfig config_;
  Rng* rng_;
  double now_ = 0.0;
  LoopbackStats stats_;
  Queue queue_;
  std::vector<std::byte> slots_;  ///< slot_count_ slots of stride_ bytes
  std::size_t stride_ = 0;        ///< the longest frame seen so far
  std::uint32_t slot_count_ = 0;
  std::vector<std::uint32_t> free_slots_;  ///< released slots, LIFO
  std::vector<std::byte> delivery_;        ///< poll()'s handler copy
};

}  // namespace pss::transport
