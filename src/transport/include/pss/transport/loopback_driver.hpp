#pragma once

// Deterministic event loop running a whole sim::Network over ServiceNodes
// and a LoopbackTransport — the bridge that makes EventEngine the wire
// stack's reference semantics.
//
// The driver runs on the bus's own sim::EventQueue (event_queue.hpp): its
// periodic node timers wait in the queue's FIFO wake-up ring, the bus's
// frames in its calendar, and every seq comes from the queue's one
// counter. So the driver pops EventEngine's one totally-ordered event
// stream exactly as EventEngine::advance_to does, and the handlers fire in
// EventEngine's exact statement order:
//
//   timer due   -> rearm first (seq!), then liveness gate, then on_tick
//   frame due   -> decode, liveness/partition gate (messages_to_dead),
//                  then on_frame
//
// While one event is handled, the driver prefetches what the coming ones
// will touch, as EventEngine does: the arena slot and ServiceNode of the
// wake-up kPrefetchAhead places ahead in the ring, and the bytes, arena
// slot and ServiceNode of the calendar's hinted frame.
//
// Because LoopbackTransport also mirrors the engine's master-Rng draw
// pattern per message (see loopback_transport.hpp), a run under any
// latency/loss configuration — not just the zero/zero case — finishes
// bit-identical to EventEngine under the same seed: same views, same
// NodeStats, same per-node Rng positions, i.e. equal scenarios digests.
// tests/transport_test.cpp and bench/scale_transport.cpp (phase 1, a hard
// gate) enforce this; the reorder/duplication knobs are outside the
// correspondence and are only exercised by invariant tests.

#include <cstdint>
#include <deque>

#include "pss/common/types.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"
#include "pss/transport/loopback_transport.hpp"
#include "pss/transport/service_node.hpp"
#include "pss/transport/wire.hpp"

namespace pss::transport {

struct LoopbackDriverConfig {
  double period = 1.0;
  double reply_timeout = 0.5;
};

class LoopbackDriver {
 public:
  /// `network` and `bus` must outlive the driver, and the driver must be
  /// the only one running `bus`. For differential runs against EventEngine,
  /// `bus` must draw from network.rng() so the master stream is shared.
  /// Nodes present at construction get their initial wake-up phases
  /// immediately (uniform in [0, period), id order — the engine's
  /// schedule_new_nodes discipline); later additions are picked up by the
  /// next run_* call.
  LoopbackDriver(sim::Network& network, LoopbackTransport& bus,
                 LoopbackDriverConfig config = {});

  /// Processes all timer and frame events with timestamp <= until.
  /// `until` must not lie before now() (std::logic_error otherwise), as in
  /// EventEngine::run_until.
  void run_until(double until);

  /// Advances by `cycles * period` from the integer tick anchor — the same
  /// rounding discipline as EventEngine::run_cycles, so both hit identical
  /// floating-point stop times.
  void run_cycles(std::size_t cycles);

  double now() const { return now_; }

  /// EventEngineStats-shaped aggregate for differential comparison. O(1):
  /// the node-side counters are running totals the event loop keeps as it
  /// calls on_tick/on_frame (the only calls that move them).
  sim::EventEngineStats engine_stats() const;

  /// The ServiceNode of `id`. Nodes added to the network get theirs at the
  /// next run_* call; an id without one throws std::logic_error.
  const ServiceNode& node(NodeId id) const;
  std::uint64_t rejected_frames() const { return rejected_frames_; }

  /// Forwards the causal-tracing hook to every ServiceNode, present and
  /// future (see ServiceNode::attach_trace). Same non-perturbation
  /// contract: a traced loopback run stays digest-identical to the
  /// EventEngine reference.
  void attach_trace(sim::TraceProbe& trace) {
    trace_ = &trace;
    for (ServiceNode& node : nodes_) node.attach_trace(trace);
  }

 private:
  void schedule_new_nodes();
  void advance_to(double until);
  void on_wakeup(NodeId id);
  void on_frame(const LoopbackTransport::Frame& queued);

  sim::Network* network_;
  LoopbackTransport* bus_;
  LoopbackDriverConfig config_;
  std::deque<ServiceNode> nodes_;  ///< deque: stable addresses across growth
  sim::TraceProbe* trace_ = nullptr;  ///< forwarded to nodes on creation
  WireCodec codec_;
  double now_ = 0.0;
  std::uint64_t messages_to_dead_ = 0;
  std::uint64_t rejected_frames_ = 0;
  std::uint64_t wakeups_ = 0;            ///< on_tick calls on live nodes
  std::uint64_t replies_delivered_ = 0;  ///< summed over every ServiceNode
  std::uint64_t replies_stale_ = 0;      ///< summed over every ServiceNode
  std::size_t scheduled_nodes_ = 0;
  double tick_anchor_ = 0.0;
  std::uint64_t ticks_ = 0;
};

}  // namespace pss::transport
