#pragma once

// Deterministic event loop running a whole sim::Network over ServiceNodes
// and a LoopbackTransport — the bridge that makes EventEngine the wire
// stack's reference semantics.
//
// The driver merge-pops two queues — its own periodic node timers (a
// sim::CalendarQueue, EventEngine's scheduler) and the bus's in-flight
// frames — by (at, seq), with every seq drawn from the
// bus's single counter (LoopbackTransport::allocate_seq). That recreates
// EventEngine's one totally-ordered event stream, and the handlers fire in
// EventEngine's exact statement order:
//
//   timer due   -> rearm first (seq!), then liveness gate, then on_tick
//   frame due   -> decode, liveness/partition gate (messages_to_dead),
//                  then on_frame
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
#include "pss/sim/calendar_queue.hpp"
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
  /// `network` and `bus` must outlive the driver. For differential runs
  /// against EventEngine, `bus` must draw from network.rng() so the master
  /// stream is shared. Nodes present at construction get their initial
  /// wake-up phases immediately (uniform in [0, period), id order — the
  /// engine's schedule_new_nodes discipline); later additions are picked
  /// up by the next run_* call.
  LoopbackDriver(sim::Network& network, LoopbackTransport& bus,
                 LoopbackDriverConfig config = {});

  /// Processes all timer and frame events with timestamp <= until.
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

  const ServiceNode& node(NodeId id) const { return nodes_[id]; }
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

  sim::Network* network_;
  LoopbackTransport* bus_;
  LoopbackDriverConfig config_;
  std::deque<ServiceNode> nodes_;  ///< deque: stable addresses across growth
  sim::TraceProbe* trace_ = nullptr;  ///< forwarded to nodes on creation
  sim::CalendarQueue<NodeId> timers_;  ///< node wake-ups by (at, seq)
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
