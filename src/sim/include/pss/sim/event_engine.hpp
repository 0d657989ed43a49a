// Asynchronous event-driven execution engine on the flat simulation core.
//
// The paper's results come from a cycle-based simulator in which an
// exchange is atomic. Real deployments interleave messages with latency,
// losses and timeouts. EventEngine runs the *same* protocol mechanics over
// an explicit discrete-event message layer:
//   - each node's active thread fires every `period` time units, with a
//     uniform random initial phase (as in the skeleton's wait(T));
//   - every message (request or reply) experiences an independent uniform
//     latency in [min_latency, max_latency] and is dropped with probability
//     drop_probability;
//   - a pulling node keeps a single outstanding exchange; a reply that
//     arrives after reply_timeout (or after a newer exchange started) is
//     discarded; timeouts surface as contact failures.
//
// Tests use this engine to show the paper's conclusions are not artifacts
// of the atomic-exchange model (convergence to the same small-world state).
//
// Execution runs entirely on the network's flat::NodeArena, mirroring what
// CycleEngine did for the atomic model:
//   - the scheduler is an EventQueue (event_queue.hpp): the periodic
//     wake-ups wait in a FIFO ring, since each re-arm lands one period
//     after a non-decreasing now, and only in-flight messages (about
//     0.11 N at the default latency) go through an index-based calendar
//     queue (calendar_queue.hpp); popping the smaller of the two heads
//     keeps the exact (at, seq) order of one global binary heap;
//   - message payloads are fixed-stride slabs in a recycling
//     DescriptorSlabPool instead of heap-allocated View objects — a queued
//     message is 24 trivially-copyable bytes and steady state allocates
//     nothing;
//   - the exchange itself — expiry, selection, aging, buffer builds,
//     absorb, forge and trace spans — is sim::ExchangeCore
//     (exchange_apply.hpp) working straight on the arena slots, bypassing
//     the GossipNode adapter (and its View materialization) on the hot
//     path. The engine keeps only its I/O: queue, master-Rng drop and
//     latency draws, and message slabs.
// The original adapter-path implementation survives as LegacyEventEngine;
// tests/event_engine_flat_test.cpp replays the two against each other
// (identical seeds -> identical EventEngineStats and final views), which is
// the contract that lets this engine keep evolving.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/descriptor_slab_pool.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/sim/event_queue.hpp"
#include "pss/sim/exchange_apply.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/probe.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

struct EventEngineConfig {
  double period = 1.0;            ///< T: time between active-thread firings
  double min_latency = 0.01;      ///< per-message latency lower bound
  double max_latency = 0.10;      ///< per-message latency upper bound
  double drop_probability = 0.0;  ///< independent message loss probability
  double reply_timeout = 0.5;     ///< pull reply validity window
};

/// A message in flight between two nodes, as both event engines queue
/// it: 24 trivially-copyable bytes, with the payload in a message slab.
struct InFlightMessage {
  enum class Kind : std::uint32_t { kRequest, kReply };
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  DescriptorSlabPool::SlabId slab = DescriptorSlabPool::kNoSlab;
  Kind kind = Kind::kRequest;
  std::uint64_t exchange_id = 0;  ///< matches replies to requests
};

/// Aggregate counters over the whole run.
struct EventEngineStats {
  std::uint64_t wakeups = 0;            ///< active-thread firings
  std::uint64_t messages_sent = 0;      ///< requests + replies put on the wire
  std::uint64_t messages_dropped = 0;   ///< lost to drop_probability
  std::uint64_t messages_to_dead = 0;   ///< addressed to a dead node
  std::uint64_t replies_delivered = 0;  ///< pull replies accepted in time
  std::uint64_t replies_stale = 0;      ///< late or superseded pull replies
};

class EventEngine {
 public:
  /// Every node, live or not, gets its first wake-up at a uniform random
  /// phase in [now, now + period), drawn in id order when the first run_*
  /// call after it joined starts. `network` must outlive the engine.
  EventEngine(Network& network, EventEngineConfig config);

  /// Processes all events with timestamp <= until (exclusive of later ones),
  /// and re-anchors the integer cycle counter at `until` (see run_cycles).
  /// `until` must not lie before now() (std::logic_error otherwise): time
  /// never runs backwards, so late joiners never get phases behind events
  /// already handled. An equal target is a no-op.
  void run_until(double until);

  /// Advances by `cycles * period`. Wake targets are derived from an
  /// integer tick counter anchored at the last explicit run_until (or
  /// construction), i.e. anchor + total_ticks * period — one rounding per
  /// call instead of the legacy now + cycles * period accumulation, whose
  /// error compounds across repeated calls.
  void run_cycles(std::size_t cycles);

  /// Current simulated time; run_until(t) leaves it at t.
  double now() const { return now_; }

  /// Aggregate counters since construction.
  const EventEngineStats& stats() const { return stats_; }

  /// Registers an observer fired at period-tick boundaries during
  /// run_cycles: after every `cadence`-th completed tick, counted across
  /// the engine's lifetime, with the tick count passed as the probe's
  /// cycle. run_until does not fire probes (it has no tick structure).
  /// Event processing is unaffected: events are totally ordered by
  /// (at, seq), so stopping at intermediate tick boundaries replays the
  /// exact same sequence. The probe must outlive the engine.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Registers the byzantine-injection hook (see ExchangeTamper in
  /// exchange_apply.hpp): byzantine wake-ups skip view aging, and byzantine
  /// request/reply payloads are rewritten in their message slabs just
  /// before they go on the wire. Message timing, losses and the master Rng
  /// are untouched, so a tamper that never forges or suppresses leaves the
  /// run bit-identical to an unhooked engine. The tamper must outlive the
  /// engine.
  void attach_adversary(ExchangeTamper& tamper) {
    core_.attach_adversary(tamper);
  }

  /// Registers the causal-tracing hook (see TraceProbe in trace_probe.hpp):
  /// select / request-sent spans and timeout marks on the active side of
  /// each wakeup, merge+apply on the passive request handler,
  /// reply-received on admitted replies — all labelled with the engine's
  /// u64 exchange id. Tracing reads clocks and engine-local values only,
  /// so hooked runs (armed or disarmed) stay digest-identical to the
  /// unhooked engine. The probe must outlive the engine.
  void attach_trace(TraceProbe& trace) { core_.attach_trace(trace); }

  // --- Introspection (tests, bench drivers) --------------------------------

  /// Events currently scheduled (wake-ups + in-flight messages).
  std::size_t queued_events() const { return queue_.size(); }

  /// Message slabs ever created — the high-water mark of in-flight
  /// messages; boundedness here is what "recycling" means.
  std::size_t message_pool_slabs() const { return pool_.slab_count(); }

  /// Message slabs currently attached to queued events.
  std::size_t message_pool_in_use() const { return pool_.in_use(); }

  /// Bytes resident in engine-owned state (wake-up ring, calendar, message
  /// pool, pending table) — the engine's contribution on top of the
  /// network's resident_bytes().
  std::size_t resident_bytes() const {
    return queue_.storage_bytes() + pool_.storage_bytes() +
           pending_.capacity() * sizeof(PendingExchange);
  }

 private:
  using Message = InFlightMessage;

  void advance_to(double until);
  void schedule_new_nodes();
  void on_wakeup(NodeId node);
  void on_request(const Message& e);
  void on_reply(const Message& e);

  Network* network_;
  EventEngineConfig config_;
  EventEngineStats stats_;
  double now_ = 0;
  std::uint64_t next_exchange_ = 1;
  EventQueue<Message> queue_;
  DescriptorSlabPool pool_;
  ExchangeCore core_;                   ///< the Figure-1 exchange itself
  std::vector<PendingExchange> pending_;  ///< per-node pull bookkeeping
  flat::Scratch scratch_;            ///< exchange working memory, reused
  std::size_t scheduled_nodes_ = 0;  ///< nodes whose wake-up loop is running
  double tick_anchor_ = 0;           ///< last explicit run_until target
  std::uint64_t ticks_ = 0;          ///< run_cycles ticks since the anchor
  std::vector<ProbeRegistration> probes_;
  Cycle probe_ticks_ = 0;            ///< lifetime tick count for cadence
};

}  // namespace pss::sim
