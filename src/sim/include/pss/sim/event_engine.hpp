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
//
// The lane count is a setting of this one engine, as it is of CycleEngine.
// Every event splits into two parts:
//
//   S-part (sequencer): everything that touches global state, executed on
//     the driving thread in exact (at, seq) pop order — timer re-arms into
//     the wake-up ring, liveness checks, master-Rng draws, slab
//     acquisition, message pushes into the calendar, pull admission
//     (pending table), engine counters;
//   W-part (worker): the per-node absorb — ExchangeCore's on_request /
//     on_reply into one node's slot with that node's own Rng stream. A
//     wake-up has none: it reads and writes its node's slot inline.
//
//   - One lane (`EventEngine(net, cfg)`): each W-part runs right after its
//     S-part, so events are handled one at a time in pop order. While one
//     is handled, the loop prefetches the arena slots the coming events
//     touch: the ring names the wake-up kPrefetchAhead places on exactly,
//     and the calendar's minimum is the next message.
//   - Two or more lanes: W-parts are deferred into a batch and run in
//     parallel after the window's S-parts finished. Batches are bounded by
//     a conservative lookahead window of width
//       W = min(min_latency, period):
//     every event an in-window handler creates lands at least W after the
//     window start (messages by the latency floor, a re-arm one period
//     after its wake-up), so nothing processed in a window can be
//     scheduled into it — the popped prefix is causally closed (the same
//     safe-horizon argument LoopbackDriver uses to totally order timer +
//     frame events). Within a window, W-parts on distinct nodes commute:
//     each touches only its node's slot, stats row and Rng stream, plus
//     message slabs no other task holds. Two W-parts on the SAME node must
//     keep their pop order, so a window also closes early at the first
//     event whose target (a message's `to`, a wake-up's node) is already
//     claimed by a deferred task — ConflictScheduler's contiguous-batch
//     discipline transplanted to event targets. Wake-ups running on the
//     sequencer is safe because the S-phase strictly precedes the W-phase
//     and one node wakes at most once per window (W <= period). With
//     min_latency == 0 the safe horizon is empty, every window holds one
//     event, and the loop degrades to a (correct) sequential run —
//     zero-delay configurations have no exploitable causal slack, which
//     docs/PERFORMANCE.md records.
//
// Bit-identity across lane counts, the invariant
// tests/parallel_event_engine_test.cpp and bench/scale_async's digest gate
// pin: the pop order is the one-lane order (the same EventQueue, the same
// pushes and re-arms in the same S-part order, so the same (at, seq)
// tags); master-Rng, exchange-id and sequence-counter consumption happen
// on the sequencer in that order; per-node draws are serialized per node
// by the claim rule; and counters are S-phase only. The one invisible
// difference: with several lanes, slabs consumed by W-parts are recycled
// at the window barrier instead of mid-event, so the pool's free-list
// order — and possibly its high-water mark — may differ. Slab ids are
// opaque handles; no payload, view, stat or Rng value depends on them.
// Beyond one lane, the lane count changes nothing but which lane runs a
// W-part: batch composition is fixed by the schedule.
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
#include "pss/sim/thread_pool.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

struct EventEngineConfig {
  double period = 1.0;            ///< T: time between active-thread firings
  double min_latency = 0.01;      ///< per-message latency lower bound
  double max_latency = 0.10;      ///< per-message latency upper bound
  double drop_probability = 0.0;  ///< independent message loss probability
  double reply_timeout = 0.5;     ///< pull reply validity window
};

/// A message in flight between two nodes, as the event engine queues it:
/// 24 trivially-copyable bytes, with the payload in a message slab.
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
  /// call after it joined starts. `lanes` is the total lane count, the
  /// driving thread included (0 = hardware concurrency). `network` must
  /// outlive the engine.
  EventEngine(Network& network, EventEngineConfig config, unsigned lanes = 1);

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

  /// Total lanes, the driving thread included.
  unsigned threads() const { return pool_threads_.concurrency(); }

  /// Registers an observer fired at period-tick boundaries during
  /// run_cycles: after every `cadence`-th completed tick, counted across
  /// the engine's lifetime, with the tick count passed as the probe's
  /// cycle. run_until does not fire probes (it has no tick structure).
  /// Event processing is unaffected: events are totally ordered by
  /// (at, seq), so stopping at intermediate tick boundaries replays the
  /// exact same sequence. Probes fire on the driving thread between
  /// windows, never while workers run. The probe must outlive the engine.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Registers the byzantine-injection hook (see ExchangeTamper in
  /// exchange_apply.hpp): byzantine wake-ups skip view aging, and byzantine
  /// request/reply payloads are rewritten in their message slabs just
  /// before they go on the wire. Message timing, losses and the master Rng
  /// are untouched, so a tamper that never forges or suppresses leaves the
  /// run bit-identical to an unhooked engine. With several lanes, reply
  /// forging runs on worker lanes, so is_byzantine / forge_buffer must be
  /// safe to call concurrently (pure functions of their arguments in
  /// practice); wake-up hooks (suppress_aging, request forging) stay on
  /// the sequencer. The tamper must outlive the engine.
  void attach_adversary(ExchangeTamper& tamper) {
    core_.attach_adversary(tamper);
  }

  /// Registers the causal-tracing hook (see TraceProbe in trace_probe.hpp):
  /// select / request-sent spans and timeout marks on the active side of
  /// each wakeup, merge+apply on the passive request handler,
  /// reply-received on admitted replies — all labelled with the engine's
  /// u64 exchange id. The wake-up spans fire on the sequencer in exact pop
  /// order; with several lanes, merge+apply and reply-received spans fire
  /// on whichever lane runs the deferred W-part, so record() must be safe
  /// under concurrent callers (the TraceProbe contract; the obs
  /// implementations are). Tracing reads clocks and engine-local values
  /// only, so hooked runs (armed or disarmed) stay digest-identical to the
  /// unhooked engine at any lane count. The probe must outlive the engine.
  void attach_trace(TraceProbe& trace) { core_.attach_trace(trace); }

  // --- Introspection (tests, bench drivers) --------------------------------

  /// Events currently scheduled (wake-ups + in-flight messages).
  std::size_t queued_events() const { return queue_.size(); }

  /// Message slabs ever created — the high-water mark of in-flight
  /// messages; boundedness here is what "recycling" means.
  std::size_t message_pool_slabs() const { return pool_.slab_count(); }

  /// Message slabs currently attached to queued events.
  std::size_t message_pool_in_use() const { return pool_.in_use(); }

  /// The conservative safe horizon W = min(min_latency, period).
  double lookahead() const { return lookahead_; }

  /// Windows closed (conflict-closed windows count once); 0 on one lane,
  /// which opens none.
  std::uint64_t windows() const { return windows_; }

  /// Deferred W-parts executed, and how many ran through the thread pool
  /// (the rest ran inline on the sequencer: batches below the dispatch
  /// threshold). Both 0 on one lane, which defers nothing.
  std::uint64_t deferred_tasks() const { return deferred_tasks_; }
  std::uint64_t pooled_tasks() const { return pooled_tasks_; }

  /// Bytes resident in engine-owned state (wake-up ring, calendar, message
  /// pool, pending table, and with several lanes the claim table and the
  /// batch) — the engine's contribution on top of the network's
  /// resident_bytes().
  std::size_t resident_bytes() const {
    return queue_.storage_bytes() + pool_.storage_bytes() +
           pending_.capacity() * sizeof(PendingExchange) +
           claim_.capacity() * sizeof(std::uint64_t) +
           batch_.capacity() * sizeof(SlotTask);
  }

 private:
  using Message = InFlightMessage;
  using Queue = EventQueue<Message>;

  /// A W-part: one node's absorb kernel over one message slab.
  struct SlotTask {
    NodeId node = kInvalidNode;  ///< target (the message's `to`)
    NodeId peer = kInvalidNode;  ///< the message's `from` (forge receiver)
    DescriptorSlabPool::SlabId slab = DescriptorSlabPool::kNoSlab;
    DescriptorSlabPool::SlabId reply_slab = DescriptorSlabPool::kNoSlab;
    std::uint32_t size = 0;      ///< payload entries in `slab`
    Message::Kind kind = Message::Kind::kRequest;
    std::uint64_t exchange_id = 0;  ///< trace span label (see attach_trace)
  };

  /// A pool lane's working state, cache-line separated: the absorb
  /// kernels are allocation-free given a warm Scratch, so lanes never
  /// share memory.
  struct alignas(64) LaneState {
    flat::Scratch scratch;
  };

  void advance_to(double until);
  /// The multi-lane loop: windows of S-parts, then their batch.
  void run_windows(double until);
  void schedule_new_nodes();
  /// Sets now() to the event's time and runs its S-part; a message's
  /// W-part goes through absorb().
  void handle(const Queue::Event& e);
  void on_wakeup(NodeId node);
  void on_request(const Message& e);
  void on_reply(const Message& e);
  /// Runs `t` at once on one lane; on several, claims its node and
  /// defers it into the window's batch.
  void absorb(const SlotTask& t);
  void run_task(const SlotTask& t, flat::Scratch& scratch);
  /// Runs the current batch's W-parts (pool or inline), then recycles the
  /// consumed slabs in batch order and clears the batch.
  void flush_batch();

  /// Messages may target addresses no node holds (forged descriptors);
  /// those fail the liveness gate, so they are never claimed.
  bool claimed(NodeId node) const {
    return node < claim_.size() && claim_[node] == claim_gen_;
  }

  Network* network_;
  EventEngineConfig config_;
  EventEngineStats stats_;
  double now_ = 0;
  double lookahead_ = 0;
  std::uint64_t next_exchange_ = 1;
  Queue queue_;
  DescriptorSlabPool pool_;
  ExchangeCore core_;                   ///< the Figure-1 exchange, all lanes
  std::vector<PendingExchange> pending_;  ///< per-node pull bookkeeping
  flat::Scratch scratch_;  ///< the sequencer's exchange memory, reused
  std::size_t scheduled_nodes_ = 0;  ///< nodes whose wake-up loop is running
  double tick_anchor_ = 0;           ///< last explicit run_until target
  std::uint64_t ticks_ = 0;          ///< run_cycles ticks since the anchor
  std::vector<ProbeRegistration> probes_;
  Cycle probe_ticks_ = 0;            ///< lifetime tick count for cadence

  // Several lanes only; empty or zero on one.
  ThreadPool pool_threads_;
  std::vector<LaneState> lanes_;       ///< one per pool lane
  std::vector<SlotTask> batch_;        ///< current window's deferred W-parts
  std::vector<std::uint64_t> claim_;   ///< generation-stamped target claims
  std::uint64_t claim_gen_ = 0;
  std::uint64_t windows_ = 0;
  std::uint64_t deferred_tasks_ = 0;
  std::uint64_t pooled_tasks_ = 0;
};

}  // namespace pss::sim
