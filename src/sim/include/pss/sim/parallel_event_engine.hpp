// Parallel discrete-event execution of the asynchronous model — the event
// engine counterpart of the multi-lane CycleEngine, with the same
// contract: a Deterministic schedule that replays the sequential EventEngine
// bit-identically (state digest + counters) at any thread count.
//
// Why the cycle engine's conflict scheduling alone is not enough here: the
// event engine's per-event work is entangled with *global* sequential state
// — the master Rng (drop/latency draws), the event sequence counter, the
// exchange-id counter and the slab pool — whose consumption order defines
// the sequential run. The engine therefore splits every event into:
//
//   S-part (sequencer): everything that touches global state, executed on
//     the driving thread in exact (at, seq) pop order — timer re-arms into
//     the wake-up ring, liveness checks, master-Rng draws, slab
//     acquisition, message pushes into the calendar, pull admission
//     (pending table), engine counters;
//   W-part (worker): the per-node kernel work — ExchangeCore's on_request /
//     on_reply, i.e. the merge/select absorb into one node's slot with
//     that node's own Rng stream — deferred into a batch and executed in
//     parallel after the window's S-parts finished.
//
// Batches are bounded by a conservative lookahead window of width
//   W = min(min_latency, period):
// every event an in-window handler creates lands at least W after the
// window start (messages by the latency floor, a re-arm one period after
// its wake-up), so nothing processed in a window can be scheduled into
// it — the popped prefix is causally closed (the same safe-horizon
// argument LoopbackDriver uses to totally order timer + frame events).
// Within a window, W-parts on distinct nodes commute: each touches only its
// node's slot, stats row and Rng stream, plus message slabs no other task
// holds. Two W-parts on the SAME node must keep their pop order, so a
// window also closes early at the first event whose target (a message's
// `to`, a wake-up's node) is already claimed by a deferred task —
// ConflictScheduler's contiguous-batch discipline transplanted to event
// targets. Wakeups run entirely on the sequencer (they read and write
// their node's slot inline), which is safe because the S-phase strictly
// precedes the W-phase and one node wakes at most once per window (W <=
// period).
//
// With min_latency == 0 the safe horizon is empty, every window holds one
// event, and the engine degrades to a (correct) sequential run — zero-delay
// configurations have no exploitable causal slack, which docs/PERFORMANCE.md
// records honestly.
//
// Bit-identity vs the sequential engine, the invariant
// tests/parallel_event_engine_test.cpp and bench/scale_async's digest gate
// pin: the pop order is the sequential order (the same EventQueue, the
// same pushes and re-arms in the same S-part order, so the same (at, seq)
// tags); master-Rng, exchange-id and sequence-counter consumption happen
// on the sequencer in that order; per-node draws are serialized per node
// by the claim rule; and counters are S-phase only. The one invisible
// difference: slabs consumed by W-parts are recycled at the window barrier
// instead of mid-event, so the pool's free-list order — and possibly its
// high-water mark — may differ. Slab ids are opaque handles; no payload,
// view, stat or Rng value depends on them.
//
// Thread count changes nothing but which lane runs a W-part: batch
// composition is fixed by the schedule, so runs are bit-identical across
// thread counts by construction, and ThreadPool(1) (or small batches, which
// run inline on the sequencer) is the sequential special case.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/descriptor_slab_pool.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/event_queue.hpp"
#include "pss/sim/exchange_apply.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/probe.hpp"
#include "pss/sim/thread_pool.hpp"

namespace pss::sim {

class ParallelEventEngine {
 public:
  /// Schedules first wake-ups exactly as EventEngine does (same master-Rng
  /// draws in id order). `threads` is the total lane count (0 = hardware
  /// concurrency); `network` must outlive the engine.
  ParallelEventEngine(Network& network, EventEngineConfig config,
                      unsigned threads);

  /// Processes all events with timestamp <= until and re-anchors the
  /// integer cycle counter (see EventEngine::run_until, including its
  /// refusal of a target before now()).
  void run_until(double until);

  /// Advances by `cycles * period` from the tick anchor; fires attached
  /// probes at tick boundaries (see EventEngine::run_cycles).
  void run_cycles(std::size_t cycles);

  double now() const { return now_; }
  const EventEngineStats& stats() const { return stats_; }

  /// Same probe contract as EventEngine::attach_probe. Probes fire on the
  /// driving thread between windows, never while workers run.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Same seam as EventEngine::attach_adversary, with the parallel-engine
  /// addendum (see ExchangeTamper in exchange_apply.hpp): reply forging
  /// runs on worker lanes, so is_byzantine / forge_buffer must be safe to
  /// call concurrently (pure functions of their arguments in practice).
  /// Wakeup hooks (suppress_aging, request forging) stay on the sequencer.
  void attach_adversary(ExchangeTamper& tamper) {
    core_.attach_adversary(tamper);
  }

  /// Same seam as EventEngine::attach_trace, with the parallel-engine
  /// addendum: select / request-sent / timeout spans fire on the
  /// sequencer in exact pop order; merge+apply and reply-received spans
  /// fire on whichever lane runs the deferred W-part, so record() must be
  /// safe under concurrent callers (the TraceProbe contract; the obs
  /// implementations are). Tracing never mutates simulation state, so the
  /// engine's bit-identity contract vs the sequential EventEngine holds
  /// hooked, disarmed or armed, at any thread count.
  void attach_trace(TraceProbe& trace) { core_.attach_trace(trace); }

  // --- Introspection (tests, bench drivers) --------------------------------

  std::size_t queued_events() const { return queue_.size(); }
  std::size_t message_pool_slabs() const { return pool_.slab_count(); }
  std::size_t message_pool_in_use() const { return pool_.in_use(); }
  unsigned threads() const { return pool_threads_.concurrency(); }

  /// The conservative safe horizon W = min(min_latency, period).
  double lookahead() const { return lookahead_; }

  /// Windows closed (conflict-closed windows count once).
  std::uint64_t windows() const { return windows_; }

  /// Deferred W-parts executed, and how many ran through the thread pool
  /// (the rest ran inline on the sequencer: batches below the dispatch
  /// threshold, or a 1-lane pool).
  std::uint64_t deferred_tasks() const { return deferred_tasks_; }
  std::uint64_t pooled_tasks() const { return pooled_tasks_; }

  std::size_t resident_bytes() const {
    return queue_.storage_bytes() + pool_.storage_bytes() +
           pending_.capacity() * sizeof(PendingExchange) +
           claim_.capacity() * sizeof(std::uint64_t) +
           batch_.capacity() * sizeof(SlotTask);
  }

 private:
  using Message = InFlightMessage;
  using Queue = EventQueue<Message>;

  /// A deferred W-part: one node's absorb kernel over one message slab.
  struct SlotTask {
    NodeId node = kInvalidNode;  ///< target (the message's `to`)
    NodeId peer = kInvalidNode;  ///< the message's `from` (forge receiver)
    DescriptorSlabPool::SlabId slab = DescriptorSlabPool::kNoSlab;
    DescriptorSlabPool::SlabId reply_slab = DescriptorSlabPool::kNoSlab;
    std::uint32_t size = 0;      ///< payload entries in `slab`
    Message::Kind kind = Message::Kind::kRequest;
    std::uint64_t exchange_id = 0;  ///< trace span label (see attach_trace)
  };

  /// Per-lane working state, cache-line separated: the absorb kernels are
  /// allocation-free given a warm Scratch, so lanes never share memory.
  struct alignas(64) LaneState {
    flat::Scratch scratch;
  };

  void advance_to(double until);
  void schedule_new_nodes();
  /// Sets now() to the event's time and runs its S-part (sequencer only).
  /// seq_request/seq_reply may defer a SlotTask.
  void seq_event(const Queue::Event& e);
  void seq_wakeup(NodeId id);
  void seq_request(const Message& e);
  void seq_reply(const Message& e);
  /// Runs the current batch's W-parts (pool or inline), then recycles the
  /// consumed slabs in batch order and clears the batch.
  void flush_batch();
  void run_task(const SlotTask& t, LaneState& lane);

  /// Messages may target addresses no node holds (forged descriptors);
  /// those fail the liveness gate, so they are never claimed.
  bool claimed(NodeId node) const {
    return node < claim_.size() && claim_[node] == claim_gen_;
  }
  void claim(NodeId node) { claim_[node] = claim_gen_; }

  Network* network_;
  EventEngineConfig config_;
  EventEngineStats stats_;
  double now_ = 0;
  double lookahead_ = 0;
  std::uint64_t next_exchange_ = 1;
  Queue queue_;
  DescriptorSlabPool pool_;
  ExchangeCore core_;  ///< the Figure-1 exchange, shared by all lanes
  std::vector<PendingExchange> pending_;
  std::size_t scheduled_nodes_ = 0;
  double tick_anchor_ = 0;
  std::uint64_t ticks_ = 0;
  std::vector<ProbeRegistration> probes_;
  Cycle probe_ticks_ = 0;

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
