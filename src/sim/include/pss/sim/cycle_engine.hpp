// Cycle-driven execution engine — the paper's simulation model.
//
// In each cycle every live node initiates exactly one exchange (its active
// thread fires once per T time units; the cycle abstracts T). Nodes act in
// a fresh uniform random order each cycle, and an exchange completes
// atomically: the active buffer is delivered, the passive side replies
// within the same step. This matches the simulator used in the paper (and
// the later PeerSim "cycle-based" mode). The EventEngine lifts the
// atomicity assumption; see event_engine.hpp.
//
// Contacting a dead node is a silent failure: no view changes on either
// side (unless the remove_dead_on_failure extension is enabled), which is
// what makes dead-link decay purely a property of view selection, as the
// paper's Section 7 analysis requires.
//
// Execution runs over the network's flat arena: the permutation is built
// in a reused buffer, the initiator eight steps ahead is prefetched, and
// each exchange runs the two-phase step of cycle_step.hpp with a
// persistent Scratch — zero per-exchange heap allocation in steady state.
// The lane count is a setting of this one engine:
//
//   - One lane (`CycleEngine(net)`): the scan executes each step where it
//     selects it. The result is bit-identical to driving the GossipNode
//     adapter methods one message at a time (same Rng streams, same
//     order); tests/flat_view_store_test.cpp replays both paths against
//     each other.
//   - Two or more lanes: a ConflictScheduler carves the permutation into
//     contiguous, conflict-free batches; selection still runs on the
//     scanning thread at every step's exact sequential position, and batch
//     bodies run on a persistent ThreadPool behind a barrier. Two steps
//     commute unless they share a node, every conflicting pair stays in
//     permutation order, and each node's state — including its per-node
//     Rng stream, whose draws the claims serialize — sees exactly the
//     one-lane schedule. The scan stays serial, so Amdahl caps the speedup
//     (docs/PERFORMANCE.md quantifies it).
//
// Stats, final views and master-Rng consumption (one shuffle per cycle,
// nothing at construction) are therefore bit-identical at ANY lane count;
// tests/parallel_cycle_engine_test.cpp pins the two loops against each
// other across all 8 evaluated protocols.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/sim/conflict_scheduler.hpp"
#include "pss/sim/cycle_step.hpp"
#include "pss/sim/exchange_apply.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/probe.hpp"
#include "pss/sim/thread_pool.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

/// Execution semantics of the multi-lane loop; see the header comment.
/// kDeterministic is the only value; it stays for the callers in
/// benchmark/ that spell it in Config.
enum class ParallelPolicy : std::uint8_t {
  kDeterministic,  ///< bit-identical to the one-lane engine
};

class CycleEngine {
 public:
  struct Config {
    /// Total lanes including the driving thread; 0 = hardware concurrency.
    unsigned threads = 0;
    ParallelPolicy policy = ParallelPolicy::kDeterministic;
  };

  /// One lane. `network` must outlive the engine; the engine stores a
  /// reference only, and construction leaves the network untouched.
  explicit CycleEngine(Network& network);
  CycleEngine(Network& network, Config config);

  /// Runs one cycle: permutes live nodes, fires each active thread once.
  void run_cycle();

  /// Runs `cycles` consecutive cycles.
  void run(Cycle cycles);

  /// Number of cycles executed so far.
  Cycle cycle() const { return cycle_; }

  /// Aggregate counters since construction.
  const EngineStats& stats() const { return stats_; }

  /// Total lanes, the driving thread included.
  unsigned threads() const { return pool_.concurrency(); }

  /// Registers an observer fired on the driving thread after every
  /// `cadence`-th completed cycle — after the end-of-cycle barrier, so all
  /// lanes are quiescent and the probe may read any slot (see
  /// pss/sim/probe.hpp for the non-perturbation contract). The probe must
  /// outlive the engine.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Registers the byzantine-injection hook (see ExchangeTamper in
  /// exchange_apply.hpp). A tamper that never forges or suppresses leaves
  /// the run bit-identical to an unhooked engine — the differential
  /// contract tests/scenarios_test.cpp pins. With several lanes the hooks
  /// fire on worker lanes; the tamper's thread-safety contract (const
  /// classification, per-sender forge state) plus the conflict batches,
  /// which serialize any one node's steps, keep this race-free, and a
  /// hooked run stays bit-identical across lane counts provided the
  /// forgery depends only on (sender, per-sender call index) — which is
  /// how AdversaryModel derives its streams. The tamper must outlive the
  /// engine.
  void attach_adversary(ExchangeTamper& tamper) { tamper_ = &tamper; }

  /// Registers the causal-tracing hook (see TraceProbe in trace_probe.hpp):
  /// a select span per step on the scanning thread, and a merge+apply span
  /// per exchange on whichever lane executes it (record() must be
  /// thread-safe — the obs implementations are), both labelled by a
  /// trace-only exchange counter. Tracing never mutates simulation state,
  /// so hooked runs — armed or disarmed — stay state-digest-identical to
  /// the unhooked engine at any lane count. The probe must outlive the
  /// engine.
  void attach_trace(TraceProbe& trace) { trace_ = &trace; }

 private:
  /// Phase 1 at the scan position: lookahead prefetch, then selection,
  /// bracketed by the select span when traced.
  CycleStep select(NodeId initiator);
  /// Phase 2, bracketed by the merge+apply span when traced.
  void execute_step(const CycleStep& step, flat::Scratch& scratch,
                    EngineStats& stats);
  /// The multi-lane loop: conflict-free batches on the pool.
  void run_batches();
  void execute_batch();

  Network* network_;
  ThreadPool pool_;
  ConflictScheduler scheduler_;  ///< untouched on one lane
  Cycle cycle_ = 0;
  EngineStats stats_;
  std::vector<NodeId> order_;     ///< per-cycle permutation, capacity reused
  std::size_t scanned_ = 0;       ///< steps selected so far this cycle
  std::vector<CycleStep> batch_;  ///< current conflict-free batch
  std::vector<flat::Scratch> lane_scratch_;  ///< one per lane
  std::vector<EngineStats> lane_stats_;  ///< multi-lane; summed per cycle
  std::vector<ProbeRegistration> probes_;
  ExchangeTamper* tamper_ = nullptr;  ///< byzantine seam; null = honest run
  TraceProbe* trace_ = nullptr;       ///< tracing seam; null = untraced run
  /// Trace-only step id counter; only the scanning thread touches it.
  std::uint64_t trace_exchange_ = 0;
};

}  // namespace pss::sim
