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
// Execution is batched over the network's flat arena: the permutation is
// built in a reused buffer, the next initiator's view slot is prefetched
// one step ahead, and each exchange runs through the shared per-step body
// in cycle_step.hpp (selection, then aging + the flat_exchange routines)
// with a persistent Scratch — zero per-exchange heap allocation in steady
// state. The result is bit-identical to driving the GossipNode adapter
// methods one message at a time (same Rng streams, same order);
// tests/flat_view_store_test.cpp replays both paths against each other.
// ParallelCycleEngine runs the same body sharded across threads and is in
// turn pinned bit-identical to this engine by
// tests/parallel_cycle_engine_test.cpp.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/sim/cycle_step.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/probe.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

class CycleEngine {
 public:
  /// `network` must outlive the engine; the engine stores a reference only.
  explicit CycleEngine(Network& network) : network_(&network) {}

  /// Runs one cycle: permutes live nodes, fires each active thread once.
  void run_cycle();

  /// Runs `cycles` consecutive cycles.
  void run(Cycle cycles);

  /// Number of cycles executed so far.
  Cycle cycle() const { return cycle_; }

  /// Aggregate counters since construction.
  const EngineStats& stats() const { return stats_; }

  /// Registers an observer fired after every `cadence`-th completed cycle
  /// (see pss/sim/probe.hpp for the non-perturbation contract). The probe
  /// must outlive the engine.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Registers the byzantine-injection hook (see ExchangeTamper in
  /// exchange_apply.hpp). A tamper that never forges or suppresses leaves
  /// the run bit-identical to an unhooked engine — the differential
  /// contract tests/scenarios_test.cpp pins. The tamper must outlive the
  /// engine.
  void attach_adversary(ExchangeTamper& tamper) { tamper_ = &tamper; }

  /// Registers the causal-tracing hook (see TraceProbe in trace_probe.hpp):
  /// select and merge+apply spans per step, labelled by a trace-only
  /// exchange counter. Unhooked, the loop body is the original two calls;
  /// hooked-but-disarmed and armed runs are state-digest-identical to the
  /// unhooked engine (tracing never mutates simulation state). The probe
  /// must outlive the engine.
  void attach_trace(TraceProbe& trace) { trace_ = &trace; }

 private:
  void traced_step(NodeId initiator);

  Network* network_;
  Cycle cycle_ = 0;
  EngineStats stats_;
  std::vector<NodeId> order_;  ///< per-cycle permutation, capacity reused
  flat::Scratch scratch_;      ///< exchange working memory, capacity reused
  std::vector<ProbeRegistration> probes_;
  ExchangeTamper* tamper_ = nullptr;  ///< byzantine seam; null = honest run
  TraceProbe* trace_ = nullptr;       ///< tracing seam; null = untraced run
  std::uint64_t trace_exchange_ = 0;  ///< trace-only per-step id counter
};

}  // namespace pss::sim
