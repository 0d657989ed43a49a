// Sharded parallel execution of the paper's cycle model.
//
// The sequential CycleEngine is memory-bound at 10⁶ nodes: each exchange
// touches two random ~300 B slots, and one thread cannot cover the miss
// latency. This engine runs the same per-step body (cycle_step.hpp) on a
// persistent thread pool without giving up the model's semantics: every
// exchange is atomic, and nodes act in one random order per cycle.
//
// A ConflictScheduler carves each cycle's permutation into contiguous,
// conflict-free batches; peer selection runs on the scanning thread at
// every step's exact sequential position, batch bodies run on the pool
// behind a barrier. Two steps commute unless they share a node, every
// conflicting pair stays in permutation order, and each node's state —
// including its per-node Rng stream, whose draws are serialized by the
// claims — sees exactly the sequential schedule. Result: bit-identical
// stats and final views to CycleEngine at ANY thread count (pinned across
// all 8 evaluated protocols by tests/parallel_cycle_engine_test.cpp). The
// price is the sequential scan: selection + scheduling stay on one thread,
// so Amdahl caps the speedup (docs/PERFORMANCE.md quantifies it).
//
// Master-Rng discipline: the engine consumes the master stream exactly as
// the sequential engine does — one shuffle per cycle, nothing at
// construction.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/sim/conflict_scheduler.hpp"
#include "pss/sim/cycle_step.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/probe.hpp"
#include "pss/sim/thread_pool.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

/// Execution semantics of the parallel engine; see the header comment.
/// kDeterministic is the only value; existing callers spell it in Config.
enum class ParallelPolicy : std::uint8_t {
  kDeterministic,  ///< bit-identical to the sequential CycleEngine
};

class ParallelCycleEngine {
 public:
  struct Config {
    /// Total lanes including the driving thread; 0 = hardware concurrency.
    unsigned threads = 0;
    ParallelPolicy policy = ParallelPolicy::kDeterministic;
  };

  /// `network` must outlive the engine; construction leaves it untouched.
  ParallelCycleEngine(Network& network, Config config);

  /// Runs one cycle: permutes live nodes, fires each active thread once.
  void run_cycle();

  /// Runs `cycles` consecutive cycles.
  void run(Cycle cycles);

  /// Number of cycles executed so far.
  Cycle cycle() const { return cycle_; }

  /// Aggregate counters since construction.
  const EngineStats& stats() const { return stats_; }

  unsigned threads() const { return pool_.concurrency(); }

  /// Registers an observer fired on the driving thread after every
  /// `cadence`-th cycle's end-of-cycle barrier — all lanes are quiescent, so
  /// the probe may read any slot (see pss/sim/probe.hpp). The probe must
  /// outlive the engine.
  void attach_probe(SnapshotProbe& probe, Cycle cadence = 1) {
    register_probe(probes_, probe, cadence);
  }

  /// Registers the byzantine-injection hook (see ExchangeTamper in
  /// exchange_apply.hpp). Hooks fire on worker lanes; the tamper's
  /// thread-safety contract (const classification, per-sender forge state)
  /// plus the conflict batches, which serialize any one node's steps, keep
  /// this race-free. A hooked run stays bit-identical to the hooked
  /// sequential engine at any thread count, provided the tamper's forgery
  /// depends only on (sender, per-sender call index) — which is how
  /// AdversaryModel derives its streams. The tamper must outlive the
  /// engine.
  void attach_adversary(ExchangeTamper& tamper) { tamper_ = &tamper; }

  /// Registers the causal-tracing hook (see TraceProbe in trace_probe.hpp).
  /// Selection spans fire on the scanning thread at each step's sequential
  /// position and merge+apply spans on whichever lane executes the step
  /// (record() must be thread-safe — the obs implementations are). Tracing
  /// never mutates simulation state, so hooked runs — armed or disarmed —
  /// keep the engine's digest contract intact at any thread count. The
  /// probe must outlive the engine.
  void attach_trace(TraceProbe& trace) { trace_ = &trace; }

 private:
  void build_order();
  void execute_batch();
  /// execute_cycle_step bracketed by the merge+apply span when traced.
  void execute_step(const CycleStep& step, flat::Scratch& scratch,
                    EngineStats& stats);

  Network* network_;
  ThreadPool pool_;
  ConflictScheduler scheduler_;
  Cycle cycle_ = 0;
  EngineStats stats_;
  std::vector<NodeId> order_;      ///< per-cycle permutation, capacity reused
  std::vector<CycleStep> batch_;   ///< current conflict-free batch
  std::vector<flat::Scratch> lane_scratch_;  ///< one per lane
  std::vector<EngineStats> lane_stats_;      ///< summed into stats_ per cycle
  std::vector<ProbeRegistration> probes_;
  ExchangeTamper* tamper_ = nullptr;  ///< byzantine seam; null = honest run
  TraceProbe* trace_ = nullptr;       ///< tracing seam; null = untraced run
  /// Trace-only step id counter; only the scanning thread touches it.
  std::uint64_t trace_exchange_ = 0;
};

}  // namespace pss::sim
