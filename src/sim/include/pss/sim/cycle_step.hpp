// The per-exchange step of the cycle model, split into its two phases.
//
// CycleEngine executes exactly the same step per initiator at every lane
// count (cycle_engine.cpp holds the step body):
//
//   phase 1, *selection*:  draw the peer from the initiator's view and
//                          classify the step (exchange / dead contact /
//                          empty view). Reads the initiator's slot, consumes
//                          the initiator's Rng stream, mutates nothing.
//   phase 2, *execution*:  age the initiator's view, then run the atomic
//                          Figure-1 exchange (or the failure/empty
//                          bookkeeping). Touches only the slots of the step's
//                          one or two nodes.
//
// On one lane the engine runs the phases back to back; on more it runs
// phase 1 inside its ConflictScheduler (sequentially, at each step's exact
// position in the permutation) and phase 2 on worker threads. That
// footprint — one or two slots per step — is what makes "bit-identical at
// any lane count" a structural property instead of a test-only
// coincidence.
//
// Selection before aging: the historical engine aged the view *before*
// drawing the peer. The two orders are interchangeable because per-cycle
// aging adds +1 to every stored hop count, which preserves the view's
// (hop, address) order, every hop-class boundary, and the class sizes — so
// each peer-selection policy picks the same address and consumes the Rng
// identically on the un-aged view (rand: index below(size); head: first
// entry; tail: uniform draw within the unchanged oldest class). The
// engine-vs-adapter replay in tests/flat_view_store_test.cpp pins this:
// the adapter path still ages first, and the runs stay identical.
#pragma once

#include <cstdint>

#include "pss/common/types.hpp"

namespace pss::sim {

/// Aggregate counters over a whole engine run.
struct EngineStats {
  std::uint64_t exchanges = 0;        ///< completed active-passive exchanges
  std::uint64_t failed_contacts = 0;  ///< attempts that hit a dead node
  std::uint64_t empty_views = 0;      ///< nodes that had nobody to contact
};

/// How one initiator's cycle step will unfold, decided in phase 1.
enum class StepKind : std::uint8_t {
  kEmptyView,      ///< nobody to contact; execution touches the initiator only
  kFailedContact,  ///< peer dead or unreachable; execution touches the
                   ///< initiator only (failure stats, optional eviction)
  kExchange,       ///< live reachable peer; execution touches both nodes
};

/// Phase-1 result: the initiator, the drawn peer (meaningless for
/// kEmptyView) and the step classification. `trace_id` is dark unless a
/// TraceProbe is attached (see trace_probe.hpp): the traced selection path
/// stamps a trace-only exchange counter here so the execution phase — which
/// may run on a worker lane — can label its merge+apply span with the same
/// id the selection span carried. It never influences execution.
struct CycleStep {
  NodeId initiator = 0;
  NodeId peer = 0;
  StepKind kind = StepKind::kEmptyView;
  std::uint64_t trace_id = 0;
};

}  // namespace pss::sim
