// The per-exchange body of the cycle model, split into its two phases.
//
// Both cycle engines — the sequential CycleEngine and the sharded
// ParallelCycleEngine — execute exactly the same step per initiator:
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
// The sequential engine runs the phases back to back; the parallel engine
// runs phase 1 inside its conflict scheduler (sequentially, at each step's
// exact position in the permutation) and phase 2 on worker threads. Keeping
// one shared body here is what makes "bit-identical to the sequential
// engine" a structural property instead of a test-only coincidence.
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
#include "pss/membership/flat_ops.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/sim/exchange_apply.hpp"
#include "pss/sim/network.hpp"

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

/// Phase 1 — selection. Must run at the step's sequential position: after
/// every earlier step that touches `initiator` has executed, and before any
/// later one does. Consumes the initiator's arena Rng stream exactly as the
/// historical engine did.
inline CycleStep select_cycle_step(Network& net, NodeId initiator) {
  flat::NodeArena& arena = net.arena();
  const auto peer =
      flat::select_peer(arena.views.view_of(initiator),
                        net.spec().peer_selection, arena.rngs[initiator]);
  if (!peer) return {initiator, 0, StepKind::kEmptyView};
  if (!net.is_live(*peer) || !net.can_communicate(initiator, *peer)) {
    return {initiator, *peer, StepKind::kFailedContact};
  }
  return {initiator, *peer, StepKind::kExchange};
}

/// The hooked exchange of phase 2: ExchangeCore's three halves back to
/// back — write_request, on_request, on_reply — so the cycle engines forge
/// through the same code as the event engines and ServiceNode. The core has
/// no trace probe (the cycle engines record their own select and
/// merge_apply spans) and is owed no aging (execute_cycle_step applied it).
/// The request and reply live in scratch.buffer / scratch.reply, which the
/// core's absorb and forge never touch.
inline void run_hooked_exchange(Network& net, const CycleStep& step,
                                flat::Scratch& scratch,
                                ExchangeTamper& tamper) {
  ExchangeCore core(net.arena(), net.spec(), net.options(),
                    /*reply_timeout=*/0);
  core.attach_adversary(tamper);
  const std::size_t capacity = net.options().view_size + 1;
  scratch.buffer.resize(capacity);
  scratch.reply.resize(capacity);
  const ExchangeRequest request{step.peer, step.trace_id,
                                /*owes_aging=*/false};
  const std::uint32_t sent = core.write_request(
      step.initiator, step.initiator, request, scratch.buffer.data(), scratch);
  // No reply buffer when the protocol does not pull: a byzantine passive
  // node's absent reply must not be forged, or its forge call index shifts.
  NodeDescriptor* reply_out =
      net.spec().pull() ? scratch.reply.data() : nullptr;
  const std::uint32_t replied =
      core.on_request(step.peer, step.peer, step.initiator, request.id,
                      {scratch.buffer.data(), sent}, reply_out, scratch,
                      /*tick=*/0);
  if (reply_out != nullptr) {
    core.on_reply(step.initiator, step.initiator, step.peer, request.id,
                  {reply_out, replied}, scratch, /*tick=*/0);
  }
}

/// Phase 2 — execution. Touches only the slots (views, Rng streams,
/// NodeStats) of `step.initiator` and — for kExchange — `step.peer`, plus
/// the caller-owned scratch and stats; that footprint is the whole basis on
/// which the parallel engine runs non-conflicting steps concurrently.
/// `tamper` (optional) is the byzantine-injection seam; nullptr is the
/// untouched historical path.
inline void execute_cycle_step(Network& net, const CycleStep& step,
                               flat::Scratch& scratch, EngineStats& stats,
                               ExchangeTamper* tamper = nullptr) {
  flat::NodeArena& arena = net.arena();
  // Once-per-cycle aging (timestamp semantics; see gossip_node.hpp).
  if (tamper == nullptr || !tamper->suppress_aging(step.initiator)) {
    arena.views.age(step.initiator);
  }
  if (step.kind == StepKind::kEmptyView) {
    ++stats.empty_views;
    return;
  }
  ++arena.stats[step.initiator].initiated;
  if (step.kind == StepKind::kFailedContact) {
    // Dead peer or a network partition between the two: the exchange is
    // silently lost either way.
    flat::contact_failure(arena, step.initiator, step.peer, net.options());
    ++stats.failed_contacts;
    return;
  }
  // Start pulling the passive side's state in while the active buffer is
  // being built.
  arena.prefetch_node(step.peer);
  if (tamper == nullptr) {
    flat::run_exchange(arena, step.initiator, step.peer, net.spec(),
                       net.options(), scratch);
  } else {
    run_hooked_exchange(net, step, scratch, *tamper);
  }
  ++stats.exchanges;
}

}  // namespace pss::sim
