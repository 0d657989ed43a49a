#include "pss/sim/cycle_engine.hpp"

#include <algorithm>
#include <atomic>

#include "pss/protocol/flat_exchange.hpp"

namespace pss::sim {

namespace {

// Warm the initiators this many steps ahead of the scan while the current
// exchange runs; the permutation makes every access a random one, so
// without this the engine stalls on memory at large N.
constexpr std::size_t kPrefetchAhead = 8;

// Steps a lane grabs per fetch_add: large enough that the shared counter is
// cold, small enough that uneven step costs still balance across lanes.
constexpr std::size_t kChunk = 16;

// Batches at or below this size run on the scanning thread: a pool wakeup
// costs a few µs, which only pays for itself once a batch carries more
// work than that.
constexpr std::size_t kInlineBatch = 16;

/// Phase 1 — selection (see cycle_step.hpp). Must run at the step's
/// sequential position: after every earlier step that touches `initiator`
/// has executed, and before any later one does. Consumes the initiator's
/// arena Rng stream exactly as the historical engine did.
CycleStep select_cycle_step(Network& net, NodeId initiator) {
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
/// back — write_request, on_request, on_reply — so the cycle engine forges
/// through the same code as the event engine and ServiceNode. The core has
/// no trace probe (the engine records its own select and merge_apply
/// spans) and is owed no aging (execute_cycle_step applied it). The request
/// and reply live in scratch.buffer / scratch.reply, which the core's
/// absorb and forge never touch.
void run_hooked_exchange(Network& net, const CycleStep& step,
                         flat::Scratch& scratch, ExchangeTamper& tamper) {
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
/// which the multi-lane loop runs non-conflicting steps concurrently.
/// `tamper` (optional) is the byzantine-injection seam; nullptr is the
/// untouched historical path.
void execute_cycle_step(Network& net, const CycleStep& step,
                        flat::Scratch& scratch, EngineStats& stats,
                        ExchangeTamper* tamper) {
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

void add_stats(EngineStats& into, const EngineStats& s) {
  into.exchanges += s.exchanges;
  into.failed_contacts += s.failed_contacts;
  into.empty_views += s.empty_views;
}

}  // namespace

CycleEngine::CycleEngine(Network& network) : CycleEngine(network, {1}) {}

CycleEngine::CycleEngine(Network& network, Config config)
    : network_(&network), pool_(config.threads) {
  lane_scratch_.resize(pool_.concurrency());
  lane_stats_.resize(pool_.concurrency());
}

void CycleEngine::run_cycle() {
  // Ascending live ids, one Fisher–Yates shuffle off the master Rng — the
  // engine's only master-stream draw, the same at every lane count; only
  // the list buffer is reused instead of reallocated. Membership changes
  // between cycles only, so every listed initiator is live when it acts.
  order_.clear();
  const std::size_t n = network_->size();
  for (NodeId id = 0; id < n; ++id) {
    if (network_->is_live(id)) order_.push_back(id);
  }
  network_->rng().shuffle(order_);
  const flat::NodeArena& arena = network_->arena();
  for (std::size_t i = 0; i < std::min(kPrefetchAhead, order_.size()); ++i) {
    arena.prefetch_node(order_[i]);
  }
  scanned_ = 0;
  if (pool_.concurrency() == 1) {
    for (const NodeId initiator : order_) {
      execute_step(select(initiator), lane_scratch_[0], stats_);
    }
  } else {
    run_batches();
  }
  ++cycle_;
  fire_probes(probes_, *network_, cycle_);
}

void CycleEngine::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) run_cycle();
}

CycleStep CycleEngine::select(NodeId initiator) {
  // Both loops select exactly once per initiator, in permutation order
  // (carried steps included), so the running count is the scan position.
  if (scanned_ + kPrefetchAhead < order_.size()) {
    network_->arena().prefetch_node(order_[scanned_ + kPrefetchAhead]);
  }
  ++scanned_;
  // When traced, bracket selection with wall clocks and stamp the
  // trace-only id so the lane that executes the step can label its
  // merge+apply span.
  const bool armed = trace_ != nullptr && trace_->armed();
  const std::uint64_t t0 = armed ? trace_clock_ns() : 0;
  CycleStep step = select_cycle_step(*network_, initiator);
  if (trace_ != nullptr) step.trace_id = ++trace_exchange_;
  if (armed) {
    trace_->record({TracePhase::kSelect, initiator,
                    step.kind == StepKind::kEmptyView ? kInvalidNode
                                                      : step.peer,
                    step.trace_id, cycle_ + 1, t0, trace_clock_ns()});
  }
  return step;
}

void CycleEngine::execute_step(const CycleStep& step, flat::Scratch& scratch,
                               EngineStats& stats) {
  // May run on any lane: the armed check is a pointer compare + relaxed
  // load, and record() is thread-safe by the TraceProbe contract.
  const bool armed = trace_ != nullptr && trace_->armed() &&
                     step.kind == StepKind::kExchange;
  const std::uint64_t t0 = armed ? trace_clock_ns() : 0;
  execute_cycle_step(*network_, step, scratch, stats, tamper_);
  if (armed) {
    trace_->record({TracePhase::kMergeApply, step.initiator, step.peer,
                    step.trace_id, cycle_ + 1, t0, trace_clock_ns()});
  }
}

void CycleEngine::run_batches() {
  for (EngineStats& s : lane_stats_) s = EngineStats{};
  scheduler_.begin_cycle(order_, network_->size());
  auto select_step = [this](NodeId initiator) { return select(initiator); };
  // Single-node steps execute on the scanning thread, lane 0.
  auto inline_exec = [this](const CycleStep& step) {
    execute_step(step, lane_scratch_[0], lane_stats_[0]);
  };
  while (scheduler_.next_batch(select_step, inline_exec, batch_)) {
    execute_batch();
  }
  for (const EngineStats& s : lane_stats_) add_stats(stats_, s);
}

void CycleEngine::execute_batch() {
  if (batch_.size() <= kInlineBatch) {
    for (const CycleStep& step : batch_) {
      execute_step(step, lane_scratch_[0], lane_stats_[0]);
    }
    return;
  }
  // Lanes grab kChunk-sized index ranges off one counter; per-lane stats
  // merge once per dispatch instead of per step (the shared lane_stats_
  // array would otherwise false-share across lanes).
  const flat::NodeArena& arena = network_->arena();
  const std::size_t count = batch_.size();
  std::atomic<std::size_t> next{0};
  pool_.run([&](unsigned lane) {
    flat::Scratch& scratch = lane_scratch_[lane];
    EngineStats local;
    for (;;) {
      const std::size_t begin =
          next.fetch_add(kChunk, std::memory_order_relaxed);
      if (begin >= count) break;
      const std::size_t end = std::min(begin + kChunk, count);
      for (std::size_t i = begin; i < end; ++i) {
        // Warm the next step's initiator while this one runs (its peer is
        // prefetched inside the step body).
        if (i + 1 < count) arena.prefetch_node(batch_[i + 1].initiator);
        execute_step(batch_[i], scratch, local);
      }
    }
    add_stats(lane_stats_[lane], local);
  });
}

}  // namespace pss::sim
