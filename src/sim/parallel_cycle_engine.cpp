#include "pss/sim/parallel_cycle_engine.hpp"

#include <algorithm>
#include <atomic>

namespace pss::sim {

namespace {

// Steps a lane grabs per fetch_add: large enough that the shared counter is
// cold, small enough that uneven step costs still balance across lanes.
constexpr std::size_t kChunk = 16;

// Batches at or below this size run on the scanning thread: a pool wakeup
// costs a few µs, which only pays for itself once a batch carries more
// work than that.
constexpr std::size_t kInlineBatch = 16;

// Same scan lookahead as the sequential engine (see cycle_engine.cpp).
constexpr std::size_t kPrefetchAhead = 8;

}  // namespace

ParallelCycleEngine::ParallelCycleEngine(Network& network, Config config)
    : network_(&network), pool_(config.threads) {
  lane_scratch_.resize(pool_.concurrency());
  lane_stats_.resize(pool_.concurrency());
}

void ParallelCycleEngine::build_order() {
  // Identical permutation construction (and master-Rng consumption) to the
  // sequential engine: ascending live ids, one Fisher–Yates shuffle.
  order_.clear();
  const std::size_t n = network_->size();
  for (NodeId id = 0; id < n; ++id) {
    if (network_->is_live(id)) order_.push_back(id);
  }
  network_->rng().shuffle(order_);
}

void ParallelCycleEngine::run_cycle() {
  for (EngineStats& s : lane_stats_) s = EngineStats{};
  build_order();
  scheduler_.begin_cycle(order_, network_->size());
  const flat::NodeArena& arena = network_->arena();
  for (std::size_t i = 0; i < std::min(kPrefetchAhead, order_.size()); ++i) {
    arena.prefetch_node(order_[i]);
  }
  // The scan calls select exactly once per initiator, in permutation order
  // (carried steps included), so a running count doubles as the scan
  // position for lookahead prefetch.
  std::size_t scanned = 0;
  auto select = [&](NodeId initiator) {
    if (scanned + kPrefetchAhead < order_.size()) {
      arena.prefetch_node(order_[scanned + kPrefetchAhead]);
    }
    ++scanned;
    if (trace_ == nullptr) return select_cycle_step(*network_, initiator);
    // Traced path: bracket selection with wall clocks and stamp the
    // trace-only id so the lane that later executes the step can label its
    // merge+apply span. Only the scanning thread touches the counter here.
    const bool armed = trace_->armed();
    const std::uint64_t t0 = armed ? trace_clock_ns() : 0;
    CycleStep step = select_cycle_step(*network_, initiator);
    step.trace_id = ++trace_exchange_;
    if (armed) {
      trace_->record({TracePhase::kSelect, initiator,
                      step.kind == StepKind::kEmptyView ? kInvalidNode
                                                        : step.peer,
                      step.trace_id, cycle_ + 1, t0, trace_clock_ns()});
    }
    return step;
  };
  // Single-node steps execute on the scanning thread, lane 0.
  auto inline_exec = [&](const CycleStep& step) {
    execute_step(step, lane_scratch_[0], lane_stats_[0]);
  };
  while (scheduler_.next_batch(select, inline_exec, batch_)) {
    execute_batch();
  }
  for (const EngineStats& s : lane_stats_) {
    stats_.exchanges += s.exchanges;
    stats_.failed_contacts += s.failed_contacts;
    stats_.empty_views += s.empty_views;
  }
  ++cycle_;
  fire_probes(probes_, *network_, cycle_);
}

void ParallelCycleEngine::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) run_cycle();
}

void ParallelCycleEngine::execute_step(const CycleStep& step,
                                       flat::Scratch& scratch,
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

void ParallelCycleEngine::execute_batch() {
  if (batch_.empty()) return;
  if (pool_.concurrency() == 1 || batch_.size() <= kInlineBatch) {
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
        // prefetched inside the step body, as in the sequential engine).
        if (i + 1 < count) arena.prefetch_node(batch_[i + 1].initiator);
        execute_step(batch_[i], scratch, local);
      }
    }
    lane_stats_[lane].exchanges += local.exchanges;
    lane_stats_[lane].failed_contacts += local.failed_contacts;
    lane_stats_[lane].empty_views += local.empty_views;
  });
}

}  // namespace pss::sim
