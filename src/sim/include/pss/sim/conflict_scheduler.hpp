// Greedy conflict-free batch partitioner for the multi-lane cycle engine.
//
// The paper's cycle model executes the per-cycle permutation of initiators
// strictly in order. Two steps commute exactly when they share no node
// (each atomic exchange reads and writes the slots of its initiator and
// peer, and nothing else — see cycle_step.hpp), so a schedule is
// equivalent to the sequential one iff every pair of *conflicting* steps
// runs in permutation order. This class carves the permutation into
// batches with two properties:
//
//   (a) within a batch, no node is touched by more than one step — the
//       batch can execute on any number of threads, in any order, with no
//       synchronization beyond the end-of-batch barrier;
//   (b) each batch is a contiguous run of the remaining permutation — so
//       every conflicting pair automatically stays in sequential order.
//
// Why contiguous, not "skip the conflicting step and keep scanning": a
// step's peer is *data-dependent* — it is drawn from the initiator's
// current view, which earlier conflicting steps may still change. A
// skipped step therefore has an unknowable footprint, and admitting any
// later step past it could reorder a conflicting pair. Stopping the batch
// at the first conflict keeps the schedule exact; the price is batch
// length. By the birthday bound a batch claims ~2 nodes per step, so the
// first collision lands after ~√N steps — ~700-step batches at N = 10⁶,
// i.e. ~1400 barriers per cycle, which is cheap against ~1 s of exchange
// work (measured in docs/PERFORMANCE.md).
//
// The scan drives phase 1 of each step (the SelectFn callback) exactly at
// the step's sequential position: when a step's initiator is reached and
// is unclaimed, every earlier step that touches it has already executed
// (previous batches ran to completion behind a barrier; earlier steps of
// the *current*, not-yet-running batch are claim-disjoint from it), so the
// selection sees — and its Rng draw consumes — exactly the state the
// one-lane scan would. Steps that touch only their initiator (empty
// views, dead contacts) are handed to InlineFn and executed immediately on
// the scanning thread: legal because the current batch has not started
// running and no admitted step shares their node; sequential-order-exact
// because later same-batch steps that read the initiator run after the
// inline mutation.
//
// Claims are a generation-stamped array (one ++generation per batch
// instead of clearing), the slot-claim construction the engine's
// race-freedom argument rests on.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/types.hpp"
#include "pss/sim/cycle_step.hpp"

namespace pss::sim {

class ConflictScheduler {
 public:
  /// Starts partitioning a new cycle. `order` must stay alive and unchanged
  /// until the cycle is drained; `node_count` bounds every id occurring in
  /// it (initiators and drawn peers).
  void begin_cycle(std::span<const NodeId> order, std::size_t node_count) {
    order_ = order;
    cursor_ = 0;
    pending_ = Pending::kNone;
    if (claim_.size() < node_count) claim_.resize(node_count, 0);
    ++generation_;
    if (generation_ == 0) {
      // Wrapped: the stale stamps below could alias the new generation.
      std::fill(claim_.begin(), claim_.end(), 0u);
      generation_ = 1;
    }
  }

  /// True when the whole permutation has been scheduled.
  bool done() const {
    return cursor_ >= order_.size() && pending_ == Pending::kNone;
  }

  /// Builds the next conflict-free batch into `out` (overwritten).
  ///
  /// `select(NodeId) -> CycleStep` runs phase 1 for one initiator; it is
  /// called exactly once per initiator over the whole cycle, precisely at
  /// the step's sequential position. `inline_exec(const CycleStep&)` runs
  /// phase 2 for single-node steps (kEmptyView / kFailedContact) on the
  /// spot. kExchange steps land in `out` with both nodes claimed.
  ///
  /// Returns false when the cycle is drained (out left empty). A returned
  /// batch may be empty when only inline steps were scanned; callers loop
  /// on next_batch() either way, and every call makes progress (advances
  /// the cursor or retires the carried step), so a degenerate workload —
  /// e.g. every step contending on one hub node — serializes cleanly
  /// instead of deadlocking.
  template <typename SelectFn, typename InlineFn>
  bool next_batch(SelectFn&& select, InlineFn&& inline_exec,
                  std::vector<CycleStep>& out) {
    out.clear();
    if (done()) return false;
    ++generation_;
    if (generation_ == 0) {
      std::fill(claim_.begin(), claim_.end(), 0u);
      generation_ = 1;
    }
    // A step carried out of the previous batch goes first: the conflicts
    // that closed that batch have all executed behind its barrier.
    if (pending_ == Pending::kEvaluated) {
      pending_ = Pending::kNone;
      claim(carried_.initiator);
      claim(carried_.peer);
      out.push_back(carried_);
    } else if (pending_ == Pending::kUnevaluated) {
      pending_ = Pending::kNone;
      if (!admit(select, inline_exec, carried_.initiator, out)) return true;
    }
    while (cursor_ < order_.size()) {
      const NodeId initiator = order_[cursor_];
      ++cursor_;
      if (!admit(select, inline_exec, initiator, out)) return true;
    }
    return true;
  }

 private:
  enum class Pending : std::uint8_t {
    kNone,
    kUnevaluated,  ///< initiator was claimed; selection not yet run
    kEvaluated,    ///< selection ran, peer was claimed; step ready to seed
  };

  bool is_claimed(NodeId id) const {
    PSS_DCHECK(id < claim_.size());
    return claim_[id] == generation_;
  }

  void claim(NodeId id) {
    PSS_DCHECK(id < claim_.size());
    claim_[id] = generation_;
  }

  /// Schedules one initiator. Returns false when the batch must close: the
  /// step conflicted with it and is parked in `carried_` for the next call.
  template <typename SelectFn, typename InlineFn>
  bool admit(SelectFn&& select, InlineFn&& inline_exec, NodeId initiator,
             std::vector<CycleStep>& out) {
    if (is_claimed(initiator)) {
      // Some admitted step will still mutate this initiator — its selection
      // may not run yet (it would read stale state and desync the node's
      // Rng stream). Park it unevaluated.
      carried_ = {initiator, 0, StepKind::kEmptyView};
      pending_ = Pending::kUnevaluated;
      return false;
    }
    const CycleStep step = select(initiator);
    if (step.kind != StepKind::kExchange) {
      // Touches only the initiator, which nothing in this batch claims:
      // execute immediately, exactly at its sequential position.
      inline_exec(step);
      return true;
    }
    if (is_claimed(step.peer)) {
      // Selection already ran (legally — the initiator was current) and its
      // Rng draw is spent; the step itself must wait for the claimed peer.
      // It seeds the next batch.
      carried_ = step;
      pending_ = Pending::kEvaluated;
      return false;
    }
    claim(initiator);
    claim(step.peer);
    out.push_back(step);
    return true;
  }

  std::span<const NodeId> order_;
  std::size_t cursor_ = 0;
  Pending pending_ = Pending::kNone;
  CycleStep carried_;
  std::vector<std::uint32_t> claim_;  ///< node id -> last claiming generation
  std::uint32_t generation_ = 0;
};

}  // namespace pss::sim
