#include "pss/sim/event_engine.hpp"

#include <algorithm>

#include "pss/common/check.hpp"

namespace pss::sim {

namespace {
// Batches at or below this many W-parts run inline on the sequencer: the
// pool's wake/barrier latency exceeds a handful of absorb kernels (the
// same economics as CycleEngine's inline-batch threshold).
constexpr std::size_t kInlineBatch = 4;
}  // namespace

EventEngine::EventEngine(Network& network, EventEngineConfig config,
                         unsigned lanes)
    : network_(&network),
      config_(config),
      queue_(config.period, config.max_latency),
      pool_(network.options().view_size + 1),
      core_(network.arena(), network.spec(), network.options(),
            config.reply_timeout),
      pool_threads_(lanes) {
  PSS_CHECK_MSG(config_.period > 0, "period must be positive");
  PSS_CHECK_MSG(config_.min_latency >= 0 &&
                    config_.min_latency <= config_.max_latency,
                "latency bounds must satisfy 0 <= min <= max");
  PSS_CHECK_MSG(config_.drop_probability >= 0 && config_.drop_probability <= 1,
                "drop probability must be in [0,1]");
  lookahead_ = std::min(config_.min_latency, config_.period);
  if (pool_threads_.concurrency() > 1) {
    lanes_.resize(pool_threads_.concurrency());
  }
}

void EventEngine::on_wakeup(NodeId id) {
  // Re-arm the periodic timer first so a node keeps its phase forever (and
  // the rearm takes its seq before the request — the legacy event order).
  // A wake-up reads and writes its own node's slot here, on the sequencer,
  // which is safe ahead of the window's W-phase (and the claim rule closed
  // the window if a deferred task already targets this node).
  queue_.rearm(now_ + config_.period, id);

  if (!network_->is_live(id)) return;
  ++stats_.wakeups;
  const auto request = core_.on_tick(id, id, pending_[id], now_,
                                     next_exchange_, stats_.replies_stale,
                                     ticks_);
  if (!request) return;
  TraceProbe* trace = core_.armed_trace();
  const std::uint64_t t0 = trace != nullptr ? trace_clock_ns() : 0;
  ++stats_.messages_sent;
  Rng& rng = network_->rng();
  if (rng.chance(config_.drop_probability)) {
    // A dropped message never needs its payload built.
    ++stats_.messages_dropped;
    core_.lose_request(id, *request);
  } else {
    const double latency =
        config_.min_latency +
        rng.uniform() * (config_.max_latency - config_.min_latency);
    const DescriptorSlabPool::SlabId slab = pool_.acquire();
    pool_.set_size(slab, core_.write_request(id, id, *request,
                                             pool_.data(slab), scratch_));
    queue_.push(now_ + latency, {id, request->peer, slab,
                                 Message::Kind::kRequest, request->id});
  }
  // A dropped request was still sent (the loss is in flight), so the span
  // lets the stitcher see the broken chain.
  if (trace != nullptr) {
    trace->record({TracePhase::kRequestSent, id, request->peer, request->id,
                   ticks_, t0, trace_clock_ns()});
  }
}

void EventEngine::on_request(const Message& e) {
  if (!network_->is_live(e.to) || !network_->can_communicate(e.from, e.to)) {
    ++stats_.messages_to_dead;
    pool_.release(e.slab);
    return;
  }
  // Reply dispatch (master-stream draws) decided up front so a reply that
  // will be dropped is never built. The legacy engine draws these after the
  // passive handler, but the master and per-node streams are independent,
  // so each stream's own sequence — all that determinism rests on — is
  // unchanged (pinned by the trace-equivalence suite).
  DescriptorSlabPool::SlabId reply_slab = DescriptorSlabPool::kNoSlab;
  if (network_->spec().pull()) {
    ++stats_.messages_sent;
    Rng& rng = network_->rng();
    if (rng.chance(config_.drop_probability)) {
      ++stats_.messages_dropped;
    } else {
      const double latency =
          config_.min_latency +
          rng.uniform() * (config_.max_latency - config_.min_latency);
      reply_slab = pool_.acquire();
      // The reply is scheduled now (sequence numbers are global state);
      // its payload and entry count land when the W-part runs, which on
      // several lanes completes before the window barrier — and the
      // reply's arrival lies beyond the lookahead horizon, so no pop can
      // observe the slab early.
      queue_.push(now_ + latency, {e.to, e.from, reply_slab,
                                   Message::Kind::kReply, e.exchange_id});
    }
  }
  absorb({e.to, e.from, e.slab, reply_slab, pool_.size(e.slab),
          Message::Kind::kRequest, e.exchange_id});
}

void EventEngine::on_reply(const Message& e) {
  if (!network_->is_live(e.to) || !network_->can_communicate(e.from, e.to)) {
    ++stats_.messages_to_dead;
    pool_.release(e.slab);
    return;
  }
  if (!admit_reply(pending_[e.to], e.from, e.exchange_id, now_)) {
    ++stats_.replies_stale;
    pool_.release(e.slab);
    return;
  }
  ++stats_.replies_delivered;
  absorb({e.to, e.from, e.slab, DescriptorSlabPool::kNoSlab,
          pool_.size(e.slab), Message::Kind::kReply, e.exchange_id});
}

// absorb and run_task are inline so that on one lane the compiler folds
// both into on_request and on_reply, and the core runs with no call
// between it and the handler (GCC 12 at -O3 keeps them out of line
// otherwise).
inline void EventEngine::absorb(const SlotTask& t) {
  if (lanes_.empty()) {
    run_task(t, scratch_);
    pool_.release(t.slab);
    return;
  }
  claim_[t.node] = claim_gen_;
  batch_.push_back(t);
}

inline void EventEngine::run_task(const SlotTask& t, flat::Scratch& scratch) {
  // May run on any lane: the core touches only t.node's slot and the
  // task's slabs, and records spans through the thread-safe probe. ticks_
  // is stable while lanes run (mutated only between windows).
  const flat::DescSpan payload(pool_.data(t.slab), t.size);
  if (t.kind == Message::Kind::kReply) {
    core_.on_reply(t.node, t.node, t.peer, t.exchange_id, payload, scratch,
                   ticks_);
    return;
  }
  const bool reply = t.reply_slab != DescriptorSlabPool::kNoSlab;
  const std::uint32_t reply_size = core_.on_request(
      t.node, t.node, t.peer, t.exchange_id, payload,
      reply ? pool_.data(t.reply_slab) : nullptr, scratch, ticks_);
  // Distinct slabs own distinct size-table entries, so concurrent set_size
  // calls never share a location (no acquire can run here).
  if (reply) pool_.set_size(t.reply_slab, reply_size);
}

void EventEngine::flush_batch() {
  ++windows_;
  if (batch_.empty()) return;
  deferred_tasks_ += batch_.size();
  if (batch_.size() <= kInlineBatch) {
    for (const SlotTask& t : batch_) run_task(t, scratch_);
  } else {
    pooled_tasks_ += batch_.size();
    const unsigned lanes = pool_threads_.concurrency();
    pool_threads_.run([&](unsigned lane) {
      for (std::size_t k = lane; k < batch_.size(); k += lanes) {
        run_task(batch_[k], lanes_[lane].scratch);
      }
    });
  }
  // Consumed payloads recycle at the barrier, in batch (= pop) order. This
  // is the one divergence from the one-lane loop's mid-event releases;
  // slab ids are opaque, so nothing observable depends on it (see the
  // header's bit-identity argument).
  for (const SlotTask& t : batch_) pool_.release(t.slab);
  batch_.clear();
}

void EventEngine::schedule_new_nodes() {
  // Nodes created since the last call get a first wake-up with a uniform
  // random phase inside one period, matching the skeleton's independent
  // per-node timers.
  const std::size_t n = network_->size();
  if (scheduled_nodes_ >= n) return;
  pending_.resize(n);
  if (!lanes_.empty()) claim_.resize(n, 0);
  Rng& rng = network_->rng();
  queue_.add_first_wakeups(
      static_cast<NodeId>(scheduled_nodes_), n - scheduled_nodes_,
      [&](NodeId) { return now_ + rng.uniform() * config_.period; });
  scheduled_nodes_ = n;
}

void EventEngine::handle(const Queue::Event& e) {
  now_ = e.at;
  if (e.wakeup()) {
    on_wakeup(e.node);
  } else if (e.message.kind == Message::Kind::kRequest) {
    on_request(e.message);
  } else {
    on_reply(e.message);
  }
}

void EventEngine::advance_to(double until) {
  PSS_CHECK_MSG(until >= now_, "run target lies before now()");
  schedule_new_nodes();
  if (!lanes_.empty()) {
    run_windows(until);
    now_ = until;
    return;
  }
  const flat::NodeArena& arena = network_->arena();
  while (const auto* e = queue_.pop_if_at_most(until)) {
    // The handler's arena touches are random reads over hundreds of MB at
    // scale; warming later events' targets while this one is handled hides
    // most of that latency (same trick as CycleEngine's lookahead). The
    // ring names the coming wake-ups, and the calendar its next message,
    // exactly.
    const NodeId waking = queue_.wakeup_ahead(Queue::kPrefetchAhead);
    if (waking != kInvalidNode) {
      arena.prefetch_node(waking);
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(pending_.data() + waking, 1, 1);
#endif
    }
    if (const auto* next = queue_.message_hint()) {
      arena.prefetch_node(next->value.to);
      pool_.prefetch(next->value.slab);
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(pending_.data() + next->value.to, 1, 1);
#endif
    }
    handle(*e);
  }
  now_ = until;
}

void EventEngine::run_windows(double until) {
  Queue::Event carry;
  bool have_carry = false;
  for (;;) {
    Queue::Event e;
    if (have_carry) {
      e = carry;
      have_carry = false;
    } else if (const auto* popped = queue_.pop_if_at_most(until)) {
      e = *popped;
    } else {
      break;
    }
    // Open a window at this event's timestamp. Claim generations make the
    // per-window reset one counter bump (generation 0 marks "never
    // claimed" in freshly grown claim_ entries, so the counter starts
    // above it and only ever grows).
    ++claim_gen_;
    const double window_end = e.at + lookahead_;
    handle(e);
    // Fill the window: sequencer parts run in exact pop order; the window
    // closes at the lookahead horizon, the run target, or the first event
    // whose target a deferred task already claims (kept for the next
    // window so conflicting pairs retain their global order).
    while (const auto* next = queue_.pop_if_at_most(until)) {
      const NodeId target = next->wakeup() ? next->node : next->message.to;
      if (next->at >= window_end || claimed(target)) {
        carry = *next;
        have_carry = true;
        break;
      }
      handle(*next);
    }
    flush_batch();
  }
}

void EventEngine::run_until(double until) {
  advance_to(until);
  // Explicit time targets re-anchor the cycle counter: subsequent
  // run_cycles calls count whole periods from here.
  tick_anchor_ = now_;
  ticks_ = 0;
}

void EventEngine::run_cycles(std::size_t cycles) {
  if (probes_.empty()) {
    ticks_ += cycles;
    probe_ticks_ += static_cast<Cycle>(cycles);  // keep the lifetime count
    advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
    return;
  }
  // With probes attached, stop at every tick boundary so observers see the
  // overlay at cycle granularity. Each target is computed from the anchor
  // exactly as the probe-free path computes its single target, so the final
  // time — and, events being totally (at, seq)-ordered, the whole event
  // sequence — is identical with and without probes.
  for (std::size_t i = 0; i < cycles; ++i) {
    ++ticks_;
    advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
    ++probe_ticks_;
    fire_probes(probes_, *network_, probe_ticks_);
  }
}

}  // namespace pss::sim
