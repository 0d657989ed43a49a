#include "pss/sim/parallel_event_engine.hpp"

#include <algorithm>

#include "pss/common/check.hpp"

namespace pss::sim {

namespace {
// Same calendar-year sizing as the sequential engine (see event_engine.cpp).
constexpr double kYearsPerPeriod = 2.0;
// Batches at or below this many W-parts run inline on the sequencer: the
// pool's wake/barrier latency exceeds a handful of absorb kernels (the
// same economics as CycleEngine's inline-batch threshold).
constexpr std::size_t kInlineBatch = 4;
}  // namespace

ParallelEventEngine::ParallelEventEngine(Network& network,
                                         EventEngineConfig config,
                                         unsigned threads)
    : network_(&network),
      config_(config),
      queue_(kYearsPerPeriod * (config.period > 0 ? config.period : 1.0)),
      pool_(network.options().view_size + 1),
      core_(network.arena(), network.spec(), network.options(),
            config.reply_timeout),
      pool_threads_(threads) {
  PSS_CHECK_MSG(config_.period > 0, "period must be positive");
  PSS_CHECK_MSG(config_.min_latency >= 0 &&
                    config_.min_latency <= config_.max_latency,
                "latency bounds must satisfy 0 <= min <= max");
  PSS_CHECK_MSG(config_.drop_probability >= 0 && config_.drop_probability <= 1,
                "drop probability must be in [0,1]");
  lookahead_ = std::min(config_.min_latency, config_.period);
  lanes_.resize(pool_threads_.concurrency());
}

void ParallelEventEngine::push_event(double at, Kind kind, NodeId from,
                                     NodeId to, std::uint64_t exchange_id,
                                     DescriptorSlabPool::SlabId slab) {
  FlatEvent e;
  e.from = from;
  e.to = to;
  e.slab = slab;
  e.kind = static_cast<std::uint32_t>(kind);
  e.exchange_id = exchange_id;
  queue_.push(at, next_seq_++, e);
}

void ParallelEventEngine::seq_wakeup(NodeId id) {
  // Sequencer-only handler: the wakeup reads and writes its own node's
  // slot, which is safe ahead of the window's W-phase (and the claim rule
  // closed the window if a deferred task already targets this node). Same
  // master-Rng, slab and event order as EventEngine::on_wakeup.
  push_event(now_ + config_.period, Kind::kWakeup, kInvalidNode, id, 0,
             DescriptorSlabPool::kNoSlab);

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
    ++stats_.messages_dropped;
    core_.lose_request(id, *request);
  } else {
    const double latency =
        config_.min_latency +
        rng.uniform() * (config_.max_latency - config_.min_latency);
    const DescriptorSlabPool::SlabId slab = pool_.acquire();
    pool_.set_size(slab, core_.write_request(id, id, *request,
                                             pool_.data(slab),
                                             lanes_[0].scratch));
    push_event(now_ + latency, Kind::kRequest, id, request->peer, request->id,
               slab);
  }
  if (trace != nullptr) {
    trace->record({TracePhase::kRequestSent, id, request->peer, request->id,
                   ticks_, t0, trace_clock_ns()});
  }
}

void ParallelEventEngine::seq_request(const FlatEvent& e) {
  if (!network_->is_live(e.to) || !network_->can_communicate(e.from, e.to)) {
    ++stats_.messages_to_dead;
    // Nothing will read this payload; recycling it immediately matches the
    // sequential engine's release point for dead-target requests.
    pool_.release(e.slab);
    return;
  }
  // Master-stream reply dispatch, in pop order on the sequencer — the
  // exact draw sequence of EventEngine::on_request.
  bool deliver_reply = false;
  double latency = 0;
  DescriptorSlabPool::SlabId reply_slab = DescriptorSlabPool::kNoSlab;
  if (network_->spec().pull()) {
    ++stats_.messages_sent;
    Rng& rng = network_->rng();
    if (rng.chance(config_.drop_probability)) {
      ++stats_.messages_dropped;
    } else {
      latency = config_.min_latency +
                rng.uniform() * (config_.max_latency - config_.min_latency);
      deliver_reply = true;
      reply_slab = pool_.acquire();
    }
  }
  if (deliver_reply) {
    // The reply event is scheduled now (sequence numbers are global
    // state); its payload and entry count land during the W-phase, which
    // completes before the window barrier — and the reply's arrival lies
    // beyond the lookahead horizon, so no pop can observe the slab early.
    push_event(now_ + latency, Kind::kReply, e.to, e.from, e.exchange_id,
               reply_slab);
  }
  claim(e.to);
  SlotTask t;
  t.node = e.to;
  t.peer = e.from;
  t.slab = e.slab;
  t.reply_slab = reply_slab;
  t.size = pool_.size(e.slab);
  t.kind = static_cast<std::uint32_t>(Kind::kRequest);
  t.exchange_id = e.exchange_id;
  batch_.push_back(t);
}

void ParallelEventEngine::seq_reply(const FlatEvent& e) {
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
  claim(e.to);
  SlotTask t;
  t.node = e.to;
  t.peer = e.from;
  t.slab = e.slab;
  t.size = pool_.size(e.slab);
  t.kind = static_cast<std::uint32_t>(Kind::kReply);
  t.exchange_id = e.exchange_id;
  batch_.push_back(t);
}

void ParallelEventEngine::run_task(const SlotTask& t, LaneState& lane) {
  // May run on any lane: the core touches only t.node's slot and the
  // task's slabs, and records spans through the thread-safe probe. ticks_
  // is stable while lanes run (mutated only between windows).
  const flat::DescSpan payload(pool_.data(t.slab), t.size);
  if (t.kind == static_cast<std::uint32_t>(Kind::kReply)) {
    core_.on_reply(t.node, t.node, t.peer, t.exchange_id, payload,
                   lane.scratch, ticks_);
    return;
  }
  const bool reply = t.reply_slab != DescriptorSlabPool::kNoSlab;
  const std::uint32_t reply_size = core_.on_request(
      t.node, t.node, t.peer, t.exchange_id, payload,
      reply ? pool_.data(t.reply_slab) : nullptr, lane.scratch, ticks_);
  // Distinct slabs own distinct size-table entries, so concurrent set_size
  // calls never share a location (no acquire can run here).
  if (reply) pool_.set_size(t.reply_slab, reply_size);
}

void ParallelEventEngine::flush_batch() {
  ++windows_;
  if (batch_.empty()) return;
  deferred_tasks_ += batch_.size();
  const unsigned lanes = pool_threads_.concurrency();
  if (lanes == 1 || batch_.size() <= kInlineBatch) {
    for (const SlotTask& t : batch_) run_task(t, lanes_[0]);
  } else {
    pooled_tasks_ += batch_.size();
    pool_threads_.run([&](unsigned lane) {
      for (std::size_t k = lane; k < batch_.size(); k += lanes) {
        run_task(batch_[k], lanes_[lane]);
      }
    });
  }
  // Consumed payloads recycle at the barrier, in batch (= pop) order. This
  // is the one divergence from the sequential engine's mid-event releases;
  // slab ids are opaque, so nothing observable depends on it (see the
  // header's bit-identity argument).
  for (const SlotTask& t : batch_) pool_.release(t.slab);
  batch_.clear();
}

void ParallelEventEngine::schedule_new_nodes() {
  const std::size_t n = network_->size();
  if (scheduled_nodes_ >= n) return;
  pending_.resize(n);
  claim_.resize(n, 0);
  while (scheduled_nodes_ < n) {
    const NodeId id = static_cast<NodeId>(scheduled_nodes_++);
    const double at = now_ + network_->rng().uniform() * config_.period;
    push_event(at, Kind::kWakeup, kInvalidNode, id, 0,
               DescriptorSlabPool::kNoSlab);
  }
}

void ParallelEventEngine::advance_to(double until) {
  schedule_new_nodes();
  FlatEvent carry_event;
  double carry_at = 0;
  bool have_carry = false;
  for (;;) {
    double at;
    FlatEvent e;
    if (have_carry) {
      at = carry_at;
      e = carry_event;
      have_carry = false;
    } else if (const auto* item = queue_.pop_if_at_most(until)) {
      at = item->at;
      e = item->value;
    } else {
      break;
    }
    // Open a window at this event's timestamp. Claim generations make the
    // per-window reset one counter bump (generation 0 marks "never
    // claimed" in freshly grown claim_ entries, so the counter starts
    // above it and only ever grows).
    ++claim_gen_;
    const double window_end = at + lookahead_;
    now_ = at;
    switch (static_cast<Kind>(e.kind)) {
      case Kind::kWakeup: seq_wakeup(e.to); break;
      case Kind::kRequest: seq_request(e); break;
      case Kind::kReply: seq_reply(e); break;
    }
    // Fill the window: sequencer parts run in exact pop order; the window
    // closes at the lookahead horizon, the run target, or the first event
    // whose target a deferred task already claims (kept for the next
    // window so conflicting pairs retain their global order).
    while (const auto* item = queue_.pop_if_at_most(until)) {
      if (item->at >= window_end || claimed(item->value.to)) {
        carry_at = item->at;
        carry_event = item->value;
        have_carry = true;
        break;
      }
      now_ = item->at;
      const FlatEvent next = item->value;  // handlers push, repointing item
      switch (static_cast<Kind>(next.kind)) {
        case Kind::kWakeup: seq_wakeup(next.to); break;
        case Kind::kRequest: seq_request(next); break;
        case Kind::kReply: seq_reply(next); break;
      }
    }
    flush_batch();
  }
  now_ = until;
}

void ParallelEventEngine::run_until(double until) {
  advance_to(until);
  tick_anchor_ = now_;
  ticks_ = 0;
}

void ParallelEventEngine::run_cycles(std::size_t cycles) {
  if (probes_.empty()) {
    ticks_ += cycles;
    probe_ticks_ += static_cast<Cycle>(cycles);
    advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
    return;
  }
  for (std::size_t i = 0; i < cycles; ++i) {
    ++ticks_;
    advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
    ++probe_ticks_;
    fire_probes(probes_, *network_, probe_ticks_);
  }
}

}  // namespace pss::sim
