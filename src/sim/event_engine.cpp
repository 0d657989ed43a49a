#include "pss/sim/event_engine.hpp"

#include "pss/common/check.hpp"

namespace pss::sim {

namespace {
// One calendar year spans two periods: the pending set at any instant is
// every node's next wake-up (all within one period) plus in-flight messages
// (within max_latency), so a two-period year keeps the whole population
// inside one lap with headroom for rearms landing a period ahead.
constexpr double kYearsPerPeriod = 2.0;
}  // namespace

EventEngine::EventEngine(Network& network, EventEngineConfig config)
    : network_(&network),
      config_(config),
      queue_(kYearsPerPeriod *
             (config.period > 0 ? config.period : 1.0)),
      pool_(network.options().view_size + 1),
      core_(network.arena(), network.spec(), network.options(),
            config.reply_timeout) {
  PSS_CHECK_MSG(config_.period > 0, "period must be positive");
  PSS_CHECK_MSG(config_.min_latency >= 0 &&
                    config_.min_latency <= config_.max_latency,
                "latency bounds must satisfy 0 <= min <= max");
  PSS_CHECK_MSG(config_.drop_probability >= 0 && config_.drop_probability <= 1,
                "drop probability must be in [0,1]");
}

void EventEngine::push_event(double at, Kind kind, NodeId from, NodeId to,
                             std::uint64_t exchange_id,
                             DescriptorSlabPool::SlabId slab) {
  FlatEvent e;
  e.from = from;
  e.to = to;
  e.slab = slab;
  e.kind = static_cast<std::uint32_t>(kind);
  e.exchange_id = exchange_id;
  queue_.push(at, next_seq_++, e);
}

void EventEngine::on_wakeup(NodeId id) {
  // Re-arm the periodic timer first so a node keeps its phase forever (and
  // the rearm takes its seq before the request — the legacy event order).
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
    push_event(now_ + latency, Kind::kRequest, id, request->peer, request->id,
               slab);
  }
  // A dropped request was still sent (the loss is in flight), so the span
  // lets the stitcher see the broken chain.
  if (trace != nullptr) {
    trace->record({TracePhase::kRequestSent, id, request->peer, request->id,
                   ticks_, t0, trace_clock_ns()});
  }
}

void EventEngine::on_request(const FlatEvent& e) {
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
      // Acquired before data(e.slab): acquire may move the pool's backing
      // array, which would invalidate the request pointer below.
      reply_slab = pool_.acquire();
    }
  }

  const flat::DescSpan request(pool_.data(e.slab), pool_.size(e.slab));
  NodeDescriptor* reply_out = deliver_reply ? pool_.data(reply_slab) : nullptr;
  const std::uint32_t reply_size =
      core_.on_request(e.to, e.to, e.from, e.exchange_id, request, reply_out,
                       scratch_, ticks_);
  pool_.release(e.slab);
  if (deliver_reply) {
    pool_.set_size(reply_slab, reply_size);
    push_event(now_ + latency, Kind::kReply, e.to, e.from, e.exchange_id,
               reply_slab);
  }
}

void EventEngine::on_reply(const FlatEvent& e) {
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
  core_.on_reply(e.to, e.to, e.from, e.exchange_id,
                 {pool_.data(e.slab), pool_.size(e.slab)}, scratch_, ticks_);
  pool_.release(e.slab);
  ++stats_.replies_delivered;
}

void EventEngine::schedule_new_nodes() {
  // Nodes created since the last call get a first wake-up with a uniform
  // random phase inside one period, matching the skeleton's independent
  // per-node timers.
  const std::size_t n = network_->size();
  if (scheduled_nodes_ >= n) return;
  pending_.resize(n);
  while (scheduled_nodes_ < n) {
    const NodeId id = static_cast<NodeId>(scheduled_nodes_++);
    const double at = now_ + network_->rng().uniform() * config_.period;
    push_event(at, Kind::kWakeup, kInvalidNode, id, 0,
               DescriptorSlabPool::kNoSlab);
  }
}

void EventEngine::advance_to(double until) {
  schedule_new_nodes();
  const flat::NodeArena& arena = network_->arena();
  while (const auto* item = queue_.pop_if_at_most(until)) {
    now_ = item->at;
    // The handler's arena touches are random reads over hundreds of MB at
    // scale; warming the *next* event's target while this one is handled
    // hides most of that latency (same trick as CycleEngine's lookahead).
    // peek_hint is a scan-free guess — good enough for a prefetch.
    if (const auto* hint = queue_.peek_hint()) {
      arena.prefetch_node(hint->value.to);
      if (hint->value.slab != DescriptorSlabPool::kNoSlab) {
        pool_.prefetch(hint->value.slab);
      }
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(pending_.data() + hint->value.to, 1, 1);
#endif
    }
    const FlatEvent e = item->value;  // handlers push, which may repoint item
    switch (static_cast<Kind>(e.kind)) {
      case Kind::kWakeup: on_wakeup(e.to); break;
      case Kind::kRequest: on_request(e); break;
      case Kind::kReply: on_reply(e); break;
    }
  }
  now_ = until;
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
