#include "pss/transport/loopback_driver.hpp"

#include <cstdint>

#include "pss/common/check.hpp"

namespace pss::transport {

LoopbackDriver::LoopbackDriver(sim::Network& network, LoopbackTransport& bus,
                               LoopbackDriverConfig config)
    : network_(&network),
      bus_(&bus),
      config_(config),
      codec_(network.options().view_size) {
  PSS_CHECK_MSG(config.period > 0 && config.reply_timeout > 0,
                "LoopbackDriver: period and reply_timeout must be positive");
  schedule_new_nodes();
}

const ServiceNode& LoopbackDriver::node(NodeId id) const {
  PSS_CHECK_MSG(id < nodes_.size(),
                "LoopbackDriver::node: no ServiceNode for this id yet");
  return nodes_[id];
}

void LoopbackDriver::schedule_new_nodes() {
  // Mirror of EventEngine::schedule_new_nodes: each new node draws its
  // phase from the master Rng in id order and takes the next seq.
  const std::size_t n = network_->size();
  if (scheduled_nodes_ >= n) return;
  for (std::size_t i = scheduled_nodes_; i < n; ++i) {
    const NodeId id = static_cast<NodeId>(i);
    nodes_.emplace_back(network_->arena(), id, id, network_->spec(),
                        network_->options(), *bus_,
                        ServiceNodeConfig{config_.period,
                                          config_.reply_timeout});
    if (trace_ != nullptr) nodes_.back().attach_trace(*trace_);
  }
  Rng& rng = network_->rng();
  bus_->queue().add_first_wakeups(
      static_cast<NodeId>(scheduled_nodes_), n - scheduled_nodes_,
      [&](NodeId) { return now_ + rng.uniform() * config_.period; });
  scheduled_nodes_ = n;
}

void LoopbackDriver::on_wakeup(NodeId id) {
  // Rearm before handling so the rearm takes its seq ahead of the request
  // — EventEngine::on_wakeup's event order.
  bus_->queue().rearm(now_ + config_.period, id);
  if (!network_->is_live(id)) return;
  ServiceNode& target = nodes_[id];
  const std::uint64_t stale = target.stats().replies_stale;
  target.on_tick(now_);
  ++wakeups_;
  replies_stale_ += target.stats().replies_stale - stale;
}

void LoopbackDriver::on_frame(const LoopbackTransport::Frame& queued) {
  ParsedFrame frame;
  const WireError error = codec_.decode(bus_->bytes(queued), frame);
  // The decoded records live in the thread's record buffer, so the slot is
  // free before the handler runs, and a reply it sends takes it warm.
  bus_->release(queued);
  if (error != WireError::kOk) {
    ++rejected_frames_;  // only injectable via raw bus sends
    return;
  }
  if (!network_->is_live(frame.to) ||
      !network_->can_communicate(frame.from, frame.to)) {
    ++messages_to_dead_;
    return;
  }
  ServiceNode& target = nodes_[frame.to];
  const ServiceNodeStats& st = target.stats();
  const std::uint64_t delivered = st.replies_delivered;
  const std::uint64_t stale = st.replies_stale;
  target.on_frame(frame, now_);
  replies_delivered_ += st.replies_delivered - delivered;
  replies_stale_ += st.replies_stale - stale;
}

void LoopbackDriver::advance_to(double until) {
  PSS_CHECK_MSG(until >= now_, "run target lies before now()");
  schedule_new_nodes();
  LoopbackTransport::Queue& queue = bus_->queue();
  const flat::NodeArena& arena = network_->arena();
  while (const auto* e = queue.pop_if_at_most(until)) {
    now_ = e->at;
    bus_->set_now(now_);
    // Warm what the coming events touch while this one is handled: the
    // ring names the coming wake-ups, and the calendar its next frame,
    // exactly. A frame's `to` is whatever the sender addressed, so every
    // id is bounds-checked before it indexes nodes_.
    // The prefetches stay in this loop's body: the compiler may drop a
    // call to a function that only prefetches.
    const auto* hint = queue.message_hint();
    if (hint != nullptr) bus_->prefetch(hint->value);
    const NodeId ahead[] = {
        queue.wakeup_ahead(LoopbackTransport::Queue::kPrefetchAhead),
        hint != nullptr ? hint->value.to : kInvalidNode};
    for (const NodeId id : ahead) {
      if (id >= nodes_.size()) continue;
      arena.prefetch_node(id);
#if defined(__GNUC__) || defined(__clang__)
      // Every line of the ServiceNode, which need not start on one.
      const auto first = reinterpret_cast<std::uintptr_t>(&nodes_[id]);
      for (std::uintptr_t line = first & ~std::uintptr_t{63};
           line < first + sizeof(ServiceNode); line += 64) {
        __builtin_prefetch(reinterpret_cast<const void*>(line), 1, 1);
      }
#endif
    }
    if (e->wakeup()) {
      on_wakeup(e->node);
    } else {
      on_frame(e->message);
    }
  }
  now_ = until;
  bus_->set_now(until);
}

void LoopbackDriver::run_until(double until) {
  advance_to(until);
  tick_anchor_ = now_;
  ticks_ = 0;
}

void LoopbackDriver::run_cycles(std::size_t cycles) {
  ticks_ += cycles;
  advance_to(tick_anchor_ + static_cast<double>(ticks_) * config_.period);
}

sim::EventEngineStats LoopbackDriver::engine_stats() const {
  sim::EventEngineStats s;
  s.wakeups = wakeups_;
  s.replies_delivered = replies_delivered_;
  s.replies_stale = replies_stale_;
  s.messages_sent = bus_->stats().frames_sent;
  s.messages_dropped = bus_->stats().frames_dropped;
  s.messages_to_dead = messages_to_dead_;
  return s;
}

}  // namespace pss::transport
