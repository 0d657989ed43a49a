#include "pss/transport/loopback_driver.hpp"

#include "pss/common/check.hpp"

namespace pss::transport {

LoopbackDriver::LoopbackDriver(sim::Network& network, LoopbackTransport& bus,
                               LoopbackDriverConfig config)
    : network_(&network),
      bus_(&bus),
      config_(config),
      // EventEngine's calendar setting: one year spans two periods.
      timers_(2.0 * (config.period > 0 ? config.period : 1.0)),
      codec_(network.options().view_size) {
  PSS_CHECK_MSG(config.period > 0 && config.reply_timeout > 0,
                "LoopbackDriver: period and reply_timeout must be positive");
  schedule_new_nodes();
}

void LoopbackDriver::schedule_new_nodes() {
  // Mirror of EventEngine::schedule_new_nodes: each new node draws its
  // phase from the master Rng in id order and takes the next seq.
  const std::size_t n = network_->size();
  while (scheduled_nodes_ < n) {
    const NodeId id = static_cast<NodeId>(scheduled_nodes_++);
    nodes_.emplace_back(network_->arena(), id, id, network_->spec(),
                        network_->options(), *bus_,
                        ServiceNodeConfig{config_.period,
                                          config_.reply_timeout});
    if (trace_ != nullptr) nodes_.back().attach_trace(*trace_);
    const double at = now_ + network_->rng().uniform() * config_.period;
    timers_.push(at, bus_->allocate_seq(), id);
  }
}

void LoopbackDriver::advance_to(double until) {
  schedule_new_nodes();
  for (;;) {
    const auto frame_next = bus_->next_event();
    const bool have_timer = !timers_.empty();
    const bool have_frame = frame_next.has_value();
    if (!have_timer && !have_frame) break;
    // Merge-pop the two queues by (at, seq): one strict total order, the
    // engine's calendar discipline split across timers and wire.
    const auto* timer = have_timer ? &timers_.top() : nullptr;
    const bool timer_first =
        have_timer &&
        (!have_frame || timer->at < frame_next->first ||
         (timer->at == frame_next->first && timer->seq < frame_next->second));
    const double at = timer_first ? timer->at : frame_next->first;
    if (at > until) break;
    now_ = at;
    bus_->set_now(at);
    if (timer_first) {
      const NodeId node = timers_.pop().value;
      // Rearm before handling so the rearm takes its seq ahead of the
      // request — EventEngine::on_wakeup's event order.
      timers_.push(now_ + config_.period, bus_->allocate_seq(), node);
      if (!network_->is_live(node)) continue;
      ServiceNode& target = nodes_[node];
      const std::uint64_t stale = target.stats().replies_stale;
      target.on_tick(now_);
      ++wakeups_;
      replies_stale_ += target.stats().replies_stale - stale;
    } else {
      bus_->poll_one([&](NodeId, std::span<const std::byte> bytes) {
        ParsedFrame frame;
        if (codec_.decode(bytes, frame) != WireError::kOk) {
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
      });
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
