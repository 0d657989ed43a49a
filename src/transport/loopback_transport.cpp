#include "pss/transport/loopback_transport.hpp"

#include <algorithm>

#include "pss/common/check.hpp"

namespace pss::transport {

LoopbackTransport::LoopbackTransport(LoopbackConfig config, Rng& rng)
    : config_(config), rng_(&rng) {
  PSS_CHECK_MSG(config.min_delay >= 0.0 && config.max_delay >= config.min_delay,
                "LoopbackTransport: need 0 <= min_delay <= max_delay");
  PSS_CHECK_MSG(config.loss_probability >= 0.0 &&
                    config.loss_probability <= 1.0,
                "LoopbackTransport: loss_probability out of [0,1]");
  PSS_CHECK_MSG(config.reorder_jitter >= 0.0,
                "LoopbackTransport: reorder_jitter must be >= 0");
}

bool LoopbackTransport::send(NodeId to, std::span<const std::byte> frame) {
  ++stats_.frames_sent;
  // Draw order mirrors EventEngine::on_wakeup exactly: the loss draw
  // first (skipped entirely at p = 0 by Rng::chance), then one uniform for
  // the delay of every non-dropped frame, even when min == max.
  if (rng_->chance(config_.loss_probability)) {
    ++stats_.frames_dropped;
    return true;
  }
  double delay =
      config_.min_delay + rng_->uniform() * (config_.max_delay - config_.min_delay);
  if (config_.reorder_probability > 0.0 &&
      rng_->chance(config_.reorder_probability)) {
    delay += rng_->uniform() * config_.reorder_jitter;
  }
  enqueue(to, frame, delay);
  if (config_.duplicate_probability > 0.0 &&
      rng_->chance(config_.duplicate_probability)) {
    const double dup_delay =
        config_.min_delay +
        rng_->uniform() * (config_.max_delay - config_.min_delay);
    enqueue(to, frame, dup_delay);
    ++stats_.frames_duplicated;
  }
  return true;
}

void LoopbackTransport::enqueue(NodeId to, std::span<const std::byte> frame,
                                double delay) {
  std::uint32_t buf;
  if (!free_buffers_.empty()) {
    buf = free_buffers_.back();
    free_buffers_.pop_back();
  } else {
    buf = static_cast<std::uint32_t>(buffers_.size());
    buffers_.emplace_back();
  }
  buffers_[buf].assign(frame.begin(), frame.end());
  queue_.push(InFlight{now_ + delay, next_seq_++, to, buf});
}

std::size_t LoopbackTransport::poll(const FrameHandler& handler) {
  std::size_t delivered = 0;
  while (!queue_.empty() && queue_.top().at <= now_) {
    deliver_head(handler);
    ++delivered;
  }
  return delivered;
}

bool LoopbackTransport::poll_one(const FrameHandler& handler) {
  if (queue_.empty() || queue_.top().at > now_) return false;
  deliver_head(handler);
  return true;
}

void LoopbackTransport::deliver_head(const FrameHandler& handler) {
  const InFlight head = queue_.top();
  queue_.pop();
  ++stats_.frames_delivered;
  // The buffer is recycled only after the handler returns; handlers must
  // not retain the span (Transport contract).
  handler(head.to, std::span<const std::byte>(buffers_[head.buffer]));
  free_buffers_.push_back(head.buffer);
}

std::optional<std::pair<double, std::uint64_t>> LoopbackTransport::next_event()
    const {
  if (queue_.empty()) return std::nullopt;
  return std::make_pair(queue_.top().at, queue_.top().seq);
}

}  // namespace pss::transport
