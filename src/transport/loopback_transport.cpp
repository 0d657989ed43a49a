#include "pss/transport/loopback_transport.hpp"

#include <algorithm>

#include "pss/common/check.hpp"

namespace pss::transport {

LoopbackTransport::LoopbackTransport(LoopbackConfig config, Rng& rng)
    : config_(config),
      rng_(&rng),
      // The bus does not know a driver's period; it only sizes the year
      // for zero-delay frames, which all land at the current time.
      queue_(/*period=*/1.0, config.max_delay) {
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
  const std::uint32_t slot = store(frame);
  queue_.push(now_ + delay,
              Frame{to, slot, static_cast<std::uint32_t>(frame.size())});
}

std::uint32_t LoopbackTransport::store(std::span<const std::byte> frame) {
  if (frame.size() > stride_) {
    // Restride: every slot, queued or free, moves to the wider stride.
    std::vector<std::byte> wider(slot_count_ * frame.size());
    for (std::size_t s = 0; s < slot_count_; ++s) {
      std::copy_n(slots_.data() + s * stride_, stride_,
                  wider.data() + s * frame.size());
    }
    slots_ = std::move(wider);
    stride_ = frame.size();
  }
  std::uint32_t slot;
  if (!free_slots_.empty()) {
    slot = free_slots_.back();
    free_slots_.pop_back();
  } else {
    slot = slot_count_++;
    slots_.resize(slot_count_ * stride_);
  }
  std::copy(frame.begin(), frame.end(),
            slots_.data() + std::size_t{slot} * stride_);
  return slot;
}

std::size_t LoopbackTransport::poll(const FrameHandler& handler) {
  PSS_CHECK_MSG(queue_.size() == queue_.message_count(),
                "LoopbackTransport::poll: a driver runs this bus");
  std::size_t delivered = 0;
  while (const auto* e = queue_.pop_if_at_most(now_)) {
    const Frame frame = e->message;
    // A send from the handler may take the slot or move the array.
    const std::span<const std::byte> view = bytes(frame);
    delivery_.assign(view.begin(), view.end());
    release(frame);
    handler(frame.to, delivery_);
    ++delivered;
  }
  return delivered;
}

}  // namespace pss::transport
