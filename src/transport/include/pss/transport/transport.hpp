#pragma once

// The backend seam that turns the peer sampling service into middleware.
//
// A Transport moves opaque encoded frames between addresses; it knows
// nothing about the gossip protocol beyond the destination NodeId. Policy
// (which peer, what payload, how views merge) stays in the flat_exchange
// kernels above the seam; delivery (queues, sockets, loss, delay) lives
// below it. Backends:
//
//   LoopbackTransport — deterministic in-process queue, seeded delay /
//                       loss / reorder / duplication; the test workhorse
//                       and the differential reference against EventEngine.
//   UdpTransport      — nonblocking UDP datagrams over localhost; the
//                       deployment path used by the examples/ daemon.
//
// Contract:
//   * send() is best-effort: true means the frame was accepted for
//     delivery, false means the backend rejected it outright (no route,
//     kernel buffer full). Acceptance is not a delivery guarantee — the
//     protocol tolerates loss by design (paper Section 4.4).
//   * send() copies or transmits the frame before it returns and never
//     keeps the span: callers reuse the buffer at once (every ServiceNode
//     on a thread encodes into one shared workspace). Nor does send()
//     deliver synchronously into a handler; delivery happens in poll().
//   * poll() synchronously invokes the handler once per deliverable frame
//     and returns how many were delivered. The `to` argument is the
//     destination as the backend knows it — the send() argument for
//     loopback, the header's to-field peeked from the datagram for UDP
//     (kInvalidNode when too short to carry one) — so one backend instance
//     can host many logical nodes; full validation happens in WireCodec.
//   * The byte span passed to the handler is valid only for the duration
//     of the call.
//   * Implementations are single-threaded; run one Transport per poll
//     loop and synchronize externally if frames cross threads.

#include <cstddef>
#include <functional>
#include <span>

#include "pss/common/types.hpp"

namespace pss::transport {

using FrameHandler =
    std::function<void(NodeId to, std::span<const std::byte> frame)>;

class Transport {
 public:
  virtual ~Transport() = default;

  virtual bool send(NodeId to, std::span<const std::byte> frame) = 0;

  virtual std::size_t poll(const FrameHandler& handler) = 0;
};

}  // namespace pss::transport
