#pragma once

// One protocol participant served over a Transport — the middleware driver
// the paper's deployment story implies: the active thread becomes a
// timer-driven request emitter (on_tick), the passive thread a poll-loop
// frame handler (on_frame / on_datagram).
//
// ServiceNode drives the same sim::ExchangeCore as EventEngine
// (exchange_apply.hpp), which owns the whole exchange; the node keeps only
// its I/O, with the engine's in-flight message slab replaced by an encoded
// wire frame and a Transport. tests/transport_test.cpp proves a
// LoopbackTransport run digest-identical to an EventEngine run of the
// same seed, so every future wire-format or driver change stays
// replay-testable against the simulation reference.
//
// Two attachment modes, mirroring GossipNode:
//   * attached  — a slot in a shared flat::NodeArena (the LoopbackDriver
//     runs a whole sim::Network's arena this way, slot == self);
//   * standalone — the node owns a private single-slot arena (the UDP
//     daemon/client processes, slot 0, self = the configured address;
//     this is why the core's slot/self split exists).
//
// The node's PeerSamplingService API surface is exposed through
// gossip_node(): construct a PeerSamplingService over it to get
// init()/getPeer() backed by the transport-maintained view.
//
// A node holds protocol state only. The exchange working memory (merge
// scratch, request/reply staging, the encoded frame) lives in one
// workspace per thread, shared by every ServiceNode that runs there. That
// is safe because a node is single-threaded, nothing in the workspace
// outlives one on_tick/on_frame call, and Transport::send() copies the
// frame before it returns (see transport.hpp). A LoopbackDriver at 5*10^4
// nodes would otherwise carry ~11 KB of cold scratch per node.

#include <cstdint>
#include <memory>
#include <span>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/obs/metric_sink.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/protocol/node_arena.hpp"
#include "pss/protocol/spec.hpp"
#include "pss/sim/exchange_apply.hpp"
#include "pss/sim/trace_probe.hpp"
#include "pss/transport/transport.hpp"
#include "pss/transport/wire.hpp"

namespace pss::transport {

struct ServiceNodeConfig {
  double period = 1.0;         ///< T between on_tick firings (caller-driven)
  double reply_timeout = 0.5;  ///< pull reply validity window
};

/// Driver-level counters (arena NodeStats keeps the protocol-level ones).
struct ServiceNodeStats {
  std::uint64_t wakeups = 0;             ///< on_tick firings
  std::uint64_t requests_sent = 0;       ///< request frames handed to send()
  std::uint64_t replies_delivered = 0;   ///< pull replies accepted in time
  std::uint64_t replies_stale = 0;       ///< late or superseded pull replies
  std::uint64_t frames_rejected = 0;     ///< on_datagram wire decode failures
  std::uint64_t protocol_mismatches = 0; ///< valid frame, foreign protocol
  std::uint64_t misaddressed = 0;        ///< valid frame, to != self
};

class ServiceNode {
 public:
  /// Attached mode: runs slot `slot` of `arena` (must outlive the node).
  /// `self` is the node's wire address — the LoopbackDriver passes
  /// slot == self, the address every other view descriptor refers to.
  ServiceNode(flat::NodeArena& arena, NodeId slot, NodeId self,
              ProtocolSpec spec, ProtocolOptions options, Transport& transport,
              ServiceNodeConfig config = {});

  /// Standalone mode (daemon/client processes): owns a private single-slot
  /// arena; `rng` drives this node's protocol choices.
  ServiceNode(NodeId self, ProtocolSpec spec, ProtocolOptions options, Rng rng,
              Transport& transport, ServiceNodeConfig config = {});

  ServiceNode(ServiceNode&&) = delete;
  ServiceNode& operator=(ServiceNode&&) = delete;

  /// Seeds the view from bootstrap contacts (hop 0), dropping self and
  /// truncating to c — the init() of the peer sampling API.
  void init(std::span<const NodeId> contacts);

  /// Streams one obs::schemas::kServiceTick row at the end of every
  /// on_tick firing — the daemon's live observability path (JSONL file,
  /// in-memory ring, or both via FanOutSink). The node calls
  /// sink.begin() here; the caller keeps ownership. Write-only
  /// observation: attaching a sink never alters protocol behaviour.
  void attach_sink(obs::MetricSink& sink, const obs::RunMetadata& meta);

  /// Registers the causal-tracing hook (see sim::TraceProbe): select /
  /// request-sent / timeout spans on on_tick, merge+apply on request
  /// frames, reply-received on admitted replies — every span labelled
  /// with the wire frame's u64 exchange id, which is what lets
  /// scripts/trace_tool.py stitch the dumps of two daemon processes into
  /// one causal request->reply chain. Same write-only contract as
  /// attach_sink: tracing never alters protocol behaviour (digest-pinned
  /// by the loopback differential in tests/trace_test.cpp).
  void attach_trace(sim::TraceProbe& trace) { core_.attach_trace(trace); }

  /// Active thread firing at time `now` (caller-driven: a wall-clock timer
  /// in the daemon, the LoopbackDriver's event loop in tests). Expires the
  /// overdue pull, selects a peer, ages the view and emits one request.
  void on_tick(double now);

  /// Passive thread: applies one decoded frame. The caller has already
  /// routed the frame here; mis-addressed or foreign-protocol frames are
  /// counted and dropped, never absorbed.
  void on_frame(const ParsedFrame& frame, double now);

  /// Decode-and-dispatch for raw datagrams (the UDP poll loop): returns
  /// the decode verdict, counting rejects.
  WireError on_datagram(std::span<const std::byte> bytes, double now);

  NodeId self() const { return self_; }
  const ProtocolSpec& spec() const { return core_.spec(); }
  flat::DescSpan view() const { return core_.arena().views.view_of(slot_); }
  const ServiceNodeStats& stats() const { return stats_; }
  const NodeStats& node_stats() const { return core_.arena().stats[slot_]; }
  const sim::PendingExchange& pending() const { return pending_; }
  Cycle tick() const { return tick_; }

  /// Adapter for the service API layer: a PeerSamplingService constructed
  /// over this node samples from the transport-maintained view.
  GossipNode& gossip_node() { return gossip_node_; }

 private:
  void record_tick(double now);
  void send_request(const sim::ExchangeRequest& request);
  void handle_request_frame(const ParsedFrame& frame);
  void handle_reply_frame(const ParsedFrame& frame, double now);

  std::unique_ptr<flat::NodeArena> owned_;  ///< standalone mode backing
  NodeId slot_;
  NodeId self_;
  sim::ExchangeCore core_;  ///< the exchange, over owned_ or a shared arena
  Transport* transport_;
  WireCodec codec_;
  GossipNode gossip_node_;
  sim::PendingExchange pending_;
  std::uint64_t next_exchange_ = 1;
  Cycle tick_ = 0;
  ServiceNodeStats stats_;
  obs::MetricSink* sink_ = nullptr;
};

}  // namespace pss::transport
