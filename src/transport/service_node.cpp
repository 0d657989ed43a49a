#include "pss/transport/service_node.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/membership/view.hpp"
#include "pss/obs/schemas.hpp"

namespace pss::transport {

namespace {

// The per-thread exchange workspace (see service_node.hpp). Scratch's own
// buffer/reply vectors serve as the request/reply staging: absorb never
// touches them. Grows to the largest c any node on the thread has used.
struct Workspace {
  flat::Scratch scratch;
  std::vector<std::byte> bytes;  ///< encoded frame; send() copies it out
};

Workspace& workspace(std::size_t view_size) {
  // Heap-allocated on the thread's first exchange: a thread that never runs
  // a ServiceNode keeps one pointer of TLS, not ~6.6 KB it would zero on
  // creation.
  thread_local std::unique_ptr<Workspace> ws;
  if (!ws) ws = std::make_unique<Workspace>();
  if (ws->scratch.buffer.size() <= view_size) {
    ws->scratch.buffer.resize(view_size + 1);
    ws->scratch.reply.resize(view_size + 1);
  }
  return *ws;
}

}  // namespace

ServiceNode::ServiceNode(flat::NodeArena& arena, NodeId slot, NodeId self,
                         ProtocolSpec spec, ProtocolOptions options,
                         Transport& transport, ServiceNodeConfig config)
    : slot_(slot),
      self_(self),
      core_(arena, spec, options, config.reply_timeout),
      transport_(&transport),
      codec_(options.view_size),
      gossip_node_(self, spec, options, &arena, slot) {
  PSS_CHECK_MSG(slot < arena.node_count(), "ServiceNode: slot out of range");
  PSS_CHECK_MSG(config.period > 0 && config.reply_timeout > 0,
                "ServiceNode: period and reply_timeout must be positive");
}

ServiceNode::ServiceNode(NodeId self, ProtocolSpec spec,
                         ProtocolOptions options, Rng rng, Transport& transport,
                         ServiceNodeConfig config)
    : owned_(std::make_unique<flat::NodeArena>(options.view_size)),
      slot_(owned_->add_node(rng)),
      self_(self),
      core_(*owned_, spec, options, config.reply_timeout),
      transport_(&transport),
      codec_(options.view_size),
      gossip_node_(self, spec, options, owned_.get(), slot_) {
  PSS_CHECK_MSG(config.period > 0 && config.reply_timeout > 0,
                "ServiceNode: period and reply_timeout must be positive");
}

void ServiceNode::init(std::span<const NodeId> contacts) {
  std::vector<NodeDescriptor> boot;
  boot.reserve(contacts.size());
  for (NodeId c : contacts) boot.push_back(NodeDescriptor{c, 0});
  gossip_node_.init_view(View(std::move(boot)));
}

void ServiceNode::attach_sink(obs::MetricSink& sink,
                              const obs::RunMetadata& meta) {
  sink_ = &sink;
  sink_->begin(obs::schemas::kServiceTick, meta);
}

void ServiceNode::record_tick(double now) {
  if (sink_ == nullptr) return;
  sink_->row({static_cast<std::uint64_t>(tick_), now, view().size(),
              stats_.wakeups, stats_.requests_sent, stats_.replies_delivered,
              stats_.replies_stale, stats_.frames_rejected,
              stats_.protocol_mismatches, stats_.misaddressed});
}

void ServiceNode::on_tick(double now) {
  ++stats_.wakeups;
  ++tick_;
  // The timer rearm belongs to the caller's event loop.
  if (const auto request = core_.on_tick(slot_, self_, pending_, now,
                                         next_exchange_, stats_.replies_stale,
                                         tick_)) {
    send_request(*request);
  }
  record_tick(now);
}

void ServiceNode::send_request(const sim::ExchangeRequest& request) {
  sim::TraceProbe* trace = core_.armed_trace();
  const std::uint64_t t0 = trace != nullptr ? sim::trace_clock_ns() : 0;
  Workspace& ws = workspace(core_.options().view_size);
  NodeDescriptor* buffer = ws.scratch.buffer.data();
  WireFrame frame;
  frame.type = FrameType::kRequest;
  frame.spec = core_.spec();
  frame.from = self_;
  frame.to = request.peer;
  frame.tick = tick_;
  frame.exchange_id = request.id;
  frame.entries = flat::DescSpan(
      buffer, core_.write_request(slot_, self_, request, buffer, ws.scratch));
  codec_.encode(frame, ws.bytes);
  ++stats_.requests_sent;
  transport_->send(request.peer, ws.bytes);
  if (trace != nullptr) {
    trace->record({sim::TracePhase::kRequestSent, self_, request.peer,
                   request.id, tick_, t0, sim::trace_clock_ns()});
  }
}

void ServiceNode::on_frame(const ParsedFrame& frame, double now) {
  if (frame.to != self_) {
    ++stats_.misaddressed;
    return;
  }
  if (frame.spec != core_.spec()) {
    ++stats_.protocol_mismatches;
    return;
  }
  switch (frame.type) {
    case FrameType::kRequest: handle_request_frame(frame); break;
    case FrameType::kReply: handle_reply_frame(frame, now); break;
  }
}

WireError ServiceNode::on_datagram(std::span<const std::byte> bytes,
                                   double now) {
  ParsedFrame frame;
  const WireError err = codec_.decode(bytes, frame);
  if (err != WireError::kOk) {
    ++stats_.frames_rejected;
    return err;
  }
  on_frame(frame, now);
  return WireError::kOk;
}

void ServiceNode::handle_request_frame(const ParsedFrame& frame) {
  Workspace& ws = workspace(core_.options().view_size);
  const bool pull = core_.spec().pull();
  NodeDescriptor* reply_out = pull ? ws.scratch.reply.data() : nullptr;
  const std::uint32_t reply_size =
      core_.on_request(slot_, self_, frame.from, frame.exchange_id,
                       frame.entries, reply_out, ws.scratch, tick_);
  if (!pull) return;
  WireFrame reply;
  reply.type = FrameType::kReply;
  reply.spec = core_.spec();
  reply.from = self_;
  reply.to = frame.from;
  reply.tick = tick_;
  reply.exchange_id = frame.exchange_id;
  reply.entries = flat::DescSpan(reply_out, reply_size);
  codec_.encode(reply, ws.bytes);
  transport_->send(frame.from, ws.bytes);
}

void ServiceNode::handle_reply_frame(const ParsedFrame& frame, double now) {
  if (!sim::admit_reply(pending_, frame.from, frame.exchange_id, now)) {
    ++stats_.replies_stale;
    return;
  }
  core_.on_reply(slot_, self_, frame.from, frame.exchange_id, frame.entries,
                 workspace(core_.options().view_size).scratch, tick_);
  ++stats_.replies_delivered;
}

}  // namespace pss::transport
