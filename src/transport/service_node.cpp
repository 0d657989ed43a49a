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
    : arena_(&arena),
      slot_(slot),
      self_(self),
      spec_(spec),
      options_(options),
      config_(config),
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
      arena_(owned_.get()),
      slot_(owned_->add_node(rng)),
      self_(self),
      spec_(spec),
      options_(options),
      config_(config),
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
  const bool traced = trace_ != nullptr && trace_->armed();
  std::uint64_t t0 = 0;
  if (traced) {
    t0 = sim::trace_clock_ns();
    // expire_overdue is about to surface this as a contact failure; mark
    // the timeout against the exchange whose reply never came.
    if (pending_.active && pending_.deadline < now) {
      trace_->record({sim::TracePhase::kTimeout, self_, pending_.peer,
                      pending_.exchange_id, tick_, t0, t0});
    }
  }
  // Statement-level mirror of EventEngine::on_wakeup (minus the timer
  // rearm, which belongs to the caller's event loop): expire the overdue
  // pull, age once per period, select, then emit.
  sim::expire_overdue(*arena_, slot_, pending_, now, options_);
  arena_->views.age(slot_);
  auto peer = flat::select_peer(arena_->views.view_of(slot_),
                                spec_.peer_selection, arena_->rngs[slot_]);
  if (!peer) {
    if (traced) {
      trace_->record({sim::TracePhase::kSelect, self_, kInvalidNode, 0, tick_,
                      t0, sim::trace_clock_ns()});
    }
    record_tick(now);
    return;
  }
  ++arena_->stats[slot_].initiated;

  const std::uint64_t exchange_id = next_exchange_++;
  if (spec_.pull()) {
    if (sim::open_exchange(pending_, exchange_id, *peer,
                           now + config_.reply_timeout)) {
      ++stats_.replies_stale;
    }
  }
  if (traced) {
    trace_->record({sim::TracePhase::kSelect, self_, *peer, exchange_id,
                    tick_, t0, sim::trace_clock_ns()});
  }
  send_request(*peer, exchange_id);
  record_tick(now);
}

void ServiceNode::send_request(NodeId peer, std::uint64_t exchange_id) {
  const bool traced = trace_ != nullptr && trace_->armed();
  const std::uint64_t t0 = traced ? sim::trace_clock_ns() : 0;
  Workspace& ws = workspace(options_.view_size);
  const std::uint32_t n = flat::write_active_buffer(
      arena_->views.view_of(slot_), self_, spec_.push(),
      ws.scratch.buffer.data());
  WireFrame frame;
  frame.type = FrameType::kRequest;
  frame.spec = spec_;
  frame.from = self_;
  frame.to = peer;
  frame.tick = tick_;
  frame.exchange_id = exchange_id;
  frame.entries = flat::DescSpan(ws.scratch.buffer.data(), n);
  codec_.encode(frame, ws.bytes);
  ++stats_.requests_sent;
  transport_->send(peer, ws.bytes);
  if (traced) {
    trace_->record({sim::TracePhase::kRequestSent, self_, peer, exchange_id,
                    tick_, t0, sim::trace_clock_ns()});
  }
}

void ServiceNode::on_frame(const ParsedFrame& frame, double now) {
  if (frame.to != self_) {
    ++stats_.misaddressed;
    return;
  }
  if (frame.spec != spec_) {
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
  const bool traced = trace_ != nullptr && trace_->armed();
  const std::uint64_t t0 = traced ? sim::trace_clock_ns() : 0;
  // flat::handle_request with the slot/self split (the kernels' passive
  // half assumes slot == self; a standalone daemon's slot is 0): counters,
  // pre-merge reply build and in-merge aging in the exact kernel order.
  Workspace& ws = workspace(options_.view_size);
  ++arena_->stats[slot_].received;
  std::uint32_t reply_size = 0;
  if (spec_.pull()) {
    reply_size = flat::write_active_buffer(arena_->views.view_of(slot_), self_,
                                           /*push=*/true,
                                           ws.scratch.reply.data());
    ++arena_->stats[slot_].replies_sent;
  }
  flat::absorb(arena_->views, slot_, self_, spec_, options_, frame.entries,
               arena_->rngs[slot_], ws.scratch, /*age_incoming=*/1);
  if (spec_.pull()) {
    WireFrame reply;
    reply.type = FrameType::kReply;
    reply.spec = spec_;
    reply.from = self_;
    reply.to = frame.from;
    reply.tick = tick_;
    reply.exchange_id = frame.exchange_id;
    reply.entries = flat::DescSpan(ws.scratch.reply.data(), reply_size);
    codec_.encode(reply, ws.bytes);
    transport_->send(frame.from, ws.bytes);
  }
  if (traced) {
    trace_->record({sim::TracePhase::kMergeApply, self_, frame.from,
                    frame.exchange_id, tick_, t0, sim::trace_clock_ns()});
  }
}

void ServiceNode::handle_reply_frame(const ParsedFrame& frame, double now) {
  if (!sim::admit_reply(pending_, frame.exchange_id, now)) {
    ++stats_.replies_stale;
    return;
  }
  const bool traced = trace_ != nullptr && trace_->armed();
  const std::uint64_t t0 = traced ? sim::trace_clock_ns() : 0;
  flat::absorb(arena_->views, slot_, self_, spec_, options_, frame.entries,
               arena_->rngs[slot_], workspace(options_.view_size).scratch,
               /*age_incoming=*/1);
  ++stats_.replies_delivered;
  if (traced) {
    trace_->record({sim::TracePhase::kReplyReceived, self_, frame.from,
                    frame.exchange_id, tick_, t0, sim::trace_clock_ns()});
  }
}

}  // namespace pss::transport
