#pragma once

// The asynchronous Figure-1 exchange, written once. sim::ExchangeCore is
// sans-I/O: it owns everything an exchange does to node state — reply
// expiry, peer selection, aging, the buffer builds, absorb, the byzantine
// forge (ExchangeTamper) and the select / timeout / merge_apply /
// reply_received spans — and never moves a message. EventEngine,
// ParallelEventEngine and ServiceNode (and through it LoopbackDriver)
// drive it and keep only their own I/O: the engines their event queue,
// master-Rng drop and latency draws and message slabs; ServiceNode its
// wire frames and Transport. A caller records only the request_sent span,
// which brackets its own hand-off.
//
// Per node, a caller runs on_tick, then write_request and hands the
// buffer off (or lose_request if the request is lost before it is built);
// on_request for an incoming request; admit_reply and on_reply for a reply.
// admit_reply is a free function so the parallel engine's sequencer can
// run it apart from the absorb it defers to a worker lane.
//
// A pulling node keeps ONE outstanding exchange. A reply is accepted only
// from the peer that was asked, with the outstanding id, within its
// deadline; a new exchange supersedes the outstanding one; an exchange
// still open past its deadline at the next tick is a contact failure.
//
// `slot` indexes the arena and `self` is the node's address: equal in the
// engines, slot 0 in a standalone daemon. Views, spans and the tamper see
// addresses only.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/types.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/protocol/node_arena.hpp"
#include "pss/protocol/spec.hpp"
#include "pss/sim/cycle_step.hpp"
#include "pss/sim/trace_probe.hpp"

namespace pss::sim {

/// Per-node pull bookkeeping: which exchange is outstanding, with whom,
/// and until when the reply is acceptable.
struct PendingExchange {
  std::uint64_t exchange_id = 0;
  NodeId peer = kInvalidNode;
  double deadline = -1.0;
  bool active = false;
};

/// One active-thread firing that found a peer (ExchangeCore::on_tick).
struct ExchangeRequest {
  NodeId peer = kInvalidNode;
  std::uint64_t id = 0;     ///< exchange id; labels the request and reply
  bool owes_aging = false;  ///< this period's aging is not applied yet
};

/// Reply admission: true exactly when an arriving reply should be absorbed
/// (from the peer that was asked, matching id, within deadline); clears the
/// pending slot on acceptance. False means the reply is stale — late,
/// superseded, never asked for, or sent by someone else.
inline bool admit_reply(PendingExchange& pending, NodeId from,
                        std::uint64_t exchange_id, double now) {
  if (!pending.active || pending.peer != from ||
      pending.exchange_id != exchange_id || pending.deadline < now) {
    return false;
  }
  pending.active = false;
  return true;
}

class ExchangeCore {
 public:
  /// `arena` must outlive the core.
  ExchangeCore(flat::NodeArena& arena, ProtocolSpec spec,
               ProtocolOptions options, double reply_timeout)
      : arena_(&arena),
        spec_(spec),
        options_(options),
        reply_timeout_(reply_timeout) {}

  /// Byzantine seam (see ExchangeTamper): byzantine ticks skip aging, and
  /// byzantine request and reply buffers are forged once built. The tamper
  /// must outlive the core; with none attached the honest path runs.
  void attach_adversary(ExchangeTamper& tamper) { tamper_ = &tamper; }

  /// Tracing seam (see TraceProbe). The probe must outlive the core.
  void attach_trace(TraceProbe& trace) { trace_ = &trace; }

  flat::NodeArena& arena() const { return *arena_; }
  const ProtocolSpec& spec() const { return spec_; }
  const ProtocolOptions& options() const { return options_; }

  /// The attached probe if it is armed, else null: the gate for the
  /// caller's own request_sent span.
  TraceProbe* armed_trace() const {
    return trace_ != nullptr && trace_->armed() ? trace_ : nullptr;
  }

  /// Active thread up to the hand-off. An overdue pull becomes a contact
  /// failure; the peer is selected on the un-aged view; an empty view ages
  /// and yields nothing. Otherwise the pull (if any) is opened — a
  /// superseded one counts in `stale` — and the request is returned with
  /// its aging still owed, so write_request can fuse it into the build.
  /// `next_id` is the caller's exchange-id counter; `tick` labels spans.
  std::optional<ExchangeRequest> on_tick(NodeId slot, NodeId self,
                                         PendingExchange& pending, double now,
                                         std::uint64_t& next_id,
                                         std::uint64_t& stale,
                                         std::uint64_t tick) {
    TraceProbe* trace = armed_trace();
    const std::uint64_t t0 = trace != nullptr ? trace_clock_ns() : 0;
    if (pending.active && pending.deadline < now) {
      if (trace != nullptr) {
        trace->record({TracePhase::kTimeout, self, pending.peer,
                       pending.exchange_id, tick, t0, t0});
      }
      flat::contact_failure(*arena_, slot, pending.peer, options_);
      pending.active = false;
    }
    // Selection before aging is legal by the argument in cycle_step.hpp:
    // a uniform +1 keeps every policy's pick and Rng draws unchanged.
    const bool owes_aging =
        tamper_ == nullptr || !tamper_->suppress_aging(self);
    const auto peer = flat::select_peer(arena_->views.view_of(slot),
                                        spec_.peer_selection,
                                        arena_->rngs[slot]);
    if (!peer) {
      if (owes_aging) arena_->views.age(slot);  // timestamp semantics
      if (trace != nullptr) {
        trace->record({TracePhase::kSelect, self, kInvalidNode, 0, tick, t0,
                       trace_clock_ns()});
      }
      return std::nullopt;
    }
    ++arena_->stats[slot].initiated;
    const ExchangeRequest request{*peer, next_id++, owes_aging};
    if (spec_.pull()) {
      if (pending.active) ++stale;
      pending = {request.id, request.peer, now + reply_timeout_, true};
    }
    if (trace != nullptr) {
      trace->record({TracePhase::kSelect, self, request.peer, request.id,
                     tick, t0, trace_clock_ns()});
    }
    return request;
  }

  /// Writes the request buffer into `out` (view_size + 1 entries) and
  /// returns its entry count. The owed aging is fused into the build: one
  /// pass over the slot streams the aged view out behind {self, 0}.
  std::uint32_t write_request(NodeId slot, NodeId self,
                              const ExchangeRequest& request,
                              NodeDescriptor* out,
                              std::vector<NodeDescriptor>& staging) {
    const std::uint32_t n =
        request.owes_aging
            ? flat::age_write_active_buffer(arena_->views, slot, self,
                                            spec_.push(), out)
            : flat::write_active_buffer(arena_->views.view_of(slot), self,
                                        spec_.push(), out);
    return forge(self, request.peer, out, n, staging);
  }

  /// A request lost before write_request still owes its aging (which draws
  /// no Rng, so running it after the caller's drop draw is invisible).
  void lose_request(NodeId slot, const ExchangeRequest& request) {
    if (request.owes_aging) arena_->views.age(slot);
  }

  /// Passive thread: flat::handle_request, then the reply forge. Writes
  /// the pull reply into `reply_out` unless it is null (the caller knows
  /// the reply is lost) and returns its entry count.
  std::uint32_t on_request(NodeId slot, NodeId self, NodeId from,
                           std::uint64_t id, flat::DescSpan request,
                           NodeDescriptor* reply_out, flat::Scratch& scratch,
                           std::vector<NodeDescriptor>& staging,
                           std::uint64_t tick) {
    TraceProbe* trace = armed_trace();
    const std::uint64_t t0 = trace != nullptr ? trace_clock_ns() : 0;
    std::uint32_t n = flat::handle_request(
        *arena_, slot, self, request.data(),
        static_cast<std::uint32_t>(request.size()), reply_out, spec_,
        options_, scratch);
    if (reply_out != nullptr) n = forge(self, from, reply_out, n, staging);
    if (trace != nullptr) {
      trace->record({TracePhase::kMergeApply, self, from, id, tick, t0,
                     trace_clock_ns()});
    }
    return n;
  }

  /// Active tail: absorbs a reply the caller admitted (admit_reply).
  void on_reply(NodeId slot, NodeId self, NodeId from, std::uint64_t id,
                flat::DescSpan reply, flat::Scratch& scratch,
                std::uint64_t tick) {
    TraceProbe* trace = armed_trace();
    const std::uint64_t t0 = trace != nullptr ? trace_clock_ns() : 0;
    flat::absorb(arena_->views, slot, self, spec_, options_, reply,
                 arena_->rngs[slot], scratch, /*age_incoming=*/1);
    if (trace != nullptr) {
      trace->record({TracePhase::kReplyReceived, self, from, id, tick, t0,
                     trace_clock_ns()});
    }
  }

 private:
  /// Rewrites a byzantine sender's buffer in place; returns the entry
  /// count after forging (== `size` when the sender is honest).
  std::uint32_t forge(NodeId sender, NodeId receiver, NodeDescriptor* buffer,
                      std::uint32_t size,
                      std::vector<NodeDescriptor>& staging) {
    if (tamper_ == nullptr || !tamper_->is_byzantine(sender)) return size;
    staging.assign(buffer, buffer + size);
    tamper_->forge_buffer(sender, receiver, staging);
    // The tamper contract caps forged buffers at view_size + 1 entries, the
    // capacity of every request and reply buffer.
    PSS_CHECK_MSG(staging.size() <= options_.view_size + 1,
                  "forged buffer exceeds message buffer capacity");
    std::copy(staging.begin(), staging.end(), buffer);
    return static_cast<std::uint32_t>(staging.size());
  }

  flat::NodeArena* arena_;
  ProtocolSpec spec_;
  ProtocolOptions options_;
  double reply_timeout_;
  ExchangeTamper* tamper_ = nullptr;  ///< byzantine seam; null = honest
  TraceProbe* trace_ = nullptr;       ///< tracing seam; null = untraced
};

}  // namespace pss::sim
