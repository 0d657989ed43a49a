// Policy-free causal-tracing hooks for the execution engines — the span
// counterpart of SnapshotProbe (probe.hpp) and ExchangeTamper
// (cycle_step.hpp).
//
// A TraceProbe receives one TraceSpan per exchange *phase*: the paper's
// active thread contributes select / request-sent / timeout spans, the
// passive thread merge+apply, and the active thread again reply-received.
// What the probe does with spans is entirely its own policy (pss_obs
// supplies a flight recorder and a histogram profiler); the engines know
// nothing beyond this interface, so tracing can never leak into exchange
// mechanics.
//
// Contract:
//   - Non-perturbation. Recording reads wall clocks and engine-local
//     values only; it must never mutate simulation state, draw from any
//     simulation Rng, or change control flow. An engine with a probe
//     attached — armed or not — finishes bit-identical (state digest,
//     stats, Rng positions) to its unhooked self. tests/trace_test.cpp
//     pins this on all engines; bench/scale_trace hard-gates it.
//   - Unhooked cost. With no probe attached the per-phase check is one
//     pointer compare; no clock is read. With a probe attached but
//     disarmed (armed() == false), the engines skip both the clock reads
//     and the record() calls — the disarmed path is the original code.
//   - Thread safety. The parallel engines call armed()/record() from
//     worker lanes concurrently. armed() must be a const load; record()
//     must be safe under concurrent callers (the obs implementations use
//     a leaf spinlock / relaxed atomics, so no lock-order cycle with the
//     engines' own locks is possible).
//   - exchange_id. Engines label spans of one logical exchange with one
//     id. The event engines and ServiceNode use their wire exchange id —
//     the same u64 the PR-7 WireCodec header carries — which is what lets
//     scripts/trace_tool.py stitch dumps from two UDP processes into one
//     causal request->reply chain. The cycle engines have no wire id and
//     use a trace-only counter. Ids are only unique per process; the
//     stitcher keys on (exchange_id, initiator, peer).
#pragma once

#include <chrono>
#include <cstdint>

#include "pss/common/types.hpp"

namespace pss::sim {

/// Exchange phases, in causal order. Values are the wire encoding of the
/// PSSTRACE1 dump's `kind` byte — append-only, never renumber.
enum class TracePhase : std::uint8_t {
  kSelect = 0,         ///< active: expire + peer selection
  kMergeApply = 1,     ///< passive: absorb request, build reply
  kRequestSent = 2,    ///< active: request built (aging fused), handed off
  kReplyReceived = 3,  ///< active: admitted reply absorbed
  kTimeout = 4,        ///< active: reply window closed unanswered
};

inline constexpr std::size_t kTracePhaseCount = 5;

/// Stable lower-case phase name ("select", "merge_apply", ...).
inline const char* trace_phase_name(TracePhase phase) {
  switch (phase) {
    case TracePhase::kSelect: return "select";
    case TracePhase::kMergeApply: return "merge_apply";
    case TracePhase::kRequestSent: return "request_sent";
    case TracePhase::kReplyReceived: return "reply_received";
    case TracePhase::kTimeout: return "timeout";
  }
  return "unknown";
}

/// One recorded phase of one exchange. `tick` is the engine's cycle/tick
/// counter at record time (advisory; wraps to 16 bits in the packed event
/// encoding). Instantaneous phases (timeout detection) carry
/// start_ns == end_ns.
struct TraceSpan {
  TracePhase phase = TracePhase::kSelect;
  NodeId node = kInvalidNode;  ///< the node doing the work
  NodeId peer = kInvalidNode;  ///< the other endpoint, kInvalidNode if none
  std::uint64_t exchange_id = 0;
  std::uint64_t tick = 0;
  std::uint64_t start_ns = 0;  ///< wall clock, trace_clock_ns()
  std::uint64_t end_ns = 0;
};

class TraceProbe {
 public:
  virtual ~TraceProbe() = default;

  /// Cheap const gate consulted before any clock read. Disarmed probes
  /// stay attached at zero tracing cost (no clocks, no records).
  virtual bool armed() const = 0;

  /// Receives one span. Must obey the non-perturbation and thread-safety
  /// contract above.
  virtual void record(const TraceSpan& span) = 0;
};

/// Wall-clock nanoseconds since the Unix epoch. system_clock rather than
/// steady_clock deliberately: spans from *different processes* (the UDP
/// daemons) must live on one comparable axis for causal stitching, and on
/// the supported platforms system_clock is the realtime clock.
inline std::uint64_t trace_clock_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

}  // namespace pss::sim
