// scale_trace: the tracing seam against its non-perturbation contract.
//
// Phase 1 is a hard differential gate, in the scale_transport mold: for
// every engine that carries the TraceProbe seam — CycleEngine (1, 2 and 4
// lanes), EventEngine (1 and 4 lanes) and the
// ServiceNode/LoopbackDriver wire stack — three freshly-seeded runs of the
// same workload must finish with equal scenarios::state_digest: untraced
// (no probe attached), disarmed (probe attached, armed=false) and armed
// (TraceRecorder + Profiler through a TraceTee). Any divergence means
// tracing perturbed the protocol; scale_trace exits non-zero so CI can
// gate on `"differential_ok": true`. The armed run must also have recorded
// spans, or the gate is vacuous.
//
// Phase 2 measures what an armed flight recorder costs: EventEngine
// exchanges/s untraced vs armed at the sizes in PSS_TRACE_NS (default
// 10000,100000), with ring-overflow drops reported (overflow is the
// flight-recorder contract, not an error).
//
// Knobs: PSS_TRACE_NS, PSS_TRACE_CYCLES, PSS_TRACE_RING, PSS_C,
//        PSS_SEED, PSS_TRACE_JSON.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/obs/profiler.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/obs/trace.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/transport/loopback_driver.hpp"

namespace {

using namespace pss;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_sizes(const std::string& csv,
                                     const char* knob) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    std::string token = csv.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) continue;
    std::size_t consumed = 0;
    unsigned long long value = 0;
    const bool digits_only =
        token.find_first_not_of("0123456789") == std::string::npos;
    try {
      if (digits_only) value = std::stoull(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != token.size() || value == 0) {
      std::fprintf(stderr,
                   "%s: bad entry '%s' (want a comma-separated list of "
                   "positive integers)\n",
                   knob, token.c_str());
      std::exit(1);
    }
    out.push_back(static_cast<std::size_t>(value));
  }
  return out;
}

/// One probe bundle per traced run: recorder + profiler behind a tee, so
/// the differential exercises the exact attachment the daemon uses.
struct TraceKit {
  obs::TraceRecorder recorder;
  obs::Profiler profiler;
  obs::TraceTee tee;
  TraceKit(std::size_t ring, bool armed) : recorder(ring) {
    tee.add(recorder);
    tee.add(profiler);
    recorder.set_armed(armed);
    profiler.set_armed(armed);
  }
};

enum class Probe { kNone, kDisarmed, kArmed };

struct RunOutcome {
  std::uint64_t digest = 0;
  std::uint64_t exchanges = 0;
  double seconds = 0;
  std::uint64_t events = 0;   ///< recorder.total_recorded() (armed runs)
  std::uint64_t dropped = 0;  ///< ring-overflow overwrites
};

struct DiffCheck {
  std::string check;
  std::uint64_t baseline_digest = 0;
  std::uint64_t disarmed_digest = 0;
  std::uint64_t armed_digest = 0;
  std::uint64_t events = 0;
  bool matches = false;
};

struct OverheadRow {
  std::size_t n = 0;
  std::uint64_t exchanges = 0;
  double untraced_seconds = 0;
  double traced_seconds = 0;
  std::uint64_t events = 0;
  std::uint64_t dropped = 0;
};

}  // namespace

int main() {
  const auto sizes = parse_sizes(
      env::get("PSS_TRACE_NS").value_or("10000,100000"), "PSS_TRACE_NS");
  const auto cycles =
      static_cast<std::size_t>(env::get_int("PSS_TRACE_CYCLES", 20));
  const auto ring =
      static_cast<std::size_t>(env::get_int("PSS_TRACE_RING", 1 << 16));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 20));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const std::string out_path =
      env::get("PSS_TRACE_JSON").value_or("BENCH_trace.json");

  const ProtocolSpec spec = ProtocolSpec::newscast();
  const ProtocolOptions options{c, false};
  std::printf("scale_trace: spec=%s c=%zu cycles=%zu ring=%zu seed=%llu\n",
              spec.name().c_str(), c, cycles, ring,
              static_cast<unsigned long long>(seed));

  auto make_net = [&](std::size_t n) {
    return sim::bootstrap::make_random(spec, options, n, seed);
  };

  // Each runner builds a fresh identically-seeded world, optionally hangs
  // the probe kit on the engine, runs, and digests. The kit outlives the
  // run only long enough to read its counters.
  auto run_cycle = [&](std::size_t n, unsigned lanes, Probe probe) {
    sim::Network net = make_net(n);
    sim::CycleEngine engine(net, {lanes});
    TraceKit kit(ring, probe == Probe::kArmed);
    if (probe != Probe::kNone) engine.attach_trace(kit.tee);
    const auto t0 = Clock::now();
    engine.run(static_cast<Cycle>(cycles));
    return RunOutcome{scenarios::state_digest(net), engine.stats().exchanges,
                      seconds_since(t0), kit.recorder.total_recorded(),
                      kit.recorder.dropped()};
  };
  auto run_event = [&](std::size_t n, unsigned lanes, Probe probe) {
    sim::Network net = make_net(n);
    sim::EventEngine engine(net, sim::EventEngineConfig{}, lanes);
    TraceKit kit(ring, probe == Probe::kArmed);
    if (probe != Probe::kNone) engine.attach_trace(kit.tee);
    const auto t0 = Clock::now();
    engine.run_cycles(cycles);
    return RunOutcome{scenarios::state_digest(net), engine.stats().wakeups,
                      seconds_since(t0), kit.recorder.total_recorded(),
                      kit.recorder.dropped()};
  };
  auto run_service = [&](std::size_t n, Probe probe) {
    sim::Network net = make_net(n);
    transport::LoopbackTransport bus(transport::LoopbackConfig{}, net.rng());
    transport::LoopbackDriver driver(net, bus);
    TraceKit kit(ring, probe == Probe::kArmed);
    if (probe != Probe::kNone) driver.attach_trace(kit.tee);
    const auto t0 = Clock::now();
    driver.run_cycles(cycles);
    return RunOutcome{scenarios::state_digest(net),
                      driver.engine_stats().wakeups, seconds_since(t0),
                      kit.recorder.total_recorded(), kit.recorder.dropped()};
  };

  // ---- Phase 1: differential gate ----------------------------------------
  // Checked at the smallest requested size; a mismatch is fatal.
  const std::size_t dn = *std::min_element(sizes.begin(), sizes.end());
  std::vector<DiffCheck> diffs;
  bool events_ok = true;
  auto gate = [&](std::string check, const RunOutcome& baseline,
                  const RunOutcome& disarmed, const RunOutcome& armed) {
    const bool ok = baseline.digest == disarmed.digest &&
                    baseline.digest == armed.digest;
    std::printf("  differential %-24s %s  (%llu spans)\n", check.c_str(),
                ok ? "ok" : "DIVERGED",
                static_cast<unsigned long long>(armed.events));
    diffs.push_back({std::move(check), baseline.digest, disarmed.digest,
                     armed.digest, armed.events, ok});
    events_ok = events_ok && armed.events > 0;
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: differential check '%s' diverged "
                   "(baseline=%llu disarmed=%llu armed=%llu)\n",
                   diffs.back().check.c_str(),
                   static_cast<unsigned long long>(baseline.digest),
                   static_cast<unsigned long long>(disarmed.digest),
                   static_cast<unsigned long long>(armed.digest));
      std::exit(1);
    }
  };

  for (const unsigned t : {1u, 2u, 4u}) {
    const std::string check =
        t == 1 ? "cycle" : "parallel_cycle/t=" + std::to_string(t);
    gate(check, run_cycle(dn, t, Probe::kNone),
         run_cycle(dn, t, Probe::kDisarmed), run_cycle(dn, t, Probe::kArmed));
  }
  for (const unsigned t : {1u, 4u}) {
    const std::string check =
        t == 1 ? "event" : "parallel_event/t=" + std::to_string(t);
    gate(check, run_event(dn, t, Probe::kNone),
         run_event(dn, t, Probe::kDisarmed), run_event(dn, t, Probe::kArmed));
  }
  gate("service/loopback", run_service(dn, Probe::kNone),
       run_service(dn, Probe::kDisarmed), run_service(dn, Probe::kArmed));

  // ---- Phase 2: armed flight-recorder overhead ---------------------------
  std::vector<OverheadRow> rows;
  for (const std::size_t n : sizes) {
    const RunOutcome off = run_event(n, 1, Probe::kNone);
    const RunOutcome on = run_event(n, 1, Probe::kArmed);
    if (off.digest != on.digest) {
      std::fprintf(stderr, "FATAL: overhead run diverged at n=%zu\n", n);
      return 1;
    }
    events_ok = events_ok && on.events > 0;
    OverheadRow row{n,          off.exchanges, off.seconds,
                    on.seconds, on.events,     on.dropped};
    std::printf(
        "  overhead n=%-8zu untraced %8.0f ex/s   armed %8.0f ex/s  "
        "(%.2fx, %llu spans, %llu overwritten)\n",
        n, row.exchanges / std::max(row.untraced_seconds, 1e-9),
        row.exchanges / std::max(row.traced_seconds, 1e-9),
        row.traced_seconds / std::max(row.untraced_seconds, 1e-9),
        static_cast<unsigned long long>(row.events),
        static_cast<unsigned long long>(row.dropped));
    rows.push_back(row);
  }

  // ---- JSON ---------------------------------------------------------------
  const std::string spec_name = spec.name();
  obs::RunRecorder rec(
      "scale_trace", 1,
      bench::make_run_metadata("scale_trace", "event", spec_name,
                               bench::protocol_wire_id(spec), sizes.back(), c,
                               cycles, seed));
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("differential_n", static_cast<std::uint64_t>(dn));
  rec.json().field("ring_capacity", static_cast<std::uint64_t>(ring));
  rec.json().end_object();
  rec.json().key("differential");
  rec.json().begin_array();
  bool differential_ok = true;
  for (const DiffCheck& d : diffs) {
    rec.json().begin_object();
    rec.json().field("check", d.check);
    rec.json().field("baseline_digest", obs::to_hex16(d.baseline_digest));
    rec.json().field("disarmed_digest", obs::to_hex16(d.disarmed_digest));
    rec.json().field("armed_digest", obs::to_hex16(d.armed_digest));
    rec.json().field("events", d.events);
    rec.json().field("matches", d.matches);
    rec.json().end_object();
    differential_ok = differential_ok && d.matches;
  }
  rec.json().end_array();
  rec.json().key("runs");
  rec.json().begin_array();
  for (const OverheadRow& r : rows) {
    rec.json().begin_object();
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("exchanges", r.exchanges);
    rec.json().field("untraced_seconds", r.untraced_seconds);
    rec.json().field("traced_seconds", r.traced_seconds);
    rec.json().field("untraced_exchanges_per_s",
                     r.exchanges / std::max(r.untraced_seconds, 1e-9));
    rec.json().field("traced_exchanges_per_s",
                     r.exchanges / std::max(r.traced_seconds, 1e-9));
    rec.json().field("overhead_ratio",
                     r.traced_seconds / std::max(r.untraced_seconds, 1e-9));
    rec.json().field("events_recorded", r.events);
    rec.json().field("events_overwritten", r.dropped);
    rec.json().end_object();
  }
  rec.json().end_array();
  rec.gate("differential", differential_ok);
  rec.gate("events_recorded", events_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rec.gates_ok() ? 0 : 1;
}
