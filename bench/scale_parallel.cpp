// Lane-scaling driver for the cycle engine.
//
// For each network size it records the one-lane CycleEngine baseline (mode
// "sequential": the scan that executes each step where it selects it),
// then runs the multi-lane loop (mode "deterministic") across a lane
// ladder — each bit-identical to the baseline, verified in-run by a state
// digest — and writes machine-readable results to BENCH_parallel.json.
// Every run stands up an identical freshly-seeded network, so digests and
// throughputs are directly comparable.
//
// Knobs (see docs/PERFORMANCE.md):
//   PSS_PAR_NS      comma-separated network sizes     (default 1000000)
//   PSS_PAR_THREADS comma-separated lane counts; 1 is the baseline, which
//                   always runs                       (default 1,2,4,8)
//   PSS_CYCLES      cycles per run                    (default 10)
//   PSS_C           view size c                       (default 30)
//   PSS_SEED        master seed                       (default 42)
//   PSS_PAR_JSON    output path                 (default BENCH_parallel.json)
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/network.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_list(const std::string& text,
                                    const char* knob) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
      std::size_t consumed = 0;
      unsigned long long value = 0;
      // Digits only up front: stoull would otherwise accept "-1" by
      // wraparound and "  7" by skipping whitespace.
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
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

// The equivalence digest lives in pss/scenarios/digest.hpp (shared with
// scale_scenarios and the differential test suite, so every "bit-identical"
// claim in the repo is checked by the same fold).
using pss::scenarios::state_digest;

struct RunResult {
  std::string mode;  // "sequential" (one lane) | "deterministic" (more)
  std::size_t n = 0;
  unsigned threads = 1;
  double run_seconds = 0;
  double exchanges_per_second = 0;
  double speedup = 1.0;  // vs the one-lane baseline at the same n
  std::uint64_t exchanges = 0;
  std::uint64_t digest = 0;
  bool matches_sequential = false;
};

}  // namespace

int main() {
  using namespace pss;

  const auto sizes =
      parse_list(env::get("PSS_PAR_NS").value_or("1000000"), "PSS_PAR_NS");
  const auto threads_list = parse_list(
      env::get("PSS_PAR_THREADS").value_or("1,2,4,8"), "PSS_PAR_THREADS");
  const auto cycles = static_cast<Cycle>(env::get_int("PSS_CYCLES", 10));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 30));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const std::string out_path =
      env::get("PSS_PAR_JSON").value_or("BENCH_parallel.json");

  const ProtocolSpec spec = ProtocolSpec::newscast();
  std::vector<RunResult> results;

  std::printf("scale_parallel: spec=%s c=%zu cycles=%u seed=%llu\n",
              spec.name().c_str(), c, cycles,
              static_cast<unsigned long long>(seed));

  auto make_net = [&](std::size_t n) {
    sim::Network net(spec, ProtocolOptions{c, false}, seed);
    net.reserve_nodes(n);
    net.add_nodes(n);
    sim::bootstrap::init_random(net);
    return net;
  };

  for (const std::size_t n : sizes) {
    // One-lane baseline.
    RunResult base;
    base.mode = "sequential";
    base.n = n;
    {
      sim::Network net = make_net(n);
      sim::CycleEngine engine(net);
      const auto t = Clock::now();
      engine.run(cycles);
      base.run_seconds = seconds_since(t);
      base.exchanges = engine.stats().exchanges;
      base.exchanges_per_second =
          static_cast<double>(base.exchanges) / base.run_seconds;
      base.digest = state_digest(net);
      base.matches_sequential = true;
    }
    std::printf("  n=%-8zu %-13s t=%u  %6.2fs  %10.0f exch/s\n", n,
                base.mode.c_str(), base.threads, base.run_seconds,
                base.exchanges_per_second);
    results.push_back(base);

    for (const std::size_t t_count : threads_list) {
      if (t_count == 1) continue;  // the baseline above
      RunResult r;
      r.mode = "deterministic";
      r.n = n;
      r.threads = static_cast<unsigned>(t_count);
      sim::Network net = make_net(n);
      sim::CycleEngine engine(net, {r.threads});
      const auto t = Clock::now();
      engine.run(cycles);
      r.run_seconds = seconds_since(t);
      r.exchanges = engine.stats().exchanges;
      r.exchanges_per_second =
          static_cast<double>(r.exchanges) / r.run_seconds;
      r.speedup = base.run_seconds / r.run_seconds;
      r.digest = state_digest(net);
      r.matches_sequential = r.digest == base.digest;
      if (!r.matches_sequential) {
        // The equivalence contract is checked on every bench run, not
        // just in the test suite: a digest mismatch is a hard failure.
        std::fprintf(stderr,
                     "FATAL: deterministic run (n=%zu, threads=%u) "
                     "diverged from the one-lane baseline\n",
                     n, r.threads);
        return 1;
      }
      std::printf(
          "  n=%-8zu %-13s t=%u  %6.2fs  %10.0f exch/s  %4.2fx  (=seq)\n", n,
          r.mode.c_str(), r.threads, r.run_seconds, r.exchanges_per_second,
          r.speedup);
      results.push_back(r);
    }
  }

  const std::string spec_name = spec.name();
  obs::RunRecorder rec(
      "scale_parallel", 2,
      bench::make_run_metadata("scale_parallel", "parallel-cycle", spec_name,
                               bench::protocol_wire_id(spec), sizes.back(), c,
                               cycles, seed));
  rec.json().key("runs");
  rec.json().begin_array();
  bool deterministic_ok = true;
  for (const RunResult& r : results) {
    rec.json().begin_object();
    rec.json().field("mode", r.mode);
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("threads", r.threads);
    rec.json().field("run_seconds", r.run_seconds);
    rec.json().field("exchanges_per_second", r.exchanges_per_second);
    rec.json().field("speedup_vs_sequential", r.speedup);
    rec.json().field("exchanges", r.exchanges);
    rec.json().field("state_digest", obs::to_hex16(r.digest));
    rec.json().field("matches_sequential", r.matches_sequential);
    rec.json().end_object();
    if (r.mode == "deterministic") {
      deterministic_ok = deterministic_ok && r.matches_sequential;
    }
  }
  rec.json().end_array();
  rec.gate("deterministic_matches_sequential", deterministic_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rec.gates_ok() ? 0 : 1;
}
