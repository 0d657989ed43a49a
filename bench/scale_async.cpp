// Scale driver for the flat asynchronous engine: events/second, memory and
// steady-state allocation behavior at N ∈ {10^4, 10^5, 10^6}, swept over a
// lane ladder, plus the recorded speedup over the frozen LegacyEventEngine
// baseline.
//
// This is the async counterpart of scale_million_nodes: the same Newscast
// instance and random bootstrap, but driven through the discrete-event
// message layer (per-message latency, drop probability, reply timeouts)
// instead of atomic cycles. Each cell of the ladder runs the identical
// scenario from a fresh bootstrap: EventEngine on its default one lane
// (engine "flat", threads = 0 in the output) and EventEngine at each
// ladder entry (engine "parallel"). The one-lane rung of the ladder runs
// the same loop as "flat"; only two or more lanes run the windowed loop
// (see event_engine.hpp). Each run warms the engine for a few periods —
// letting the calendar queue, message pool and scratch buffers reach their
// high-water marks — then measures a timed window, counting every global
// operator new/delete in between: the recorded `steady_allocations` is the
// engine's whole-process allocation count during the measured window.
//
// Digest gate: every cell must end in the bit-identical network state —
// the FNV state digest (views, liveness, per-node stats, Rng probes) of
// each run is compared against the one-lane reference, and any
// divergence across lane counts makes the driver exit non-zero
// ("digest_ok": false). This is EventEngine's lane contract enforced at
// the scale the test suite cannot reach.
//
// The legacy baseline (heap-of-Views object-graph engine) runs the same
// scenario where it is feasible (it is the 10^4-capped engine this driver
// exists to retire); `PSS_ASYNC_LEGACY=auto` runs it up to 10^5 nodes.
// Results overwrite BENCH_async.json.
//
// Knobs (see docs/PERFORMANCE.md):
//   PSS_ASYNC_NS      comma-separated network sizes (default 10000,100000,1000000)
//   PSS_ASYNC_THREADS comma-separated EventEngine lane counts (default 1,2,4)
//   PSS_PERIODS       measured periods per run (default max(20, ⌈2·10^6/n⌉):
//                     every cell times at least 2·10^6 node wake-ups, so the
//                     small-n cells measure more than noise)
//   PSS_WARMUP        warm-up periods before measuring    (default 5)
//   PSS_C             view size c                         (default 30)
//   PSS_SEED          master seed                         (default 42)
//   PSS_DROP          message drop probability            (default 0)
//   PSS_ASYNC_LEGACY  "auto" (n <= 1e5), "1" (always), "0" (never)
//   PSS_ASYNC_JSON    output path                         (default BENCH_async.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/legacy_event_engine.hpp"
#include "pss/sim/network.hpp"

// --- Whole-process allocation counter --------------------------------------
// Overriding the global allocation functions in the bench binary counts
// every heap allocation made while the engine runs — the strongest form of
// the "zero steady-state allocation" claim, since nothing can hide behind a
// custom pool or a standard-library container.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_sizes(const std::string& text,
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
      try {
        value = std::stoull(token, &consumed);
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

/// Events the engine processed: wake-ups plus every delivered message
/// (dropped ones never enter the queue); comparable across all engines.
std::uint64_t events_processed(const pss::sim::EventEngineStats& s) {
  return s.wakeups + (s.messages_sent - s.messages_dropped);
}

/// One cell: engine ∈ {flat (one lane, threads = 0), parallel at a ladder
/// entry, legacy baseline}.
struct RunResult {
  std::size_t n = 0;
  std::size_t periods = 0;  ///< measured periods
  std::string engine;    ///< "flat", "parallel", "legacy"
  unsigned threads = 0;  ///< 0 for the sequential engines
  double setup_seconds = 0;
  double run_seconds = 0;
  double events_per_second = 0;
  std::uint64_t events = 0;
  std::uint64_t steady_allocations = 0;
  double bytes_per_node = 0;
  double mean_view_size = 0;
  std::uint64_t digest = 0;  ///< post-run state digest (0 for legacy)
  bool gated = false;        ///< participates in the digest gate
  std::uint64_t windows = 0; ///< parallel rows with two or more lanes
  std::uint64_t deferred_tasks = 0;
  std::uint64_t pooled_tasks = 0;
  pss::sim::EventEngineStats stats;
};

/// Builds the standard scenario and runs warmup + measured periods through
/// `Engine`, filling the timing/allocation/digest fields of `r`. Returns
/// the engine by value-channel side effects only; parallel-only counters
/// are harvested by the caller through the lambda hook.
template <typename Engine, typename Harvest, typename... EngineArgs>
void run_cell(RunResult& r, const pss::ProtocolSpec& spec, std::size_t c,
              std::uint64_t seed, pss::sim::EventEngineConfig cfg,
              std::size_t warmup, Harvest&& harvest, EngineArgs&&... args) {
  using namespace pss;
  const auto t_setup = Clock::now();
  sim::Network net(spec, ProtocolOptions{c, false}, seed);
  net.reserve_nodes(r.n);
  net.add_nodes(r.n);
  sim::bootstrap::init_random(net);
  Engine engine(net, cfg, std::forward<EngineArgs>(args)...);
  engine.run_cycles(warmup);  // queue/pool/scratch reach high-water marks
  r.setup_seconds = seconds_since(t_setup);

  const auto warm_stats = engine.stats();
  const std::uint64_t allocs_before =
      g_alloc_count.load(std::memory_order_relaxed);
  const auto t_run = Clock::now();
  engine.run_cycles(r.periods);
  r.run_seconds = seconds_since(t_run);
  r.steady_allocations =
      g_alloc_count.load(std::memory_order_relaxed) - allocs_before;

  r.stats = engine.stats();
  r.events = events_processed(r.stats) - events_processed(warm_stats);
  r.events_per_second = static_cast<double>(r.events) / r.run_seconds;
  std::size_t engine_bytes = 0;
  if constexpr (requires { engine.resident_bytes(); }) {
    engine_bytes = engine.resident_bytes();
  }
  r.bytes_per_node =
      static_cast<double>(net.resident_bytes() + engine_bytes) /
      static_cast<double>(r.n);
  std::uint64_t total_view = 0;
  for (NodeId id = 0; id < r.n; ++id) total_view += net.view_span(id).size();
  r.mean_view_size =
      static_cast<double>(total_view) / static_cast<double>(r.n);
  r.digest = scenarios::state_digest(net);
  harvest(engine);
}

}  // namespace

int main() {
  using namespace pss;

  const auto sizes =
      parse_sizes(env::get("PSS_ASYNC_NS").value_or("10000,100000,1000000"),
                  "PSS_ASYNC_NS");
  const auto ladder = parse_sizes(
      env::get("PSS_ASYNC_THREADS").value_or("1,2,4"), "PSS_ASYNC_THREADS");
  // Without PSS_PERIODS, a cell measures max(20, ⌈kCellWakeups / n⌉)
  // periods; with it, every cell measures that many.
  constexpr std::size_t kMinPeriods = 20;
  constexpr std::size_t kCellWakeups = 2'000'000;
  const bool fixed_periods = env::get("PSS_PERIODS").has_value();
  const auto periods = static_cast<std::size_t>(
      env::get_int("PSS_PERIODS", static_cast<std::int64_t>(kMinPeriods)));
  const std::size_t cell_wakeups = fixed_periods ? 0 : kCellWakeups;
  auto periods_for = [&](std::size_t n) {
    return std::max(periods, (cell_wakeups + n - 1) / n);
  };
  const auto warmup = static_cast<std::size_t>(env::get_int("PSS_WARMUP", 5));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 30));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const double drop = env::get_double("PSS_DROP", 0.0);
  const std::string legacy_mode =
      env::get("PSS_ASYNC_LEGACY").value_or("auto");
  const std::string out_path =
      env::get("PSS_ASYNC_JSON").value_or("BENCH_async.json");

  const ProtocolSpec spec = ProtocolSpec::newscast();
  sim::EventEngineConfig cfg;
  cfg.drop_probability = drop;

  std::vector<RunResult> results;
  bool digest_ok = true;
  std::printf(
      "scale_async: spec=%s c=%zu periods>=%zu cell_wakeups>=%zu warmup=%zu "
      "drop=%.2f seed=%llu threads={",
      spec.name().c_str(), c, periods, cell_wakeups, warmup, drop,
      static_cast<unsigned long long>(seed));
  for (std::size_t i = 0; i < ladder.size(); ++i) {
    std::printf("%s%zu", i ? "," : "", ladder[i]);
  }
  std::printf("}\n");

  const auto no_harvest = [](const auto&) {};
  for (const std::size_t n : sizes) {
    RunResult seq;
    seq.n = n;
    seq.periods = periods_for(n);
    seq.engine = "flat";
    seq.gated = true;
    run_cell<sim::EventEngine>(seq, spec, c, seed, cfg, warmup, no_harvest);
    const std::uint64_t reference_digest = seq.digest;
    std::printf(
        "  n=%-8zu flat               setup=%6.2fs run=%6.2fs %10.0f ev/s  "
        "%6.1f B/node  steady_allocs=%llu  digest=%016llx\n",
        n, seq.setup_seconds, seq.run_seconds, seq.events_per_second,
        seq.bytes_per_node,
        static_cast<unsigned long long>(seq.steady_allocations),
        static_cast<unsigned long long>(seq.digest));
    results.push_back(seq);

    for (const std::size_t threads : ladder) {
      RunResult par;
      par.n = n;
      par.periods = seq.periods;
      par.engine = "parallel";
      par.threads = static_cast<unsigned>(threads);
      par.gated = true;
      run_cell<sim::EventEngine>(
          par, spec, c, seed, cfg, warmup,
          [&par](const sim::EventEngine& e) {
            par.windows = e.windows();
            par.deferred_tasks = e.deferred_tasks();
            par.pooled_tasks = e.pooled_tasks();
          },
          static_cast<unsigned>(threads));
      std::printf(
          "  n=%-8zu parallel t=%-3zu       run=%6.2fs %10.0f ev/s  "
          "windows=%llu deferred=%llu pooled=%llu  digest=%016llx\n",
          n, threads, par.run_seconds, par.events_per_second,
          static_cast<unsigned long long>(par.windows),
          static_cast<unsigned long long>(par.deferred_tasks),
          static_cast<unsigned long long>(par.pooled_tasks),
          static_cast<unsigned long long>(par.digest));
      results.push_back(par);
    }

    // The gate: every parallel cell of this n must match the sequential
    // reference bit for bit.
    for (const RunResult& r : results) {
      if (r.n != n || !r.gated) continue;
      if (r.digest != reference_digest) {
        digest_ok = false;
        std::fprintf(stderr,
                     "DIGEST MISMATCH n=%zu engine=%s threads=%u: "
                     "%016llx != reference %016llx\n",
                     n, r.engine.c_str(), r.threads,
                     static_cast<unsigned long long>(r.digest),
                     static_cast<unsigned long long>(reference_digest));
      }
    }

    const bool run_legacy =
        legacy_mode == "1" || (legacy_mode == "auto" && n <= 100000);
    if (run_legacy) {
      RunResult legacy;
      legacy.n = n;
      legacy.periods = seq.periods;
      legacy.engine = "legacy";
      run_cell<sim::LegacyEventEngine>(legacy, spec, c, seed, cfg, warmup,
                                       no_harvest);
      legacy.digest = 0;  // outside the gate: frozen baseline, own arena
      // Speedup of the fastest measured flat/parallel cell at this n.
      double best = 0;
      for (const RunResult& r : results) {
        if (r.n == n && r.gated) best = std::max(best, r.events_per_second);
      }
      std::printf(
          "  n=%-8zu legacy:              run=%6.2fs %10.0f ev/s  -> best "
          "flat speedup %.1fx\n",
          n, legacy.run_seconds, legacy.events_per_second,
          best / legacy.events_per_second);
      results.push_back(legacy);
    }
  }

  const std::string spec_name = spec.name();
  obs::RunRecorder rec(
      "scale_async", 3,
      bench::make_run_metadata("scale_async", "event", spec_name,
                               bench::protocol_wire_id(spec), sizes.back(), c,
                               periods_for(sizes.back()), seed));
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("periods", static_cast<std::uint64_t>(periods));
  rec.json().field("cell_wakeups", static_cast<std::uint64_t>(cell_wakeups));
  rec.json().field("warmup_periods", static_cast<std::uint64_t>(warmup));
  rec.json().field("drop_probability", drop);
  rec.json().end_object();
  rec.json().key("runs");
  rec.json().begin_array();
  for (const RunResult& r : results) {
    rec.json().begin_object();
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("periods", static_cast<std::uint64_t>(r.periods));
    rec.json().field("engine", r.engine);
    rec.json().field("threads", r.threads);
    rec.json().field("setup_seconds", r.setup_seconds);
    rec.json().field("run_seconds", r.run_seconds);
    rec.json().field("events", r.events);
    rec.json().field("events_per_second", r.events_per_second);
    rec.json().field("steady_allocations", r.steady_allocations);
    rec.json().field("bytes_per_node", r.bytes_per_node);
    rec.json().field("mean_view_size", r.mean_view_size);
    rec.json().field("windows", r.windows);
    rec.json().field("deferred_tasks", r.deferred_tasks);
    rec.json().field("pooled_tasks", r.pooled_tasks);
    rec.json().field("wakeups", r.stats.wakeups);
    rec.json().field("messages_sent", r.stats.messages_sent);
    rec.json().field("messages_dropped", r.stats.messages_dropped);
    rec.json().field("replies_delivered", r.stats.replies_delivered);
    rec.json().field("replies_stale", r.stats.replies_stale);
    rec.json().field("digest", obs::to_hex16(r.digest));
    rec.json().end_object();
  }
  rec.json().end_array();
  rec.gate("digest", digest_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  if (!digest_ok) {
    std::fprintf(stderr, "digest gate FAILED\n");
    return 1;
  }
  std::printf("digest gate OK (all thread counts bit-identical)\n");
  return 0;
}
