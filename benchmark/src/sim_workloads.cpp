// The simulator workloads: cycle-hot, cycle-cold, event, loopback, figure.
#include <algorithm>
#include <cstdio>
#include <string>

#include "probes.hpp"
#include "pss/experiments/scenario.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/parallel_cycle_engine.hpp"
#include "pss/sim/parallel_event_engine.hpp"
#include "pss/transport/loopback_driver.hpp"
#include "workloads.hpp"

namespace pss::bench {

namespace {

/// Runs `chunk` (a cycle or a tenth of a period; returns the exchanges it
/// initiated) until `budget_s` has elapsed, or exactly `fixed` times when
/// fixed > 0, appending one exchanges/s sample per chunk. `between(k)` runs
/// untimed after the k-th chunk. Returns the chunk count.
template <class Chunk, class Between>
std::size_t measure_chunks(double budget_s, std::size_t fixed,
                           std::vector<double>& rates, Chunk&& chunk,
                           Between&& between) {
  const auto start = Clock::now();
  std::size_t done = 0;
  while (fixed > 0 ? done < fixed
                   : done == 0 || seconds_since(start) < budget_s) {
    const auto t0 = Clock::now();
    const auto exchanges = static_cast<double>(chunk());
    rates.push_back(exchanges / seconds_since(t0));
    between(++done);
  }
  return done;
}

/// The primary window of a phase: untraced for the whole budget, or — in
/// trace runs — half untraced, then half with the PhaseProbe attached and
/// every chunk spanned. `attach` hooks the probe into the engine.
template <class Chunk, class Between, class Attach>
std::size_t primary_window(RunState& s, double budget_s, Tracer*& chunk_tracer,
                           Chunk&& chunk, Between&& between, Attach&& attach) {
  if (!s.options.trace) {
    return measure_chunks(budget_s, 0, s.rates, chunk, between);
  }
  std::size_t k = measure_chunks(budget_s / 2, 0, s.rates, chunk, between);
  attach();
  chunk_tracer = s.tracer();
  Tracer::Scope window(chunk_tracer, s.span_window);
  k += measure_chunks(budget_s / 2, 0, s.traced_rates, chunk, between);
  return k;
}

/// Output checks on a phase's network after its window: invariants I1–I3
/// and the state digest, which is returned.
std::uint64_t check_phase(RunState& s, const sim::Network& net) {
  Tracer::Scope span(s.tracer(), s.span_check);
  s.views_ok = views_valid(net) && s.views_ok;
  s.arena_bytes_per_node = static_cast<double>(net.resident_bytes()) /
                           static_cast<double>(net.size());
  return scenarios::state_digest(net);
}

double ns_per_exchange(const std::vector<double>& rates) {
  return 1e9 / chunk_rate(rates);
}

// --- cycle-hot / cycle-cold --------------------------------------------------

struct CycleParams {
  std::size_t n = 0;
  Cycle warmup = 0;
  int rounds = 1;
};

/// Initiations and failures of a cycle-engine window into the report.
void account_cycle(RunState& s, const sim::EngineStats& before,
                   const sim::EngineStats& after) {
  const std::uint64_t failed = (after.failed_contacts - before.failed_contacts) +
                               (after.empty_views - before.empty_views);
  s.report.attempted += (after.exchanges - before.exchanges) + failed;
  s.report.failed += failed;
  s.counters.failed_contacts += after.failed_contacts - before.failed_contacts;
}

/// CycleEngine, then ParallelCycleEngine (Deterministic, L lanes) for the
/// same number of cycles from the same seed; their state digests must match.
/// Trace runs add a 1-lane parallel phase (the single-lane fold gate).
void run_cycle_workload(const Options& o, Report& r, const CycleParams& p) {
  RunState s(o, r);
  bool digests_equal = true;
  std::vector<double> par_rates;
  std::vector<double> lane1_rates;
  std::uint64_t par_allocs = 0;
  par_rates.reserve(1 << 12);
  lane1_rates.reserve(1 << 12);
  const double budget = o.seconds / (2.0 * p.rounds);
  for (int round = 0; round < p.rounds; ++round) {
    const bool last = round + 1 == p.rounds;
    std::size_t cycles = 0;
    std::uint64_t reference = 0;
    {
      const auto t0 = Clock::now();
      sim::Network net = make_network(p.n, o.seed);
      const double boot = seconds_since(t0);
      sim::CycleEngine engine(net);
      engine.run(p.warmup);
      s.record_setup(t0, boot);
      AppProbe app(s, net);
      Tracer* tr = nullptr;
      auto chunk = [&] {
        Tracer::Scope span(tr, s.span_chunk);
        const std::uint64_t before = engine.stats().exchanges;
        engine.run_cycle();
        return engine.stats().exchanges - before;
      };
      const sim::EngineStats before = engine.stats();
      const std::uint64_t allocs = s.allocs_now();
      cycles = primary_window(
          s, budget, tr, chunk, [&](std::size_t) { app.burst(); },
          [&] { engine.attach_trace(s.probe); });
      s.steady_allocs += s.allocs_now() - allocs;
      account_cycle(s, before, engine.stats());
      reference = check_phase(s, net);
      if (last && o.trace) report_layer_probes(net, o, 0, s.tracer(), r);
    }
    std::vector<unsigned> lanes{o.lanes};
    if (last && o.trace) lanes.push_back(1);
    for (const unsigned lane_count : lanes) {
      const CpuRotation::Pause pause(s.rotation);
      const auto t0 = Clock::now();
      sim::Network net = make_network(p.n, o.seed);
      const double boot = seconds_since(t0);
      sim::ParallelCycleEngine engine(
          net, {lane_count, sim::ParallelPolicy::kDeterministic});
      engine.run(p.warmup);
      s.record_setup(t0, boot);
      AppProbe app(s, net);
      const sim::EngineStats before = engine.stats();
      const std::uint64_t allocs = s.allocs_now();
      measure_chunks(
          0, cycles, lane_count == 1 ? lane1_rates : par_rates,
          [&] {
            const std::uint64_t ex = engine.stats().exchanges;
            engine.run_cycle();
            return engine.stats().exchanges - ex;
          },
          [&](std::size_t) { app.burst(); });
      par_allocs += s.allocs_now() - allocs;
      account_cycle(s, before, engine.stats());
      digests_equal = check_phase(s, net) == reference && digests_equal;
    }
  }
  r.check("digest_seq_eq_par", digests_equal);
  s.check_steady_allocs();
  r.metric("exch_per_s_mt", chunk_rate(par_rates), "exchanges/s");
  r.metric("sim.par_speedup", chunk_rate(par_rates) / chunk_rate(s.rates),
           "ratio");
  // The parallel engines' batch buffers keep creeping towards their
  // high-water marks, so their allocations are reported, not checked.
  r.metric("sim.par_steady_allocs", static_cast<double>(par_allocs), "count");
  if (o.trace) {
    r.metric("sim.cycle_step_ns", ns_per_exchange(s.rates), "ns");
    r.metric("sim.par_cycle_ns", ns_per_exchange(par_rates), "ns");
    r.metric("sim.par_cycle_1lane_ns", ns_per_exchange(lane1_rates), "ns");
  }
  s.finish();
}

// --- event / loopback --------------------------------------------------------

/// Event-time chunks are a tenth of a period, so a window yields tens of
/// samples. Every engine of a workload stops at the same times (warm-up end
/// + k/10 periods), which keeps their final states comparable.
constexpr double kEventChunk = 0.1;
constexpr std::size_t kChunksPerPeriod = 10;

double chunk_end(double start, std::size_t k) {
  return start + kEventChunk * static_cast<double>(k);
}

/// Every node ticks, and so changes its view, once a period: that is when
/// an application burst can time a rebuild for every sampled node.
auto burst_every_period(AppProbe& app) {
  return [&app](std::size_t k) {
    if (k % kChunksPerPeriod == 0) app.burst();
  };
}

sim::EventEngineConfig event_config() {
  sim::EventEngineConfig cfg;  // T = 1, latency U[0.01, 0.1], reply window 0.5
  cfg.drop_probability = 0.0;
  return cfg;
}

void account_event(RunState& s, const sim::EventEngineStats& before,
                   const sim::EventEngineStats& after) {
  const std::uint64_t failed =
      (after.messages_dropped - before.messages_dropped) +
      (after.messages_to_dead - before.messages_to_dead) +
      (after.replies_stale - before.replies_stale);
  s.report.attempted += after.wakeups - before.wakeups;
  s.report.failed += failed;
  s.counters.failed_contacts += after.messages_to_dead - before.messages_to_dead;
  s.counters.replies_stale += after.replies_stale - before.replies_stale;
}

bool event_stats_equal(const sim::EventEngineStats& a,
                       const sim::EventEngineStats& b) {
  return a.wakeups == b.wakeups && a.messages_sent == b.messages_sent &&
         a.messages_dropped == b.messages_dropped &&
         a.messages_to_dead == b.messages_to_dead &&
         a.replies_delivered == b.replies_delivered &&
         a.replies_stale == b.replies_stale;
}

}  // namespace

void run_cycle_hot(const Options& o, Report& r) {
  run_cycle_workload(o, r, {o.smoke ? 2'000u : 10'000u, 10, 3});
}

void run_cycle_cold(const Options& o, Report& r) {
  run_cycle_workload(o, r, {o.smoke ? 20'000u : 1'000'000u, 1, 1});
}

/// EventEngine, then ParallelEventEngine at L lanes over the same event
/// time from the same seed; state digests and counters must match.
void run_event(const Options& o, Report& r) {
  const std::size_t n = o.smoke ? 5'000 : 100'000;
  const std::size_t warmup = 3;
  const int rounds = 2;
  RunState s(o, r);
  bool equal = true;
  std::vector<double> par_rates;
  par_rates.reserve(1 << 12);
  std::uint64_t windows = 0, deferred = 0, pooled = 0, par_chunks = 0;
  std::uint64_t par_allocs = 0;
  const double budget = o.seconds / (2.0 * rounds);
  for (int round = 0; round < rounds; ++round) {
    const bool last = round + 1 == rounds;
    std::size_t chunks = 0;
    std::uint64_t reference = 0;
    sim::EventEngineStats reference_stats;
    {
      const auto t0 = Clock::now();
      sim::Network net = make_network(n, o.seed);
      const double boot = seconds_since(t0);
      sim::EventEngine engine(net, event_config());
      engine.run_cycles(warmup);
      s.record_setup(t0, boot);
      AppProbe app(s, net);
      Tracer* tr = nullptr;
      const double start = engine.now();
      auto chunk = [&] {
        Tracer::Scope span(tr, s.span_chunk);
        const std::uint64_t before = engine.stats().wakeups;
        engine.run_until(chunk_end(start, ++chunks));
        return engine.stats().wakeups - before;
      };
      const sim::EventEngineStats before = engine.stats();
      const std::uint64_t allocs = s.allocs_now();
      primary_window(s, budget, tr, chunk, burst_every_period(app),
                     [&] { engine.attach_trace(s.probe); });
      s.steady_allocs += s.allocs_now() - allocs;
      account_event(s, before, engine.stats());
      s.counters.queue_population =
          std::max<std::uint64_t>(s.counters.queue_population,
                                  engine.queued_events());
      s.counters.slab_high_water = std::max<std::uint64_t>(
          s.counters.slab_high_water, engine.message_pool_slabs());
      reference_stats = engine.stats();
      reference = check_phase(s, net);
      if (last && o.trace) {
        report_layer_probes(net, o, s.counters.queue_population, s.tracer(),
                            r);
      }
    }
    {
      const CpuRotation::Pause pause(s.rotation);
      const auto t0 = Clock::now();
      sim::Network net = make_network(n, o.seed);
      const double boot = seconds_since(t0);
      sim::ParallelEventEngine engine(net, event_config(), o.lanes);
      engine.run_cycles(warmup);
      s.record_setup(t0, boot);
      AppProbe app(s, net);
      const sim::EventEngineStats before = engine.stats();
      const std::uint64_t w0 = engine.windows(), d0 = engine.deferred_tasks(),
                          p0 = engine.pooled_tasks();
      const std::uint64_t allocs = s.allocs_now();
      const double start = engine.now();
      std::size_t k = 0;
      measure_chunks(
          0, chunks, par_rates,
          [&] {
            const std::uint64_t wakeups = engine.stats().wakeups;
            engine.run_until(chunk_end(start, ++k));
            return engine.stats().wakeups - wakeups;
          },
          burst_every_period(app));
      par_allocs += s.allocs_now() - allocs;
      account_event(s, before, engine.stats());
      windows += engine.windows() - w0;
      deferred += engine.deferred_tasks() - d0;
      pooled += engine.pooled_tasks() - p0;
      par_chunks += chunks;
      // Trace runs attach a probe to the sequential engine's second half;
      // tracing is digest-neutral, so the comparison holds either way.
      equal = check_phase(s, net) == reference &&
              event_stats_equal(engine.stats(), reference_stats) && equal;
    }
  }
  r.check("digest_seq_eq_par", equal);
  s.check_steady_allocs();
  r.metric("exch_per_s_mt", chunk_rate(par_rates), "exchanges/s");
  r.metric("sim.par_speedup", chunk_rate(par_rates) / chunk_rate(s.rates),
           "ratio");
  r.metric("sim.par_steady_allocs", static_cast<double>(par_allocs), "count");
  if (o.trace) {
    r.metric("sim.event_ns", ns_per_exchange(s.rates), "ns");
    r.metric("sim.par_event_windows",
             static_cast<double>(windows) /
                 (static_cast<double>(par_chunks) * kEventChunk),
             "1/period");
    r.metric("sim.par_event_deferred_per_window",
             static_cast<double>(deferred) / static_cast<double>(windows),
             "count");
    r.metric("sim.par_event_pooled_frac",
             deferred == 0 ? 0.0
                           : static_cast<double>(pooled) /
                                 static_cast<double>(deferred),
             "ratio");
  }
  s.finish();
}

/// LoopbackDriver over LoopbackTransport (codec + ServiceNode + bus, no
/// syscalls), then an EventEngine reference of the same seed and event time:
/// the two must be digest- and counter-identical, and their ratio is the
/// cost of the transport seam.
void run_loopback(const Options& o, Report& r) {
  const std::size_t n = o.smoke ? 2'000 : 50'000;
  const std::size_t warmup = 3;
  const int rounds = 2;
  RunState s(o, r);
  bool equal = true;
  std::vector<double> event_rates;
  event_rates.reserve(1 << 12);
  const double budget = o.seconds * 0.35;
  const sim::EventEngineConfig cfg = event_config();
  for (int round = 0; round < rounds; ++round) {
    const bool last = round + 1 == rounds;
    std::size_t chunks = 0;
    std::uint64_t digest = 0;
    sim::EventEngineStats stats;
    {
      const auto t0 = Clock::now();
      sim::Network net = make_network(n, o.seed);
      const double boot = seconds_since(t0);
      transport::LoopbackConfig bus_config;
      bus_config.min_delay = cfg.min_latency;
      bus_config.max_delay = cfg.max_latency;
      bus_config.loss_probability = cfg.drop_probability;
      transport::LoopbackTransport bus(bus_config, net.rng());
      transport::LoopbackDriver driver(
          net, bus, transport::LoopbackDriverConfig{cfg.period,
                                                    cfg.reply_timeout});
      driver.run_cycles(warmup);
      s.record_setup(t0, boot);
      AppProbe app(s, net);
      Tracer* tr = nullptr;
      const double start = driver.now();
      auto chunk = [&] {
        Tracer::Scope span(tr, s.span_chunk);
        const std::uint64_t before = driver.engine_stats().wakeups;
        driver.run_until(chunk_end(start, ++chunks));
        return driver.engine_stats().wakeups - before;
      };
      const sim::EventEngineStats before = driver.engine_stats();
      const std::uint64_t rejected = driver.rejected_frames();
      const std::uint64_t allocs = s.allocs_now();
      primary_window(s, budget, tr, chunk, burst_every_period(app),
                     [&] { driver.attach_trace(s.probe); });
      s.steady_allocs += s.allocs_now() - allocs;
      stats = driver.engine_stats();
      account_event(s, before, stats);
      s.counters.frames_rejected += driver.rejected_frames() - rejected;
      s.counters.queue_population =
          std::max<std::uint64_t>(s.counters.queue_population,
                                  bus.in_flight() + net.live_count());
      digest = check_phase(s, net);
      if (last && o.trace) {
        report_layer_probes(net, o, s.counters.queue_population, s.tracer(),
                            r);
      }
    }
    {
      sim::Network net = make_network(n, o.seed);
      sim::EventEngine engine(net, cfg);
      engine.run_cycles(warmup);
      AppProbe app(s, net);
      const double start = engine.now();
      std::size_t k = 0;
      measure_chunks(
          0, chunks, event_rates,
          [&] {
            const std::uint64_t wakeups = engine.stats().wakeups;
            engine.run_until(chunk_end(start, ++k));
            return engine.stats().wakeups - wakeups;
          },
          burst_every_period(app));
      equal = check_phase(s, net) == digest &&
              event_stats_equal(engine.stats(), stats) && equal;
    }
  }
  r.check("digest_loopback_eq_event", equal);
  r.metric("transport.seam_ratio", chunk_rate(event_rates) / chunk_rate(s.rates),
           "ratio");
  if (o.trace) {
    r.metric("transport.loopback_ns", ns_per_exchange(s.rates), "ns");
    r.metric("transport.event_ns", ns_per_exchange(event_rates), "ns");
    r.metric("transport.seam_marginal_ns",
             ns_per_exchange(s.rates) - ns_per_exchange(event_rates), "ns");
  }
  s.finish();
}

// --- figure ------------------------------------------------------------------

namespace {

std::uint64_t series_hash(const std::vector<experiments::MetricsSample>& series) {
  scenarios::Fnv1a h;
  for (const experiments::MetricsSample& m : series) {
    h.mix(m.cycle);
    h.mix(m.live_nodes);
    h.mix_double(m.avg_degree);
    h.mix_double(m.clustering);
    h.mix_double(m.path_length);
    h.mix_double(m.reachable_fraction);
    h.mix(m.components);
    h.mix(m.largest_component);
    h.mix(m.dead_links);
  }
  return h.value();
}

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace

/// Figure 2's growing scenario, end to end: overlay growth from one node,
/// the cycle engine, and the graph/ measurement every 5 cycles — the wait a
/// researcher sees. Repetitions replay the same seed, so their series must
/// hash identically; the final overlay must be one component.
void run_figure(const Options& o, Report& r) {
  experiments::ScenarioParams p;
  p.n = o.smoke ? 1'000 : 10'000;
  p.cycles = 120;  // growth completes at cycle 100
  p.seed = o.seed;
  p.sample_interval = 5;
  p.path_sources = o.smoke ? 10 : 100;
  p.clustering_sample = o.smoke ? 100 : 1'000;
  p.growth_per_cycle = p.n / 100;
  // Set-up is a rehearsal of the same scenario at a tenth of the size (it
  // counts as bootstrap) plus one measurement pass over a full-size random
  // overlay (warm-up), so the graph/ allocations of the timed repetition
  // are not first-use ones.
  experiments::ScenarioParams rehearsal = p;
  rehearsal.n = p.n / 10;
  rehearsal.growth_per_cycle = std::max<std::size_t>(1, rehearsal.n / 100);

  RunState s(o, r);
  bool connected = true;
  bool repeatable = true;
  std::uint64_t first_hash = 0;
  std::uint64_t first_exchanges = 0;
  std::vector<double> cycle_ms;
  const int span_rep = s.tracer() ? s.tracer()->name("experiments.scenario") : 0;
  for (int i = 0; i < 2; ++i) {
    const auto t0 = Clock::now();
    experiments::run_growing_scenario(ProtocolSpec::newscast(), rehearsal);
    const double grown = seconds_since(t0);
    Rng metric_rng(o.seed);
    experiments::measure(make_network(p.n, o.seed), p.cycles, p, metric_rng);
    s.record_setup(t0, grown);
  }
  // A fixed repetition count (about 4 s each) keeps the allocation
  // sequence, and so the peak RSS, the same from run to run.
  const int reps = std::max(2, static_cast<int>(o.seconds / 4));
  for (int rep = 0; rep < reps; ++rep) {
    const bool traced = o.trace && rep == 1;
    const auto t1 = Clock::now();
    experiments::ScenarioResult result = [&] {
      Tracer::Scope span(traced ? s.tracer() : nullptr, span_rep);
      return experiments::run_growing_scenario(ProtocolSpec::newscast(), p);
    }();
    const double rep_s = seconds_since(t1);
    std::uint64_t exchanges = 0, failures = 0;
    for (NodeId id = 0; id < result.network.size(); ++id) {
      exchanges += result.network.arena().stats[id].initiated;
      failures += result.network.arena().stats[id].contact_failures;
    }
    (traced ? s.traced_rates : s.rates)
        .push_back(static_cast<double>(exchanges - failures) / rep_s);
    r.attempted += exchanges;
    r.failed += failures;
    s.counters.failed_contacts += failures;
    const std::uint64_t hash = series_hash(result.series);
    if (rep == 0) {
      first_hash = hash;
      first_exchanges = exchanges;
      r.info("series_hash", hex16(hash));
    }
    repeatable = hash == first_hash && exchanges == first_exchanges && repeatable;
    connected = result.final_sample().components == 1 &&
                result.final_sample().live_nodes == p.n && connected;
    check_phase(s, result.network);
    // The scenario hides its engine, so the application bursts and the
    // traced layer timings run on the returned overlay: a few more cycles
    // of CycleEngine (with the PhaseProbe attached when traced), then
    // experiments::measure and the common probes.
    AppProbe app(s, result.network);
    sim::CycleEngine engine(result.network);
    if (traced) engine.attach_trace(s.probe);
    for (int i = 0; i < 3; ++i) {
      const auto c0 = Clock::now();
      engine.run_cycle();
      cycle_ms.push_back(seconds_since(c0) * 1e3);
      app.burst();
    }
    if (traced) {
      std::vector<double> measure_ms;
      Rng metric_rng(o.seed);
      for (int i = 0; i < 3; ++i) {
        const auto m0 = Clock::now();
        experiments::measure(result.network, p.cycles, p, metric_rng);
        measure_ms.push_back(seconds_since(m0) * 1e3);
      }
      r.metric("experiments.measure_ms", percentile(measure_ms, 0.1), "ms");
      report_layer_probes(result.network, o, 0, s.tracer(), r);
    }
  }
  r.check("series_repeatable", repeatable);
  r.check("final_overlay_connected", connected);
  if (o.trace) {
    r.metric("experiments.cycle_ms", percentile(cycle_ms, 0.1), "ms");
  }
  s.finish();
}

}  // namespace pss::bench
