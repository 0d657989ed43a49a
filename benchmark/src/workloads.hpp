// The six workloads and the per-run state they share.
//
// Every workload runs as a sequence of phases. A phase stands an engine or
// driver up from scratch (bootstrap, construction, warm-up: its set-up
// time), measures chunks of work for its share of --seconds (each chunk's
// exchanges/s is one sample; between chunks an application calls getPeer()
// on a few nodes), then checks its outputs. Untraced runs report the
// end-to-end metrics; trace runs halve each primary window (untraced, then
// with a PhaseProbe attached — the ratio is the tracing overhead) and add
// the layer probes.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "pss/protocol/spec.hpp"
#include "pss/sim/network.hpp"

namespace pss::bench {

inline constexpr std::size_t kViewSize = 30;  ///< the paper's c

/// Counters of layers a workload may not use (zero there, by definition).
struct LayerCounters {
  std::uint64_t failed_contacts = 0;
  std::uint64_t queue_population = 0;
  std::uint64_t slab_high_water = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t replies_stale = 0;
  std::uint64_t udp_send_failures = 0;
};

class RunState {
 public:
  RunState(const Options& options, Report& report);

  /// The tracer in trace runs, null otherwise.
  Tracer* tracer() { return options.trace ? &tracer_ : nullptr; }

  /// Records one phase's set-up: `start` is when its bootstrap began and
  /// `bootstrap_s` how long that took; the rest up to now is warm-up.
  void record_setup(Clock::time_point start, double bootstrap_s);

  /// Folds one burst of getPeer timings (first and second calls) into
  /// per-burst medians and clears the inputs.
  void add_getpeer_burst(std::vector<double>& first,
                         std::vector<double>& second);

  /// Operator-new calls so far, minus those of application probes — the
  /// count window allocation checks difference.
  std::uint64_t allocs_now() const { return alloc_count() - excluded_allocs; }

  /// Checks the primary windows allocated fewer than once per 10^5
  /// exchanges initiated in the run.
  void check_steady_allocs();

  /// Emits the metrics and checks every workload shares and writes the
  /// span file.
  void finish();

  const Options& options;
  Report& report;
  CpuRotation rotation;  ///< paused around the parallel engines' phases
  PhaseProbe probe;
  LayerCounters counters;
  std::vector<double> rates;         ///< primary path, untraced chunks
  std::vector<double> traced_rates;  ///< primary path with the probe on
  std::vector<double> setups;        ///< per phase: bootstrap + warm-up
  std::vector<double> bootstraps;
  std::vector<double> warmups;
  std::vector<double> getpeer_bursts;         ///< per-burst median, 1st call
  std::vector<double> getpeer_cached_bursts;  ///< per-burst median, 2nd call
  std::uint64_t steady_allocs = 0;   ///< operator-new calls, primary windows
  std::uint64_t excluded_allocs = 0; ///< made by AppProbe bursts
  bool views_ok = true;    ///< every checked view met I1–I3
  bool getpeer_ok = true;  ///< every getPeer returned a peer, never self
  double arena_bytes_per_node = 0;

  // Span names every workload uses.
  int span_window = 0;
  int span_chunk = 0;
  int span_check = 0;
  int span_getpeer = 0;

 private:
  Tracer tracer_;
};

/// The application on a phase's overlay: a fixed sample of nodes, each of
/// whose applications calls getPeer() twice once gossip has changed its
/// view — what udp-open's daemon does after every tick. Construction
/// builds the nodes' View caches; burst() (call it only after every sampled
/// node's view changed, e.g. after a cycle or a period) times a rebuild
/// and a cached call per node. getPeer never touches simulation state, and
/// its allocations are kept out of the window's count.
class AppProbe {
 public:
  AppProbe(RunState& state, sim::Network& net);
  void burst();

 private:
  RunState* state_;
  sim::Network* net_;
  std::vector<NodeId> nodes_;
  std::vector<double> first_;
  std::vector<double> second_;
};

/// A run's throughput from its per-chunk exchanges/s samples: the 90th
/// percentile. Co-tenant contention on a shared host toggles every few
/// seconds and only ever slows a chunk down, so the fast tail is what
/// repeats from run to run; the median moves with the mix of host states.
inline double chunk_rate(const std::vector<double>& rates) {
  return percentile(rates, 0.9);
}

/// Newscast (rand, head, pushpull) with c = 30 over n random-bootstrapped
/// nodes — the configuration every workload shares.
sim::Network make_network(std::size_t n, std::uint64_t seed);

void run_cycle_hot(const Options& options, Report& report);
void run_cycle_cold(const Options& options, Report& report);
void run_event(const Options& options, Report& report);
void run_loopback(const Options& options, Report& report);
void run_figure(const Options& options, Report& report);
void run_udp_open(const Options& options, Report& report);

}  // namespace pss::bench
