// Scenario drivers for the paper's three bootstrap conditions (Section 5)
// and the shared metric-recording machinery.
//
// Every driver runs the cycle engine over a network and records a
// MetricsSample at a configurable cycle interval. The estimator parameters
// (BFS source sample, clustering vertex sample) are part of ScenarioParams
// so each bench states them explicitly.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "pss/common/types.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/protocol/spec.hpp"
#include "pss/sim/network.hpp"

namespace pss::experiments {

struct ScenarioParams {
  std::size_t n = 10'000;           ///< target network size (paper: 10^4)
  std::size_t view_size = 30;       ///< c (paper: 30)
  Cycle cycles = 300;               ///< cycles to run (paper: 300)
  std::uint64_t seed = 42;          ///< master seed
  Cycle sample_interval = 5;        ///< record metrics every k cycles
  /// BFS sources for the path-length estimate; a count of at least the
  /// live nodes is the exact all-pairs mean (no draws).
  std::size_t path_sources = 100;
  /// Nodes for the clustering estimate; a count of at least the live
  /// nodes is the exact mean of local coefficients (no draws).
  std::size_t clustering_sample = 1000;
  std::size_t growth_per_cycle = 100;    ///< growing scenario joins per cycle
  bool remove_dead_on_failure = false;   ///< ablation A1 toggle

  ProtocolOptions protocol_options() const {
    return {view_size, remove_dead_on_failure};
  }
};

/// One measurement of the overlay, taken at a cycle boundary.
struct MetricsSample {
  Cycle cycle = 0;
  std::size_t live_nodes = 0;
  double avg_degree = 0;
  double clustering = 0;
  double path_length = 0;
  double reachable_fraction = 1;
  std::size_t components = 0;
  std::size_t largest_component = 0;
  std::uint64_t dead_links = 0;
};

/// Measures the live part of the overlay with the params' estimators,
/// through `census` (rebuilt here; reuse one across samples so its buffers
/// are sized once). Every field is bit-equal to the snapshot-graph oracle
/// (tests/oracle/graph) given the same `metric_rng` state.
/// `metric_rng` drives sampling only (never the protocol itself).
MetricsSample measure(obs::GraphCensus& census, const sim::Network& network,
                      Cycle cycle, const ScenarioParams& params,
                      Rng& metric_rng);

/// The same with a census of its own, for one-off measurements.
MetricsSample measure(const sim::Network& network, Cycle cycle,
                      const ScenarioParams& params, Rng& metric_rng);

/// A scenario run: the recorded series plus the final network state (moved
/// out so failure experiments can continue from the converged overlay).
struct ScenarioResult {
  std::vector<MetricsSample> series;
  sim::Network network;
  const MetricsSample& final_sample() const { return series.back(); }
};

/// Hook invoked before every cycle (used by the growing scenario to inject
/// newcomers); receives the network and the cycle index about to run.
using PreCycleHook = std::function<void(sim::Network&, Cycle)>;

/// Generic driver: runs `params.cycles` cycles over an initialized network,
/// recording metrics at cycle 0 (initial state), every sample_interval, and
/// at the final cycle.
ScenarioResult run_scenario(sim::Network network, const ScenarioParams& params,
                            const PreCycleHook& pre_cycle = {});

/// Section 5.3: views bootstrapped with uniform random samples.
ScenarioResult run_random_scenario(ProtocolSpec spec, const ScenarioParams& params);

/// Section 5.2: ring lattice bootstrap.
ScenarioResult run_lattice_scenario(ProtocolSpec spec, const ScenarioParams& params);

/// Section 5.1: overlay grows from a single node by growth_per_cycle joins
/// per cycle until n is reached (cycle ~n/growth); every newcomer knows only
/// the initial node.
ScenarioResult run_growing_scenario(ProtocolSpec spec, const ScenarioParams& params);

/// Table 1 aggregation: repeats the growing scenario `runs` times (seeds
/// seed, seed+1, ...) and reports partitioning statistics at the final cycle.
struct PartitioningStats {
  ProtocolSpec spec;
  std::size_t runs = 0;
  std::size_t partitioned_runs = 0;
  /// Average cluster count / largest-cluster size over the partitioned runs
  /// (the paper's Table 1 columns); 0 when no run partitioned.
  double avg_clusters = 0;
  double avg_largest = 0;
  double partitioned_fraction() const {
    return runs == 0 ? 0 : static_cast<double>(partitioned_runs) / static_cast<double>(runs);
  }
};
PartitioningStats run_growing_partitioning(ProtocolSpec spec,
                                           const ScenarioParams& params,
                                           std::size_t runs);

}  // namespace pss::experiments
