// Degree time-series tracing (paper Table 2 and Figure 5).
//
// After convergence, the undirected degree of a set of fixed random nodes
// is recorded for K consecutive cycles. Table 2 reports, per protocol:
//   D_K — mean degree over all nodes in the last traced cycle,
//   d̄   — mean over traced nodes of their per-node time-averaged degree,
//   √σ  — standard deviation (sample, n-1) of those per-node time averages.
// Figure 5 shows the autocorrelation of a single traced node's series.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/experiments/scenario.hpp"
#include "pss/protocol/spec.hpp"

namespace pss::experiments {

struct DegreeTraceResult {
  /// series[i][t] = degree of traced node i after traced cycle t (t < K).
  std::vector<std::vector<double>> series;
  /// Mean degree over ALL live nodes in the last traced cycle (D_K).
  double final_avg_degree = 0;

  /// d̄: mean of per-node time averages.
  double mean_of_node_means() const;
  /// √σ: sample standard deviation of per-node time averages.
  double stddev_of_node_means() const;
};

/// Runs the random-init scenario for params.cycles warm-up cycles, picks
/// `traced` random live nodes, then records their degrees for K further
/// cycles. Degrees come from the streaming obs::GraphCensus (no snapshot
/// graph per cycle); tests/obs_test.cpp replays every traced cycle against
/// the snapshot-graph oracle.
DegreeTraceResult run_degree_trace(ProtocolSpec spec, const ScenarioParams& params,
                                   std::size_t traced, Cycle trace_cycles);

}  // namespace pss::experiments
