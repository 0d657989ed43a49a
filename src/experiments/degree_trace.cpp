#include "pss/experiments/degree_trace.hpp"

#include "pss/common/check.hpp"
#include "pss/obs/degree_autocorrelation.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/stats/descriptive.hpp"

namespace pss::experiments {

double DegreeTraceResult::mean_of_node_means() const {
  stats::Accumulator acc;
  for (const auto& node_series : series) acc.add(stats::mean(node_series));
  return acc.mean();
}

double DegreeTraceResult::stddev_of_node_means() const {
  stats::Accumulator acc;
  for (const auto& node_series : series) acc.add(stats::mean(node_series));
  return acc.stddev_sample();
}

DegreeTraceResult run_degree_trace(ProtocolSpec spec, const ScenarioParams& params,
                                   std::size_t traced, Cycle trace_cycles) {
  PSS_CHECK_MSG(traced > 0 && trace_cycles > 0, "trace dimensions must be positive");
  ScenarioParams converge = params;
  converge.sample_interval = params.cycles > 0 ? params.cycles : 1;
  auto result = run_random_scenario(spec, converge);
  sim::Network network = std::move(result.network);

  Rng rng(params.seed ^ 0x7E57AB1E5EEDULL);
  const auto live = network.live_nodes();
  PSS_CHECK_MSG(traced <= live.size(), "cannot trace more nodes than exist");
  auto picks = rng.sample_indices(live.size(), traced);
  std::vector<NodeId> traced_nodes;
  traced_nodes.reserve(traced);
  for (std::size_t p : picks) traced_nodes.push_back(live[p]);

  DegreeTraceResult trace;
  sim::CycleEngine engine(network);

  // Union degrees straight off the arena census — no edge-list or
  // snapshot-graph materialization per traced cycle.
  obs::GraphCensus census;
  obs::DegreeAutocorrelation tracker(traced_nodes, trace_cycles);
  for (Cycle t = 0; t < trace_cycles; ++t) {
    engine.run_cycle();
    census.rebuild(network);
    for (const NodeId node : traced_nodes) {
      PSS_CHECK_MSG(network.is_live(node),
                    "traced node disappeared from the overlay");
    }
    tracker.record(census);
    if (t + 1 == trace_cycles) {
      trace.final_avg_degree =
          census.live_count() == 0
              ? 0
              : 2.0 * static_cast<double>(census.undirected_edge_count()) /
                    static_cast<double>(census.live_count());
    }
  }
  trace.series.reserve(traced);
  for (std::size_t i = 0; i < traced; ++i) {
    const auto s = tracker.series(i);
    trace.series.emplace_back(s.begin(), s.end());
  }
  return trace;
}

}  // namespace pss::experiments
