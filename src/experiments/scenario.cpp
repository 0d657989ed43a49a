#include "pss/experiments/scenario.hpp"

#include <algorithm>

#include "pss/common/check.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss::experiments {

MetricsSample measure(obs::GraphCensus& census, const sim::Network& network,
                      Cycle cycle, const ScenarioParams& params,
                      Rng& metric_rng) {
  MetricsSample s;
  s.cycle = cycle;
  census.rebuild(network);
  const std::size_t n = census.live_count();
  s.live_nodes = n;
  s.dead_links = census.dead_link_count();
  if (n == 0) return s;
  // graph::average_degree's expression, on the same edge count.
  s.avg_degree = 2.0 * static_cast<double>(census.undirected_edge_count()) /
                 static_cast<double>(n);
  // A sample of every live node is the exact estimator (no draws).
  s.clustering = census.clustering_sampled(
      params.exact_metrics ? n : params.clustering_sample, metric_rng);
  const auto path = census.path_length_sampled(
      params.exact_metrics ? n : params.path_sources, metric_rng);
  s.path_length = path.average;
  s.reachable_fraction = path.reachable_fraction;
  s.components = census.components().count;
  s.largest_component = census.components().largest;
  return s;
}

MetricsSample measure(const sim::Network& network, Cycle cycle,
                      const ScenarioParams& params, Rng& metric_rng) {
  obs::GraphCensus census;
  return measure(census, network, cycle, params, metric_rng);
}

ScenarioResult run_scenario(sim::Network network, const ScenarioParams& params,
                            const PreCycleHook& pre_cycle) {
  PSS_CHECK_MSG(params.sample_interval > 0, "sample interval must be positive");
  // Metric sampling gets its own stream so estimator noise never perturbs
  // the protocol trajectory.
  Rng metric_rng(params.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  ScenarioResult result{.series = {}, .network = std::move(network)};
  sim::CycleEngine engine(result.network);
  // One census for the whole run, sized before the first sample for the
  // largest population the run reaches, so the samples of a growing
  // overlay reuse one set of buffers instead of regrowing them with it.
  obs::GraphCensus census;
  census.reserve(std::max(params.n, result.network.size()),
                 result.network.options().view_size);
  result.series.push_back(measure(census, result.network, 0, params, metric_rng));
  for (Cycle cycle = 1; cycle <= params.cycles; ++cycle) {
    if (pre_cycle) pre_cycle(result.network, cycle);
    engine.run_cycle();
    if (cycle % params.sample_interval == 0 || cycle == params.cycles) {
      result.series.push_back(
          measure(census, result.network, cycle, params, metric_rng));
    }
  }
  return result;
}

ScenarioResult run_random_scenario(ProtocolSpec spec, const ScenarioParams& params) {
  auto network = sim::bootstrap::make_random(spec, params.protocol_options(),
                                             params.n, params.seed);
  return run_scenario(std::move(network), params);
}

ScenarioResult run_lattice_scenario(ProtocolSpec spec, const ScenarioParams& params) {
  auto network = sim::bootstrap::make_lattice(spec, params.protocol_options(),
                                              params.n, params.seed);
  return run_scenario(std::move(network), params);
}

ScenarioResult run_growing_scenario(ProtocolSpec spec, const ScenarioParams& params) {
  sim::Network network(spec, params.protocol_options(), params.seed);
  // Every per-node array is allocated once at its final size instead of
  // regrowing by doubling on the way from 1 node to n.
  network.reserve_nodes(params.n);
  const NodeId origin = network.add_node();
  const std::size_t target = params.n;
  auto grow = [origin, target, growth = params.growth_per_cycle](
                  sim::Network& net, Cycle) {
    std::size_t room = target > net.size() ? target - net.size() : 0;
    const std::size_t batch = std::min(growth, room);
    // A newcomer knows only the oldest (initial) node — the paper's most
    // pessimistic bootstrap.
    const NodeDescriptor contact{origin, 0};
    for (std::size_t i = 0; i < batch; ++i) {
      net.arena().views.assign(net.add_node(), {&contact, 1});
    }
  };
  return run_scenario(std::move(network), params, grow);
}

PartitioningStats run_growing_partitioning(ProtocolSpec spec,
                                           const ScenarioParams& params,
                                           std::size_t runs) {
  PSS_CHECK_MSG(runs > 0, "at least one run required");
  PartitioningStats stats;
  stats.spec = spec;
  stats.runs = runs;
  double cluster_sum = 0;
  double largest_sum = 0;
  for (std::size_t r = 0; r < runs; ++r) {
    ScenarioParams p = params;
    p.seed = params.seed + r;
    // Partitioning statistics only need the final topology: skip interior
    // metric sampling for speed. The final cycle is always sampled, so the
    // last sample's components are the census's components() of the final
    // overlay.
    p.sample_interval = params.cycles > 0 ? params.cycles : 1;
    const auto result = run_growing_scenario(spec, p);
    const MetricsSample& last = result.final_sample();
    if (last.components > 1) {
      ++stats.partitioned_runs;
      cluster_sum += static_cast<double>(last.components);
      largest_sum += static_cast<double>(last.largest_component);
    }
  }
  if (stats.partitioned_runs > 0) {
    stats.avg_clusters = cluster_sum / static_cast<double>(stats.partitioned_runs);
    stats.avg_largest = largest_sum / static_cast<double>(stats.partitioned_runs);
  }
  return stats;
}

}  // namespace pss::experiments
