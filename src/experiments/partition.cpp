#include "pss/experiments/partition.hpp"

#include "pss/common/check.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss::experiments {

PartitionResult run_partition_experiment(ProtocolSpec spec,
                                         const ScenarioParams& params,
                                         double split_fraction,
                                         Cycle partition_cycles,
                                         Cycle post_cycles) {
  PSS_CHECK_MSG(split_fraction > 0 && split_fraction < 1,
                "split fraction must be in (0,1)");
  // Converge without interior metric sampling.
  ScenarioParams converge = params;
  converge.sample_interval = params.cycles > 0 ? params.cycles : 1;
  auto scenario = run_random_scenario(spec, converge);
  sim::Network network = std::move(scenario.network);
  sim::CycleEngine engine(network);

  // Split a random subset into group 1.
  Rng rng(params.seed ^ 0x9A97171090ULL);
  const auto live = network.live_nodes();
  const auto split_count = static_cast<std::size_t>(
      static_cast<double>(live.size()) * split_fraction + 0.5);
  for (std::size_t idx : rng.sample_indices(live.size(), split_count)) {
    network.set_partition_group(live[idx], 1);
  }

  PartitionResult result;
  result.cross_links_at_split = network.count_cross_partition_links();
  result.cross_links_during.reserve(partition_cycles);
  for (Cycle i = 0; i < partition_cycles; ++i) {
    engine.run_cycle();
    result.cross_links_during.push_back(network.count_cross_partition_links());
  }
  result.cross_links_at_heal = network.count_cross_partition_links();

  network.clear_partitions();
  engine.run(post_cycles);
  obs::GraphCensus census;
  census.rebuild(network);
  result.components_after_rejoin = census.components().count;
  result.largest_after_rejoin = census.components().largest;
  return result;
}

}  // namespace pss::experiments
