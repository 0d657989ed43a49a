#include "pss/experiments/failure.hpp"

#include "pss/common/check.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss::experiments {

std::vector<RemovalPoint> run_static_robustness(const sim::Network& converged,
                                                const std::vector<double>& fractions,
                                                std::size_t trials,
                                                std::uint64_t seed) {
  PSS_CHECK_MSG(trials > 0, "at least one trial required");
  Rng rng(seed);
  const auto live = converged.live_nodes();
  const std::size_t n = live.size();
  PSS_CHECK_MSG(n >= 2, "need a populated overlay");

  // One copy of the converged views: every trial kills its sample in it,
  // measures the survivors and revives the sample with its views restored,
  // so each trial sees this same topology.
  sim::Network survivors(converged.spec(), converged.options(), 0);
  survivors.add_nodes(converged.size());
  for (NodeId id = 0; id < converged.size(); ++id) {
    if (converged.is_live(id)) {
      survivors.arena().views.assign(id, converged.view_span(id));
    } else {
      survivors.kill(id);
    }
  }
  obs::GraphCensus census;

  std::vector<RemovalPoint> out;
  out.reserve(fractions.size());
  for (double fraction : fractions) {
    PSS_CHECK_MSG(fraction >= 0 && fraction < 1, "fraction must be in [0,1)");
    const auto remove_count = static_cast<std::size_t>(
        static_cast<double>(n) * fraction + 0.5);
    RemovalPoint point;
    point.removed_fraction = fraction;
    point.trials = trials;
    double outside_sum = 0;
    std::size_t partitioned = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto picks = rng.sample_indices(n, remove_count);
      for (std::size_t idx : picks) survivors.kill(live[idx]);
      // The census keeps edges between live endpoints only: the survivor
      // graph.
      census.rebuild(survivors);
      outside_sum += static_cast<double>(census.components().outside_largest);
      if (census.components().count > 1) ++partitioned;
      for (std::size_t idx : picks) {
        const NodeId id = live[idx];
        survivors.revive(id);  // with an empty view
        survivors.arena().views.assign(id, converged.view_span(id));
      }
    }
    point.avg_outside_largest = outside_sum / static_cast<double>(trials);
    point.partitioned_fraction =
        static_cast<double>(partitioned) / static_cast<double>(trials);
    out.push_back(point);
  }
  return out;
}

std::size_t SelfHealingResult::cycles_to_reach(std::uint64_t target) const {
  for (std::size_t i = 0; i < dead_links.size(); ++i) {
    if (dead_links[i] <= target) return i + 1;
  }
  return kNever;
}

SelfHealingResult run_self_healing(ProtocolSpec spec, const ScenarioParams& params,
                                   Cycle extra_cycles, double kill_fraction) {
  PSS_CHECK_MSG(kill_fraction > 0 && kill_fraction < 1,
                "kill fraction must be in (0,1)");
  // Converge from the random bootstrap without interior metric sampling.
  ScenarioParams converge = params;
  converge.sample_interval = params.cycles > 0 ? params.cycles : 1;
  auto result = run_random_scenario(spec, converge);
  sim::Network network = std::move(result.network);

  Rng rng(params.seed ^ 0x5EEDFA11DEADBEEFULL);
  const auto kill_count = static_cast<std::size_t>(
      static_cast<double>(network.live_count()) * kill_fraction + 0.5);
  network.kill_random(kill_count, rng);

  SelfHealingResult healing;
  healing.failure_cycle = params.cycles;
  healing.dead_links_at_failure = network.count_dead_links();
  sim::CycleEngine engine(network);
  healing.dead_links.reserve(extra_cycles);
  for (Cycle i = 0; i < extra_cycles; ++i) {
    engine.run_cycle();
    healing.dead_links.push_back(network.count_dead_links());
  }
  return healing;
}

}  // namespace pss::experiments
