#include "pss/experiments/failure.hpp"

#include <algorithm>

#include "pss/common/check.hpp"
#include "pss/graph/metrics.hpp"
#include "pss/graph/undirected_graph.hpp"
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

  // Snapshot the views once; every trial filters this same topology.
  std::vector<View> views;
  views.reserve(n);
  std::vector<std::uint32_t> vertex_of(converged.size(),
                                       graph::UndirectedGraph::kNoVertex);
  for (std::uint32_t v = 0; v < n; ++v) vertex_of[live[v]] = v;

  // Re-index the views into the compact [0, n) vertex space.
  for (NodeId id : live) {
    std::vector<NodeDescriptor> entries;
    for (const auto& d : converged.view_span(id)) {
      if (d.address < vertex_of.size() &&
          vertex_of[d.address] != graph::UndirectedGraph::kNoVertex) {
        entries.push_back({vertex_of[d.address], d.hop_count});
      }
    }
    views.emplace_back(std::move(entries));
  }

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
      std::vector<std::uint8_t> alive(n, 1);
      for (std::size_t idx : rng.sample_indices(n, remove_count)) alive[idx] = 0;
      // Survivor graph: edges between surviving endpoints only.
      std::vector<std::pair<std::uint32_t, std::uint32_t>> edges;
      std::vector<std::uint32_t> compact(n, graph::UndirectedGraph::kNoVertex);
      std::uint32_t survivors = 0;
      for (std::uint32_t v = 0; v < n; ++v) {
        if (alive[v]) compact[v] = survivors++;
      }
      for (std::uint32_t v = 0; v < n; ++v) {
        if (!alive[v]) continue;
        for (const auto& d : views[v].entries()) {
          if (alive[d.address]) edges.emplace_back(compact[v], compact[d.address]);
        }
      }
      graph::UndirectedGraph g(survivors, std::move(edges));
      const auto comp = graph::connected_components(g);
      outside_sum += static_cast<double>(comp.outside_largest());
      if (comp.count > 1) ++partitioned;
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
