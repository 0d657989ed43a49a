#include "pss/experiments/reporting.hpp"

#include <algorithm>

#include "pss/common/check.hpp"
#include "pss/common/table.hpp"
#include "pss/obs/schemas.hpp"

namespace pss::experiments {

void print_banner(std::ostream& os, const std::string& experiment,
                  const std::string& paper_ref, const ScenarioParams& params,
                  const std::string& extra) {
  os << "=== " << experiment << " ===\n";
  os << "reproduces: " << paper_ref << "\n";
  os << "parameters: N=" << params.n << " c=" << params.view_size
     << " cycles=" << params.cycles << " seed=" << params.seed
     << " | estimators: path-BFS-sources=" << params.path_sources
     << " clustering-sample=" << params.clustering_sample;
  if (!extra.empty()) os << " | " << extra;
  os << "\n";
  os << "(set PSS_FULL=1 for paper-scale defaults; PSS_N / PSS_CYCLES / "
        "PSS_RUNS / PSS_SEED override individually)\n\n";
}

void print_series(std::ostream& os, const std::string& protocol,
                  const std::vector<MetricsSample>& series,
                  obs::MetricSink* sink) {
  os << "protocol " << protocol << "\n";
  TextTable table;
  table.row()
      .cell("cycle")
      .cell("live")
      .cell("avg_degree")
      .cell("clustering")
      .cell("path_len")
      .cell("components")
      .cell("largest")
      .cell("dead_links");
  for (const auto& s : series) {
    table.row()
        .cell(static_cast<std::int64_t>(s.cycle))
        .cell(static_cast<std::int64_t>(s.live_nodes))
        .cell(s.avg_degree, 2)
        .cell(s.clustering, 4)
        .cell(s.path_length, 3)
        .cell(static_cast<std::int64_t>(s.components))
        .cell(static_cast<std::int64_t>(s.largest_component))
        .cell(static_cast<std::int64_t>(s.dead_links));
    if (sink != nullptr) {
      sink->row({std::string_view(protocol), s.cycle, s.live_nodes,
                 s.avg_degree, s.clustering, s.path_length,
                 s.reachable_fraction, s.components, s.largest_component,
                 s.dead_links});
    }
  }
  table.print(os);
  os << "\n";
}

BaselineMetrics measure_random_baseline(const ScenarioParams& params) {
  PSS_CHECK_MSG(params.n >= 2, "graph needs at least two vertices");
  Rng rng(params.seed ^ 0xBA5E11FE5EEDULL);
  // Node v's view: c distinct uniform draws from the other n - 1 nodes.
  // The network's own master Rng drives nothing here.
  sim::Network network(ProtocolSpec{}, params.protocol_options(), 0);
  network.add_nodes(params.n);
  const std::size_t out = std::min(params.view_size, params.n - 1);
  std::vector<NodeDescriptor> view(out);
  for (NodeId v = 0; v < params.n; ++v) {
    const auto picks = rng.sample_indices(params.n - 1, out);
    for (std::size_t i = 0; i < out; ++i) {
      view[i] = {static_cast<NodeId>(picks[i] < v ? picks[i] : picks[i] + 1), 0};
    }
    std::sort(view.begin(), view.end(), ByHopThenAddress{});
    network.arena().views.assign(v, view);
  }
  const MetricsSample s = measure(network, 0, params, rng);
  return {s.avg_degree, s.clustering, s.path_length};
}

}  // namespace pss::experiments
