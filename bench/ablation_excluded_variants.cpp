// Ablation A4 — the degenerate design-space regions excluded in
// Section 4.3:
//   (head,*,*)  "results in severe clustering",
//   (*,tail,*)  "cannot handle dynamism (joining nodes) at all",
//   (*,*,pull)  "converges to a star topology".
// The paper drops these after preliminary experiments; this bench IS that
// preliminary experiment, made reproducible.
#include <cmath>
#include <iostream>
#include <set>

#include "bench_util.hpp"
#include "pss/common/table.hpp"
#include "pss/experiments/reporting.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"

int main() {
  using namespace pss;
  auto params = bench::scaled_params(/*quick_n=*/1000, /*quick_cycles=*/80,
                                     /*full_cycles=*/150);
  params.growth_per_cycle = std::max<std::size_t>(1, params.n / 50);

  experiments::print_banner(
      std::cout, "Ablation A4 — degeneracies of the excluded variants",
      "Jelasity et al., Middleware 2004, Section 4.3", params);

  static constexpr obs::FieldSpec kFields[] = {
      {"protocol", obs::FieldType::kStr},
      {"metric", obs::FieldType::kStr},
      {"value", obs::FieldType::kF64},
  };
  static constexpr obs::MetricSchema kSchema{
      "pss.bench.ablation_excluded_variants", 1, kFields, std::size(kFields)};
  bench::BenchTrace trace(
      "ablation_excluded_variants", kSchema,
      bench::run_metadata("ablation_excluded_variants", "cycle", params));

  TextTable table;
  table.row()
      .cell("protocol")
      .cell("clustering")
      .cell("max degree")
      .cell("degree stddev")
      .cell("latecomers known");

  auto report = [&](const ProtocolSpec& spec) {
    // Converged state from random bootstrap.
    auto net = sim::bootstrap::make_random(spec, params.protocol_options(),
                                           params.n, params.seed);
    sim::CycleEngine engine(net);
    engine.run(params.cycles);
    obs::GraphCensus census;
    census.rebuild(net);
    Rng metric_rng(params.seed ^ 0xC0FFEEULL);
    const double clustering =
        census.clustering_sampled(params.clustering_sample, metric_rng);
    const obs::DegreeStats summary = census.degree_stats();

    // Joiner visibility from the growing scenario: how many of the
    // last-joined half are referenced by anyone at the end?
    auto grown = experiments::run_growing_scenario(spec, params);
    std::set<NodeId> referenced;
    for (NodeId id = 0; id < grown.network.size(); ++id) {
      for (const auto& d : grown.network.view_span(id)) {
        if (d.address >= params.n / 2) referenced.insert(d.address);
      }
    }
    const double known_fraction = static_cast<double>(referenced.size()) /
                                  (static_cast<double>(params.n) / 2);
    table.row()
        .cell(spec.name())
        .cell(clustering, 4)
        .cell(static_cast<std::int64_t>(summary.max))
        .cell(std::sqrt(summary.variance), 2)
        .cell(format_double(100 * known_fraction, 1) + "%");
    const std::string spec_name = spec.name();
    trace.row({std::string_view(spec_name), "clustering", clustering});
    trace.row({std::string_view(spec_name), "max_degree",
               static_cast<double>(summary.max)});
    trace.row({std::string_view(spec_name), "degree_stddev",
               std::sqrt(summary.variance)});
    trace.row({std::string_view(spec_name), "latecomers_known", known_fraction});
  };

  // Healthy control first, then one representative of each degeneracy.
  report(ProtocolSpec::newscast());
  report({PeerSelection::kHead, ViewSelection::kHead, ViewPropagation::kPushPull});
  report({PeerSelection::kRand, ViewSelection::kTail, ViewPropagation::kPushPull});
  report({PeerSelection::kRand, ViewSelection::kHead, ViewPropagation::kPull});

  table.print(std::cout);
  std::cout << "\nexpected shape: row 2 (head peer selection) has clustering "
               "far above the control; row 3 (tail view selection) leaves "
               "latecomers unknown; row 4 (pull) grows a hub (max degree and "
               "stddev explode).\n";
  trace.finish(std::cout);
  return 0;
}
