// Figure 4 — "Degree distributions on the log-log scale, when starting
// from a random topology", snapshots at cycles 0 (the random topology),
// 3, 30 and 300, for the 8 evaluated protocols.
//
// Expected shape (paper): the protocols split sharply by VIEW SELECTION.
// Head view selection keeps a narrow, balanced distribution that reaches
// its final shape within a few cycles; rand view selection develops an
// unbalanced heavy tail (degrees several times c) and converges slowly.
// Degree is always >= c because every node keeps c out-links.
//
// Snapshots run on the streaming GraphCensus (no edge-list/snapshot-graph
// materialization), whose histograms are bit-identical to the snapshot-graph
// oracle's (tests/obs_test.cpp).
#include <algorithm>
#include <iostream>

#include "bench_util.hpp"
#include "pss/experiments/reporting.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/stats/histogram.hpp"

int main() {
  using namespace pss;
  auto params = bench::scaled_params(/*quick_n=*/2000, /*quick_cycles=*/150);

  experiments::print_banner(
      std::cout, "Figure 4 — degree distributions from the random topology",
      "Jelasity et al., Middleware 2004, Fig. 4", params);

  // Snapshot cycles: exponentially spaced as in the paper (0, 3, 30, 300),
  // clamped to the configured horizon.
  std::vector<Cycle> snapshots = {0, 3, 30, 300};
  for (auto& s : snapshots) s = std::min<Cycle>(s, params.cycles);
  snapshots.erase(std::unique(snapshots.begin(), snapshots.end()),
                  snapshots.end());

  static constexpr obs::FieldSpec kFields[] = {
      {"protocol", obs::FieldType::kStr},
      {"cycle", obs::FieldType::kU64},
      {"degree", obs::FieldType::kU64},
      {"count", obs::FieldType::kU64},
  };
  static constexpr obs::MetricSchema kSchema{
      "pss.bench.fig4_degree_distribution", 1, kFields, std::size(kFields)};
  bench::BenchTrace trace(
      "fig4_degree_distribution", kSchema,
      bench::run_metadata("fig4_degree_distribution", "cycle", params));

  obs::GraphCensus census;  // scratch reused across protocols and snapshots
  for (const auto& spec : ProtocolSpec::evaluated()) {
    std::cout << "protocol " << spec.name() << "\n";
    auto network = sim::bootstrap::make_random(spec, params.protocol_options(),
                                               params.n, params.seed);
    sim::CycleEngine engine(network);
    for (Cycle snapshot : snapshots) {
      engine.run(snapshot - engine.cycle());
      census.rebuild(network);
      stats::Histogram hist;
      const auto counts = census.degree_histogram();
      for (std::size_t d = 0; d < counts.size(); ++d) {
        if (counts[d] > 0) hist.add(d, counts[d]);
      }
      hist.print_loglog(std::cout,
                        "  cycle " + std::to_string(snapshot) + "  (mean=" +
                            format_double(census.degree_stats().mean, 1) +
                            " max=" +
                            std::to_string(census.degree_stats().max) + ")");
      const std::string spec_name = spec.name();
      for (const auto& [degree, count] : hist.points()) {
        trace.row({std::string_view(spec_name),
                   static_cast<std::uint64_t>(snapshot),
                   static_cast<std::uint64_t>(degree),
                   static_cast<std::uint64_t>(count)});
      }
    }
    std::cout << "\n";
  }
  trace.finish(std::cout);
  return 0;
}
