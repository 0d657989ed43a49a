// Unit tests for the scenario drivers: sampling cadence, growing-overlay
// mechanics, measurement correctness, and reporting helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "pss/experiments/reporting.hpp"
#include "pss/experiments/scenario.hpp"
#include "pss/graph/metrics.hpp"
#include "pss/graph/random_graph.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss::experiments {
namespace {

ScenarioParams small_params() {
  ScenarioParams p;
  p.n = 200;
  p.view_size = 14;  // keeps c/ln(N) near the paper's density regime
  p.cycles = 20;
  p.seed = 42;
  p.sample_interval = 5;
  p.clustering_sample = p.path_sources = p.n;  // exact: no draws
  p.growth_per_cycle = 20;
  return p;
}

/// The graph/ pipeline measure() ran on before it moved onto GraphCensus:
/// materialize the snapshot graph, then the graph::metrics estimators in
/// the same order from the same Rng.
MetricsSample oracle_measure(const sim::Network& net, Cycle cycle,
                             const ScenarioParams& p, Rng& rng) {
  MetricsSample s;
  s.cycle = cycle;
  s.live_nodes = net.live_count();
  s.dead_links = net.count_dead_links();
  const auto g = graph::UndirectedGraph::from_network(net);
  if (g.vertex_count() == 0) return s;
  s.avg_degree = graph::average_degree(g);
  s.clustering =
      graph::clustering_coefficient_sampled(g, p.clustering_sample, rng);
  const auto path = graph::average_path_length_sampled(g, p.path_sources, rng);
  s.path_length = path.average;
  s.reachable_fraction = path.reachable_fraction;
  const auto comp = graph::connected_components(g);
  s.components = comp.count;
  s.largest_component = comp.largest;
  return s;
}

/// The growing scenario replayed independently, sampled with oracle_measure.
/// The metric stream's seed is run_scenario's (params.seed ^ 0xA5A5...).
std::vector<MetricsSample> oracle_growing_series(ProtocolSpec spec,
                                                 const ScenarioParams& p) {
  sim::Network net(spec, p.protocol_options(), p.seed);
  const NodeId origin = net.add_node();
  sim::CycleEngine engine(net);
  Rng rng(p.seed ^ 0xA5A5A5A5A5A5A5A5ULL);
  std::vector<MetricsSample> series{oracle_measure(net, 0, p, rng)};
  for (Cycle cycle = 1; cycle <= p.cycles; ++cycle) {
    const std::size_t room = p.n > net.size() ? p.n - net.size() : 0;
    for (std::size_t i = 0; i < std::min(p.growth_per_cycle, room); ++i) {
      net.node(net.add_node()).init_view(View{{origin, 0}});
    }
    engine.run_cycle();
    if (cycle % p.sample_interval == 0 || cycle == p.cycles) {
      series.push_back(oracle_measure(net, cycle, p, rng));
    }
  }
  return series;
}

TEST(Measure, MatchesDirectGraphMetrics) {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{8, false}, 100, 1);
  ScenarioParams p = small_params();
  Rng rng(2);
  const auto sample = measure(net, 7, p, rng);
  EXPECT_EQ(sample.cycle, 7u);
  EXPECT_EQ(sample.live_nodes, 100u);
  const auto g = graph::UndirectedGraph::from_network(net);
  EXPECT_DOUBLE_EQ(sample.avg_degree, graph::average_degree(g));
  EXPECT_DOUBLE_EQ(sample.clustering, graph::clustering_coefficient(g));
  EXPECT_DOUBLE_EQ(sample.path_length, graph::average_path_length(g).average);
  EXPECT_EQ(sample.components, 1u);
  EXPECT_EQ(sample.largest_component, 100u);
  EXPECT_EQ(sample.dead_links, 0u);
}

TEST(Measure, CountsDeadLinks) {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{8, false}, 50, 3);
  Rng kill_rng(4);
  net.kill_random(10, kill_rng);
  ScenarioParams p = small_params();
  Rng rng(5);
  const auto sample = measure(net, 0, p, rng);
  EXPECT_EQ(sample.live_nodes, 40u);
  EXPECT_GT(sample.dead_links, 0u);
  EXPECT_EQ(sample.dead_links, net.count_dead_links());
}

TEST(RunScenario, SamplesAtExpectedCycles) {
  const auto result = run_random_scenario(ProtocolSpec::newscast(), small_params());
  // Cycle 0, then 5, 10, 15, 20.
  ASSERT_EQ(result.series.size(), 5u);
  EXPECT_EQ(result.series[0].cycle, 0u);
  EXPECT_EQ(result.series[1].cycle, 5u);
  EXPECT_EQ(result.series.back().cycle, 20u);
}

TEST(RunScenario, FinalCycleAlwaysSampled) {
  ScenarioParams p = small_params();
  p.cycles = 7;  // not a multiple of the interval
  const auto result = run_random_scenario(ProtocolSpec::newscast(), p);
  EXPECT_EQ(result.series.back().cycle, 7u);
}

TEST(RunScenario, DeterministicAcrossCalls) {
  const auto a = run_random_scenario(ProtocolSpec::newscast(), small_params());
  const auto b = run_random_scenario(ProtocolSpec::newscast(), small_params());
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.series[i].avg_degree, b.series[i].avg_degree);
    EXPECT_DOUBLE_EQ(a.series[i].clustering, b.series[i].clustering);
  }
}

TEST(RunScenario, LatticeStartsStructured) {
  const auto result = run_lattice_scenario(ProtocolSpec::newscast(), small_params());
  // Initial lattice: very high clustering and path length vs converged.
  const auto& first = result.series.front();
  const auto& last = result.series.back();
  EXPECT_GT(first.clustering, 0.5);
  EXPECT_GT(first.path_length, 2.5 * last.path_length);
  EXPECT_LT(last.clustering, 0.5);
}

TEST(GrowingScenario, PopulationGrowsBySchedule) {
  ScenarioParams p = small_params();
  p.cycles = 15;
  p.sample_interval = 1;
  const auto result = run_growing_scenario(ProtocolSpec::newscast(), p);
  // 1 initial node; +20 per cycle until 200.
  EXPECT_EQ(result.series[0].live_nodes, 1u);
  EXPECT_EQ(result.series[1].live_nodes, 21u);
  EXPECT_EQ(result.series[5].live_nodes, 101u);
  EXPECT_EQ(result.series[10].live_nodes, 200u);  // capped at n
  EXPECT_EQ(result.series[15].live_nodes, 200u);
}

TEST(GrowingScenario, AllocatesPerNodeArraysOnceAtFullSize) {
  // The scenario reserves its final population up front, so growing from
  // one node to n leaves every per-node array at exactly n slots rather
  // than at the last doubling past n (256 for n = 200).
  ScenarioParams p = small_params();
  p.cycles = 12;
  const auto result = run_growing_scenario(ProtocolSpec::newscast(), p);
  ASSERT_EQ(result.network.size(), p.n);
  sim::Network reserved(ProtocolSpec::newscast(), p.protocol_options(), p.seed);
  reserved.reserve_nodes(p.n);
  EXPECT_EQ(result.network.resident_bytes(), reserved.resident_bytes());
}

TEST(GrowingScenario, PushPullAbsorbsJoiners) {
  ScenarioParams p = small_params();
  p.cycles = 40;
  const auto result = run_growing_scenario(ProtocolSpec::newscast(), p);
  const auto& last = result.final_sample();
  EXPECT_EQ(last.components, 1u);
  EXPECT_EQ(last.largest_component, 200u);
  EXPECT_GT(last.avg_degree, 8.0);
}

TEST(GrowingScenario, SeriesBitEqualToGraphOracleSampleBySample) {
  // measure() runs on the scenario's reused GraphCensus; every field of
  // every sample must equal the graph/ pipeline's, doubles bit for bit,
  // with exhaustive and with sampled estimators (the samples exceed the
  // early live counts, so both regimes occur within one series).
  for (const bool exact : {true, false}) {
    SCOPED_TRACE(exact);
    ScenarioParams p = small_params();
    p.cycles = 17;
    p.sample_interval = 2;
    p.clustering_sample = exact ? p.n : 50;
    p.path_sources = exact ? p.n : 70;
    const auto series = run_growing_scenario(ProtocolSpec::newscast(), p).series;
    const auto oracle = oracle_growing_series(ProtocolSpec::newscast(), p);
    ASSERT_EQ(series.size(), oracle.size());
    for (std::size_t i = 0; i < series.size(); ++i) {
      SCOPED_TRACE(series[i].cycle);
      EXPECT_EQ(series[i].cycle, oracle[i].cycle);
      EXPECT_EQ(series[i].live_nodes, oracle[i].live_nodes);
      EXPECT_EQ(series[i].dead_links, oracle[i].dead_links);
      EXPECT_EQ(series[i].avg_degree, oracle[i].avg_degree);
      EXPECT_EQ(series[i].clustering, oracle[i].clustering);
      EXPECT_EQ(series[i].path_length, oracle[i].path_length);
      EXPECT_EQ(series[i].reachable_fraction, oracle[i].reachable_fraction);
      EXPECT_EQ(series[i].components, oracle[i].components);
      EXPECT_EQ(series[i].largest_component, oracle[i].largest_component);
    }
  }
}

TEST(GrowingPartitioning, AggregatesAcrossRuns) {
  ScenarioParams p = small_params();
  p.cycles = 25;
  const auto stats = run_growing_partitioning(ProtocolSpec::newscast(), p, 5);
  EXPECT_EQ(stats.runs, 5u);
  EXPECT_LE(stats.partitioned_runs, 5u);
  EXPECT_EQ(stats.spec, ProtocolSpec::newscast());
  // Newscast (pushpull) should essentially never partition here.
  EXPECT_EQ(stats.partitioned_runs, 0u);
  EXPECT_DOUBLE_EQ(stats.partitioned_fraction(), 0.0);
}

TEST(Reporting, BannerAndSeriesRender) {
  std::ostringstream os;
  ScenarioParams p = small_params();
  print_banner(os, "Fig. X test", "Section 0", p, "extra-note");
  std::vector<MetricsSample> series(2);
  series[1].cycle = 5;
  series[1].avg_degree = 12.5;
  print_series(os, "(rand,head,pushpull)", series, nullptr);
  const auto out = os.str();
  EXPECT_NE(out.find("Fig. X test"), std::string::npos);
  EXPECT_NE(out.find("N=200"), std::string::npos);
  EXPECT_NE(out.find("extra-note"), std::string::npos);
  EXPECT_NE(out.find("(rand,head,pushpull)"), std::string::npos);
  EXPECT_NE(out.find("12.50"), std::string::npos);
}

TEST(Reporting, RandomBaselineMatchesTheory) {
  ScenarioParams p = small_params();
  p.n = 2000;
  p.clustering_sample = p.path_sources = p.n;
  p.view_size = 15;
  const auto baseline = measure_random_baseline(p);
  EXPECT_NEAR(baseline.avg_degree,
              graph::expected_random_view_degree(2000, 15), 0.5);
  EXPECT_GT(baseline.path_length, 1.5);
  EXPECT_LT(baseline.clustering, 0.05);
}

TEST(Reporting, RandomBaselineBitEqualToGraphOracle) {
  // The oracle's random c-out graph from the same stream, then its
  // estimators continuing that stream: sampled, and over every node.
  for (const std::size_t sample : {std::size_t{40}, std::size_t{400}}) {
    SCOPED_TRACE(sample);
    ScenarioParams p = small_params();
    p.n = 400;
    p.view_size = 9;
    p.clustering_sample = p.path_sources = sample;
    Rng rng(p.seed ^ 0xBA5E11FE5EEDULL);
    const auto g = graph::random_view_graph(p.n, p.view_size, rng);
    const double avg_degree = graph::average_degree(g);
    const double clustering =
        graph::clustering_coefficient_sampled(g, p.clustering_sample, rng);
    const double path_length =
        graph::average_path_length_sampled(g, p.path_sources, rng).average;
    const auto baseline = measure_random_baseline(p);
    EXPECT_EQ(baseline.avg_degree, avg_degree);
    EXPECT_EQ(baseline.clustering, clustering);
    EXPECT_EQ(baseline.path_length, path_length);
  }
}

TEST(ScenarioParams, ProtocolOptionsPropagation) {
  ScenarioParams p;
  p.view_size = 17;
  p.remove_dead_on_failure = true;
  const auto opts = p.protocol_options();
  EXPECT_EQ(opts.view_size, 17u);
  EXPECT_TRUE(opts.remove_dead_on_failure);
}

}  // namespace
}  // namespace pss::experiments
