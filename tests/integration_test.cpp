// Integration tests: miniature versions of the paper's experiments with
// assertions on the qualitative shape of each published result.
#include <gtest/gtest.h>

#include <set>

#include "pss/experiments/degree_trace.hpp"
#include "pss/experiments/failure.hpp"
#include "pss/experiments/reporting.hpp"
#include "pss/experiments/scenario.hpp"
#include "pss/graph/metrics.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/stats/autocorrelation.hpp"
#include "pss/stats/descriptive.hpp"

namespace pss::experiments {
namespace {

// Miniature paper parameters. The c / ln(N) density ratio matters: the
// paper runs N = 10^4 with c = 30 (ratio ~3.3); tests use N = 500 with
// c = 20 (ratio ~3.2) so the overlays sit in the same connectivity regime.
ScenarioParams mini() {
  ScenarioParams p;
  p.n = 500;
  p.view_size = 20;
  p.cycles = 60;
  p.seed = 2024;
  p.sample_interval = 10;
  p.path_sources = 100;
  p.clustering_sample = 200;
  p.growth_per_cycle = 25;
  return p;
}

// --- Section 5 / Figures 2-3: convergence ---------------------------------

TEST(PaperShape, LatticeAndRandomConvergeToSameState) {
  // Self-organization: the converged clustering coefficient and degree are
  // independent of the initial configuration.
  const auto spec = ProtocolSpec::newscast();
  const auto lattice = run_lattice_scenario(spec, mini());
  const auto random = run_random_scenario(spec, mini());
  const auto& l = lattice.final_sample();
  const auto& r = random.final_sample();
  EXPECT_NEAR(l.avg_degree, r.avg_degree, 0.25 * r.avg_degree);
  EXPECT_NEAR(l.path_length, r.path_length, 0.25 * r.path_length);
  EXPECT_NEAR(l.clustering, r.clustering, 0.3 * r.clustering);
  EXPECT_LT(l.clustering, 0.45);  // lattice started at ~0.7
  EXPECT_EQ(l.components, 1u);
  EXPECT_EQ(r.components, 1u);
}

TEST(PaperShape, ConvergedClusteringAboveRandomBaseline) {
  // "In all cases ... the clustering coefficient is significantly larger
  // than that of the random graph" (Section 8).
  const auto result = run_random_scenario(ProtocolSpec::newscast(), mini());
  const auto baseline = measure_random_baseline(mini());
  EXPECT_GT(result.final_sample().clustering, baseline.clustering);
  // While path length stays almost as small as the random graph.
  EXPECT_LT(result.final_sample().path_length, 1.6 * baseline.path_length);
}

TEST(PaperShape, GrowingScenarioPushPullConnects) {
  ScenarioParams p = mini();
  p.cycles = 80;
  // Match the paper's relative growth rate (10^4 nodes at 100/cycle = 1% of
  // the final size per cycle); the default mini rate of 5%/cycle is a much
  // harsher join load than the experiment being reproduced.
  p.growth_per_cycle = 10;
  // Newscast absorbs the growing overlay completely.
  const auto newscast_run = run_growing_scenario(ProtocolSpec::newscast(), p);
  EXPECT_EQ(newscast_run.final_sample().components, 1u);
  // (tail,head,pushpull) is also stable in the paper (Table 1 lists only
  // push protocols as partitioning); at miniature scale the single-contact
  // bootstrap occasionally splits off a sliver, so assert a giant component
  // instead of strict connectivity.
  const ProtocolSpec tail_pp{PeerSelection::kTail, ViewSelection::kHead,
                             ViewPropagation::kPushPull};
  const auto tail_run = run_growing_scenario(tail_pp, p);
  EXPECT_GE(tail_run.final_sample().largest_component, p.n * 9 / 10);
}

TEST(PaperShape, GrowingScenarioPushFarBehindPushPull) {
  // Table 1 / Figure 2: push-only protocols partition at paper scale and
  // converge extremely slowly. At miniature scale partitioning is not
  // guaranteed, but the slow-convergence signature is robust: shortly after
  // growth ends, the push overlay is much sparser (star-dominated) than the
  // pushpull overlay.
  ScenarioParams p = mini();
  p.cycles = 20;  // exactly when growth completes: the gap is at its widest
  const ProtocolSpec push_head{PeerSelection::kRand, ViewSelection::kHead,
                               ViewPropagation::kPush};
  const auto push_run = run_growing_scenario(push_head, p);
  const auto pushpull_run = run_growing_scenario(ProtocolSpec::newscast(), p);
  const bool partitioned = push_run.final_sample().components > 1;
  const bool far_behind = push_run.final_sample().avg_degree <
                          0.6 * pushpull_run.final_sample().avg_degree;
  EXPECT_TRUE(partitioned || far_behind)
      << "push degree " << push_run.final_sample().avg_degree << " vs pushpull "
      << pushpull_run.final_sample().avg_degree;
}

// --- Section 6 / Figure 4, Table 2: degree distribution -------------------

TEST(PaperShape, HeadViewSelectionGivesNarrowerDegreesThanRand) {
  ScenarioParams p = mini();
  const auto head = run_degree_trace(ProtocolSpec::newscast(), p, 20, 40);
  const ProtocolSpec rand_vs{PeerSelection::kRand, ViewSelection::kRand,
                             ViewPropagation::kPushPull};
  const auto rand = run_degree_trace(rand_vs, p, 20, 40);
  // Table 2's key contrast: sqrt(sigma) is several times larger for rand
  // view selection; per-node oscillation amplitude likewise.
  EXPECT_LT(head.stddev_of_node_means() * 2, rand.stddev_of_node_means());
  // And the average degree under rand is higher (heavier tail).
  EXPECT_GT(rand.final_avg_degree, head.final_avg_degree);
}

TEST(PaperShape, DegreeTraceDimensionsAndPlausibility) {
  ScenarioParams p = mini();
  const auto trace = run_degree_trace(ProtocolSpec::newscast(), p, 10, 25);
  ASSERT_EQ(trace.series.size(), 10u);
  for (const auto& s : trace.series) {
    ASSERT_EQ(s.size(), 25u);
    for (double d : s) {
      EXPECT_GE(d, static_cast<double>(p.view_size));  // degree >= c
      EXPECT_LT(d, static_cast<double>(p.n));
    }
  }
  // d-bar close to D_K: node means hover around the global mean.
  EXPECT_NEAR(trace.mean_of_node_means(), trace.final_avg_degree,
              0.2 * trace.final_avg_degree);
}

// --- Figure 5: autocorrelation --------------------------------------------

TEST(PaperShape, HeadSelectionDegreeSeriesNearWhiteRandSelectionCorrelated) {
  ScenarioParams p = mini();
  const auto head = run_degree_trace(ProtocolSpec::newscast(), p, 5, 60);
  const ProtocolSpec rand_vs{PeerSelection::kRand, ViewSelection::kRand,
                             ViewPropagation::kPushPull};
  const auto rand = run_degree_trace(rand_vs, p, 5, 60);
  double head_excess = 0, rand_excess = 0;
  for (int i = 0; i < 5; ++i) {
    head_excess += stats::autocorrelation_excess_fraction(head.series[i], 20);
    rand_excess += stats::autocorrelation_excess_fraction(rand.series[i], 20);
  }
  // (rand,head,pushpull) is "practically random"; (*,rand,*) shows strong
  // short-term correlation (Figure 5).
  EXPECT_LT(head_excess, rand_excess);
  EXPECT_GT(rand_excess / 5, 0.25);
}

// --- Figure 7: self-healing -----------------------------------------------

TEST(PaperShape, SelfHealingSpeedRanking) {
  ScenarioParams p = mini();
  p.cycles = 40;
  const auto newscast = run_self_healing(ProtocolSpec::newscast(), p, 25, 0.5);
  const ProtocolSpec tail_rand_push{PeerSelection::kTail, ViewSelection::kRand,
                                    ViewPropagation::kPush};
  const auto worst = run_self_healing(tail_rand_push, p, 25, 0.5);
  // Newscast removes essentially all dead links; (tail,rand,push) barely
  // heals (the paper observed it can even accumulate dead links).
  EXPECT_EQ(newscast.dead_links.back(), 0u);
  EXPECT_GT(worst.dead_links.back(), worst.dead_links_at_failure / 2);
}

// --- Section 4.3: excluded degenerate variants ----------------------------

TEST(PaperShape, HeadPeerSelectionClustersSeverely) {
  // (head,*,*) "results in severe clustering".
  ScenarioParams p = mini();
  p.cycles = 40;
  const ProtocolSpec head_ps{PeerSelection::kHead, ViewSelection::kHead,
                             ViewPropagation::kPushPull};
  const auto head_run = run_random_scenario(head_ps, p);
  const auto newscast_run = run_random_scenario(ProtocolSpec::newscast(), p);
  EXPECT_GT(head_run.final_sample().clustering,
            2 * newscast_run.final_sample().clustering);
}

TEST(PaperShape, PullOnlyDegeneratesTowardStar) {
  // (*,*,pull) "converges to a star topology": degree variance explodes
  // compared with pushpull.
  ScenarioParams p = mini();
  p.n = 300;
  p.cycles = 50;
  const ProtocolSpec pull_only{PeerSelection::kRand, ViewSelection::kHead,
                               ViewPropagation::kPull};
  auto pull_net = sim::bootstrap::make_random(pull_only, p.protocol_options(),
                                              p.n, p.seed);
  sim::CycleEngine pull_engine(pull_net);
  pull_engine.run(p.cycles);
  const auto pull_summary =
      graph::degree_summary(graph::UndirectedGraph::from_network(pull_net));

  auto pp_net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                            p.protocol_options(), p.n, p.seed);
  sim::CycleEngine pp_engine(pp_net);
  pp_engine.run(p.cycles);
  const auto pp_summary =
      graph::degree_summary(graph::UndirectedGraph::from_network(pp_net));
  EXPECT_GT(pull_summary.max, 2 * pp_summary.max);
  EXPECT_GT(pull_summary.variance, 10 * pp_summary.variance);
}

TEST(PaperShape, TailViewSelectionMakesJoinersInvisible) {
  // (*,tail,*) "cannot handle dynamism (joining nodes) at all": keeping the
  // OLDEST descriptors means fresh descriptors of newcomers are always
  // truncated away, so late joiners acquire (almost) no in-links — they can
  // reach the old core but the rest of the network never learns they exist.
  ScenarioParams p = mini();
  p.n = 200;
  p.cycles = 60;
  p.growth_per_cycle = 10;
  const ProtocolSpec tail_vs{PeerSelection::kRand, ViewSelection::kTail,
                             ViewPropagation::kPushPull};
  auto count_known_latecomers = [&](const ScenarioResult& result) {
    // How many distinct nodes from the last-joined half appear in any view?
    std::set<NodeId> referenced;
    for (NodeId id = 0; id < result.network.size(); ++id) {
      for (const auto& d : result.network.view_span(id)) {
        if (d.address >= p.n / 2) referenced.insert(d.address);
      }
    }
    return referenced.size();
  };
  const auto tail_run = run_growing_scenario(tail_vs, p);
  const auto good_run = run_growing_scenario(ProtocolSpec::newscast(), p);
  const auto tail_known = count_known_latecomers(tail_run);
  const auto good_known = count_known_latecomers(good_run);
  // Under Newscast essentially every latecomer is referenced somewhere;
  // under tail view selection almost none are.
  EXPECT_GT(good_known, p.n / 2 * 3 / 4);
  EXPECT_LT(tail_known, good_known / 4)
      << "tail-known=" << tail_known << " good-known=" << good_known;
}

}  // namespace
}  // namespace pss::experiments
