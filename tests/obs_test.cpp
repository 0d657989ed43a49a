// The streaming observability contract, in three parts:
//   1. Equivalence — GraphCensus observables vs the exact graph::metrics
//      pipeline on the same snapshots: bit-equal degree histograms,
//      summaries and component structure; sampled estimators reproduce the
//      exact module's estimators draw-for-draw from a cloned Rng, and stay
//      within documented error bounds of the fully exact values.
//   2. Probe cadence — attach_probe fires at exactly the promised
//      cycle/tick multiples on all three engines.
//   3. Non-perturbation — a run with a StreamingObserver attached ends in a
//      bit-identical network state (views, liveness, per-node stats and Rng
//      stream positions) and engine stats as a run without probes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "pss/experiments/degree_trace.hpp"
#include "pss/graph/metrics.hpp"
#include "pss/graph/undirected_graph.hpp"
#include "pss/obs/degree_autocorrelation.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/obs/streaming_observer.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"
#include "pss/stats/autocorrelation.hpp"

namespace pss {
namespace {

sim::Network make_converged(ProtocolSpec spec, std::size_t n, Cycle cycles,
                            std::uint64_t seed = 42, std::size_t c = 8) {
  sim::Network net(spec, ProtocolOptions{c, false}, seed);
  net.add_nodes(n);
  sim::bootstrap::init_random(net);
  sim::CycleEngine engine(net);
  engine.run(cycles);
  return net;
}

/// Estimator sample sizes around the BFS's 64-source batch boundaries, plus
/// exhaustive (every live node, no draws).
std::vector<std::size_t> sample_sizes(std::size_t live) {
  return {1, 63, 64, 65, 129, live};
}

/// A converged overlay that exercises every adjacency filter the estimators
/// apply: dead targets (killed nodes still listed in views), mutual edges
/// (pushpull exchanges, and a hand-made pair), self entries' absence, and
/// several components (a three-node island holding a dead link, plus an
/// isolated node).
sim::Network make_rugged(ProtocolSpec spec, std::uint64_t seed,
                         std::size_t view_size = 8) {
  sim::Network net = make_converged(spec, 400, 10, seed, view_size);
  net.kill_random(80, net.rng());
  NodeId dead = 0;
  while (net.is_live(dead)) ++dead;
  const NodeId a = net.add_node();
  const NodeId b = net.add_node();
  const NodeId c = net.add_node();
  net.add_node();  // isolated
  net.node(a).init_view(View{{b, 0}});
  net.node(b).init_view(View{{a, 0}, {dead, 1}});
  net.node(c).init_view(View{{b, 0}});
  return net;
}

/// Census vs exact pipeline on one snapshot: everything streamed must be
/// bit-equal (integers and doubles alike — the census mirrors the exact
/// module's accumulation order).
void expect_census_matches_exact(const sim::Network& net) {
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);

  ASSERT_EQ(census.live_count(), g.vertex_count());
  EXPECT_EQ(census.undirected_edge_count(), g.edge_count());

  // Per-node degrees (union graph).
  for (std::uint32_t v = 0; v < g.vertex_count(); ++v) {
    const NodeId addr = g.address_of(v);
    EXPECT_EQ(census.undirected_degree(addr), g.degree(v));
  }

  // Histogram: bit-equal, including size (= max degree + 1).
  const auto exact_hist = graph::degree_histogram(g);
  const auto hist = census.degree_histogram();
  ASSERT_EQ(hist.size(), exact_hist.size());
  for (std::size_t d = 0; d < hist.size(); ++d) {
    EXPECT_EQ(hist[d], exact_hist[d]) << "degree " << d;
  }

  // Summary: bit-equal doubles (same accumulation order).
  const auto exact_sum = graph::degree_summary(g);
  EXPECT_EQ(census.degree_stats().min, exact_sum.min);
  EXPECT_EQ(census.degree_stats().max, exact_sum.max);
  EXPECT_EQ(census.degree_stats().mean, exact_sum.mean);
  EXPECT_EQ(census.degree_stats().variance, exact_sum.variance);

  // Components: count, largest, full size multiset.
  const auto exact_comp = graph::connected_components(g);
  EXPECT_EQ(census.components().count, exact_comp.count);
  EXPECT_EQ(census.components().largest, exact_comp.largest);
  EXPECT_EQ(census.components().outside_largest, exact_comp.outside_largest());
  const auto sizes = census.component_sizes();
  ASSERT_EQ(sizes.size(), exact_comp.sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], exact_comp.sizes[i]);
  }
}

/// Census estimators vs the exact module's from cloned Rngs at every
/// batch-boundary sample size: bit-equal doubles, and both Rngs left at
/// the same stream position.
void expect_estimators_match_exact(const sim::Network& net) {
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);
  for (const std::size_t k : sample_sizes(census.live_count())) {
    SCOPED_TRACE(k);
    Rng census_rng(1000 + k);
    Rng exact_rng(1000 + k);
    EXPECT_EQ(census.clustering_sampled(k, census_rng),
              graph::clustering_coefficient_sampled(g, k, exact_rng));
    const auto path = census.path_length_sampled(k, census_rng);
    const auto exact = graph::average_path_length_sampled(g, k, exact_rng);
    EXPECT_EQ(path.average, exact.average);
    EXPECT_EQ(path.reachable_fraction, exact.reachable_fraction);
    EXPECT_EQ(path.diameter, exact.diameter);
    EXPECT_EQ(census_rng.below(1u << 20), exact_rng.below(1u << 20));
  }
}

TEST(GraphCensus, MatchesExactPipelineAcrossProtocols) {
  for (const auto& spec : ProtocolSpec::evaluated()) {
    sim::Network net = make_converged(spec, 500, 20);
    SCOPED_TRACE(spec.name());
    expect_census_matches_exact(net);
  }
}

TEST(GraphCensus, MatchesExactWithDeadNodesAndDeadLinks) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 600, 15);
  net.kill_random(150, net.rng());  // views now carry dead links
  expect_census_matches_exact(net);

  // Keep gossiping over the damaged overlay, then re-check.
  sim::CycleEngine engine(net);
  engine.run(5);
  expect_census_matches_exact(net);
}

TEST(GraphCensus, MatchesExactOnFragmentedOverlay) {
  // Kill enough of a sparse overlay to fragment it: component accounting
  // must agree with exact union-find on a multi-component graph.
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{3, false}, 7);
  net.add_nodes(300);
  sim::bootstrap::init_random(net);
  sim::CycleEngine engine(net);
  engine.run(10);
  net.kill_random(200, net.rng());
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);
  EXPECT_EQ(census.components().count, graph::connected_components(g).count);
  expect_census_matches_exact(net);
}

TEST(GraphCensus, EmptyAndTinyNetworks) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{4, false}, 1);
  obs::GraphCensus census;
  census.rebuild(net);
  EXPECT_EQ(census.live_count(), 0u);
  EXPECT_EQ(census.components().count, 0u);
  EXPECT_EQ(census.degree_histogram().size(), 1u);

  net.add_node();  // one isolated node
  census.rebuild(net);
  EXPECT_EQ(census.live_count(), 1u);
  EXPECT_EQ(census.components().count, 1u);
  EXPECT_EQ(census.components().largest, 1u);
  EXPECT_EQ(census.undirected_degree(0), 0u);
}

TEST(GraphCensus, RebuildReusesBuffersAcrossSnapshots) {
  // The same census object must stay correct when reused over an evolving
  // network (stale state from earlier snapshots must never leak). And after
  // the warm-up snapshot (rebuild plus both estimators) no persistent buffer
  // grows: not the CSR, not the mutual bits (one word per node at c = 8,
  // two at c = 70), not the lanes' address sets, on one lane or four.
  for (const std::size_t c : {8u, 70u}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE("c=" + std::to_string(c) + " threads=" +
                   std::to_string(threads));
      sim::Network net =
          make_converged(ProtocolSpec::newscast(), 400, 5, 42, c);
      sim::ThreadPool pool(threads);
      obs::GraphCensus census;
      if (threads > 1) census.set_thread_pool(&pool);
      sim::CycleEngine engine(net);
      Rng rng(3);
      // Sample sizes below a third of the live count keep sample_indices on
      // its rejection path, which needs no scratch, before and after the
      // kill below.
      const auto snapshot = [&] {
        census.rebuild(net);
        (void)census.clustering_sampled(50, rng);
        (void)census.path_length_sampled(30, rng);
        return census.storage_bytes();
      };
      const std::size_t warm_bytes = snapshot();
      for (int i = 0; i < 4; ++i) {
        engine.run(3);
        EXPECT_EQ(snapshot(), warm_bytes);
        const auto g = graph::UndirectedGraph::from_network(net);
        ASSERT_EQ(census.undirected_edge_count(), g.edge_count());
        ASSERT_EQ(census.degree_stats().mean, graph::degree_summary(g).mean);
      }
      net.kill_random(100, net.rng());
      EXPECT_EQ(snapshot(), warm_bytes);
      expect_census_matches_exact(net);
    }
  }
}

/// Every streamed observable of two censuses over the same snapshot.
void expect_same_census(const obs::GraphCensus& a, const obs::GraphCensus& b) {
  ASSERT_EQ(a.live_count(), b.live_count());
  EXPECT_TRUE(std::equal(a.live_list().begin(), a.live_list().end(),
                         b.live_list().begin()));
  EXPECT_EQ(a.directed_edge_count(), b.directed_edge_count());
  EXPECT_EQ(a.undirected_edge_count(), b.undirected_edge_count());
  EXPECT_EQ(a.dead_link_count(), b.dead_link_count());
  EXPECT_EQ(a.cross_partition_link_count(), b.cross_partition_link_count());
  for (const NodeId id : a.live_list()) {
    ASSERT_EQ(a.out_degree(id), b.out_degree(id));
    ASSERT_EQ(a.in_degree(id), b.in_degree(id));
    ASSERT_EQ(a.undirected_degree(id), b.undirected_degree(id));
  }
  const auto ah = a.degree_histogram();
  const auto bh = b.degree_histogram();
  ASSERT_EQ(ah.size(), bh.size());
  EXPECT_TRUE(std::equal(ah.begin(), ah.end(), bh.begin()));
  EXPECT_EQ(a.degree_stats().mean, b.degree_stats().mean);
  EXPECT_EQ(a.degree_stats().variance, b.degree_stats().variance);
  EXPECT_EQ(a.in_degree_stats().variance, b.in_degree_stats().variance);
  EXPECT_EQ(a.out_degree_stats().variance, b.out_degree_stats().variance);
  EXPECT_EQ(a.components().count, b.components().count);
  EXPECT_EQ(a.components().largest, b.components().largest);
  const auto as = a.component_sizes();
  const auto bs = b.component_sizes();
  ASSERT_EQ(as.size(), bs.size());
  EXPECT_TRUE(std::equal(as.begin(), as.end(), bs.begin()));
}

TEST(GraphCensus, ReservedCensusKeepsItsStorageWhileTheNetworkGrows) {
  // The growing scenario's census: reserved once for the final n, then
  // rebuilt (with both exact estimators) while the overlay grows from one
  // node to n. Its storage must not move from the first snapshot on, and
  // at every size it must read what a fresh census reads.
  constexpr std::size_t kN = 300;
  constexpr std::size_t kC = 8;
  for (const unsigned threads : {1u, 4u}) {
    SCOPED_TRACE(threads);
    sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{kC, false}, 9);
    const NodeId origin = net.add_node();
    sim::ThreadPool pool(threads);
    obs::GraphCensus census;
    if (threads > 1) census.set_thread_pool(&pool);
    census.reserve(kN, kC);
    sim::CycleEngine engine(net);
    Rng rng(4);
    std::size_t first_bytes = 0;
    for (int step = 0; net.size() <= kN; ++step) {
      SCOPED_TRACE(net.size());
      census.rebuild(net);
      const std::size_t live = census.live_count();
      const double clustering = census.clustering_sampled(live, rng);
      const auto path = census.path_length_sampled(live, rng);
      if (step == 0) first_bytes = census.storage_bytes();
      EXPECT_EQ(census.storage_bytes(), first_bytes);

      obs::GraphCensus fresh;
      fresh.rebuild(net);
      expect_same_census(census, fresh);
      EXPECT_EQ(fresh.clustering_sampled(live, rng), clustering);
      const auto fresh_path = fresh.path_length_sampled(live, rng);
      EXPECT_EQ(fresh_path.average, path.average);
      EXPECT_EQ(fresh_path.reachable_fraction, path.reachable_fraction);
      EXPECT_EQ(fresh_path.diameter, path.diameter);

      if (net.size() == kN) break;
      // Newcomers know only the first node, as in the growing scenario;
      // a few kills leave dead links behind.
      const NodeDescriptor contact{origin, 0};
      for (int i = 0; i < 13 && net.size() < kN; ++i) {
        net.arena().views.assign(net.add_node(), {&contact, 1});
      }
      if (step % 5 == 4) net.kill_random(3, net.rng());
      engine.run_cycle();
    }
    EXPECT_EQ(net.size(), kN);
  }
}

TEST(GraphCensus, DeadLinkTallyIsBitEqualToNetworkCount) {
  // The dead-link tally folded into census pass 1 must agree exactly with
  // Network::count_dead_links on every overlay shape: clean, churned, and
  // after further gossip over the damaged views.
  sim::Network net = make_converged(ProtocolSpec::newscast(), 600, 15);
  obs::GraphCensus census;
  census.rebuild(net);
  EXPECT_EQ(census.dead_link_count(), 0u);
  EXPECT_EQ(census.dead_link_count(), net.count_dead_links());

  net.kill_random(200, net.rng());
  census.rebuild(net);
  EXPECT_GT(census.dead_link_count(), 0u);
  EXPECT_EQ(census.dead_link_count(), net.count_dead_links());

  sim::CycleEngine engine(net);
  engine.run(4);
  census.rebuild(net);
  EXPECT_EQ(census.dead_link_count(), net.count_dead_links());
  EXPECT_EQ(census.cross_partition_link_count(), 0u);  // no partitions
}

TEST(GraphCensus, CrossPartitionTallyIsBitEqualToNetworkCount) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 500, 20);
  // Split the converged overlay down the middle: cross-group view entries
  // are exactly the pre-split links between halves.
  for (NodeId id = 0; id < net.size(); ++id) {
    net.set_partition_group(id, id % 2);
  }
  obs::GraphCensus census;
  census.rebuild(net);
  EXPECT_GT(census.cross_partition_link_count(), 0u);
  EXPECT_EQ(census.cross_partition_link_count(),
            net.count_cross_partition_links());

  // Kill some nodes: dead targets leave the cross tally (they are dead
  // links now) — both counters must track the reclassification identically.
  net.kill_random(120, net.rng());
  census.rebuild(net);
  EXPECT_EQ(census.dead_link_count(), net.count_dead_links());
  EXPECT_EQ(census.cross_partition_link_count(),
            net.count_cross_partition_links());

  // Gossip within the split, then heal it: the cross tally must collapse
  // to zero through the same code path that computed it.
  sim::CycleEngine engine(net);
  engine.run(5);
  census.rebuild(net);
  EXPECT_EQ(census.dead_link_count(), net.count_dead_links());
  EXPECT_EQ(census.cross_partition_link_count(),
            net.count_cross_partition_links());
  net.clear_partitions();
  census.rebuild(net);
  EXPECT_EQ(census.cross_partition_link_count(), 0u);
  EXPECT_EQ(census.cross_partition_link_count(),
            net.count_cross_partition_links());
}

TEST(GraphCensus, SampledClusteringReproducesExactModuleDrawForDraw) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 800, 25);
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);

  Rng streaming_rng(1234);
  Rng exact_rng(1234);
  const double streamed = census.clustering_sampled(200, streaming_rng);
  const double exact = graph::clustering_coefficient_sampled(g, 200, exact_rng);
  EXPECT_EQ(streamed, exact);

  // Exhaustive sample: equals the fully exact coefficient, rng untouched.
  Rng unused(99);
  EXPECT_EQ(census.clustering_sampled(10'000, unused),
            graph::clustering_coefficient(g));
}

TEST(GraphCensus, SampledClusteringWithinErrorBoundOfExact) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 1000, 30);
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);
  const double exact = graph::clustering_coefficient(g);
  Rng rng(5);
  // Documented bound (docs/ARCHITECTURE.md): a 300-vertex sample of a
  // 10^3-node overlay stays within ±0.05 absolute of the exact coefficient.
  EXPECT_NEAR(census.clustering_sampled(300, rng), exact, 0.05);
}

TEST(GraphCensus, SampledPathLengthReproducesExactModuleDrawForDraw) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 800, 25);
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);

  Rng streaming_rng(777);
  Rng exact_rng(777);
  const auto streamed = census.path_length_sampled(40, streaming_rng);
  const auto exact = graph::average_path_length_sampled(g, 40, exact_rng);
  EXPECT_EQ(streamed.average, exact.average);
  EXPECT_EQ(streamed.reachable_fraction, exact.reachable_fraction);
  EXPECT_EQ(streamed.diameter, exact.diameter);

  // Exhaustive: equals the all-sources exact result, rng untouched.
  Rng unused(99);
  const auto all = census.path_length_sampled(10'000, unused);
  const auto exact_all = graph::average_path_length(g);
  EXPECT_EQ(all.average, exact_all.average);
  EXPECT_EQ(all.reachable_fraction, exact_all.reachable_fraction);
  EXPECT_EQ(all.diameter, exact_all.diameter);
}

TEST(GraphCensus, SampledPathLengthWithinErrorBoundOfExact) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 1000, 30);
  obs::GraphCensus census;
  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);
  const auto exact = graph::average_path_length(g);
  Rng rng(11);
  // Documented bound: 32 BFS sources estimate the all-pairs mean within 5%
  // relative on a connected small-world overlay.
  const auto est = census.path_length_sampled(32, rng);
  EXPECT_NEAR(est.average, exact.average, 0.05 * exact.average);
  // The c=8 overlay can carry a few stragglers outside the giant
  // component; the sampled fraction tracks the exact one.
  EXPECT_NEAR(est.reachable_fraction, exact.reachable_fraction, 0.05);
}

TEST(GraphCensus, PathLengthOnDisconnectedOverlayCountsReachablePairsOnly) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{3, false}, 7);
  net.add_nodes(300);
  sim::bootstrap::init_random(net);
  sim::CycleEngine engine(net);
  engine.run(10);
  net.kill_random(200, net.rng());
  obs::GraphCensus census;
  census.rebuild(net);
  if (census.components().count < 2) GTEST_SKIP() << "overlay stayed connected";
  const auto g = graph::UndirectedGraph::from_network(net);
  const auto exact = graph::average_path_length(g);
  Rng unused(3);
  const auto est = census.path_length_sampled(census.live_count(), unused);
  EXPECT_EQ(est.average, exact.average);
  EXPECT_EQ(est.reachable_fraction, exact.reachable_fraction);
  EXPECT_LT(est.reachable_fraction, 1.0);
}

TEST(GraphCensus, EstimatorsBitEqualToExactModuleAcrossProtocols) {
  // The bit-parallel BFS and the mutual-bit clustering against the
  // graph::metrics oracle, from cloned Rngs, on every evaluated protocol:
  // the same draws and bit-equal doubles at every batch-boundary size. At
  // c = 30 union degrees run past 64, so neighbourhoods span many words of
  // the address set.
  for (const std::size_t c : {8u, 30u}) {
    for (const auto& spec : ProtocolSpec::evaluated()) {
      SCOPED_TRACE(spec.name() + " c=" + std::to_string(c));
      const sim::Network net = make_rugged(spec, 31, c);
      obs::GraphCensus census;
      census.rebuild(net);
      ASSERT_GT(census.live_count(), 129u);
      ASSERT_GE(census.components().count, 3u);
      ASSERT_GT(census.dead_link_count(), 0u);
      ASSERT_LT(census.undirected_edge_count(), census.directed_edge_count());
      expect_census_matches_exact(net);
      expect_estimators_match_exact(net);
    }
  }
}

TEST(GraphCensus, MatchesExactAtWideViews) {
  // The mutual bits take ⌈c/64⌉ words per node: one at c = 30, two at
  // c = 70, where entries 64 and up land in the second word.
  for (const std::size_t c : {30u, 70u}) {
    SCOPED_TRACE(c);
    sim::Network net = make_converged(ProtocolSpec::newscast(), 500, 15, 42, c);
    ASSERT_GT(net.view_span(0).size(), c == 70 ? 64u : 0u);
    expect_census_matches_exact(net);
    expect_estimators_match_exact(net);
  }
}

TEST(GraphCensus, StarOverlayMatchesExact) {
  // A fresh star: the hub's in-list and neighbourhood span N − 1 ≫ 64
  // addresses and every hub entry is mutual. Then one cycle of gossip, which
  // links the hub's neighbours to each other.
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{30, false}, 5);
  net.add_nodes(300);
  sim::bootstrap::init_star(net);
  obs::GraphCensus census;
  census.rebuild(net);
  ASSERT_EQ(census.undirected_degree(0), 299u);
  expect_census_matches_exact(net);
  expect_estimators_match_exact(net);
  sim::CycleEngine engine(net);
  engine.run(1);
  census.rebuild(net);
  ASSERT_GT(census.degree_stats().max, 64u);
  expect_census_matches_exact(net);
  expect_estimators_match_exact(net);
}

TEST(GraphCensusParallel, RebuildBitEqualToSequentialAtEveryLaneCount) {
  // The set_thread_pool contract: every streamed observable is
  // bit-identical to the sequential rebuild at any lane count, including
  // on an overlay with dead links and cross-partition links so all three
  // pass-1 tallies are non-trivial; at c = 8 and at c = 30, and on a pool
  // of one lane as well as several.
  for (const std::size_t c : {8u, 30u}) {
    SCOPED_TRACE(c);
    auto net = make_converged(ProtocolSpec::newscast(), 400, 12, 19, c);
    net.kill_random(60, net.rng());
    for (NodeId id = 0; id < net.size(); ++id) {
      net.set_partition_group(id, id % 2);
    }
    obs::GraphCensus seq;
    seq.rebuild(net);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      SCOPED_TRACE(threads);
      sim::ThreadPool pool(threads);
      obs::GraphCensus par;
      par.set_thread_pool(&pool);
      par.rebuild(net);
      expect_same_census(seq, par);
    }
  }
}

TEST(GraphCensusParallel, EstimatorsBitEqualToSequentialAtEveryLaneCount) {
  // Sampled estimators from cloned Rngs: same draws, same per-pick values,
  // same reductions — doubles compare with EXPECT_EQ, not near. The sample
  // sizes straddle the BFS's 64-source batches, up to exhaustive; views
  // of c = 8 and c = 30, pools of one lane and several.
  for (const std::size_t c : {8u, 30u}) {
    SCOPED_TRACE(c);
    auto net = make_converged(ProtocolSpec::newscast(), 350, 12, 23, c);
    net.kill_random(40, net.rng());
    obs::GraphCensus seq;
    seq.rebuild(net);
    for (const std::size_t k : sample_sizes(seq.live_count())) {
      SCOPED_TRACE(k);
      Rng seq_rng(77 + k);
      const double seq_clust = seq.clustering_sampled(k, seq_rng);
      const auto seq_path = seq.path_length_sampled(k, seq_rng);
      const std::uint64_t seq_probe = seq_rng.below(1u << 20);
      for (unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        sim::ThreadPool pool(threads);
        obs::GraphCensus par;
        par.set_thread_pool(&pool);
        par.rebuild(net);
        Rng par_rng(77 + k);
        EXPECT_EQ(seq_clust, par.clustering_sampled(k, par_rng));
        const auto par_path = par.path_length_sampled(k, par_rng);
        EXPECT_EQ(seq_path.average, par_path.average);
        EXPECT_EQ(seq_path.reachable_fraction, par_path.reachable_fraction);
        EXPECT_EQ(seq_path.diameter, par_path.diameter);
        // The Rng clones must sit at the same stream position afterwards.
        EXPECT_EQ(seq_probe, par_rng.below(1u << 20));
      }
    }
  }
}

TEST(DegreeAutocorrelation, TracksPanelDegreesAndMatchesStatsModule) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 300, 10);
  const std::vector<NodeId> panel = {3, 77, 150};
  obs::DegreeAutocorrelation tracker(panel, 20);
  obs::GraphCensus census;
  sim::CycleEngine engine(net);

  std::vector<std::vector<double>> expected(panel.size());
  for (Cycle t = 0; t < 20; ++t) {
    engine.run_cycle();
    census.rebuild(net);
    tracker.record(census);
    for (std::size_t i = 0; i < panel.size(); ++i) {
      expected[i].push_back(
          static_cast<double>(census.undirected_degree(panel[i])));
    }
  }
  ASSERT_EQ(tracker.recorded_cycles(), 20u);
  for (std::size_t i = 0; i < panel.size(); ++i) {
    const auto series = tracker.series(i);
    ASSERT_EQ(series.size(), expected[i].size());
    for (std::size_t t = 0; t < series.size(); ++t) {
      EXPECT_EQ(series[t], expected[i][t]);
    }
    const auto r = tracker.autocorrelation(i, 5);
    const auto want = stats::autocorrelation(expected[i], 5);
    ASSERT_EQ(r.size(), want.size());
    for (std::size_t k = 0; k < r.size(); ++k) EXPECT_EQ(r[k], want[k]);
  }
  EXPECT_DOUBLE_EQ(tracker.autocorrelation(0, 3)[0], 1.0);

  // Recording past capacity is an explicit no-op.
  tracker.record(census);
  EXPECT_EQ(tracker.recorded_cycles(), 20u);
}

TEST(DegreeTrace, StreamingPathMatchesLegacyExactPath) {
  // The degree-trace experiment ported onto the census must reproduce the
  // legacy UndirectedGraph-per-cycle path number for number.
  experiments::ScenarioParams params;
  params.n = 300;
  params.view_size = 8;
  params.cycles = 10;
  params.seed = 21;

  const auto streaming = experiments::run_degree_trace(
      ProtocolSpec::newscast(), params, /*traced=*/4, /*trace_cycles=*/8);
  params.exact_metrics = true;
  const auto exact = experiments::run_degree_trace(
      ProtocolSpec::newscast(), params, /*traced=*/4, /*trace_cycles=*/8);

  ASSERT_EQ(streaming.series.size(), exact.series.size());
  for (std::size_t i = 0; i < streaming.series.size(); ++i) {
    ASSERT_EQ(streaming.series[i].size(), exact.series[i].size());
    for (std::size_t t = 0; t < streaming.series[i].size(); ++t) {
      EXPECT_EQ(streaming.series[i][t], exact.series[i][t]);
    }
  }
  EXPECT_DOUBLE_EQ(streaming.final_avg_degree, exact.final_avg_degree);
}

// --- Probe cadence ----------------------------------------------------------

class CountingProbe final : public sim::SnapshotProbe {
 public:
  void on_snapshot(const sim::Network& network, Cycle cycle) override {
    fired.push_back(cycle);
    live_seen.push_back(network.live_count());
  }
  std::vector<Cycle> fired;
  std::vector<std::size_t> live_seen;
};

TEST(SnapshotProbe, CycleEngineCadence) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 100, 0);
  sim::CycleEngine engine(net);
  CountingProbe every, third;
  engine.attach_probe(every);
  engine.attach_probe(third, 3);
  engine.run(10);
  EXPECT_EQ(every.fired,
            (std::vector<Cycle>{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  EXPECT_EQ(third.fired, (std::vector<Cycle>{3, 6, 9}));
}

TEST(SnapshotProbe, ParallelCycleEngineCadence) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 100, 0);
  sim::CycleEngine engine(net, {/*threads=*/3});
  CountingProbe probe;
  engine.attach_probe(probe, 2);
  engine.run(7);
  EXPECT_EQ(probe.fired, (std::vector<Cycle>{2, 4, 6}));
}

TEST(SnapshotProbe, EventEngineTickCadenceAccumulatesAcrossCalls) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 100, 0);
  sim::EventEngine engine(net, {});
  CountingProbe probe;
  engine.attach_probe(probe, 2);
  engine.run_cycles(5);
  EXPECT_EQ(probe.fired, (std::vector<Cycle>{2, 4}));
  engine.run_cycles(3);  // lifetime ticks 6, 7, 8
  EXPECT_EQ(probe.fired, (std::vector<Cycle>{2, 4, 6, 8}));
}

// --- Non-perturbation -------------------------------------------------------

/// FNV-1a over liveness, views, per-node counters and Rng stream positions
/// (the scale_parallel digest): equal digests <=> equal final states.
std::uint64_t state_digest(const sim::Network& net) {
  std::uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  const flat::NodeArena& arena = net.arena();
  for (NodeId id = 0; id < net.size(); ++id) {
    const auto view = net.view_span(id);
    mix((static_cast<std::uint64_t>(view.size()) << 1) |
        (net.is_live(id) ? 1 : 0));
    for (const auto& d : view) {
      mix((static_cast<std::uint64_t>(d.hop_count) << 32) | d.address);
    }
    const NodeStats& s = arena.stats[id];
    mix(s.initiated);
    mix(s.received);
    mix(s.replies_sent);
    mix(s.contact_failures);
    Rng probe_rng = arena.rngs[id];
    mix(probe_rng());
  }
  return h;
}

TEST(SnapshotProbe, ObserverDoesNotPerturbCycleEngine) {
  sim::Network plain = make_converged(ProtocolSpec::newscast(), 400, 0, 9);
  sim::Network observed = make_converged(ProtocolSpec::newscast(), 400, 0, 9);
  ASSERT_EQ(state_digest(plain), state_digest(observed));

  sim::CycleEngine plain_engine(plain);
  sim::CycleEngine observed_engine(observed);
  obs::StreamingObserver observer({/*clustering_sample=*/50,
                                   /*path_sources=*/4, /*seed=*/123,
                                   /*reserve_records=*/16});
  observed_engine.attach_probe(observer);
  plain_engine.run(12);
  observed_engine.run(12);

  EXPECT_EQ(observer.records().size(), 12u);
  EXPECT_EQ(state_digest(plain), state_digest(observed));
  EXPECT_EQ(plain_engine.stats().exchanges, observed_engine.stats().exchanges);
  EXPECT_EQ(plain_engine.stats().failed_contacts,
            observed_engine.stats().failed_contacts);
}

TEST(SnapshotProbe, ObserverDoesNotPerturbParallelCycleEngine) {
  sim::Network plain = make_converged(ProtocolSpec::newscast(), 400, 0, 9);
  sim::Network observed = make_converged(ProtocolSpec::newscast(), 400, 0, 9);

  sim::CycleEngine plain_engine(plain, {/*threads=*/4});
  sim::CycleEngine observed_engine(observed, {/*threads=*/4});
  obs::StreamingObserver observer({/*clustering_sample=*/50,
                                   /*path_sources=*/4, /*seed=*/123,
                                   /*reserve_records=*/16});
  observed_engine.attach_probe(observer, 3);
  plain_engine.run(9);
  observed_engine.run(9);

  EXPECT_EQ(observer.records().size(), 3u);
  EXPECT_EQ(state_digest(plain), state_digest(observed));
}

TEST(SnapshotProbe, ObserverDoesNotPerturbEventEngine) {
  // Also pins that the tick-by-tick advance the probe path uses replays
  // the exact event sequence of the probe-free single-target advance.
  sim::Network plain = make_converged(ProtocolSpec::newscast(), 300, 0, 9);
  sim::Network observed = make_converged(ProtocolSpec::newscast(), 300, 0, 9);

  sim::EventEngineConfig config;
  config.drop_probability = 0.05;
  sim::EventEngine plain_engine(plain, config);
  sim::EventEngine observed_engine(observed, config);
  obs::StreamingObserver observer({/*clustering_sample=*/50,
                                   /*path_sources=*/4, /*seed=*/123,
                                   /*reserve_records=*/16});
  observed_engine.attach_probe(observer, 2);
  plain_engine.run_cycles(8);
  observed_engine.run_cycles(8);

  EXPECT_EQ(observer.records().size(), 4u);
  EXPECT_EQ(plain_engine.now(), observed_engine.now());
  EXPECT_EQ(state_digest(plain), state_digest(observed));
  EXPECT_EQ(plain_engine.stats().wakeups, observed_engine.stats().wakeups);
  EXPECT_EQ(plain_engine.stats().messages_sent,
            observed_engine.stats().messages_sent);
  EXPECT_EQ(plain_engine.stats().messages_dropped,
            observed_engine.stats().messages_dropped);
}

TEST(StreamingObserver, RecordsStreamTheExpectedObservables) {
  sim::Network net = make_converged(ProtocolSpec::newscast(), 500, 10);
  sim::CycleEngine engine(net);
  obs::StreamingObserver observer({/*clustering_sample=*/100,
                                   /*path_sources=*/8, /*seed=*/7,
                                   /*reserve_records=*/8});
  engine.attach_probe(observer, 2);
  engine.run(6);

  ASSERT_EQ(observer.records().size(), 3u);
  const auto& rec = observer.latest();
  EXPECT_EQ(rec.cycle, 6u);
  EXPECT_EQ(rec.live, 500u);
  EXPECT_GT(rec.degree.mean, 0.0);
  EXPECT_GE(rec.degree.max, rec.degree.min);
  EXPECT_EQ(rec.components.count, 1u);
  EXPECT_EQ(rec.components.largest, 500u);
  EXPECT_GT(rec.clustering, 0.0);
  EXPECT_GT(rec.path.average, 1.0);
  // Out-degree can never exceed the view capacity; the union degree can.
  EXPECT_LE(rec.out_degree.max, 8u);
  EXPECT_GE(rec.degree.max, rec.out_degree.max);
}

}  // namespace
}  // namespace pss
