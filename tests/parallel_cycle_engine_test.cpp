// The lane differential: CycleEngine's two loops against each other.
//
// One lane runs the scan, which executes each step where it selects it;
// two or more run conflict-scheduled batches on a thread pool. The
// engine's contract is that the lane count changes nothing — same per-node
// views, same NodeStats, same EngineStats, same master/per-node Rng
// consumption. The replays below pin it across all 8 evaluated protocol
// instances, under kills, revives, partitions, empty views and a hub
// topology that degrades the scheduler to batch size 1. This binary is the
// TSan CI job's main payload, and the ThreadPool units ride along so that
// job covers the pool's handshake directly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/thread_pool.hpp"

namespace pss::sim {
namespace {

std::vector<NodeDescriptor> to_vec(std::span<const NodeDescriptor> s) {
  return {s.begin(), s.end()};
}

void expect_networks_identical(Network& a, Network& b, const char* where) {
  ASSERT_EQ(a.size(), b.size()) << where;
  for (NodeId id = 0; id < a.size(); ++id) {
    ASSERT_EQ(to_vec(a.view_span(id)), to_vec(b.view_span(id)))
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().initiated, b.node(id).stats().initiated)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().received, b.node(id).stats().received)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().replies_sent, b.node(id).stats().replies_sent)
        << where << ", node " << id;
    ASSERT_EQ(a.node(id).stats().contact_failures,
              b.node(id).stats().contact_failures)
        << where << ", node " << id;
  }
  // Same master-Rng consumption: the streams must be in lockstep, not just
  // the state they produced.
  ASSERT_EQ(a.rng()(), b.rng()()) << where << ", master rng";
}

void expect_stats_equal(const EngineStats& a, const EngineStats& b,
                        const char* where) {
  EXPECT_EQ(a.exchanges, b.exchanges) << where;
  EXPECT_EQ(a.failed_contacts, b.failed_contacts) << where;
  EXPECT_EQ(a.empty_views, b.empty_views) << where;
}

// Drives the same eventful scenario — kills, a temporary partition, a
// revive, late empty-view joiners — through the one-lane engine and a
// `threads`-lane engine, comparing full network state after every cycle.
void check_parallel_matches_sequential(ProtocolSpec spec, unsigned threads) {
  constexpr std::size_t kNodes = 120;
  constexpr std::uint64_t kSeed = 20260728;
  const ProtocolOptions options{8, /*remove_dead_on_failure=*/true};
  Network seq_net = bootstrap::make_random(spec, options, kNodes, kSeed);
  Network par_net = bootstrap::make_random(spec, options, kNodes, kSeed);
  CycleEngine seq(seq_net);
  CycleEngine par(par_net, {threads});
  ASSERT_EQ(par.threads(), threads);
  for (Cycle cycle = 0; cycle < 10; ++cycle) {
    if (cycle == 2) {
      // Dead contacts + remove_dead_on_failure eviction.
      for (NodeId id = 0; id < kNodes / 5; ++id) {
        seq_net.kill(id);
        par_net.kill(id);
      }
    }
    if (cycle == 4) {
      // Cross-partition contacts fail without touching the peer.
      for (NodeId id = 0; id < kNodes; id += 3) {
        seq_net.set_partition_group(id, 1);
        par_net.set_partition_group(id, 1);
      }
    }
    if (cycle == 6) {
      seq_net.clear_partitions();
      par_net.clear_partitions();
      seq_net.revive(0);
      par_net.revive(0);
      // Late joiners with empty views exercise the inline empty-view path.
      seq_net.add_nodes(5);
      par_net.add_nodes(5);
    }
    seq.run_cycle();
    par.run_cycle();
    expect_networks_identical(seq_net, par_net, spec.name().c_str());
    expect_stats_equal(seq.stats(), par.stats(), spec.name().c_str());
  }
  EXPECT_EQ(par.cycle(), 10u);
}

TEST(ParallelCycleEngine, DeterministicMatchesSequentialNewscast4Threads) {
  check_parallel_matches_sequential(ProtocolSpec::newscast(), 4);
}

TEST(ParallelCycleEngine, DeterministicMatchesSequentialAllEvaluated) {
  // The acceptance matrix: every evaluated protocol, T lanes vs one lane.
  // Odd lane counts catch partition-arithmetic bugs.
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    check_parallel_matches_sequential(spec, 4);
  }
}

TEST(ParallelCycleEngine, DeterministicMatchesSequentialOddThreads) {
  check_parallel_matches_sequential(ProtocolSpec::newscast(), 3);
  check_parallel_matches_sequential(ProtocolSpec::lpbcast(), 7);
}

TEST(ParallelCycleEngine, ThreadCountsAgreeWithEachOther) {
  // Transitivity spot-check at a size big enough for multi-chunk batches.
  const ProtocolSpec spec = ProtocolSpec::newscast();
  const ProtocolOptions options{10, false};
  Network net2 = bootstrap::make_random(spec, options, 600, 7);
  Network net8 = bootstrap::make_random(spec, options, 600, 7);
  CycleEngine eng2(net2, {2});
  CycleEngine eng8(net8, {8});
  eng2.run(6);
  eng8.run(6);
  expect_networks_identical(net2, net8, "2 vs 8 threads");
  expect_stats_equal(eng2.stats(), eng8.stats(), "2 vs 8 threads");
}

TEST(ParallelCycleEngine, HubTopologyDegradesToSequentialWithoutDeadlock) {
  // Star bootstrap: every leaf's view holds only the hub, so (almost) every
  // step contends on it and the scheduler must serialize batch by batch.
  const ProtocolSpec spec = ProtocolSpec::newscast();
  const ProtocolOptions options{6, false};
  for (unsigned threads : {2u, 4u}) {
    Network seq_net(spec, options, 11);
    seq_net.add_nodes(40);
    bootstrap::init_star(seq_net);
    Network par_net(spec, options, 11);
    par_net.add_nodes(40);
    bootstrap::init_star(par_net);
    CycleEngine seq(seq_net);
    CycleEngine par(par_net, {threads});
    seq.run(5);
    par.run(5);
    expect_networks_identical(seq_net, par_net, "hub");
    expect_stats_equal(seq.stats(), par.stats(), "hub");
  }
}

TEST(ParallelCycleEngine, ReportsConfiguredThreadsAndPolicy) {
  Network net = bootstrap::make_random(ProtocolSpec::newscast(),
                                       ProtocolOptions{5, false}, 20, 3);
  EXPECT_EQ(CycleEngine(net).threads(), 1u);
  CycleEngine engine(net, {2});
  EXPECT_EQ(engine.threads(), 2u);
  EXPECT_EQ(engine.cycle(), 0u);
  engine.run(0);
  EXPECT_EQ(engine.cycle(), 0u);
  EXPECT_EQ(engine.stats().exchanges, 0u);
}

// --- ThreadPool -----------------------------------------------------------

TEST(ThreadPool, RunsEveryLaneExactlyOncePerDispatch) {
  ThreadPool pool(4);
  ASSERT_EQ(pool.concurrency(), 4u);
  std::vector<std::atomic<int>> hits(4);
  for (int round = 0; round < 50; ++round) {
    pool.run([&](unsigned lane) { ++hits[lane]; });
  }
  for (unsigned lane = 0; lane < 4; ++lane) {
    EXPECT_EQ(hits[lane].load(), 50) << "lane " << lane;
  }
}

TEST(ThreadPool, RunIsAFullBarrier) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> lane_sums(4, 0);
  std::uint64_t expected = 0;
  for (int round = 0; round < 20; ++round) {
    pool.run([&](unsigned lane) { lane_sums[lane] += lane + 1; });
    // Plain (unsynchronized) reads: valid only because run() returns after
    // a full barrier. TSan proves the claim.
    std::uint64_t total = 0;
    for (std::uint64_t s : lane_sums) total += s;
    expected += 1 + 2 + 3 + 4;
    ASSERT_EQ(total, expected);
  }
}

TEST(ThreadPool, SingleLanePoolRunsInline) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.concurrency(), 1u);
  unsigned ran = 0;
  pool.run([&](unsigned lane) {
    EXPECT_EQ(lane, 0u);
    ++ran;
  });
  EXPECT_EQ(ran, 1u);
}

TEST(ThreadPool, PropagatesTaskExceptionsAfterTheBarrier) {
  // The check macros throw std::logic_error by design; a throw on any
  // lane must surface from run() on the caller — after the barrier, so no
  // captured state dies under a running worker — and leave the pool
  // usable.
  ThreadPool pool(4);
  for (unsigned bad_lane = 0; bad_lane < 4; ++bad_lane) {
    EXPECT_THROW(pool.run([&](unsigned lane) {
                   if (lane == bad_lane) throw std::logic_error("boom");
                 }),
                 std::logic_error);
    std::atomic<unsigned> ran{0};
    pool.run([&](unsigned) { ++ran; });
    EXPECT_EQ(ran.load(), 4u);
  }
}

TEST(ThreadPool, ZeroMeansHardwareConcurrency) {
  ThreadPool pool(0);
  EXPECT_GE(pool.concurrency(), 1u);
  std::atomic<unsigned> ran{0};
  pool.run([&](unsigned) { ++ran; });
  EXPECT_EQ(ran.load(), pool.concurrency());
}

}  // namespace
}  // namespace pss::sim
