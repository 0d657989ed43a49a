// ParallelEventEngine's contract: the Deterministic windowed schedule
// replays the sequential EventEngine bit-identically — identical
// EventEngineStats, identical per-node views/counters/Rng streams (pinned
// through scenarios::state_digest) — at every thread count, for every
// evaluated protocol, and under loss, timeouts, kills, revivals and late
// joiners. Suite names begin with ParallelEventEngine so CI's TSan job
// regex picks them up (see .github/workflows/ci.yml).
#include <gtest/gtest.h>

#include <vector>

#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/parallel_event_engine.hpp"
#include "pss/sim/probe.hpp"

namespace pss::sim {
namespace {

EventEngineConfig async_config() {
  EventEngineConfig cfg;
  cfg.period = 1.0;
  cfg.min_latency = 0.01;
  cfg.max_latency = 0.10;
  cfg.reply_timeout = 0.5;
  return cfg;
}

void expect_stats_equal(const EventEngineStats& a, const EventEngineStats& b) {
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_to_dead, b.messages_to_dead);
  EXPECT_EQ(a.replies_delivered, b.replies_delivered);
  EXPECT_EQ(a.replies_stale, b.replies_stale);
}

TEST(ParallelEventEngineDeterministic, AllProtocolsAllThreadCounts) {
  // One sequential reference per protocol; parallel runs at 1/2/4/8 lanes
  // must land on the same state digest and the same counters.
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    auto ref_net =
        bootstrap::make_random(spec, ProtocolOptions{8, false}, 150, 99);
    EventEngine ref(ref_net, async_config());
    ref.run_until(10.5);
    const std::uint64_t ref_digest = scenarios::state_digest(ref_net);
    for (unsigned threads : {1u, 2u, 4u, 8u}) {
      auto net =
          bootstrap::make_random(spec, ProtocolOptions{8, false}, 150, 99);
      ParallelEventEngine par(net, async_config(), threads);
      par.run_until(10.5);
      EXPECT_DOUBLE_EQ(ref.now(), par.now());
      expect_stats_equal(ref.stats(), par.stats());
      EXPECT_EQ(ref_digest, scenarios::state_digest(net))
          << spec.name() << " diverged at " << threads << " threads";
      if (::testing::Test::HasFailure()) {
        FAIL() << "divergence under " << spec.name() << " threads="
               << threads;
      }
    }
  }
}

TEST(ParallelEventEngineDeterministic, LossTimeoutsKillsAndLateJoiners) {
  // The adversarial trace the flat-vs-legacy suite uses: drops, real reply
  // timeouts, mid-run kills/revivals and late joiners, replayed against
  // the sequential engine at 4 lanes through interleaved run targets.
  auto cfg = async_config();
  cfg.drop_probability = 0.25;
  cfg.reply_timeout = 0.08;  // tighter than max_latency: real timeouts
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{6, false}, 80, 7);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{6, false}, 80, 7);
  EventEngine ref(ref_net, cfg);
  ParallelEventEngine par(par_net, cfg, 4);

  ref.run_until(5.0);
  par.run_until(5.0);
  for (NodeId id = 0; id < 20; ++id) {
    ref_net.kill(id);
    par_net.kill(id);
  }
  ref.run_until(10.0);
  par.run_until(10.0);
  for (NodeId id = 0; id < 10; ++id) {
    ref_net.revive(id);
    par_net.revive(id);
  }
  ref_net.add_nodes(15);
  par_net.add_nodes(15);
  ref.run_until(16.5);
  par.run_until(16.5);

  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(ParallelEventEngineDeterministic, LatencyRegimesWithLossKillsAndLateJoiners) {
  // Zero delay, the default band, and messages slower than a period (the
  // window is min_latency wide, and the calendar's year follows
  // max_latency), each under loss, kills, revivals and two batches of late
  // joiners, at 1, 2 and 4 lanes.
  struct Regime {
    double min_latency;
    double max_latency;
  };
  for (const Regime regime : {Regime{0.0, 0.0}, Regime{0.01, 0.1},
                              Regime{0.3, 2.5}}) {
    auto cfg = async_config();
    cfg.min_latency = regime.min_latency;
    cfg.max_latency = regime.max_latency;
    cfg.drop_probability = 0.2;
    cfg.reply_timeout = 1.5;
    auto script = [](Network& net, auto& engine) {
      engine.run_until(4.0);
      for (NodeId id = 10; id < 25; ++id) net.kill(id);
      engine.run_until(8.25);
      for (NodeId id = 10; id < 15; ++id) net.revive(id);
      net.add_nodes(12);
      engine.run_until(12.5);
      net.add_nodes(7);
      engine.run_until(18.0);
    };
    auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                          ProtocolOptions{6, false}, 90, 17);
    EventEngine ref(ref_net, cfg);
    script(ref_net, ref);
    EXPECT_GT(ref.stats().messages_dropped, 0u);
    EXPECT_GT(ref.stats().messages_to_dead, 0u);
    for (unsigned threads : {1u, 2u, 4u}) {
      auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{6, false}, 90, 17);
      ParallelEventEngine par(net, cfg, threads);
      script(net, par);
      expect_stats_equal(ref.stats(), par.stats());
      EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(net))
          << "latency [" << regime.min_latency << ", " << regime.max_latency
          << "] diverged at " << threads << " threads";
    }
  }
}

TEST(ParallelEventEngine, RefusesARunTargetInThePast) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{8, false}, 40, 12);
  ParallelEventEngine par(net, async_config(), 2);
  par.run_until(3.0);
  const std::uint64_t wakeups = par.stats().wakeups;
  EXPECT_THROW(par.run_until(1.5), std::logic_error);
  EXPECT_DOUBLE_EQ(par.now(), 3.0);
  EXPECT_EQ(par.stats().wakeups, wakeups);
  par.run_until(3.0);  // an equal target is a no-op
  EXPECT_DOUBLE_EQ(par.now(), 3.0);
}

TEST(ParallelEventEngineDeterministic, ZeroLatencyDegradesToSequential) {
  // min_latency == 0 empties the safe horizon: every window holds one
  // event and the engine must still be exactly the sequential run.
  auto cfg = async_config();
  cfg.min_latency = 0.0;
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 60, 21);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 60, 21);
  EventEngine ref(ref_net, cfg);
  ParallelEventEngine par(par_net, cfg, 4);
  ref.run_until(8.0);
  par.run_until(8.0);
  EXPECT_DOUBLE_EQ(par.lookahead(), 0.0);
  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(ParallelEventEngineDeterministic, RunCyclesAndProbesMatchSequential) {
  // run_cycles' tick anchoring and the probe cadence must mirror the
  // sequential engine: same number of probe firings, same digests at the
  // end, probes not perturbing the event sequence.
  struct CountingProbe : SnapshotProbe {
    std::vector<Cycle> fired;
    void on_snapshot(const Network&, Cycle cycle) override {
      fired.push_back(cycle);
    }
  };
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 70, 5);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 70, 5);
  EventEngine ref(ref_net, async_config());
  ParallelEventEngine par(par_net, async_config(), 4);
  CountingProbe ref_probe;
  CountingProbe par_probe;
  ref.attach_probe(ref_probe, 2);
  par.attach_probe(par_probe, 2);
  ref.run_cycles(7);
  par.run_cycles(7);
  EXPECT_EQ(ref_probe.fired, par_probe.fired);
  EXPECT_DOUBLE_EQ(ref.now(), par.now());
  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(ParallelEventEngineDeterministic, AdversaryHookMatchesSequential) {
  // A forging + aging-suppressing tamper (stateless, as the parallel seam
  // requires) must leave parallel and sequential runs identical.
  struct HubPoison : ExchangeTamper {
    bool is_byzantine(NodeId node) const override { return node % 7 == 0; }
    bool suppress_aging(NodeId node) const override { return node % 7 == 0; }
    // AdversaryModel::kHubPoison's lie: the single descriptor {sender, 0},
    // which keeps the tamper contract (normalized, duplicate-free).
    void forge_buffer(NodeId sender, NodeId /*receiver*/,
                      std::vector<NodeDescriptor>& buffer) override {
      buffer.assign(1, NodeDescriptor{sender, 0});
    }
  };
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 90, 31);
  auto par_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 90, 31);
  EventEngine ref(ref_net, async_config());
  ParallelEventEngine par(par_net, async_config(), 4);
  HubPoison ref_tamper;
  HubPoison par_tamper;
  ref.attach_adversary(ref_tamper);
  par.attach_adversary(par_tamper);
  ref.run_until(9.0);
  par.run_until(9.0);
  expect_stats_equal(ref.stats(), par.stats());
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(par_net));
}

TEST(ParallelEventEngineDeterministic, WindowsActuallyBatch) {
  // Sanity on the schedule itself: with a real latency floor and enough
  // nodes, windows defer many W-parts and (at >1 lane) dispatch through
  // the pool; everything still digest-matches the reference.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{8, false}, 300, 77);
  ParallelEventEngine par(net, async_config(), 4);
  par.run_until(6.0);
  EXPECT_GT(par.windows(), 0u);
  EXPECT_GT(par.deferred_tasks(), 0u);
  EXPECT_GT(par.pooled_tasks(), 0u);
  // Every window defers at most as many tasks as it processed events, and
  // the pool never outruns the deferred total.
  EXPECT_LE(par.pooled_tasks(), par.deferred_tasks());

  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{8, false}, 300, 77);
  EventEngine ref(ref_net, async_config());
  ref.run_until(6.0);
  EXPECT_EQ(scenarios::state_digest(ref_net), scenarios::state_digest(net));
}

}  // namespace
}  // namespace pss::sim
