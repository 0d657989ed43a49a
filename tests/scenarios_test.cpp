// The scenario subsystem's pinning layer: differential, property and
// golden-trace tests for AdversaryModel, TraceChurn and the ScenarioSpec
// registry (src/scenarios/).
//
// Organization mirrors the subsystem's three contracts:
//   ScenarioDifferential — a zero-byzantine adversary and a uniform-mode
//     TraceChurn are *bit-identical* (state digest: views, liveness,
//     NodeStats, per-node Rng consumption; census digest: the measurement
//     layer's independent verdict) to the unhooked engines. This is what
//     licenses wiring the tamper seam through the hot paths at all.
//   AdversaryHookParallel / AdversaryProperty — what each attack must do
//     (hub dominance, dead-link injection) and must NOT be able to do
//     (plant self-entries, break honest view invariants), on every engine.
//     The *Adversary* test names enroll the worker-lane hook paths in the
//     CI thread-sanitizer matrix (see .github/workflows/ci.yml).
//   TraceChurnTest / ScenarioRegistry / ScenarioGolden — trace semantics
//     (flash crowds, diurnal curves, Pareto sessions' predictable death
//     schedule), registry materialization, and one pinned digest per
//     registered scenario so a refactor cannot silently change what any
//     scenario computes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "pss/obs/graph_census.hpp"
#include "pss/scenarios/adversary.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/scenarios/scenario_spec.hpp"
#include "pss/scenarios/trace_churn.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/churn.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"

namespace pss::scenarios {
namespace {

constexpr std::size_t kN = 400;
constexpr std::size_t kC = 8;
constexpr std::uint64_t kSeed = 42;
constexpr Cycle kCycles = 20;

sim::Network make_net(std::size_t n = kN, std::size_t c = kC,
                      std::uint64_t seed = kSeed,
                      ProtocolSpec spec = ProtocolSpec::newscast()) {
  return sim::bootstrap::make_random(spec, ProtocolOptions{c, false}, n,
                                     seed);
}

AdversaryConfig zero_byzantine(AdversaryKind kind) {
  AdversaryConfig config;
  config.kind = kind;
  config.byzantine_count = 0;
  config.forged_per_message = 4;
  config.fabricated_base = static_cast<NodeId>(4 * kN);
  config.fabricated_range = kN;
  return config;
}

AdversaryConfig hub_config(std::size_t byzantine) {
  AdversaryConfig config;
  config.kind = AdversaryKind::kHubPoison;
  config.byzantine_count = byzantine;
  return config;
}

AdversaryConfig forgery_config(std::size_t byzantine, std::size_t n) {
  AdversaryConfig config;
  config.kind = AdversaryKind::kForgery;
  config.byzantine_count = byzantine;
  config.forged_per_message = 4;
  config.fabricated_base = static_cast<NodeId>(4 * n);
  config.fabricated_range = n;
  config.seed = kSeed ^ 0xF0F0ULL;
  return config;
}

/// Checks the view invariants (I1 sorted, I2 distinct, I3 size <= c, no
/// self-entry) for every LIVE node — what no adversary may break.
void expect_views_normalized(const sim::Network& net, std::size_t c) {
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_live(id)) continue;
    const auto view = net.view_span(id);
    ASSERT_LE(view.size(), c) << "node " << id;
    for (std::size_t i = 0; i < view.size(); ++i) {
      ASSERT_NE(view[i].address, id) << "self-entry in node " << id;
      if (i + 1 < view.size()) {
        ASSERT_TRUE(ByHopThenAddress{}(view[i], view[i + 1]))
            << "order violation in node " << id << " at " << i;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// ScenarioDifferential: count-0 adversary and uniform TraceChurn are
// bit-identical to the unhooked/plain paths.
// ---------------------------------------------------------------------------

TEST(ScenarioDifferential, ZeroByzantineCycleEngineIsBitIdentical) {
  obs::GraphCensus census;
  auto run = [&](sim::ExchangeTamper* tamper) {
    sim::Network net = make_net();
    sim::CycleEngine engine(net);
    if (tamper) engine.attach_adversary(*tamper);
    engine.run(kCycles);
    census.rebuild(net);
    return std::pair{state_digest(net), census_digest(census)};
  };
  const auto plain = run(nullptr);
  for (const AdversaryKind kind :
       {AdversaryKind::kHubPoison, AdversaryKind::kForgery}) {
    AdversaryModel none(zero_byzantine(kind));
    const auto hooked = run(&none);
    EXPECT_EQ(plain.first, hooked.first) << "state digest diverged";
    EXPECT_EQ(plain.second, hooked.second) << "census digest diverged";
    EXPECT_EQ(none.forged_messages(), 0u);
  }
}

TEST(ScenarioDifferential, ZeroByzantineParallelDeterministicIsBitIdentical) {
  auto run = [&](sim::ExchangeTamper* tamper, unsigned threads) {
    sim::Network net = make_net();
    sim::CycleEngine engine(net, {threads});
    if (tamper) engine.attach_adversary(*tamper);
    engine.run(kCycles);
    return state_digest(net);
  };
  const std::uint64_t plain = run(nullptr, 4);
  AdversaryModel none(zero_byzantine(AdversaryKind::kHubPoison));
  EXPECT_EQ(plain, run(&none, 4));
  // And the hooked parallel run still matches the hooked sequential one.
  sim::Network seq_net = make_net();
  sim::CycleEngine seq(seq_net);
  AdversaryModel none_seq(zero_byzantine(AdversaryKind::kHubPoison));
  seq.attach_adversary(none_seq);
  seq.run(kCycles);
  EXPECT_EQ(plain, state_digest(seq_net));
}

TEST(ScenarioDifferential, ZeroByzantineEventEngineIsBitIdentical) {
  auto run = [&](sim::ExchangeTamper* tamper) {
    sim::Network net = make_net();
    sim::EventEngine engine(net, sim::EventEngineConfig{});
    if (tamper) engine.attach_adversary(*tamper);
    engine.run_cycles(kCycles);
    return state_digest(net);
  };
  const std::uint64_t plain = run(nullptr);
  AdversaryModel none_hub(zero_byzantine(AdversaryKind::kHubPoison));
  EXPECT_EQ(plain, run(&none_hub));
  AdversaryModel none_forge(zero_byzantine(AdversaryKind::kForgery));
  EXPECT_EQ(plain, run(&none_forge));
}

TEST(ScenarioDifferential, UniformTraceChurnMatchesChurnModel) {
  const sim::ChurnConfig config{.leaves_per_cycle = 4, .joins_per_cycle = 4,
                                .contacts_per_join = 3};
  auto run = [&](bool trace) {
    sim::Network net = make_net();
    sim::CycleEngine engine(net);
    sim::ChurnModel plain(config, Rng(kSeed ^ 0xABCULL));
    TraceChurn traced({config, {}, {}, {}}, Rng(kSeed ^ 0xABCULL));
    EXPECT_TRUE((TraceChurnConfig{config, {}, {}, {}}).is_uniform());
    for (Cycle t = 0; t < kCycles; ++t) {
      engine.run_cycle();
      if (trace) {
        traced.apply(net);
      } else {
        plain.apply(net);
      }
    }
    const auto& stats = trace ? traced.stats() : plain.stats();
    EXPECT_EQ(stats.joined, std::size_t{4} * kCycles);
    return state_digest(net);
  };
  std::uint64_t plain_digest = 0, trace_digest = 0;
  {
    SCOPED_TRACE("plain ChurnModel");
    plain_digest = run(false);
  }
  {
    SCOPED_TRACE("uniform TraceChurn");
    trace_digest = run(true);
  }
  EXPECT_EQ(plain_digest, trace_digest);
}

// ---------------------------------------------------------------------------
// AdversaryHookParallel: the hook on worker lanes — determinism and (under
// TSan, via the CI name regex) race-freedom.
// ---------------------------------------------------------------------------

TEST(AdversaryHookParallel, HookedDeterministicMatchesHookedSequential) {
  for (const bool forgery : {false, true}) {
    const AdversaryConfig config =
        forgery ? forgery_config(20, kN) : hub_config(20);
    sim::Network seq_net = make_net();
    sim::CycleEngine seq(seq_net);
    AdversaryModel seq_adv(config);
    seq.attach_adversary(seq_adv);
    seq.run(kCycles);
    const std::uint64_t seq_digest = state_digest(seq_net);
    ASSERT_GT(seq_adv.forged_messages(), 0u);
    for (const unsigned threads : {2u, 4u}) {
      sim::Network par_net = make_net();
      sim::CycleEngine par(par_net, {threads});
      AdversaryModel par_adv(config);
      par.attach_adversary(par_adv);
      par.run(kCycles);
      // Forgery content depends only on (sender, per-sender call index),
      // so the hooked Deterministic schedule reproduces the sequential
      // run bit for bit at any thread count.
      EXPECT_EQ(seq_digest, state_digest(par_net))
          << (forgery ? "forgery" : "hub") << " threads=" << threads;
      EXPECT_EQ(seq_adv.forged_messages(), par_adv.forged_messages());
    }
  }
}

TEST(AdversaryHookParallel, EventEnginesMatchPinnedDigests) {
  // Every lane count forges through one exchange core, so comparing them
  // with each other cannot see a change to that core: pin absolute digests
  // and forge counts instead, with and without message loss. Bump these
  // ONLY for an intentional semantic change, and say so in the commit.
  struct Golden {
    double drop;
    bool forgery;
    std::uint64_t digest;
    std::uint64_t forged;
  };
  const Golden golden[] = {
      {0.0, false, 0xfe70b5741c57180fULL, 915},
      {0.0, true, 0xc3a68d381b800c7aULL, 446},
      {0.1, false, 0x362bd4c28850e105ULL, 715},
      {0.1, true, 0x918603442b221979ULL, 409},
  };
  for (const Golden& g : golden) {
    const AdversaryConfig config =
        g.forgery ? forgery_config(20, kN) : hub_config(20);
    sim::EventEngineConfig ecfg;
    ecfg.drop_probability = g.drop;
    for (const unsigned lanes : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << (g.forgery ? "forgery" : "hub") << " drop=" << g.drop
                   << " lanes=" << lanes);
      sim::Network net = make_net();
      AdversaryModel adversary(config);
      sim::EventEngine engine(net, ecfg, lanes);
      engine.attach_adversary(adversary);
      engine.run_cycles(kCycles);
      const std::uint64_t digest = state_digest(net);
      EXPECT_EQ(digest, g.digest) << "actual 0x" << std::hex << digest;
      EXPECT_EQ(adversary.forged_messages(), g.forged);
    }
  }
}

TEST(AdversaryHookParallel, CycleEnginesMatchPinnedDigests) {
  // ScenarioGolden and HookedDeterministicMatchesHookedSequential run
  // push-pull only. Pin the two hooked cycle-model branches newscast never
  // takes: push-only (no reply, so no reply forge) and pull-only (the empty
  // request is still forged). Bump these ONLY for an intentional semantic
  // change, and say so in the commit.
  constexpr ProtocolSpec kPush{PeerSelection::kRand, ViewSelection::kRand,
                               ViewPropagation::kPush};
  constexpr ProtocolSpec kPull{PeerSelection::kRand, ViewSelection::kHead,
                               ViewPropagation::kPull};
  struct Golden {
    ProtocolSpec spec;
    bool forgery;
    std::uint64_t digest;
    std::uint64_t forged;
  };
  const Golden golden[] = {
      {kPush, false, 0x7e138ba7814b7290ULL, 400},
      {kPush, true, 0x0fa61d8a709a9a8eULL, 372},
      {kPull, false, 0xdcd3b501796fe0dfULL, 1408},
      {kPull, true, 0x3083dee1f9a3cfc4ULL, 321},
  };
  for (const Golden& g : golden) {
    const AdversaryConfig config =
        g.forgery ? forgery_config(20, kN) : hub_config(20);
    for (const unsigned lanes : {1u, 2u, 4u}) {
      SCOPED_TRACE(::testing::Message()
                   << g.spec.name() << (g.forgery ? " forgery" : " hub")
                   << " lanes=" << lanes);
      sim::Network net = make_net(kN, kC, kSeed, g.spec);
      AdversaryModel adversary(config);
      sim::CycleEngine engine(net, {lanes});
      engine.attach_adversary(adversary);
      engine.run(kCycles);
      const std::uint64_t digest = state_digest(net);
      EXPECT_EQ(digest, g.digest) << "actual 0x" << std::hex << digest;
      EXPECT_EQ(adversary.forged_messages(), g.forged);
    }
  }
}

TEST(AdversaryHookParallel, OversizedForgeIsRefusedOnEveryEngine) {
  // The tamper contract caps a forged buffer at view_size + 1 entries. A
  // policy that breaks it must fail the same way on every engine instead of
  // shipping the oversized buffer on one time model and throwing on the
  // other.
  constexpr std::size_t n = 100;
  constexpr std::size_t c = 8;
  struct Oversized : sim::ExchangeTamper {
    bool is_byzantine(NodeId node) const override { return node == 0; }
    bool suppress_aging(NodeId) const override { return false; }
    void forge_buffer(NodeId, NodeId,
                      std::vector<NodeDescriptor>& buffer) override {
      buffer.clear();
      for (std::size_t i = 0; i < c + 2; ++i) {
        buffer.push_back({static_cast<NodeId>(4 * n + i), 0});
      }
    }
  };
  for (const unsigned lanes : {1u, 2u}) {
    SCOPED_TRACE(::testing::Message() << "CycleEngine lanes=" << lanes);
    sim::Network net = make_net(n, c, kSeed);
    Oversized tamper;
    sim::CycleEngine engine(net, {lanes});
    engine.attach_adversary(tamper);
    EXPECT_THROW(engine.run(3), std::logic_error);
  }
  {
    SCOPED_TRACE("EventEngine");
    sim::Network net = make_net(n, c, kSeed);
    Oversized tamper;
    sim::EventEngine engine(net, sim::EventEngineConfig{});
    engine.attach_adversary(tamper);
    EXPECT_THROW(engine.run_cycles(3), std::logic_error);
  }
}

TEST(AdversaryHookParallel, HubPoisonSuppressesAgingOnCycleEngines) {
  // Every hook site must consult suppress_aging. With ALL nodes byzantine
  // hub poisoners, no view ever ages: entries are born at hop 0
  // (bootstrap, self-pushes) or hop 1 (absorbed, +1 in-merge) and can
  // never grow older. A single missed suppress_aging check would push some
  // entry past hop 1.
  for (const unsigned lanes : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    sim::Network net = make_net();
    AdversaryModel adversary(hub_config(kN));  // everyone poisons
    sim::CycleEngine engine(net, {lanes});
    engine.attach_adversary(adversary);
    engine.run(kCycles);
    for (NodeId id = 0; id < net.size(); ++id) {
      for (const auto& d : net.view_span(id)) {
        ASSERT_LE(d.hop_count, 1u) << "aged entry in node " << id;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// AdversaryProperty: what each attack must achieve and must not be able to.
// ---------------------------------------------------------------------------

TEST(AdversaryPropertyTest, HubPoisonerDominatesInDegree) {
  // The attack works: a 1% byzantine minority pushing {self, 0} forever
  // accumulates in-degree far beyond the honest ceiling (a view holds at
  // most c entries, so honest in-degree hovers around c).
  sim::Network net = make_net(600, 10, kSeed);
  sim::CycleEngine engine(net);
  AdversaryModel adversary(hub_config(6));
  engine.attach_adversary(adversary);
  engine.run(30);
  obs::GraphCensus census;
  census.rebuild(net);
  std::uint32_t max_byzantine = 0;
  for (NodeId id = 0; id < 6; ++id) {
    max_byzantine = std::max(max_byzantine, census.in_degree(id));
  }
  EXPECT_GT(max_byzantine, 2u * 10u)
      << "hub poisoning failed to concentrate in-degree";
}

TEST(AdversaryPropertyTest, NoForgedSelfEntrySurvivesAnyEngine) {
  // Forgery plants the receiver's own address at hop 0 in every forged
  // buffer; absorb's self-drop must discard it on every engine's path.
  const AdversaryConfig config = forgery_config(20, kN);
  auto check = [&](sim::Network& net) {
    for (NodeId id = 0; id < net.size(); ++id) {
      if (!net.is_live(id)) continue;
      for (const auto& d : net.view_span(id)) {
        ASSERT_NE(d.address, id) << "forged self-entry survived in " << id;
      }
    }
  };
  {
    sim::Network net = make_net();
    sim::CycleEngine engine(net);
    AdversaryModel adversary(config);
    engine.attach_adversary(adversary);
    engine.run(kCycles);
    ASSERT_GT(adversary.forged_messages(), 0u);
    check(net);
  }
  {
    sim::Network net = make_net();
    sim::EventEngine engine(net, sim::EventEngineConfig{});
    AdversaryModel adversary(config);
    engine.attach_adversary(adversary);
    engine.run_cycles(kCycles);
    ASSERT_GT(adversary.forged_messages(), 0u);
    check(net);
  }
}

TEST(AdversaryPropertyTest, ForgeryInjectsOnlyFabricatedDeadLinks) {
  sim::Network net = make_net();
  sim::CycleEngine engine(net);
  AdversaryModel adversary(forgery_config(20, kN));
  engine.attach_adversary(adversary);
  engine.run(kCycles);
  // Dead links appear (the attack works)...
  EXPECT_GT(net.count_dead_links(), 0u);
  // ...and every view entry is either a real node or a fabricated address
  // from the configured dead range — forgery cannot invent anything else.
  const NodeId base = static_cast<NodeId>(4 * kN);
  for (NodeId id = 0; id < net.size(); ++id) {
    if (!net.is_live(id)) continue;
    for (const auto& d : net.view_span(id)) {
      const bool real = d.address < kN;
      const bool fabricated = d.address >= base && d.address < base + kN;
      ASSERT_TRUE(real || fabricated) << "stray address " << d.address;
    }
  }
  expect_views_normalized(net, kC);
}

TEST(AdversaryPropertyTest, HonestViewsStayNormalizedUnderEveryAttack) {
  for (const bool forgery : {false, true}) {
    sim::Network net = make_net();
    sim::CycleEngine engine(net);
    AdversaryModel adversary(forgery ? forgery_config(20, kN)
                                     : hub_config(20));
    engine.attach_adversary(adversary);
    engine.run(kCycles);
    expect_views_normalized(net, kC);
  }
}

// ---------------------------------------------------------------------------
// TraceChurn semantics.
// ---------------------------------------------------------------------------

TEST(TraceChurnTest, FlashCrowdJoinsArriveInOneCycle) {
  sim::Network net = make_net(100, kC, kSeed);
  TraceChurnConfig config;
  config.base.contacts_per_join = 3;
  config.flash_crowds.push_back({3, 500});
  TraceChurn churn(config, Rng(7));
  ASSERT_FALSE(config.is_uniform());
  for (Cycle t = 0; t < 3; ++t) {
    churn.apply(net);
    EXPECT_EQ(net.live_count(), 100u) << "cycle " << t;
  }
  churn.apply(net);  // cycle 3: the burst
  EXPECT_EQ(net.live_count(), 600u);
  EXPECT_EQ(churn.stats().joined, 500u);
  // Every newcomer bootstrapped with a normalized contact view.
  for (NodeId id = 100; id < 600; ++id) {
    EXPECT_TRUE(net.is_live(id));
    EXPECT_GE(net.view_span(id).size(), 1u);
  }
  churn.apply(net);  // the burst fires exactly once
  EXPECT_EQ(net.live_count(), 600u);
}

TEST(TraceChurnTest, DiurnalFactorTracesTheSinusoid) {
  const DiurnalCurve curve{24, 0.5};
  EXPECT_DOUBLE_EQ(TraceChurn::diurnal_factor(curve, 0), 1.0);
  EXPECT_NEAR(TraceChurn::diurnal_factor(curve, 6), 1.5, 1e-12);   // peak
  EXPECT_NEAR(TraceChurn::diurnal_factor(curve, 18), 0.5, 1e-12);  // trough
  EXPECT_DOUBLE_EQ(TraceChurn::diurnal_factor(curve, 24),
                   TraceChurn::diurnal_factor(curve, 0));  // periodic
  EXPECT_DOUBLE_EQ(TraceChurn::diurnal_factor({0, 0.5}, 6), 1.0);  // disabled
  // Amplitude > 1 clamps at zero rather than going negative.
  EXPECT_DOUBLE_EQ(TraceChurn::diurnal_factor({24, 2.0}, 18), 0.0);
}

TEST(TraceChurnTest, DiurnalRatesModulateJoinVolume) {
  sim::Network net = make_net(2000, kC, kSeed);
  TraceChurnConfig config;
  config.base.joins_per_cycle = 100;
  config.base.contacts_per_join = 2;
  config.diurnal = {8, 1.0};
  TraceChurn churn(config, Rng(9));
  std::size_t last = 0;
  std::vector<std::size_t> per_cycle;
  for (Cycle t = 0; t < 8; ++t) {
    churn.apply(net);
    per_cycle.push_back(churn.stats().joined - last);
    last = churn.stats().joined;
  }
  const auto [lo, hi] = std::minmax_element(per_cycle.begin(), per_cycle.end());
  EXPECT_EQ(*hi, 200u);  // peak: factor 2.0
  EXPECT_EQ(*lo, 0u);    // trough: factor clamped to 0
  // The symmetric sinusoid preserves the mean rate over a whole period.
  EXPECT_EQ(churn.stats().joined, 800u);
}

TEST(TraceChurnTest, ParetoLifetimeIsPureAndHeavyTailed) {
  const SessionConfig sessions{1.5, 12.0, 99};
  // Pure: same (seed, id) in, same lifetime out.
  for (const NodeId id : {0u, 1u, 17u, 100000u}) {
    EXPECT_EQ(TraceChurn::pareto_lifetime(sessions, id),
              TraceChurn::pareto_lifetime(sessions, id));
  }
  // Bounded below by xm, and the tail reaches well past the mean.
  Cycle longest = 0;
  double sum = 0;
  constexpr NodeId kSamples = 20000;
  for (NodeId id = 0; id < kSamples; ++id) {
    const Cycle life = TraceChurn::pareto_lifetime(sessions, id);
    ASSERT_GE(life, 12u);
    longest = std::max(longest, life);
    sum += static_cast<double>(life);
  }
  const double mean = sum / kSamples;
  // Pareto(1.5, 12): mean 36; the empirical mean of 20k draws lands near
  // it (wide tolerance — alpha 1.5 has infinite variance), and the longest
  // session dwarfs the mean (the heavy tail churn models must survive).
  EXPECT_GT(mean, 24.0);
  EXPECT_GT(longest, 50u * 12u);
}

TEST(TraceChurnTest, SessionDeathsFollowThePredictedSchedule) {
  // 10 nodes, no joins: every node's death cycle is a pure function of the
  // session seed, so the whole kill trace is predictable in advance.
  const SessionConfig sessions{1.5, 2.0, 4242};
  sim::Network net = make_net(10, 3, kSeed);
  TraceChurnConfig config;
  config.base.contacts_per_join = 1;  // floor = 2
  config.sessions = sessions;
  TraceChurn churn(config, Rng(11));
  std::vector<Cycle> death(10);
  for (NodeId id = 0; id < 10; ++id) {
    death[id] = TraceChurn::pareto_lifetime(sessions, id);
  }
  // The two (death, id)-largest nodes must survive forever (kill floor 2).
  std::vector<NodeId> order(10);
  for (NodeId id = 0; id < 10; ++id) order[id] = id;
  std::sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return std::pair{death[a], a} < std::pair{death[b], b};
  });
  const Cycle horizon = *std::max_element(death.begin(), death.end()) + 2;
  for (Cycle t = 0; t < horizon; ++t) {
    churn.apply(net);  // trace clock now t+1
    for (NodeId id = 0; id < 10; ++id) {
      if (id == order[8] || id == order[9]) continue;  // floor survivors
      // Node `id` dies in the apply() whose trace clock reaches death[id]
      // (deaths are scheduled at cycle_ = lifetime and processed when
      // cycle_ == that value, i.e. apply() call number death[id]).
      EXPECT_EQ(net.is_live(id), t + 1 <= death[id])
          << "node " << id << " at cycle " << t;
    }
  }
  EXPECT_EQ(net.live_count(), 2u);
  EXPECT_TRUE(net.is_live(order[8]));
  EXPECT_TRUE(net.is_live(order[9]));
  EXPECT_EQ(churn.pending_deaths(), 2u);  // deferred, never dropped
}

TEST(TraceChurnTest, KillFloorHoldsUnderRateChurn) {
  sim::Network net = make_net(20, 3, kSeed);
  TraceChurnConfig config;
  config.base.leaves_per_cycle = 50;
  config.base.contacts_per_join = 2;  // floor = 3
  config.diurnal = {4, 0.5};          // non-uniform so the trace path runs
  TraceChurn churn(config, Rng(13));
  for (Cycle t = 0; t < 6; ++t) {
    churn.apply(net);
    EXPECT_GE(net.live_count(), 3u);
  }
  EXPECT_EQ(net.live_count(), 3u);
}

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

TEST(ScenarioRegistry, RegistryIsStableAndSearchable) {
  const auto registry = scenario_registry();
  const std::vector<std::string> expected = {
      "baseline",        "uniform-churn", "flash-crowd", "diurnal",
      "pareto-sessions", "hub-poison",    "forgery"};
  ASSERT_EQ(registry.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(registry[i].name, expected[i]);
    EXPECT_FALSE(registry[i].summary.empty());
    EXPECT_EQ(find_scenario(expected[i]), &registry[i]);
  }
  EXPECT_EQ(find_scenario("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, MaterializationScalesWithPopulation) {
  const ScenarioSpec* forgery = find_scenario("forgery");
  ASSERT_NE(forgery, nullptr);
  EXPECT_TRUE(forgery->has_adversary());
  EXPECT_FALSE(forgery->has_churn());
  const AdversaryConfig small = forgery->adversary_for(100, 30, 1);
  const AdversaryConfig large = forgery->adversary_for(100000, 30, 1);
  EXPECT_EQ(small.byzantine_count, 1u);  // max(1, 1% of 100)
  EXPECT_EQ(large.byzantine_count, 1000u);
  EXPECT_EQ(large.fabricated_base, 400000u);
  // The forgery payload respects the tamper buffer contract (<= c).
  EXPECT_EQ(forgery->adversary_for(1000, 4, 1).forged_per_message, 4u);

  const ScenarioSpec* flash = find_scenario("flash-crowd");
  ASSERT_NE(flash, nullptr);
  EXPECT_TRUE(flash->has_churn());
  const TraceChurnConfig churn = flash->churn_for(100000, 1);
  ASSERT_EQ(churn.flash_crowds.size(), 1u);
  // The tentpole's flash-crowd scale: 10^5 joins in a single cycle.
  EXPECT_EQ(churn.flash_crowds[0].joins, 100000u);
  EXPECT_FALSE(churn.is_uniform());

  const ScenarioSpec* baseline = find_scenario("baseline");
  ASSERT_NE(baseline, nullptr);
  EXPECT_FALSE(baseline->has_adversary());
  EXPECT_FALSE(baseline->has_churn());
}

// ---------------------------------------------------------------------------
// Golden traces: one pinned digest per registered scenario. The runner
// mirrors bench/scale_scenarios' scan loop at a fixed small configuration;
// a mismatch means a semantic change to engines, adversary, churn or
// census — bump the constants ONLY for an intentional change, and say so
// in the commit message.
// ---------------------------------------------------------------------------

std::uint64_t golden_run(const ScenarioSpec& scen) {
  constexpr std::size_t kGoldenN = 500;
  constexpr std::size_t kGoldenC = 10;
  constexpr Cycle kGoldenCycles = 12;
  sim::Network net = make_net(kGoldenN, kGoldenC, kSeed);
  sim::CycleEngine engine(net);
  AdversaryModel adversary(
      scen.adversary_for(kGoldenN, kGoldenC, kSeed ^ 0xAD5ULL));
  if (scen.has_adversary()) engine.attach_adversary(adversary);
  TraceChurn churn(scen.churn_for(kGoldenN, kSeed ^ 0x5E55ULL),
                   Rng(kSeed ^ 0xC0FFEEULL));
  for (Cycle t = 0; t < kGoldenCycles; ++t) {
    engine.run_cycle();
    if (scen.has_churn()) churn.apply(net);
  }
  return state_digest(net);
}

TEST(ScenarioGolden, EveryRegisteredScenarioMatchesItsPinnedDigest) {
  // Generated by this very runner (seed 42, n=500, c=10, 12 cycles);
  // deterministic across platforms up to libm sin/pow rounding, which
  // only diurnal (sin) and pareto-sessions (pow) consume — glibc has
  // correctly-rounded pow since 2.28, so in practice these hold anywhere
  // CI runs.
  const std::vector<std::pair<std::string, std::uint64_t>> golden = {
      {"baseline", 0x447e15a41d272308ULL},
      {"uniform-churn", 0xfb81eea79a940678ULL},
      {"flash-crowd", 0xab49b930c361569eULL},
      {"diurnal", 0x4af1933786e87843ULL},
      {"pareto-sessions", 0x9f7ece9ed5ca0dcfULL},
      {"hub-poison", 0xf46ff9ca68664462ULL},
      {"forgery", 0x86832ec7a2bd21b2ULL},
  };
  const auto registry = scenario_registry();
  ASSERT_EQ(golden.size(), registry.size());
  for (std::size_t i = 0; i < registry.size(); ++i) {
    ASSERT_EQ(golden[i].first, registry[i].name);
    const std::uint64_t actual = golden_run(registry[i]);
    EXPECT_EQ(actual, golden[i].second)
        << "scenario '" << registry[i].name << "' digest changed; actual 0x"
        << std::hex << actual;
  }
}

}  // namespace
}  // namespace pss::scenarios
