// Unit tests for the asynchronous event-driven engine: scheduling, message
// semantics, loss/timeout handling, and agreement with the cycle model.
#include <gtest/gtest.h>

#include "pss/graph/metrics.hpp"
#include "pss/graph/undirected_graph.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"

namespace pss::sim {
namespace {

EventEngineConfig fast_config() {
  EventEngineConfig cfg;
  cfg.period = 1.0;
  cfg.min_latency = 0.01;
  cfg.max_latency = 0.05;
  cfg.reply_timeout = 0.5;
  return cfg;
}

TEST(EventEngine, ValidatesConfig) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 10, 1);
  EventEngineConfig bad = fast_config();
  bad.period = 0;
  EXPECT_THROW(EventEngine(net, bad), std::logic_error);
  bad = fast_config();
  bad.min_latency = 0.5;
  bad.max_latency = 0.1;
  EXPECT_THROW(EventEngine(net, bad), std::logic_error);
  bad = fast_config();
  bad.drop_probability = 1.5;
  EXPECT_THROW(EventEngine(net, bad), std::logic_error);
}

TEST(EventEngine, EveryNodeWakesOncePerPeriod) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 20, 2);
  EventEngine engine(net, fast_config());
  engine.run_until(10.0);
  // 10 time units / period 1.0 -> about 10 wakeups per node (first one is
  // phase-shifted so allow one of slack).
  EXPECT_GE(engine.stats().wakeups, 20u * 9u);
  EXPECT_LE(engine.stats().wakeups, 20u * 11u);
}

TEST(EventEngine, PushPullDeliversReplies) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 20, 3);
  EventEngine engine(net, fast_config());
  engine.run_until(20.0);
  EXPECT_GT(engine.stats().replies_delivered, 0u);
  // With generous timeout and no loss, nearly all exchanges complete.
  EXPECT_GT(engine.stats().replies_delivered,
            engine.stats().wakeups * 9 / 10);
}

TEST(EventEngine, PushOnlyNeverGeneratesReplies) {
  auto net = bootstrap::make_random(ProtocolSpec::lpbcast(),
                                    ProtocolOptions{5, false}, 20, 4);
  EventEngine engine(net, fast_config());
  engine.run_until(10.0);
  EXPECT_EQ(engine.stats().replies_delivered, 0u);
  EXPECT_GT(engine.stats().messages_sent, 0u);
}

TEST(EventEngine, MessageLossIsApplied) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 30, 5);
  auto cfg = fast_config();
  cfg.drop_probability = 0.3;
  EventEngine engine(net, cfg);
  engine.run_until(20.0);
  const double drop_rate =
      static_cast<double>(engine.stats().messages_dropped) /
      static_cast<double>(engine.stats().messages_sent);
  EXPECT_NEAR(drop_rate, 0.3, 0.05);
}

TEST(EventEngine, MessagesToDeadNodesVanish) {
  Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 6);
  net.add_nodes(2);
  net.node(0).set_view(View{{1, 0}});
  net.node(1).set_view(View{{0, 0}});
  net.kill(1);
  EventEngine engine(net, fast_config());
  engine.run_until(5.0);
  EXPECT_GT(engine.stats().messages_to_dead, 0u);
  EXPECT_EQ(engine.stats().replies_delivered, 0u);
  // Timeouts surfaced as contact failures on the survivor.
  EXPECT_GT(net.node(0).stats().contact_failures, 0u);
}

TEST(EventEngine, DeterministicGivenSeed) {
  auto run_once = [] {
    auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                      ProtocolOptions{5, false}, 15, 7);
    EventEngine engine(net, fast_config());
    engine.run_until(12.0);
    std::vector<View> views;
    for (NodeId id = 0; id < 15; ++id) views.push_back(net.node(id).view());
    return views;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(EventEngine, LateJoinersGetScheduled) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 10, 8);
  EventEngine engine(net, fast_config());
  engine.run_until(3.0);
  const NodeId late = net.add_node();
  net.node(late).init_view(View{{0, 0}});
  engine.run_until(10.0);
  EXPECT_GT(net.node(late).stats().initiated, 0u);
  EXPECT_FALSE(net.node(late).view().empty());
}

TEST(EventEngine, ConvergesToSameStateAsCycleModel) {
  // The headline validation: the async engine with modest latency must
  // reach the same converged regime (average degree and connectivity) as
  // the paper's atomic cycle model.
  const std::size_t n = 300;
  const std::size_t c = 10;
  auto cycle_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                          ProtocolOptions{c, false}, n, 9);
  CycleEngine cycle_engine(cycle_net);
  cycle_engine.run(40);

  auto event_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                          ProtocolOptions{c, false}, n, 10);
  EventEngine event_engine(event_net, fast_config());
  event_engine.run_cycles(40);

  const auto gc = graph::UndirectedGraph::from_network(cycle_net);
  const auto ge = graph::UndirectedGraph::from_network(event_net);
  EXPECT_TRUE(graph::connected_components(ge).connected());
  EXPECT_NEAR(graph::average_degree(ge), graph::average_degree(gc),
              0.15 * graph::average_degree(gc));
}

TEST(EventEngine, TimeAdvancesMonotonically) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 10, 11);
  EventEngine engine(net, fast_config());
  engine.run_until(1.0);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);
  engine.run_until(4.5);
  EXPECT_DOUBLE_EQ(engine.now(), 4.5);
  engine.run_until(4.5);  // idempotent
  EXPECT_DOUBLE_EQ(engine.now(), 4.5);
}

TEST(EventEngine, RefusesARunTargetInThePast) {
  // Time never runs backwards: a node added after the refused call still
  // gets a phase at or after the events already handled.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 10, 12);
  EventEngine engine(net, fast_config());
  engine.run_until(3.0);
  const std::uint64_t wakeups = engine.stats().wakeups;
  const std::size_t queued = engine.queued_events();
  EXPECT_THROW(engine.run_until(1.5), std::logic_error);
  EXPECT_DOUBLE_EQ(engine.now(), 3.0);
  EXPECT_EQ(engine.stats().wakeups, wakeups);
  EXPECT_EQ(engine.queued_events(), queued);
  engine.run_until(4.0);
  EXPECT_DOUBLE_EQ(engine.now(), 4.0);
}

}  // namespace
}  // namespace pss::sim
