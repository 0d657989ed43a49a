// Transport-layer test pyramid:
//   TransportDifferential — a LoopbackTransport run IS an EventEngine run:
//     digest-identical state (views, stats, per-node Rng positions) under
//     cloned seeds, for zero-delay/zero-loss and for latency + loss.
//   TransportInvariants   — under the knobs EventEngine has no counterpart
//     for (reorder, duplication) plus loss and churn, the protocol
//     invariants and the wire accounting still hold.
//   ServiceNodeUnit       — driver mechanics in isolation.
//   ServiceNodeWorkspace  — the per-thread exchange workspace is shared
//     safely across drivers of different view sizes, and a node stays small.
//   LoopbackTransport     — backend queue semantics.
//   UdpTransport / TransportPollLoop — the socket path, incl. the threaded
//     poll-loop test TSan runs in CI.

#include "pss/transport/loopback_driver.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <set>
#include <thread>
#include <unistd.h>
#include <vector>

#include "get_peer_oracle.hpp"
#include "pss/common/rng.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/service/peer_sampling_service.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/transport/udp_transport.hpp"

namespace pss::transport {
namespace {

using sim::EventEngine;
using sim::EventEngineConfig;
using sim::EventEngineStats;
using sim::Network;

void expect_stats_equal(const EventEngineStats& a, const EventEngineStats& b) {
  EXPECT_EQ(a.wakeups, b.wakeups);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.messages_to_dead, b.messages_to_dead);
  EXPECT_EQ(a.replies_delivered, b.replies_delivered);
  EXPECT_EQ(a.replies_stale, b.replies_stale);
}

// Runs the same seeded workload through EventEngine and through
// ServiceNodes over a LoopbackTransport, returning both digests.
struct DifferentialRun {
  std::uint64_t engine_digest = 0;
  std::uint64_t transport_digest = 0;
  EventEngineStats engine_stats;
  EventEngineStats transport_stats;
};

DifferentialRun run_differential(const ProtocolSpec& spec,
                                 const ProtocolOptions& options, std::size_t n,
                                 std::uint64_t seed, std::size_t cycles,
                                 const EventEngineConfig& config) {
  DifferentialRun result;
  {
    Network net = sim::bootstrap::make_random(spec, options, n, seed);
    EventEngine engine(net, config);
    engine.run_cycles(cycles);
    result.engine_digest = scenarios::state_digest(net);
    result.engine_stats = engine.stats();
  }
  {
    Network net = sim::bootstrap::make_random(spec, options, n, seed);
    LoopbackConfig bus_config;
    bus_config.min_delay = config.min_latency;
    bus_config.max_delay = config.max_latency;
    bus_config.loss_probability = config.drop_probability;
    LoopbackTransport bus(bus_config, net.rng());
    LoopbackDriver driver(
        net, bus, LoopbackDriverConfig{config.period, config.reply_timeout});
    driver.run_cycles(cycles);
    result.transport_digest = scenarios::state_digest(net);
    result.transport_stats = driver.engine_stats();
  }
  return result;
}

TEST(TransportDifferential, ZeroDelayZeroLossAllEvaluatedProtocols) {
  ProtocolOptions options;
  options.view_size = 8;
  EventEngineConfig config;
  config.min_latency = 0.0;
  config.max_latency = 0.0;
  config.drop_probability = 0.0;
  std::uint64_t seed = 0xD1FF0001;
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    const DifferentialRun r =
        run_differential(spec, options, 64, seed++, 20, config);
    EXPECT_EQ(r.engine_digest, r.transport_digest) << spec.name();
    expect_stats_equal(r.engine_stats, r.transport_stats);
  }
}

TEST(TransportDifferential, LatencyAndLossStayBitIdentical) {
  // The correspondence is not limited to the degenerate config: the bus
  // mirrors the engine's master-Rng draw pattern, so latency jitter and
  // message loss replay identically too.
  ProtocolOptions options;
  options.view_size = 10;
  EventEngineConfig config;
  config.min_latency = 0.01;
  config.max_latency = 0.10;
  config.drop_probability = 0.15;
  for (const ProtocolSpec& spec :
       {ProtocolSpec::newscast(), ProtocolSpec::lpbcast()}) {
    const DifferentialRun r =
        run_differential(spec, options, 96, 0xD1FF0002, 25, config);
    EXPECT_EQ(r.engine_digest, r.transport_digest) << spec.name();
    expect_stats_equal(r.engine_stats, r.transport_stats);
  }
}

TEST(TransportDifferential, ChurnAndGrowthStayBitIdentical) {
  ProtocolOptions options;
  options.view_size = 8;
  EventEngineConfig config;
  config.min_latency = 0.0;
  config.max_latency = 0.05;
  config.drop_probability = 0.05;
  const std::uint64_t seed = 0xD1FF0003;

  std::uint64_t engine_digest, transport_digest;
  EventEngineStats engine_stats, transport_stats;
  {
    Network net = sim::bootstrap::make_random(ProtocolSpec::newscast(), options, 80, seed);
    EventEngine engine(net, config);
    engine.run_cycles(8);
    net.kill(3);
    net.kill(17);
    net.kill_random(10, net.rng());
    engine.run_cycles(8);
    net.revive(3);
    net.add_nodes(24);
    engine.run_cycles(8);
    engine_digest = scenarios::state_digest(net);
    engine_stats = engine.stats();
  }
  {
    Network net = sim::bootstrap::make_random(ProtocolSpec::newscast(), options, 80, seed);
    LoopbackConfig bus_config;
    bus_config.max_delay = config.max_latency;
    bus_config.loss_probability = config.drop_probability;
    LoopbackTransport bus(bus_config, net.rng());
    LoopbackDriver driver(net, bus);
    driver.run_cycles(8);
    net.kill(3);
    net.kill(17);
    net.kill_random(10, net.rng());
    driver.run_cycles(8);
    net.revive(3);
    net.add_nodes(24);
    driver.run_cycles(8);
    transport_digest = scenarios::state_digest(net);
    transport_stats = driver.engine_stats();
  }
  EXPECT_EQ(engine_digest, transport_digest);
  expect_stats_equal(engine_stats, transport_stats);
}

TEST(TransportDifferential, RunsAreDeterministic) {
  ProtocolOptions options;
  options.view_size = 6;
  EventEngineConfig config;
  config.max_latency = 0.1;
  config.min_latency = 0.01;
  config.drop_probability = 0.1;
  const DifferentialRun a = run_differential(ProtocolSpec::newscast(), options,
                                             50, 0xD1FF0004, 15, config);
  const DifferentialRun b = run_differential(ProtocolSpec::newscast(), options,
                                             50, 0xD1FF0004, 15, config);
  EXPECT_EQ(a.transport_digest, b.transport_digest);
  EXPECT_EQ(a.engine_digest, b.engine_digest);
}

TEST(TransportInvariants, LossReorderDuplicationKeepViewsSound) {
  ProtocolOptions options;
  options.view_size = 8;
  Network net = sim::bootstrap::make_random(ProtocolSpec::newscast(), options, 100,
                                 0x14BA0011);
  LoopbackConfig bus_config;
  bus_config.min_delay = 0.0;
  bus_config.max_delay = 0.3;
  bus_config.loss_probability = 0.2;
  bus_config.reorder_probability = 0.5;
  bus_config.reorder_jitter = 0.8;
  bus_config.duplicate_probability = 0.3;
  LoopbackTransport bus(bus_config, net.rng());
  LoopbackDriver driver(net, bus);
  driver.run_cycles(30);

  for (NodeId id = 0; id < net.size(); ++id) {
    const auto view = net.view_span(id);
    EXPECT_LE(view.size(), options.view_size);
    for (std::size_t i = 0; i < view.size(); ++i) {
      EXPECT_NE(view[i].address, id) << "self-entry at node " << id;
      if (i + 1 < view.size()) {
        EXPECT_TRUE(ByHopThenAddress{}(view[i], view[i + 1]))
            << "view not normalized at node " << id;
      }
    }
  }
  const LoopbackStats& s = bus.stats();
  EXPECT_EQ(s.frames_sent + s.frames_duplicated,
            s.frames_delivered + s.frames_dropped + bus.in_flight());
  EXPECT_EQ(driver.rejected_frames(), 0u);
  EXPECT_GT(s.frames_delivered, 0u);
}

TEST(TransportInvariants, EngineStatsEqualPerNodeSums) {
  // engine_stats() reports running totals the driver keeps around its
  // on_tick/on_frame calls; they must equal the per-node counters summed.
  // Both calls move replies_stale: on_frame for a duplicated reply, on_tick
  // for a lost exchange superseded before its timeout (longer than the
  // period here). Killed nodes stop waking up.
  ProtocolOptions options;
  options.view_size = 8;
  Network net = sim::bootstrap::make_random(ProtocolSpec::newscast(), options,
                                            100, 0x14BA0012);
  LoopbackConfig bus_config;
  bus_config.max_delay = 0.3;
  bus_config.loss_probability = 0.1;
  bus_config.duplicate_probability = 0.3;
  LoopbackTransport bus(bus_config, net.rng());
  LoopbackDriver driver(net, bus, LoopbackDriverConfig{1.0, 2.5});
  driver.run_cycles(10);
  net.kill_random(20, net.rng());
  driver.run_cycles(10);

  EventEngineStats sum;
  for (NodeId id = 0; id < net.size(); ++id) {
    sum.wakeups += driver.node(id).stats().wakeups;
    sum.replies_delivered += driver.node(id).stats().replies_delivered;
    sum.replies_stale += driver.node(id).stats().replies_stale;
  }
  const EventEngineStats totals = driver.engine_stats();
  EXPECT_EQ(totals.wakeups, sum.wakeups);
  EXPECT_EQ(totals.replies_delivered, sum.replies_delivered);
  EXPECT_EQ(totals.replies_stale, sum.replies_stale);
  EXPECT_GT(totals.replies_delivered, 0u);
  EXPECT_GT(totals.replies_stale, 0u);
  EXPECT_LT(totals.wakeups, 100u * 20u);
}

TEST(TransportInvariants, MalformedInjectionIsCountedAndHarmless) {
  ProtocolOptions options;
  options.view_size = 6;
  Network net =
      sim::bootstrap::make_random(ProtocolSpec::newscast(), options, 40, 0x14BA0012);
  LoopbackConfig bus_config;  // zero delay/loss
  LoopbackTransport bus(bus_config, net.rng());
  LoopbackDriver driver(net, bus);
  driver.run_cycles(3);

  // Inject garbage straight onto the bus: short frames, bad magic, and a
  // truncated-but-valid prefix. The driver must reject all three at the
  // codec and keep running.
  const std::vector<std::byte> garbage(13, static_cast<std::byte>(0xAB));
  bus.send(5, std::span<const std::byte>(garbage));
  std::vector<std::byte> frame_bytes;
  WireCodec codec(options.view_size);
  std::vector<NodeDescriptor> entries = {{1, 0}, {2, 1}};
  WireFrame frame;
  frame.spec = ProtocolSpec::newscast();
  frame.from = 7;
  frame.to = 5;
  frame.entries = flat::DescSpan(entries);
  codec.encode(frame, frame_bytes);
  frame_bytes[0] = static_cast<std::byte>(0x00);  // bad magic
  bus.send(5, std::span<const std::byte>(frame_bytes));

  driver.run_cycles(5);
  EXPECT_EQ(driver.rejected_frames(), 2u);
  for (NodeId id = 0; id < net.size(); ++id) {
    EXPECT_LE(net.view_span(id).size(), options.view_size);
  }
}

TEST(ServiceNodeWorkspace, DriversOfDifferentViewSizesShareOneThread) {
  // Two drivers, c = 5 and c = 30, advanced alternately on one thread: the
  // shared workspace grows to c = 30 and then serves the c = 5 nodes too.
  // Each run must stay the EventEngine run of its own seed.
  EventEngineConfig config;
  config.min_latency = 0.01;
  config.max_latency = 0.10;
  config.drop_probability = 0.1;
  struct Pair {
    Network engine_net;
    Network wire_net;
    EventEngine engine;
    LoopbackTransport bus;
    LoopbackDriver driver;
    Pair(std::size_t c, std::uint64_t seed, const EventEngineConfig& config)
        : engine_net(sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                                 ProtocolOptions{c, false}, 120,
                                                 seed)),
          wire_net(sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                               ProtocolOptions{c, false}, 120,
                                               seed)),
          engine(engine_net, config),
          bus(LoopbackConfig{config.min_latency, config.max_latency,
                             config.drop_probability},
              wire_net.rng()),
          driver(wire_net, bus,
                 LoopbackDriverConfig{config.period, config.reply_timeout}) {}
  };
  Pair small(5, 0xD1FF0005, config);
  Pair large(30, 0xD1FF0006, config);
  for (int chunk = 0; chunk < 12; ++chunk) {
    small.driver.run_cycles(1);
    large.driver.run_cycles(1);
    small.engine.run_cycles(1);
    large.engine.run_cycles(1);
  }
  for (Pair* p : {&small, &large}) {
    EXPECT_EQ(scenarios::state_digest(p->engine_net),
              scenarios::state_digest(p->wire_net));
    expect_stats_equal(p->engine.stats(), p->driver.engine_stats());
  }
  EXPECT_GT(large.driver.engine_stats().replies_delivered, 0u);
}

TEST(ServiceNodeWorkspace, NodeHoldsNoExchangeScratch) {
  // Protocol state only; the ~6.5 KB of exchange scratch is per thread.
  EXPECT_LE(sizeof(ServiceNode), 512u);
}

TEST(ServiceNodeUnit, MisroutedAndForeignFramesAreCountedNotAbsorbed) {
  Rng bus_rng(0x5E2F0001);
  LoopbackTransport bus({}, bus_rng);
  ServiceNode node(/*self=*/9, ProtocolSpec::newscast(), ProtocolOptions{},
                   Rng(0x5E2F0002), bus);
  const std::vector<NodeId> contacts = {1, 2, 3};
  node.init(contacts);
  const auto before = node.view();
  const std::size_t before_size = before.size();

  ParsedFrame frame;
  frame.type = FrameType::kRequest;
  frame.spec = ProtocolSpec::newscast();
  frame.from = 1;
  frame.to = 8;  // not us
  std::vector<NodeDescriptor> entries = {{4, 0}};
  frame.entries = flat::DescSpan(entries);
  node.on_frame(frame, 0.0);
  EXPECT_EQ(node.stats().misaddressed, 1u);

  frame.to = 9;
  frame.spec = ProtocolSpec::lpbcast();  // foreign protocol
  node.on_frame(frame, 0.0);
  EXPECT_EQ(node.stats().protocol_mismatches, 1u);
  EXPECT_EQ(node.view().size(), before_size);
  EXPECT_EQ(node.node_stats().received, 0u);
}

TEST(ServiceNodeUnit, PullTimeoutSurfacesAsContactFailure) {
  Rng bus_rng(0x5E2F0003);
  LoopbackConfig lossy;
  lossy.loss_probability = 1.0;  // every request vanishes
  LoopbackTransport bus(lossy, bus_rng);
  ServiceNode node(/*self=*/0, ProtocolSpec::newscast(), ProtocolOptions{},
                   Rng(0x5E2F0004), bus);
  const std::vector<NodeId> contacts = {1, 2, 3, 4};
  node.init(contacts);

  node.on_tick(0.0);  // opens a pull exchange; request is dropped
  EXPECT_TRUE(node.pending().active);
  EXPECT_EQ(node.node_stats().initiated, 1u);
  node.on_tick(1.0);  // deadline 0.5 < 1.0: expired
  EXPECT_EQ(node.node_stats().contact_failures, 1u);
}

TEST(ServiceNodeUnit, PeerSamplingServiceRunsOverTransportView) {
  // The service-layer API (init / getPeer) operates on a view the wire
  // stack maintains — the middleware deployment shape of the examples.
  Rng bus_rng(0x5E2F0005);
  LoopbackTransport bus({}, bus_rng);
  ServiceNode a(/*self=*/1, ProtocolSpec::newscast(), ProtocolOptions{},
                Rng(0x5E2F0006), bus);
  ServiceNode b(/*self=*/2, ProtocolSpec::newscast(), ProtocolOptions{},
                Rng(0x5E2F0007), bus);

  PeerSamplingService service(a.gossip_node(), Rng(0x5E2F0008));
  const std::vector<NodeId> contacts = {2};
  service.init(contacts);
  const std::vector<NodeId> b_contacts = {1};
  b.init(b_contacts);

  // Drive a few exchanges by hand: a ticks, frames route by header.
  for (int cycle = 1; cycle <= 4; ++cycle) {
    const double now = static_cast<double>(cycle);
    bus.set_now(now);
    a.on_tick(now);
    b.on_tick(now);
    for (int pass = 0; pass < 2; ++pass) {
      bus.poll([&](NodeId to, std::span<const std::byte> bytes) {
        (to == 1 ? a : b).on_datagram(bytes, now);
      });
    }
  }
  EXPECT_GT(a.stats().replies_delivered + b.stats().replies_delivered, 0u);
  // Both standalone nodes run slot 0 of their own arena: the passive half
  // must drop each node's wire address, never its slot index.
  for (const ServiceNode* node : {&a, &b}) {
    for (const NodeDescriptor& d : node->view()) {
      EXPECT_NE(d.address, 0u) << "slot index leaked into node "
                               << node->self();
      EXPECT_NE(d.address, node->self()) << "self-entry";
    }
  }
  const NodeId peer = service.get_peer();
  EXPECT_EQ(peer, 2u);  // the only other member

  // Over a LoopbackDriver overlay the services read the slots the
  // ServiceNodes maintain (slot == address), and return, call for call,
  // what the View-based oracle returns with a cloned Rng.
  const ProtocolOptions options{10, false};
  Network net = sim::bootstrap::make_random(ProtocolSpec::newscast(), options,
                                            120, 0x5E2F0009);
  LoopbackTransport overlay_bus({}, net.rng());
  LoopbackDriver driver(net, overlay_bus);
  std::vector<GossipNode*> nodes;
  for (NodeId id = 0; id < 120; id += 15) nodes.push_back(&net.node(id));
  const auto outputs = expect_get_peer_matches_view_oracle(
      nodes, [&] { driver.run_cycles(1); }, /*cycles=*/20, /*draws=*/13,
      /*seed=*/0x5E2F000A);
  EXPECT_GT(driver.engine_stats().replies_delivered, 0u);
  EXPECT_GT(std::set<NodeId>(outputs.begin(), outputs.end()).size(), 60u);
}

TEST(ServiceNodeUnit, InitDropsInvalidContact) {
  // kInvalidNode is the "no peer" value. A stored copy would come back out
  // of getPeer() on a non-empty view, and the next tick would address a
  // frame to it, which WireCodec::encode refuses with a throw. Both init
  // paths (PeerSamplingService's and ServiceNode's) go through
  // GossipNode::init_view, which must drop it as it drops self.
  Rng bus_rng(0x5E2F000B);
  LoopbackTransport bus({}, bus_rng);
  ServiceNode a(/*self=*/3, ProtocolSpec::newscast(), ProtocolOptions{},
                Rng(0x5E2F000C), bus);
  PeerSamplingService service(a.gossip_node(), Rng(0x5E2F000D));
  const std::vector<NodeId> contacts = {kInvalidNode, 4};
  service.init(contacts);
  EXPECT_EQ(a.view().size(), 1u);
  for (int draw = 0; draw < 16; ++draw) EXPECT_EQ(service.get_peer(), 4u);

  ServiceNode b(/*self=*/5, ProtocolSpec::newscast(), ProtocolOptions{},
                Rng(0x5E2F000E), bus);
  const std::vector<NodeId> only_invalid = {kInvalidNode};
  b.init(only_invalid);
  EXPECT_TRUE(b.view().empty());
  EXPECT_NO_THROW(b.on_tick(1.0));
  EXPECT_EQ(b.node_stats().initiated, 0u);
}

TEST(ServiceNodeUnit, ReplyFromUnaskedPeerIsStale) {
  // Reply admission is bound to the peer the pull was sent to: a frame
  // that guesses the live exchange id but comes from anyone else is stale.
  Rng bus_rng(0x5E2F0009);
  LoopbackTransport bus({}, bus_rng);
  ServiceNode node(/*self=*/0, ProtocolSpec::newscast(), ProtocolOptions{},
                   Rng(0x5E2F000A), bus);
  const std::vector<NodeId> contacts = {1, 2, 3, 4};
  node.init(contacts);
  node.on_tick(0.0);
  ASSERT_TRUE(node.pending().active);
  const NodeId asked = node.pending().peer;

  ParsedFrame reply;
  reply.type = FrameType::kReply;
  reply.spec = ProtocolSpec::newscast();
  reply.from = asked == 1 ? 2 : 1;  // a contact, but not the one asked
  reply.to = 0;
  reply.exchange_id = node.pending().exchange_id;
  const std::vector<NodeDescriptor> entries = {{77, 0}};
  reply.entries = flat::DescSpan(entries);
  auto holds_77 = [&] {
    const auto view = node.view();
    return std::any_of(view.begin(), view.end(), [](const NodeDescriptor& d) {
      return d.address == 77;
    });
  };

  node.on_frame(reply, 0.1);
  EXPECT_EQ(node.stats().replies_stale, 1u);
  EXPECT_EQ(node.stats().replies_delivered, 0u);
  EXPECT_FALSE(holds_77());
  EXPECT_TRUE(node.pending().active);

  reply.from = asked;
  node.on_frame(reply, 0.2);
  EXPECT_EQ(node.stats().replies_stale, 1u);
  EXPECT_EQ(node.stats().replies_delivered, 1u);
  EXPECT_TRUE(holds_77());
  EXPECT_FALSE(node.pending().active);
}

TEST(LoopbackTransport, DeliversInAtSeqOrder) {
  Rng rng(0x10BA0001);
  LoopbackConfig config;
  LoopbackTransport bus(config, rng);
  const std::vector<std::byte> m1(4, static_cast<std::byte>(1));
  const std::vector<std::byte> m2(4, static_cast<std::byte>(2));
  bus.set_now(0.0);
  bus.send(1, std::span<const std::byte>(m1));
  bus.send(2, std::span<const std::byte>(m2));
  ASSERT_TRUE(bus.next_event().has_value());
  EXPECT_EQ(bus.next_event()->first, 0.0);

  std::vector<NodeId> order;
  bus.poll([&](NodeId to, std::span<const std::byte> bytes) {
    order.push_back(to);
    EXPECT_EQ(bytes.size(), 4u);
  });
  ASSERT_EQ(order.size(), 2u);  // same time: seq breaks the tie, FIFO
  EXPECT_EQ(order[0], 1u);
  EXPECT_EQ(order[1], 2u);
  EXPECT_EQ(bus.in_flight(), 0u);
}

TEST(LoopbackTransport, SendCopiesTheFrame) {
  // The Transport contract: send() never keeps the caller's span, so the
  // sender may overwrite its buffer at once.
  Rng rng(0x10BA0003);
  LoopbackTransport bus({}, rng);
  std::vector<std::byte> frame(6, static_cast<std::byte>(0x3C));
  bus.send(4, std::span<const std::byte>(frame));
  std::fill(frame.begin(), frame.end(), static_cast<std::byte>(0xFF));
  std::vector<std::byte> delivered;
  bus.poll([&](NodeId, std::span<const std::byte> bytes) {
    delivered.assign(bytes.begin(), bytes.end());
  });
  EXPECT_EQ(delivered,
            std::vector<std::byte>(6, static_cast<std::byte>(0x3C)));
}

TEST(LoopbackTransport, DelayedFramesWaitForTheirDueTime) {
  Rng rng(0x10BA0002);
  LoopbackConfig config;
  config.min_delay = 1.0;
  config.max_delay = 1.0;
  LoopbackTransport bus(config, rng);
  const std::vector<std::byte> m(4, static_cast<std::byte>(7));
  bus.send(3, std::span<const std::byte>(m));
  std::size_t delivered = bus.poll([](NodeId, std::span<const std::byte>) {});
  EXPECT_EQ(delivered, 0u);
  bus.set_now(1.0);
  delivered = bus.poll([](NodeId, std::span<const std::byte>) {});
  EXPECT_EQ(delivered, 1u);
}

std::uint16_t test_port_base(std::uint16_t lane) {
  // Distinct per-process bases keep parallel ctest shards off each other's
  // ports; the lane spreads suites inside one process.
  return static_cast<std::uint16_t>(
      20000 + (static_cast<std::uint32_t>(::getpid()) % 400) * 100 + lane * 10);
}

TEST(UdpTransport, TwoNodesGossipOverLocalhost) {
  const std::uint16_t base = test_port_base(0);
  UdpAddressBook book = UdpAddressBook::local_range(base, 2);
  WireCodec codec(ProtocolOptions{}.view_size);
  UdpTransport t0(book, 0, codec.max_frame_bytes());
  UdpTransport t1(book, 1, codec.max_frame_bytes());

  ServiceNode n0(/*self=*/0, ProtocolSpec::newscast(), ProtocolOptions{},
                 Rng(0xBDB00001), t0);
  ServiceNode n1(/*self=*/1, ProtocolSpec::newscast(), ProtocolOptions{},
                 Rng(0xBDB00002), t1);
  const std::vector<NodeId> c0 = {1};
  const std::vector<NodeId> c1 = {0};
  n0.init(c0);
  n1.init(c1);

  for (int cycle = 1; cycle <= 10; ++cycle) {
    const double now = static_cast<double>(cycle);
    n0.on_tick(now);
    n1.on_tick(now);
    // Localhost delivery is near-instant but not synchronous: a short
    // bounded drain loop absorbs the scheduling wiggle.
    for (int pass = 0; pass < 50; ++pass) {
      std::size_t moved = 0;
      moved += t0.poll([&](NodeId, std::span<const std::byte> b) {
        n0.on_datagram(b, now);
      });
      moved += t1.poll([&](NodeId, std::span<const std::byte> b) {
        n1.on_datagram(b, now);
      });
      if (moved == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  EXPECT_GT(n0.node_stats().received + n1.node_stats().received, 0u);
  EXPECT_GT(n0.stats().replies_delivered + n1.stats().replies_delivered, 0u);
  EXPECT_EQ(n0.stats().frames_rejected, 0u);
  EXPECT_EQ(n1.stats().frames_rejected, 0u);
}

TEST(UdpTransport, OversizedDatagramIsDropped) {
  const std::uint16_t base = test_port_base(1);
  UdpAddressBook book = UdpAddressBook::local_range(base, 2);
  WireCodec codec(4);
  UdpTransport t0(book, 0, codec.max_frame_bytes());
  UdpTransport t1(book, 1, codec.max_frame_bytes());

  const std::vector<std::byte> huge(codec.max_frame_bytes() + 64,
                                    static_cast<std::byte>(0x5A));
  ASSERT_TRUE(t0.send(1, std::span<const std::byte>(huge)));
  std::size_t delivered = 0;
  for (int pass = 0; pass < 200 && t1.stats().datagrams_received == 0;
       ++pass) {
    delivered += t1.poll([](NodeId, std::span<const std::byte>) {});
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(t1.stats().oversized_dropped, 1u);
}

TEST(TransportPollLoopThreaded, ConcurrentTickAndPollLoops) {
  // Two single-threaded poll loops in separate threads, sharing nothing
  // but the kernel's sockets — the deployment shape of the examples
  // daemon. TSan runs this in CI to certify the loop structure.
  const std::uint16_t base = test_port_base(2);
  UdpAddressBook book = UdpAddressBook::local_range(base, 2);
  WireCodec codec(ProtocolOptions{}.view_size);
  std::atomic<std::uint64_t> peer_received{0};

  std::thread peer([&] {
    UdpTransport transport(book, 1, codec.max_frame_bytes());
    ServiceNode node(/*self=*/1, ProtocolSpec::newscast(), ProtocolOptions{},
                     Rng(0x7EAD0001), transport);
    const std::vector<NodeId> contacts = {0};
    node.init(contacts);
    for (int cycle = 1; cycle <= 40; ++cycle) {
      node.on_tick(static_cast<double>(cycle));
      for (int pass = 0; pass < 5; ++pass) {
        transport.poll([&](NodeId, std::span<const std::byte> b) {
          node.on_datagram(b, static_cast<double>(cycle));
        });
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    }
    peer_received.store(node.node_stats().received,
                        std::memory_order_relaxed);
  });

  UdpTransport transport(book, 0, codec.max_frame_bytes());
  ServiceNode node(/*self=*/0, ProtocolSpec::newscast(), ProtocolOptions{},
                   Rng(0x7EAD0002), transport);
  const std::vector<NodeId> contacts = {1};
  node.init(contacts);
  for (int cycle = 1; cycle <= 40; ++cycle) {
    node.on_tick(static_cast<double>(cycle));
    for (int pass = 0; pass < 5; ++pass) {
      transport.poll([&](NodeId, std::span<const std::byte> b) {
        node.on_datagram(b, static_cast<double>(cycle));
      });
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }
  peer.join();
  EXPECT_GT(node.node_stats().received + peer_received.load(), 0u);
  EXPECT_EQ(node.stats().frames_rejected, 0u);
}

}  // namespace
}  // namespace pss::transport
