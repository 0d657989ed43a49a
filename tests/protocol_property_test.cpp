// Property-based suites over the WHOLE design space: every one of the 27
// protocol 3-tuples must maintain the view invariants under arbitrary
// exchange sequences, and whole-network runs must be deterministic and
// self-consistent.
#include <gtest/gtest.h>

#include <set>

#include "pss/graph/undirected_graph.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"

namespace pss {
namespace {

class AllProtocols : public ::testing::TestWithParam<ProtocolSpec> {};

std::string spec_test_name(const ::testing::TestParamInfo<ProtocolSpec>& info) {
  std::string n = info.param.name();
  std::string out;
  for (char c : n) {
    if (c == '(' || c == ')') continue;
    out.push_back(c == ',' ? '_' : c);
  }
  return out;
}

// Invariant I: after any sequence of exchanges the view (a) never exceeds c,
// (b) never contains the node itself, (c) has no duplicate addresses, and
// (d) stays sorted by hop count.
TEST_P(AllProtocols, ViewInvariantsUnderRandomExchanges) {
  const auto spec = GetParam();
  constexpr std::size_t kC = 8;
  GossipNode node(0, spec, ProtocolOptions{kC, false}, Rng(1));
  node.init_view(View{{1, 0}, {2, 0}});
  Rng rng(99);
  for (int step = 0; step < 500; ++step) {
    // Random plausible incoming buffer (possibly containing node 0 itself).
    std::vector<NodeDescriptor> entries;
    const auto len = static_cast<std::size_t>(rng.below(kC + 3));
    for (std::size_t i = 0; i < len; ++i) {
      entries.push_back({static_cast<NodeId>(rng.below(20)),
                         static_cast<HopCount>(rng.below(10))});
    }
    if (rng.chance(0.5)) {
      node.handle_message(View(entries));
    } else if (spec.pull()) {
      node.handle_reply(View(entries));
    }
    ASSERT_LE(node.view().size(), kC);
    ASSERT_FALSE(node.view().contains(0));
    ASSERT_NO_THROW(node.view().validate());
  }
}

// The active buffer never exceeds c+1 entries and contains self at hop 0
// exactly when the protocol pushes.
TEST_P(AllProtocols, ActiveBufferShape) {
  const auto spec = GetParam();
  constexpr std::size_t kC = 6;
  GossipNode node(3, spec, ProtocolOptions{kC, false}, Rng(2));
  node.init_view(View{{1, 0}, {2, 0}, {4, 1}, {5, 2}, {6, 3}, {7, 4}});
  const View buffer = node.make_active_buffer();
  if (spec.push()) {
    EXPECT_LE(buffer.size(), kC + 1);
    EXPECT_TRUE(buffer.contains(3));
    EXPECT_EQ(buffer.hop_count_of(3), 0u);
  } else {
    EXPECT_TRUE(buffer.empty());
  }
}

// Determinism: two identically-seeded networks evolve identically.
TEST_P(AllProtocols, WholeNetworkDeterminism) {
  const auto spec = GetParam();
  ProtocolOptions opts{5, false};
  auto n1 = sim::bootstrap::make_random(spec, opts, 40, 2024);
  auto n2 = sim::bootstrap::make_random(spec, opts, 40, 2024);
  sim::CycleEngine e1(n1), e2(n2);
  e1.run(15);
  e2.run(15);
  for (NodeId id = 0; id < 40; ++id) {
    ASSERT_EQ(n1.node(id).view(), n2.node(id).view()) << "node " << id;
  }
  EXPECT_EQ(e1.stats().exchanges, e2.stats().exchanges);
}

// Every view entry refers to a node that exists; hop counts stay bounded by
// the number of cycles plus the bootstrap age.
TEST_P(AllProtocols, ViewsReferenceRealNodesAndPlausibleAges) {
  const auto spec = GetParam();
  constexpr std::size_t kN = 60;
  constexpr Cycle kCycles = 20;
  auto network = sim::bootstrap::make_random(spec, ProtocolOptions{6, false},
                                             kN, 7);
  sim::CycleEngine engine(network);
  engine.run(kCycles);
  for (NodeId id = 0; id < kN; ++id) {
    for (const auto& d : network.view_span(id)) {
      ASSERT_LT(d.address, kN);
      ASSERT_NE(d.address, id);
      // A descriptor ages once per owner cycle plus once per transfer; the
      // number of transfers a copy survives per cycle is bounded by the
      // exchanges its holder participates in (expected 2, tails higher).
      // A generous sanity bound still catches runaway aging bugs.
      ASSERT_LE(d.hop_count, (kCycles + 1) * 8);
    }
    ASSERT_NO_THROW(network.node(id).view().validate());
  }
}

// The 8 evaluated protocols must keep a 200-node random-bootstrapped
// overlay connected for 50 cycles (the paper observed 100% connectivity in
// the random-init scenario).
class EvaluatedProtocols : public ::testing::TestWithParam<ProtocolSpec> {};

TEST_P(EvaluatedProtocols, RandomInitStaysConnected) {
  const auto spec = GetParam();
  auto network = sim::bootstrap::make_random(spec, ProtocolOptions{10, false},
                                             200, 31);
  sim::CycleEngine engine(network);
  for (int step = 0; step < 5; ++step) {
    engine.run(10);
    const auto g = graph::UndirectedGraph::from_network(network);
    std::vector<std::uint32_t> stack{0};
    std::set<std::uint32_t> seen{0};
    while (!stack.empty()) {
      auto v = stack.back();
      stack.pop_back();
      for (auto w : g.neighbors(v)) {
        if (seen.insert(w).second) stack.push_back(w);
      }
    }
    ASSERT_EQ(seen.size(), g.vertex_count())
        << spec.name() << " partitioned at cycle " << engine.cycle();
  }
}

// Exchanges conserve "knowledge": after one pushpull exchange between two
// isolated nodes, each knows the other.
TEST_P(EvaluatedProtocols, PairwiseExchangeCreatesMutualKnowledge) {
  const auto spec = GetParam();
  if (!spec.pull()) return;  // push-only: only the passive side learns
  GossipNode a(0, spec, ProtocolOptions{4, false}, Rng(1));
  GossipNode b(1, spec, ProtocolOptions{4, false}, Rng(2));
  a.init_view(View{{1, 0}});
  auto reply = b.handle_message(a.make_active_buffer());
  ASSERT_TRUE(reply.has_value());
  a.handle_reply(*reply);
  EXPECT_TRUE(a.view().contains(1));
  EXPECT_TRUE(b.view().contains(0));
}

INSTANTIATE_TEST_SUITE_P(DesignSpace, AllProtocols,
                         ::testing::ValuesIn(ProtocolSpec::all()),
                         spec_test_name);

INSTANTIATE_TEST_SUITE_P(Evaluated, EvaluatedProtocols,
                         ::testing::ValuesIn(ProtocolSpec::evaluated()),
                         spec_test_name);

}  // namespace
}  // namespace pss
