// The flat event engine's contract, in three parts:
//   1. CalendarQueue unit tests — deterministic (at, seq) pop order under
//      ties, bucket growth/shrink, far-future events (the sparse direct-
//      search path), a randomized replay against std::priority_queue, and
//      (with DescriptorSlabPool) no free-list growth on a full drain.
//   2. EventQueue unit tests — the wake-up ring's FIFO order across
//      wrap-around and growth, late batches merged between pending
//      re-arms, (at, seq) ties between the ring and the calendar, the
//      message hint naming the next message, the debug check on
//      out-of-order re-arms, and a randomized replay of the engine's load
//      against std::priority_queue.
//   3. Trace equivalence — the flat EventEngine must reproduce the frozen
//      LegacyEventEngine bit-for-bit from the same seed: identical
//      EventEngineStats, identical final views and per-node counters, for
//      every evaluated protocol and under loss, timeouts, kills, revivals,
//      partitions and late joiners, at latencies from zero to beyond a
//      period. This is the pin that let the engine move off the object
//      graph without the semantics moving.
#include <gtest/gtest.h>

#include <queue>
#include <tuple>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/membership/descriptor_slab_pool.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/calendar_queue.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/event_queue.hpp"
#include "pss/sim/legacy_event_engine.hpp"

namespace pss::sim {
namespace {

// --- CalendarQueue ---------------------------------------------------------

TEST(CalendarQueue, PopsInTimeOrderWithSeqTieBreak) {
  CalendarQueue<int> q(2.0);
  // Three timestamp ties (same at -> same bucket) interleaved with others,
  // pushed out of order; seq decides within a tie.
  q.push(0.5, 4, 40);
  q.push(0.25, 1, 10);
  q.push(0.5, 2, 20);
  q.push(1.75, 5, 50);
  q.push(0.5, 3, 30);
  q.push(0.0, 0, 0);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().value);
  EXPECT_EQ(order, (std::vector<int>{0, 10, 20, 30, 40, 50}));
}

TEST(CalendarQueue, BucketResizeKeepsOrderAndShrinksBack) {
  CalendarQueue<int> q(2.0, 16);
  const std::size_t initial_buckets = q.bucket_count();
  Rng rng(7);
  std::vector<double> times;
  for (int i = 0; i < 4000; ++i) times.push_back(rng.uniform() * 2.0);
  for (std::size_t i = 0; i < times.size(); ++i) {
    q.push(times[i], i, static_cast<int>(i));
  }
  EXPECT_GT(q.bucket_count(), initial_buckets);  // growth triggered
  double last = -1.0;
  while (q.size() > times.size() / 100) {
    const auto item = q.pop();
    EXPECT_GE(item.at, last);
    last = item.at;
  }
  EXPECT_LT(q.bucket_count(), 4000 / 4);  // shrink triggered on the way down
  while (!q.empty()) {
    const auto item = q.pop();
    EXPECT_GE(item.at, last);
    last = item.at;
  }
}

TEST(CalendarQueue, FarFutureEventsTakeTheSparsePath) {
  CalendarQueue<int> q(1.0);
  // Everything sits many "years" beyond the cursor: pop must fall back to
  // the direct bucket-minima scan and still produce total order.
  q.push(5000.25, 0, 1);
  q.push(123.5, 1, 2);
  q.push(99999.75, 2, 3);
  q.push(123.5, 3, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().value);
  EXPECT_EQ(order, (std::vector<int>{2, 4, 1, 3}));
  // And the queue keeps working for near events afterwards.
  q.push(0.5, 4, 5);
  EXPECT_EQ(q.pop().value, 5);
}

TEST(CalendarQueue, MatchesBinaryHeapUnderRandomizedHold) {
  // The event engine's access pattern: pop the minimum, push a mix of
  // near-future (message-like) and one-period-ahead (rearm-like) events.
  using Ref = std::pair<double, std::uint64_t>;
  std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
  CalendarQueue<std::uint64_t> q(2.0);
  Rng rng(11);
  std::uint64_t seq = 0;
  for (int i = 0; i < 200; ++i) {
    const double at = rng.uniform();
    ref.emplace(at, seq);
    q.push(at, seq, seq);
    ++seq;
  }
  double now = 0;
  for (int step = 0; step < 5000; ++step) {
    ASSERT_EQ(q.empty(), ref.empty());
    if (!ref.empty() && (ref.size() > 300 || rng.chance(0.6))) {
      const auto [at, id] = ref.top();
      ref.pop();
      const auto item = q.pop();
      ASSERT_DOUBLE_EQ(item.at, at);
      ASSERT_EQ(item.seq, id);
      now = at;
    } else {
      const double at =
          now + (rng.chance(0.3) ? 1.0 : rng.uniform() * 0.1);
      ref.emplace(at, seq);
      q.push(at, seq, seq);
      ++seq;
    }
  }
}

TEST(CalendarQueue, DrainingAfterTheHighWaterAllocatesNothing) {
  // The free list is sized with the node pool, so draining a full queue
  // (the in-flight population dipping to a new low) never grows it.
  CalendarQueue<std::uint32_t> q(1.0);
  for (std::uint32_t i = 0; i < 1000; ++i) q.push(i / 1000.0, i, i);
  const std::size_t high_water = q.storage_bytes();
  while (!q.empty()) q.pop();
  EXPECT_EQ(q.storage_bytes(), high_water);
}

// --- DescriptorSlabPool ------------------------------------------------------

TEST(DescriptorSlabPool, DrainingAfterTheHighWaterAllocatesNothing) {
  DescriptorSlabPool pool(31);
  std::vector<DescriptorSlabPool::SlabId> ids;
  for (int i = 0; i < 1000; ++i) ids.push_back(pool.acquire());
  const std::size_t high_water = pool.storage_bytes();
  for (const auto id : ids) pool.release(id);
  EXPECT_EQ(pool.in_use(), 0u);
  EXPECT_EQ(pool.storage_bytes(), high_water);
}

// --- EventQueue --------------------------------------------------------------

// Pops everything due by `until` as (at, seq, node or -1 - message).
std::vector<std::tuple<double, std::uint64_t, long>> drain(
    EventQueue<int>& q, double until) {
  std::vector<std::tuple<double, std::uint64_t, long>> out;
  while (const auto* e = q.pop_if_at_most(until)) {
    out.emplace_back(e->at, e->seq,
                     e->wakeup() ? static_cast<long>(e->node)
                                 : -1 - static_cast<long>(e->message));
  }
  return out;
}

TEST(EventQueue, RingKeepsFifoOrderAcrossWrapAroundAndGrowth) {
  EventQueue<int> q(1.0, 0.1);
  const std::vector<double> phase = {0.4, 0.1, 0.3, 0.2};
  q.add_first_wakeups(0, 4, [&](NodeId id) { return phase[id]; });
  EXPECT_EQ(q.size(), 4u);
  // Three full periods of pop-then-rearm walk the head around the ring
  // three times; the order stays the phase order.
  double now = 0;
  for (int round = 0; round < 3; ++round) {
    for (const NodeId expect : {1u, 3u, 2u, 0u}) {
      const auto* e = q.pop_if_at_most(1e9);
      ASSERT_NE(e, nullptr);
      ASSERT_TRUE(e->wakeup());
      EXPECT_EQ(e->node, expect) << "round " << round;
      EXPECT_GE(e->at, now);
      now = e->at;
      q.rearm(now + 1.0, e->node);
    }
  }
  // Pop two, then re-arm three more than were popped: the ring is full
  // with its head mid-buffer, so it must unroll and grow.
  const auto* a = q.pop_if_at_most(1e9);
  const NodeId na = a->node;
  const double ta = a->at;
  const auto* b = q.pop_if_at_most(1e9);
  const NodeId nb = b->node;
  const double tb = b->at;
  EXPECT_EQ(na, 1u);
  EXPECT_EQ(nb, 3u);
  q.rearm(ta + 1.0, na);
  q.rearm(tb + 1.0, nb);
  q.rearm(tb + 1.0, 7);  // a tie on `at`: seq keeps it behind node 3
  q.rearm(tb + 1.5, 8);
  q.rearm(tb + 2.0, 9);
  EXPECT_EQ(q.size(), 7u);
  std::vector<NodeId> order;
  while (const auto* e = q.pop_if_at_most(1e9)) order.push_back(e->node);
  EXPECT_EQ(order, (std::vector<NodeId>{2, 0, 1, 3, 7, 8, 9}));
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, LateBatchMergesBetweenPendingRearms) {
  EventQueue<int> q(1.0, 0.1);
  // Binary fractions throughout, so the tie below is exact.
  q.add_first_wakeups(0, 4, [](NodeId id) { return 0.125 + 0.25 * id; });
  // Run to 1.0: every node woke once and re-armed one period later.
  for (const auto& [at, seq, node] : drain(q, 1.0)) {
    q.rearm(at + 1.0, static_cast<NodeId>(node));
  }
  // Pending re-arms at 1.125, 1.375, 1.625, 1.875; the late batch's
  // phases, drawn in id order, land before, between and after them.
  const std::vector<double> late = {1.75, 1.0625, 1.9375, 1.375};
  q.add_first_wakeups(4, 4, [&](NodeId id) { return late[id - 4]; });
  EXPECT_EQ(q.size(), 8u);
  std::vector<NodeId> order;
  for (const auto& [at, seq, node] : drain(q, 2.0)) {
    order.push_back(static_cast<NodeId>(node));
  }
  // 1.375 is a tie between node 1's re-arm and node 7's first wake-up:
  // the re-arm was scheduled first, so its smaller seq pops first.
  EXPECT_EQ(order, (std::vector<NodeId>{5, 0, 1, 7, 2, 4, 3, 6}));
}

TEST(EventQueue, TiesBetweenRingAndCalendarBreakOnSeq) {
  EventQueue<int> q(1.0, 0.1);
  q.add_first_wakeups(0, 1, [](NodeId) { return 0.0; });
  const auto* first = q.pop_if_at_most(0.0);
  ASSERT_NE(first, nullptr);
  // Wake-up re-armed before the message: the wake-up pops first.
  q.rearm(1.0, 0);
  q.push(1.0, 11);
  // Message pushed before the next wake-up at the same time: it pops
  // first.
  q.push(2.0, 22);
  q.rearm(2.0, 0);
  const auto events = drain(q, 2.0);
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(std::get<2>(events[0]), 0);
  EXPECT_EQ(std::get<2>(events[1]), -1 - 11);
  EXPECT_EQ(std::get<2>(events[2]), -1 - 22);
  EXPECT_EQ(std::get<2>(events[3]), 0);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(std::get<1>(events[i - 1]), std::get<1>(events[i]));
  }
  // Nothing due before a target pops nothing and removes nothing.
  q.rearm(3.0, 0);
  EXPECT_EQ(q.pop_if_at_most(2.5), nullptr);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, MessageHintIsTheNextMessageWhileAnyIsInFlight) {
  // The year is 0.2 over 16 buckets: 0.01 and 0.15 lie 12 buckets apart,
  // so popping the first empties the bucket the calendar's cursor is
  // parked on. The hint must still name the second.
  EventQueue<int> q(1.0, 0.1);
  EXPECT_EQ(q.message_hint(), nullptr);
  q.push(0.01, 1);
  q.push(0.15, 2);
  ASSERT_NE(q.message_hint(), nullptr);
  EXPECT_EQ(q.message_hint()->value, 1);
  const auto* first = q.pop_if_at_most(1.0);
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->message, 1);
  const auto* hint = q.message_hint();
  ASSERT_NE(hint, nullptr);
  EXPECT_EQ(hint->at, 0.15);
  EXPECT_EQ(hint->value, 2);
  // A later push that sorts first takes the hint over; a wake-up due
  // before both leaves it alone.
  q.push(0.12, 3);
  q.add_first_wakeups(0, 1, [](NodeId) { return 0.05; });
  ASSERT_NE(q.message_hint(), nullptr);
  EXPECT_EQ(q.message_hint()->value, 3);
  const auto* wake = q.pop_if_at_most(1.0);
  ASSERT_NE(wake, nullptr);
  EXPECT_TRUE(wake->wakeup());
  ASSERT_NE(q.message_hint(), nullptr);
  EXPECT_EQ(q.message_hint()->value, 3);
  for (const int expected : {3, 2}) {
    const auto* e = q.pop_if_at_most(1.0);
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->message, expected);
  }
  EXPECT_EQ(q.message_hint(), nullptr);
}

#ifndef NDEBUG
// PSS_DCHECK compiles out under NDEBUG, so this test exists in debug
// builds only.
TEST(EventQueue, DebugCheckRefusesAnOutOfOrderRearm) {
  EventQueue<int> q(1.0, 0.1);
  q.rearm(2.0, 0);
  q.rearm(2.0, 1);  // equal time, larger seq: in order
  EXPECT_THROW(q.rearm(1.5, 2), std::logic_error);
}
#endif

TEST(EventQueue, MatchesBinaryHeapUnderRandomizedEngineLoad) {
  // The engines' access pattern against one binary heap over every event:
  // run to a target, pop whatever is due, re-arm each wake-up one period
  // on, send messages at +U[lo, hi] (sometimes at +0), answer some of
  // them, and let batches of late joiners arrive between targets. The
  // heap sees the seqs the queue hands out, so any divergence in order,
  // time, seq or payload shows.
  for (const auto& [lo, hi] : {std::pair{0.01, 0.1}, std::pair{0.0, 0.0},
                               std::pair{0.3, 2.5}}) {
    constexpr double kPeriod = 1.0;
    using Ref = std::tuple<double, std::uint64_t, long>;
    std::priority_queue<Ref, std::vector<Ref>, std::greater<Ref>> ref;
    EventQueue<int> q(kPeriod, hi);
    Rng rng(29);
    std::uint64_t seq = 0;
    NodeId nodes = 0;
    int next_message = 0;
    double now = 0;
    auto add_nodes = [&](NodeId count) {
      q.add_first_wakeups(nodes, count, [&](NodeId id) {
        const double at = now + rng.uniform() * kPeriod;
        ref.emplace(at, seq++, static_cast<long>(id));
        return at;
      });
      nodes += count;
    };
    auto send = [&](double at) {
      ref.emplace(at, seq++, -1 - static_cast<long>(next_message));
      q.push(at, next_message++);
    };
    add_nodes(200);
    std::size_t popped = 0;
    for (int step = 1; step <= 300; ++step) {
      const double until = 0.1 * step;
      while (const auto* e = q.pop_if_at_most(until)) {
        ASSERT_FALSE(ref.empty());
        const auto [at, s, id] = ref.top();
        ref.pop();
        ASSERT_EQ(e->at, at);
        ASSERT_EQ(e->seq, s);
        ASSERT_EQ(e->wakeup() ? static_cast<long>(e->node)
                              : -1 - static_cast<long>(e->message),
                  id);
        ++popped;
        now = e->at;
        if (e->wakeup()) {
          ref.emplace(now + kPeriod, seq++, id);
          q.rearm(now + kPeriod, e->node);
          if (rng.chance(0.8)) {
            send(rng.chance(0.1) ? now : now + lo + rng.uniform() * (hi - lo));
          }
        } else if (rng.chance(0.5)) {
          send(now + lo + rng.uniform() * (hi - lo));
        }
      }
      ASSERT_TRUE(ref.empty() || std::get<0>(ref.top()) > until);
      ASSERT_EQ(q.size(), ref.size());
      now = until;
      if (step % 37 == 0) add_nodes(1 + step % 23);
    }
    EXPECT_GT(popped, 200u * 25u);
  }
}

// --- Trace equivalence: flat engine vs. frozen legacy reference ------------

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

void expect_networks_equal(const Network& a, const Network& b) {
  ASSERT_EQ(a.size(), b.size());
  for (NodeId id = 0; id < a.size(); ++id) {
    const auto va = a.view_span(id);
    const auto vb = b.view_span(id);
    ASSERT_EQ(va.size(), vb.size()) << "view size diverged at node " << id;
    for (std::size_t i = 0; i < va.size(); ++i) {
      EXPECT_EQ(va[i], vb[i]) << "view entry diverged at node " << id;
    }
    const NodeStats& sa = a.node(id).stats();
    const NodeStats& sb = b.node(id).stats();
    EXPECT_EQ(sa.initiated, sb.initiated) << "node " << id;
    EXPECT_EQ(sa.received, sb.received) << "node " << id;
    EXPECT_EQ(sa.replies_sent, sb.replies_sent) << "node " << id;
    EXPECT_EQ(sa.contact_failures, sb.contact_failures) << "node " << id;
  }
}

TEST(EventEngineTraceEquivalence, AllEvaluatedProtocols) {
  // Same seed -> two identical networks; the legacy engine drives one, the
  // flat engine the other, through identical run_until targets. Every
  // counter and every final view must match for all 8 evaluated protocols.
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    auto legacy_net =
        bootstrap::make_random(spec, ProtocolOptions{8, false}, 120, 99);
    auto flat_net =
        bootstrap::make_random(spec, ProtocolOptions{8, false}, 120, 99);
    LegacyEventEngine legacy(legacy_net, async_config());
    EventEngine flat(flat_net, async_config());
    legacy.run_until(12.5);
    flat.run_until(12.5);
    EXPECT_DOUBLE_EQ(legacy.now(), flat.now());
    expect_stats_equal(legacy.stats(), flat.stats());
    expect_networks_equal(legacy_net, flat_net);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trace divergence under " << spec.name();
    }
  }
}

TEST(EventEngineTraceEquivalence, LossTimeoutsKillsRevivalsAndLateJoiners) {
  // The adversarial trace: message loss, tight reply timeouts, mid-run
  // kills and revivals, and nodes joining while the engines run. Exercises
  // drops, messages_to_dead, stale replies and contact failures.
  auto cfg = async_config();
  cfg.drop_probability = 0.25;
  cfg.reply_timeout = 0.08;  // tighter than max_latency: real timeouts
  auto legacy_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                           ProtocolOptions{6, false}, 80, 7);
  auto flat_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{6, false}, 80, 7);
  LegacyEventEngine legacy(legacy_net, cfg);
  EventEngine flat(flat_net, cfg);

  legacy.run_until(5.0);
  flat.run_until(5.0);
  for (NodeId id = 0; id < 20; ++id) {
    legacy_net.kill(id);
    flat_net.kill(id);
  }
  legacy.run_until(10.0);
  flat.run_until(10.0);
  for (NodeId id = 0; id < 10; ++id) {
    legacy_net.revive(id);
    flat_net.revive(id);
  }
  const NodeId late_l = legacy_net.add_node();
  const NodeId late_f = flat_net.add_node();
  ASSERT_EQ(late_l, late_f);
  legacy_net.node(late_l).init_view(View{{late_l - 1, 0}});
  flat_net.node(late_f).init_view(View{{late_f - 1, 0}});
  legacy.run_until(20.0);
  flat.run_until(20.0);

  EXPECT_GT(legacy.stats().messages_dropped, 0u);
  EXPECT_GT(legacy.stats().messages_to_dead, 0u);
  EXPECT_GT(legacy.stats().replies_stale, 0u);
  expect_stats_equal(legacy.stats(), flat.stats());
  expect_networks_equal(legacy_net, flat_net);
}

// Latency regimes the default config never reaches: zero delay (every
// message due at the instant it is sent), the default band, and messages
// slower than a whole period. The calendar's year follows max_latency, so
// each regime sizes it differently.
struct LatencyRegime {
  double min_latency;
  double max_latency;
};
constexpr LatencyRegime kLatencyRegimes[] = {{0.0, 0.0}, {0.01, 0.1},
                                             {0.3, 2.5}};

// Gives the `count` newest nodes of `net` a first view of two older nodes.
void seed_late_joiners(Network& net, NodeId count) {
  const NodeId n = static_cast<NodeId>(net.size());
  for (NodeId id = n - count; id < n; ++id) {
    net.node(id).init_view(View{{id / 2, 0}, {id / 3, 0}});
  }
}

TEST(EventEngineTraceEquivalence, LatencyRegimesWithLossKillsAndLateJoiners) {
  for (const LatencyRegime& regime : kLatencyRegimes) {
    auto cfg = async_config();
    cfg.min_latency = regime.min_latency;
    cfg.max_latency = regime.max_latency;
    cfg.drop_probability = 0.2;
    cfg.reply_timeout = 1.5;
    auto legacy_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                             ProtocolOptions{6, false}, 90, 17);
    auto flat_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                           ProtocolOptions{6, false}, 90, 17);
    LegacyEventEngine legacy(legacy_net, cfg);
    EventEngine flat(flat_net, cfg);
    auto both = [&](auto&& step) {
      step(legacy_net);
      step(flat_net);
    };

    legacy.run_until(4.0);
    flat.run_until(4.0);
    both([](Network& net) {
      for (NodeId id = 10; id < 25; ++id) net.kill(id);
    });
    legacy.run_until(8.25);
    flat.run_until(8.25);
    both([](Network& net) {
      for (NodeId id = 10; id < 15; ++id) net.revive(id);
      net.add_nodes(12);
      seed_late_joiners(net, 12);
    });
    legacy.run_until(12.5);
    flat.run_until(12.5);
    both([](Network& net) {
      net.add_nodes(7);
      seed_late_joiners(net, 7);
    });
    legacy.run_until(18.0);
    flat.run_until(18.0);

    EXPECT_GT(legacy.stats().messages_dropped, 0u);
    EXPECT_GT(legacy.stats().messages_to_dead, 0u);
    expect_stats_equal(legacy.stats(), flat.stats());
    expect_networks_equal(legacy_net, flat_net);
    if (::testing::Test::HasFailure()) {
      FAIL() << "trace divergence at latency [" << regime.min_latency << ", "
             << regime.max_latency << "]";
    }
  }
}

TEST(EventEngineTraceEquivalence, NetworkPartitions) {
  auto legacy_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                           ProtocolOptions{6, false}, 60, 13);
  auto flat_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{6, false}, 60, 13);
  LegacyEventEngine legacy(legacy_net, async_config());
  EventEngine flat(flat_net, async_config());
  for (NodeId id = 0; id < 30; ++id) {
    legacy_net.set_partition_group(id, 1);
    flat_net.set_partition_group(id, 1);
  }
  legacy.run_until(8.0);
  flat.run_until(8.0);
  legacy_net.clear_partitions();
  flat_net.clear_partitions();
  legacy.run_until(16.0);
  flat.run_until(16.0);
  EXPECT_GT(legacy.stats().messages_to_dead, 0u);  // cross-group losses
  expect_stats_equal(legacy.stats(), flat.stats());
  expect_networks_equal(legacy_net, flat_net);
}

// --- Flat-engine-specific behavior -----------------------------------------

TEST(EventEngineFlat, RunCyclesDerivesWakeTimesFromIntegerTicks) {
  // now + cycles * period accumulated 0.1 ten times lands at
  // 0.9999999999999999; the tick counter lands at double(10) * 0.1 == 1.0.
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 10, 3);
  auto cfg = async_config();
  cfg.period = 0.1;
  EventEngine engine(net, cfg);
  for (int i = 0; i < 10; ++i) engine.run_cycles(1);
  EXPECT_DOUBLE_EQ(engine.now(), 1.0);

  // The legacy accumulation demonstrably drifts on the same schedule.
  auto ref_net = bootstrap::make_random(ProtocolSpec::newscast(),
                                        ProtocolOptions{5, false}, 10, 3);
  LegacyEventEngine legacy(ref_net, cfg);
  for (int i = 0; i < 10; ++i) legacy.run_cycles(1);
  EXPECT_NE(legacy.now(), 1.0);

  // An explicit run_until re-anchors the counter.
  engine.run_until(1.25);
  engine.run_cycles(2);
  EXPECT_DOUBLE_EQ(engine.now(), 1.25 + 2.0 * 0.1);
}

TEST(EventEngineFlat, MessagePoolRecyclesSlabs) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 50, 21);
  EventEngine engine(net, async_config());
  engine.run_cycles(40);
  // ~3 messages per node per period for 40 periods; a non-recycling pool
  // would hold thousands of slabs. The high-water mark is bounded by the
  // in-flight population (≲ 2 per node).
  EXPECT_GT(engine.stats().messages_sent, 3000u);
  EXPECT_LE(engine.message_pool_slabs(), 2 * net.size());
  // Between events nothing leaks: every slab not attached to a queued
  // message is back on the free list.
  EXPECT_LE(engine.message_pool_in_use(), engine.queued_events());
}

TEST(EventEngineFlat, QueuedEventsTrackThePendingPopulation) {
  auto net = bootstrap::make_random(ProtocolSpec::newscast(),
                                    ProtocolOptions{5, false}, 64, 5);
  EventEngine engine(net, async_config());
  engine.run_cycles(5);
  // Every node keeps exactly one wake-up queued; in-flight messages ride on
  // top of that.
  EXPECT_GE(engine.queued_events(), net.size());
  EXPECT_LE(engine.queued_events(), 3 * net.size());
}

// --- Incremental live-id pool (Network) ------------------------------------

TEST(NetworkLivePool, TracksKillsRevivesAndAdds) {
  Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 17);
  net.add_nodes(10);
  EXPECT_EQ(net.live_ids().size(), 10u);
  net.kill(3);
  net.kill(7);
  EXPECT_EQ(net.live_ids().size(), 8u);
  // Pool holds exactly the live set (order unspecified).
  std::vector<NodeId> got(net.live_ids().begin(), net.live_ids().end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 4, 5, 6, 8, 9}));
  net.kill(3);  // idempotent
  EXPECT_EQ(net.live_ids().size(), 8u);
  net.revive(3);
  const NodeId fresh = net.add_node();
  got.assign(net.live_ids().begin(), net.live_ids().end());
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, (std::vector<NodeId>{0, 1, 2, 3, 4, 5, 6, 8, 9, fresh}));
  // live_nodes() (ascending contract) agrees with the pool contents.
  EXPECT_EQ(net.live_nodes(), got);
}

TEST(NetworkLivePool, KillRandomIsUniformAndExact) {
  Network net(ProtocolSpec::newscast(), ProtocolOptions{5, false}, 23);
  net.add_nodes(200);
  Rng rng(31);
  net.kill_random(150, rng);
  EXPECT_EQ(net.live_count(), 50u);
  EXPECT_EQ(net.live_nodes().size(), 50u);
  EXPECT_THROW(net.kill_random(51, rng), std::logic_error);
  net.kill_random(50, rng);
  EXPECT_EQ(net.live_count(), 0u);
}

}  // namespace
}  // namespace pss::sim
