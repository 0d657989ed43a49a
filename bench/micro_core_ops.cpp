// Micro-benchmarks (google-benchmark) of the hot kernels: view merge and
// selection (object-graph and fused flat variants), a full pushpull
// exchange, scheduler schedule/pop (event queue, calendar queue, binary
// heap, the loopback bus), one simulation cycle at several network
// sizes, and the streaming census's rebuild and estimators. These bound
// the cost of the experiment harness and catch performance regressions in
// the exchange and measurement paths.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <limits>
#include <queue>
#include <utility>

#include "pss/membership/flat_ops.hpp"
#include "pss/membership/view.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/calendar_queue.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_queue.hpp"
#include "pss/transport/loopback_transport.hpp"
#include "pss/transport/wire.hpp"

namespace {

using namespace pss;

View make_view(std::size_t size, std::uint64_t seed, NodeId lo = 0) {
  Rng rng(seed);
  std::vector<NodeDescriptor> entries;
  entries.reserve(size);
  for (std::size_t i = 0; i < size; ++i) {
    entries.push_back({static_cast<NodeId>(lo + rng.below(10 * size)),
                       static_cast<HopCount>(rng.below(20))});
  }
  return View(std::move(entries));
}

void BM_ViewMerge(benchmark::State& state) {
  const auto c = static_cast<std::size_t>(state.range(0));
  const View a = make_view(c, 1);
  const View b = make_view(c, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(View::merge(a, b));
  }
}
BENCHMARK(BM_ViewMerge)->Arg(30)->Arg(100);

void BM_ViewSelectHeadUnbiased(benchmark::State& state) {
  const View merged = make_view(61, 3);
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merged.select_head_unbiased(30, rng));
  }
}
BENCHMARK(BM_ViewSelectHeadUnbiased);

void BM_ViewSelectRand(benchmark::State& state) {
  const View merged = make_view(61, 5);
  Rng rng(6);
  for (auto _ : state) {
    benchmark::DoNotOptimize(merged.select_rand(30, rng));
  }
}
BENCHMARK(BM_ViewSelectRand);

void BM_PushPullExchange(benchmark::State& state) {
  GossipNode a(0, ProtocolSpec::newscast(), ProtocolOptions{30, false}, Rng(1));
  GossipNode b(1, ProtocolSpec::newscast(), ProtocolOptions{30, false}, Rng(2));
  a.set_view(make_view(30, 7, 2));
  b.set_view(make_view(30, 8, 2));
  for (auto _ : state) {
    auto reply = b.handle_message(a.make_active_buffer());
    a.handle_reply(*reply);
  }
}
BENCHMARK(BM_PushPullExchange);

// --- Flat exchange kernels on a warmed overlay -----------------------------
// Inputs come from a converged 1000-node Newscast overlay: for each of 1024
// random active nodes, a passive peer drawn from its view with
// flat::peer_rand (as every engine draws it), the active node's view and
// buffer (its view plus itself) and the passive node's view. So the buffer
// holds the passive node, and the two views overlap as an engine's
// exchanges do: the merge meets its duplicates. Each iteration takes the
// next pair, so the branch predictor cannot learn one merge: on a single
// repeated input the kernels read several times faster than they run
// inside an engine (docs/PERFORMANCE.md).

struct ExchangeInputs {
  static constexpr std::size_t kPairs = 1024;
  std::vector<std::vector<NodeDescriptor>> buffers;  ///< active side
  std::vector<std::vector<NodeDescriptor>> views;    ///< passive side
  std::vector<std::vector<NodeDescriptor>> active_views;
  std::vector<NodeId> actives;
  std::vector<NodeId> passives;
};

sim::Network warmed_overlay() {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 1000, 42);
  sim::CycleEngine warm(net);
  warm.run(5);
  return net;
}

ExchangeInputs draw_inputs(const sim::Network& net) {
  ExchangeInputs in;
  Rng rng(14);
  while (in.passives.size() < ExchangeInputs::kPairs) {
    const auto active = static_cast<NodeId>(rng.below(net.size()));
    if (net.view_span(active).empty()) continue;
    const NodeId passive = flat::peer_rand(net.view_span(active), rng);
    std::vector<NodeDescriptor> buffer(net.view_span(active).size() + 1);
    buffer.resize(flat::write_active_buffer(net.view_span(active), active,
                                            true, buffer.data()));
    in.buffers.push_back(std::move(buffer));
    in.views.emplace_back(net.view_span(passive).begin(),
                          net.view_span(passive).end());
    in.active_views.emplace_back(net.view_span(active).begin(),
                                 net.view_span(active).end());
    in.actives.push_back(active);
    in.passives.push_back(passive);
  }
  return in;
}

void BM_FlatMergeSelectHead(benchmark::State& state) {
  // The fused streaming kernel behind every (.,head,.) absorb — compare
  // with BM_ViewMerge + BM_ViewSelectHeadUnbiased, which together are the
  // object-graph algebra it replaces.
  const ExchangeInputs in = draw_inputs(warmed_overlay());
  Rng rng(13);
  flat::Scratch scratch;
  std::vector<NodeDescriptor> out;
  std::size_t i = 0;
  for (auto _ : state) {
    flat::merge_select_head(in.buffers[i], in.views[i], in.passives[i], 30,
                            rng, out, scratch, /*age_a=*/1);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
    i = (i + 1) % ExchangeInputs::kPairs;
  }
}
BENCHMARK(BM_FlatMergeSelectHead);

// The slab-based request/reply handlers the event engine runs. Each
// iteration restores the passive slot to its drawn view first (the kernel
// mutates it), which prices the kernel itself, not a drifting view.

void BM_FlatHandleRequest(benchmark::State& state) {
  auto net = warmed_overlay();
  const ExchangeInputs in = draw_inputs(net);
  auto& arena = net.arena();
  std::vector<NodeDescriptor> reply(31);
  flat::Scratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeId passive = in.passives[i];
    arena.views.assign(passive, in.views[i]);
    benchmark::DoNotOptimize(flat::handle_request(
        arena, passive, passive, in.buffers[i].data(),
        static_cast<std::uint32_t>(in.buffers[i].size()), reply.data(),
        net.spec(), net.options(), scratch));
    benchmark::ClobberMemory();
    i = (i + 1) % ExchangeInputs::kPairs;
  }
}
BENCHMARK(BM_FlatHandleRequest);

void BM_FlatHandleReply(benchmark::State& state) {
  auto net = warmed_overlay();
  const ExchangeInputs in = draw_inputs(net);
  auto& arena = net.arena();
  flat::Scratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    // The drawn buffer doubles as a pull reply absorbed by the other node.
    const NodeId node = in.passives[i];
    arena.views.assign(node, in.views[i]);
    flat::absorb(arena.views, node, node, net.spec(), net.options(),
                 in.buffers[i], arena.rngs[node], scratch,
                 /*age_incoming=*/1);
    benchmark::DoNotOptimize(arena.views.view_of(node).data());
    benchmark::ClobberMemory();
    i = (i + 1) % ExchangeInputs::kPairs;
  }
}
BENCHMARK(BM_FlatHandleReply);

void BM_FlatRunExchange(benchmark::State& state) {
  // The cycle engine's fused exchange: both buffers, both merges and both
  // selections of one pushpull exchange. Each iteration restores both
  // slots to their drawn views first.
  auto net = warmed_overlay();
  const ExchangeInputs in = draw_inputs(net);
  auto& arena = net.arena();
  flat::Scratch scratch;
  std::size_t i = 0;
  for (auto _ : state) {
    const NodeId active = in.actives[i];
    const NodeId passive = in.passives[i];
    arena.views.assign(active, in.active_views[i]);
    arena.views.assign(passive, in.views[i]);
    flat::run_exchange(arena, active, passive, net.spec(), net.options(),
                       scratch);
    benchmark::DoNotOptimize(arena.views.view_of(active).data());
    benchmark::ClobberMemory();
    i = (i + 1) % ExchangeInputs::kPairs;
  }
}
BENCHMARK(BM_FlatRunExchange);

void BM_FlatAgeAndCopy(benchmark::State& state) {
  // The fused wakeup kernel: age a slot in place while streaming the aged
  // entries out.
  FlatViewStore store(30);
  const NodeId slot = store.add_node();
  std::vector<NodeDescriptor> view(30), out(30);
  for (std::size_t i = 0; i < view.size(); ++i) {
    view[i] = {static_cast<NodeId>(i), 0};
  }
  store.assign(slot, view);
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.age_and_copy(slot, out.data()));
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_FlatAgeAndCopy);

// --- Scheduler: calendar queue vs. binary heap -----------------------------
// The classic "hold" model at event-engine scale: a pending set of `n`
// events; each step pops the minimum and schedules a replacement — a mix of
// rearm-like (+1 period) and message-like (short latency) timestamps. That
// was the event engines' access pattern while wake-ups shared the calendar
// with messages; BM_EventQueueHold below is their pattern since.

struct HoldEvent {
  NodeId from = 0;
  NodeId to = 0;
  std::uint32_t slab = 0;
  std::uint32_t kind = 0;
  std::uint64_t exchange_id = 0;
};

void BM_CalendarQueueHold(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::CalendarQueue<HoldEvent> q(2.0);
  Rng rng(17);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) {
    q.push(rng.uniform(), seq++, HoldEvent{});
  }
  for (auto _ : state) {
    const auto item = q.pop();
    const double at = rng.chance(0.33) ? item.at + 1.0
                                       : item.at + 0.01 + rng.uniform() * 0.09;
    q.push(at, seq++, item.value);
    benchmark::DoNotOptimize(seq);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_CalendarQueueHold)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

void BM_EventQueueHold(benchmark::State& state) {
  // The event engine's steady state over `n` nodes at the default latency:
  // each wake-up re-arms one period on in the ring and sends a request,
  // each request answers with a reply, both at +U[0.01, 0.1] in the
  // calendar. About 0.11 n messages wait beside the n wake-ups.
  const auto n = static_cast<std::size_t>(state.range(0));
  sim::EventQueue<HoldEvent> q(/*period=*/1.0, /*max_latency=*/0.1);
  Rng rng(17);
  q.add_first_wakeups(0, n, [&](NodeId) { return rng.uniform(); });
  const double forever = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    const auto* e = q.pop_if_at_most(forever);
    const double latency = 0.01 + rng.uniform() * 0.09;
    if (e->wakeup()) {
      q.rearm(e->at + 1.0, e->node);
      q.push(e->at + latency, HoldEvent{e->node, 0, 0, 0, 0});
    } else if (e->message.kind == 0) {
      q.push(e->at + latency, HoldEvent{e->message.to, e->message.from, 0, 1, 0});
    }
    benchmark::DoNotOptimize(e);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueHold)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

void BM_LoopbackBusHold(benchmark::State& state) {
  // The loopback bus as LoopbackDriver drives it, with `n` frames in
  // flight at +U[0.01, 0.1]: each step pops the earliest frame, prefetches
  // the calendar's hinted next one, reads its bytes as a decode does,
  // frees its slot and sends a c = 30 request (276 bytes) in its place,
  // through the send path's delay draw, slot copy and calendar push. ns
  // per frame sent and delivered.
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(17);
  transport::LoopbackTransport bus({0.01, 0.1}, rng);
  std::vector<std::byte> frame(transport::WireCodec::frame_bytes(31));
  for (std::size_t i = 0; i < frame.size(); ++i) {
    frame[i] = static_cast<std::byte>(i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    bus.send(static_cast<NodeId>(i % 1024), frame);
  }
  auto& queue = bus.queue();
  const double forever = std::numeric_limits<double>::infinity();
  std::array<std::byte, transport::WireCodec::frame_bytes(31)> read{};
  for (auto _ : state) {
    const auto* e = queue.pop_if_at_most(forever);
    bus.set_now(e->at);
    if (const auto* hint = queue.message_hint()) bus.prefetch(hint->value);
    const auto bytes = bus.bytes(e->message);
    std::copy(bytes.begin(), bytes.end(), read.begin());
    bus.release(e->message);
    bus.send(e->message.to, frame);
    benchmark::DoNotOptimize(read);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LoopbackBusHold)->Arg(1 << 10)->Arg(1 << 17);

void BM_BinaryHeapHold(benchmark::State& state) {
  using Entry = std::pair<double, std::uint64_t>;
  const auto n = static_cast<std::size_t>(state.range(0));
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> q;
  Rng rng(17);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < n; ++i) q.emplace(rng.uniform(), seq++);
  for (auto _ : state) {
    const auto [at, id] = q.top();
    q.pop();
    const double next =
        rng.chance(0.33) ? at + 1.0 : at + 0.01 + rng.uniform() * 0.09;
    q.emplace(next, seq++);
    benchmark::DoNotOptimize(seq);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BinaryHeapHold)->Arg(1 << 10)->Arg(1 << 17)->Arg(1 << 20);

void BM_SimulationCycle(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, n, 42);
  sim::CycleEngine engine(net);
  for (auto _ : state) {
    engine.run_cycle();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimulationCycle)->Arg(1000)->Arg(10000);

// --- GraphCensus on the same overlay ----------------------------------------
// The arena-native census every figure driver measures through: one rebuild
// (degrees, mutual bits, components) and its two sampled estimators, with
// the figure drivers' default sample sizes (1000 nodes, 100 BFS sources).

sim::Network census_overlay() {
  auto net = sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                         ProtocolOptions{30, false}, 10000, 42);
  sim::CycleEngine engine(net);
  engine.run(5);
  return net;
}

void BM_CensusRebuild(benchmark::State& state) {
  const auto net = census_overlay();
  obs::GraphCensus census;
  for (auto _ : state) {
    census.rebuild(net);
    benchmark::DoNotOptimize(census.undirected_edge_count());
  }
}
BENCHMARK(BM_CensusRebuild)->Unit(benchmark::kMillisecond);

void BM_CensusClustering(benchmark::State& state) {
  const auto net = census_overlay();
  obs::GraphCensus census;
  census.rebuild(net);
  Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(census.clustering_sampled(1000, rng));
  }
}
BENCHMARK(BM_CensusClustering)->Unit(benchmark::kMillisecond);

void BM_CensusPathLength(benchmark::State& state) {
  const auto net = census_overlay();
  obs::GraphCensus census;
  census.rebuild(net);
  Rng rng(10);
  for (auto _ : state) {
    benchmark::DoNotOptimize(census.path_length_sampled(100, rng));
  }
}
BENCHMARK(BM_CensusPathLength)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
