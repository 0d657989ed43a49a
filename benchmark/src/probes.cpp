#include "probes.hpp"

#include <algorithm>
#include <utility>

#include "pss/membership/flat_ops.hpp"
#include "pss/obs/streaming_observer.hpp"
#include "pss/protocol/flat_exchange.hpp"
#include "pss/service/peer_sampling_service.hpp"
#include "pss/sim/calendar_queue.hpp"
#include "pss/transport/wire.hpp"

namespace pss::bench {

namespace {

// Probe time budgets are shares of --seconds so a smoke run stays short.
double budget(const Options& o, double share) {
  return std::max(0.02, o.seconds * share);
}

}  // namespace

bool time_getpeer(GossipNode& node, std::uint64_t seed,
                  std::vector<double>& first_ns,
                  std::vector<double>& second_ns) {
  PeerSamplingService service(node, Rng(seed ^ node.self()));
  const auto t0 = Clock::now();
  const NodeId a = service.get_peer();
  const auto t1 = Clock::now();
  const NodeId b = service.get_peer();
  const auto t2 = Clock::now();
  first_ns.push_back(static_cast<double>(ns_between(t0, t1)));
  second_ns.push_back(static_cast<double>(ns_between(t1, t2)));
  const NodeId self = node.self();
  return a != kInvalidNode && b != kInvalidNode && a != self && b != self;
}

bool views_valid(const sim::Network& net) {
  const std::size_t c = net.options().view_size;
  // Generation stamps: seen[a] == id + 1 means address a already occurred
  // in node id's view.
  std::vector<std::uint32_t> seen(net.size(), 0);
  for (const NodeId id : net.live_ids()) {
    const auto view = net.view_span(id);
    if (view.size() > c) return false;
    std::uint64_t prev_key = 0;
    for (std::size_t i = 0; i < view.size(); ++i) {
      const NodeDescriptor& d = view[i];
      const std::uint64_t key =
          (static_cast<std::uint64_t>(d.hop_count) << 32) | d.address;
      if (d.address == id || d.address >= net.size()) return false;
      if (i > 0 && key <= prev_key) return false;
      if (seen[d.address] == id + 1) return false;
      seen[d.address] = id + 1;
      prev_key = key;
    }
  }
  return true;
}

namespace {

/// Times batches until `budget_s` of timed work is spent: `prepare`
/// (untimed) sets a batch up, `run` executes it and returns its operation
/// count. Returns ns per operation of the fast tail — the 10th percentile
/// over batches, the per-operation mirror of chunk_rate.
template <class Prepare, class Run>
double fast_ns_per_op(double budget_s, Prepare&& prepare, Run&& run) {
  std::vector<double> ns;
  double spent = 0;
  while (ns.empty() || spent < budget_s) {
    prepare();
    const auto t0 = Clock::now();
    const auto ops = static_cast<double>(run());
    const double dt = seconds_since(t0);
    spent += dt;
    ns.push_back(dt * 1e9 / ops);
  }
  return percentile(ns, 0.1);
}

/// The kernel-only rung: flat::run_exchange over pre-drawn (initiator,
/// peer) pairs, with the same one-ahead prefetch the cycle engine issues.
/// No permutation, aging, liveness test or stats — the rung below every
/// engine, so each engine's ns/exchange minus this is its own cost.
double kernel_exchange_ns(sim::Network& net, std::uint64_t seed,
                          double budget_s) {
  flat::NodeArena& arena = net.arena();
  const auto live = net.live_ids();
  Rng rng(seed ^ 0x4E4E4E4EULL);
  std::vector<std::pair<NodeId, NodeId>> pairs(4096);
  flat::Scratch scratch;
  auto draw = [&] {
    for (auto& [a, b] : pairs) {
      a = live[rng.below(live.size())];
      const auto view = arena.views.view_of(a);
      b = view[rng.below(view.size())].address;
    }
  };
  auto exchange = [&] {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      if (i + 1 < pairs.size()) {
        arena.prefetch_node(pairs[i + 1].first);
        arena.prefetch_node(pairs[i + 1].second);
      }
      flat::run_exchange(arena, pairs[i].first, pairs[i].second, net.spec(),
                         net.options(), scratch);
    }
    return pairs.size();
  };
  return fast_ns_per_op(budget_s, draw, exchange);
}

struct CodecCost {
  double encode_ns = 0;
  double decode_ns = 0;
  bool roundtrip_ok = true;
};

/// WireCodec encode and decode of request frames built from the overlay's
/// own views (c + 1 records each), replayed until the budget is spent.
CodecCost codec_cost(const sim::Network& net, std::uint64_t seed,
                     double budget_s) {
  const std::size_t c = net.options().view_size;
  transport::WireCodec codec(c);
  const auto live = net.live_ids();
  Rng rng(seed ^ 0xC0DECULL);
  const auto picks = rng.sample_indices(live.size(),
                                        std::min<std::size_t>(2048, live.size()));
  std::vector<NodeDescriptor> entries(picks.size() * (c + 1));
  std::vector<transport::WireFrame> frames;
  std::vector<std::byte> wire;
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::vector<NodeDescriptor> buffer;
  std::vector<std::byte> bytes;
  for (std::size_t f = 0; f < picks.size(); ++f) {
    const NodeId self = live[picks[f]];
    const auto view = net.view_span(self);
    if (view.empty()) continue;
    flat::make_active_buffer(view, self, /*push=*/true, buffer);
    NodeDescriptor* slot = entries.data() + f * (c + 1);
    std::copy(buffer.begin(), buffer.end(), slot);
    transport::WireFrame frame;
    frame.spec = net.spec();
    frame.from = self;
    frame.to = view.front().address;
    frame.tick = 1;
    frame.exchange_id = f + 1;
    frame.entries = flat::DescSpan(slot, buffer.size());
    frames.push_back(frame);
    codec.encode(frame, bytes);
    spans.emplace_back(wire.size(), bytes.size());
    wire.insert(wire.end(), bytes.begin(), bytes.end());
  }
  CodecCost cost;
  transport::ParsedFrame parsed;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const auto [off, len] = spans[f];
    const bool ok =
        codec.decode({wire.data() + off, len}, parsed) ==
            transport::WireError::kOk &&
        parsed.entries.size() == frames[f].entries.size() &&
        std::equal(parsed.entries.begin(), parsed.entries.end(),
                   frames[f].entries.begin(),
                   [](const NodeDescriptor& x, const NodeDescriptor& y) {
                     return x.address == y.address &&
                            x.hop_count == y.hop_count;
                   });
    cost.roundtrip_ok = cost.roundtrip_ok && ok;
  }
  std::uint64_t sink = 0;
  auto nothing = [] {};
  cost.encode_ns = fast_ns_per_op(budget_s / 2, nothing, [&] {
    for (const transport::WireFrame& frame : frames) {
      codec.encode(frame, bytes);
      sink += bytes.size();
    }
    return frames.size();
  });
  cost.decode_ns = fast_ns_per_op(budget_s / 2, nothing, [&] {
    for (const auto& [off, len] : spans) {
      codec.decode({wire.data() + off, len}, parsed);
      sink += parsed.entries.size();
    }
    return spans.size();
  });
  cost.roundtrip_ok = cost.roundtrip_ok && sink > 0;
  return cost;
}

/// CalendarQueue hold model: `population` pending events, each pop
/// re-pushed the way the event engine re-schedules — a third as period
/// wake-ups (+1.0), the rest as messages (+U[0.01, 0.1]). ns per pop+push.
double queue_hold_ns(std::size_t population, std::uint64_t seed,
                     double budget_s) {
  struct Payload {  // the event engine's 24-byte record shape
    NodeId from = 0;
    NodeId to = 0;
    std::uint32_t slab = 0;
    std::uint32_t kind = 0;
    std::uint64_t exchange_id = 0;
  };
  sim::CalendarQueue<Payload> queue(/*year_span=*/2.0);
  Rng rng(seed ^ 0xCA1E0DA2ULL);
  std::uint64_t seq = 0;
  for (std::size_t i = 0; i < population; ++i) {
    queue.push(rng.uniform(), seq++, Payload{});
  }
  std::vector<double> delays(4096);
  auto draw = [&] {
    for (double& d : delays) {
      d = rng.below(3) == 0 ? 1.0 : 0.01 + 0.09 * rng.uniform();
    }
  };
  return fast_ns_per_op(budget_s, draw, [&] {
    for (const double d : delays) {
      const auto item = queue.pop();
      queue.push(item.at + d, seq++, item.value);
    }
    return delays.size();
  });
}

}  // namespace

void report_layer_probes(sim::Network& net, const Options& o,
                         std::size_t queue_population, Tracer* tracer,
                         Report& r) {
  const int census_span = tracer ? tracer->name("probe.census") : 0;
  const int codec_span = tracer ? tracer->name("probe.codec") : 0;
  const int queue_span = tracer ? tracer->name("probe.queue_hold") : 0;
  const int kernel_span = tracer ? tracer->name("probe.kernel") : 0;

  {
    Tracer::Scope s(tracer, census_span);
    obs::StreamingObserver observer(
        obs::ObserverConfig{0, 0, o.seed, /*reserve_records=*/16});
    auto nothing = [] {};
    const double census_ns =
        fast_ns_per_op(budget(o, 0.02), nothing, [&] {
          observer.on_snapshot(net, 0);
          return 1;
        });
    r.metric("obs.census_ms", census_ns / 1e6, "ms");
  }

  CodecCost codec;
  {
    Tracer::Scope s(tracer, codec_span);
    codec = codec_cost(net, o.seed, budget(o, 0.02));
  }
  r.check("codec_roundtrip", codec.roundtrip_ok);
  r.metric("transport.encode_ns", codec.encode_ns, "ns");
  r.metric("transport.decode_ns", codec.decode_ns, "ns");

  {
    Tracer::Scope s(tracer, queue_span);
    r.metric("sim.queue_hold_ns",
             queue_hold_ns(std::max(queue_population, net.size()),
                           o.seed, budget(o, 0.02)),
             "ns");
  }

  {
    Tracer::Scope s(tracer, kernel_span);
    r.metric("protocol.exchange_ns",
             kernel_exchange_ns(net, o.seed, budget(o, 0.03)), "ns");
  }
}

}  // namespace pss::bench
