// udp-open: the daemon path. One thread hosts every ServiceNode of a
// Newscast overlay on a few localhost UDP sockets and drives them open
// loop: node i's tick is due at phase_i + k·T whether or not earlier
// exchanges finished, so a stall delays later ticks instead of thinning
// the load. Ticks run in bursts of at most 16 interleaved with socket
// polls. After every tick the node's application calls getPeer().
//
// Round trip is timed from when the tick was *due* (not when it ran) to
// reply admission, which charges generator lateness to the exchanges that
// suffered it. exch_per_s counts completed exchanges per second of loop
// busy time — the passes that fired a tick or received a datagram — so it
// tracks the loop's per-exchange cost even though the offered rate is
// fixed; the busy fraction and round trips are reported beside it.
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "probes.hpp"
#include "pss/transport/service_node.hpp"
#include "pss/transport/udp_transport.hpp"
#include "pss/transport/wire.hpp"
#include "workloads.hpp"

namespace pss::bench {

namespace {

constexpr std::size_t kSockets = 4;
constexpr std::size_t kBurst = 16;
constexpr double kPeriod = 1.0 / 3.0;  ///< T; 10⁴ nodes offer 30k exchanges/s

/// Transport decorator for trace runs: spans around send() and poll().
class TimedTransport final : public transport::Transport {
 public:
  TimedTransport(transport::Transport& inner, Tracer& tracer, int send_span,
                 int poll_span)
      : inner_(&inner),
        tracer_(&tracer),
        send_span_(send_span),
        poll_span_(poll_span) {}

  bool send(NodeId to, std::span<const std::byte> frame) override {
    Tracer::Scope span(tracer_, send_span_);
    return inner_->send(to, frame);
  }

  std::size_t poll(const transport::FrameHandler& handler) override {
    Tracer::Scope span(tracer_, poll_span_);
    return inner_->poll(handler);
  }

 private:
  transport::Transport* inner_;
  Tracer* tracer_;
  int send_span_;
  int poll_span_;
};

/// k bound sockets on consecutive ports. Ports come from the seed and are
/// retried on a bind failure, so parallel checkouts rarely collide.
struct Sockets {
  transport::UdpAddressBook book;
  std::vector<std::unique_ptr<transport::UdpTransport>> udp;
};

std::unique_ptr<Sockets> bind_sockets(std::size_t n, std::uint64_t seed) {
  const transport::WireCodec codec(kViewSize);
  for (std::uint64_t attempt = 0; attempt < 32; ++attempt) {
    const auto base = static_cast<std::uint16_t>(
        20000 + ((seed + attempt * 7919) * 2654435761ULL) % 40000);
    auto sockets = std::make_unique<Sockets>();
    sockets->book = transport::UdpAddressBook::local_range(base, n, kSockets);
    try {
      for (std::size_t k = 0; k < kSockets; ++k) {
        sockets->udp.push_back(std::make_unique<transport::UdpTransport>(
            sockets->book, static_cast<NodeId>(k), codec.max_frame_bytes()));
      }
      return sockets;
    } catch (const std::exception&) {
      // Port in use: try the next range.
    }
  }
  throw std::runtime_error("udp-open: no free localhost port range");
}

/// Highest standard percentile with at least ten samples beyond it.
double tail_quantile(std::size_t samples) {
  double q = 0.5;
  for (const double candidate : {0.9, 0.99, 0.999, 0.9999}) {
    if (static_cast<double>(samples) * (1 - candidate) >= 10) q = candidate;
  }
  return q;
}

}  // namespace

void run_udp_open(const Options& o, Report& r) {
  const std::size_t n = o.smoke ? 1'000 : 10'000;
  const double warmup_s = o.smoke ? 0.3 : 1.0;
  const int rounds = 2;
  const double window_s = o.seconds / rounds;
  const double slice_s = std::min(1.0, window_s / 2);
  RunState s(o, r);
  Tracer* const tracer = s.tracer();
  const int span_tick = tracer ? tracer->name("service.on_tick", true) : 0;
  const int span_frame = tracer ? tracer->name("service.on_datagram", true) : 0;
  const int span_send = tracer ? tracer->name("transport.send", true) : 0;
  const int span_poll = tracer ? tracer->name("transport.poll", true) : 0;

  // Per-exchange samples are appended inside the window; reserve them all.
  auto ticks_in = [&](double seconds) {
    return static_cast<std::size_t>(static_cast<double>(n) *
                                    (seconds / kPeriod + 2));
  };
  std::vector<double> rtt_ms, late_ms;
  rtt_ms.reserve(ticks_in(window_s) * rounds);
  late_ms.reserve(ticks_in(window_s) * rounds);
  bool rate_ok = true;
  double busy_total = 0, window_total = 0, completed_total = 0;
  std::uint64_t polls = 0, datagrams = 0;

  for (int round = 0; round < rounds; ++round) {
    // Trace runs measure round 0 untraced and round 1 traced.
    const bool traced = o.trace && round == 1;
    Tracer* const tr = traced ? tracer : nullptr;
    const auto t0 = Clock::now();
    sim::Network net = make_network(n, o.seed);
    const double boot = seconds_since(t0);
    const std::unique_ptr<Sockets> sockets = bind_sockets(n, o.seed);
    std::vector<std::unique_ptr<TimedTransport>> timed;
    std::vector<transport::Transport*> transports;
    for (auto& udp : sockets->udp) {
      if (traced) {
        timed.push_back(std::make_unique<TimedTransport>(*udp, *tracer,
                                                         span_send, span_poll));
        transports.push_back(timed.back().get());
      } else {
        transports.push_back(udp.get());
      }
    }
    std::deque<transport::ServiceNode> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.emplace_back(net.arena(), static_cast<NodeId>(i),
                         static_cast<NodeId>(i), net.spec(), net.options(),
                         *transports[i % kSockets],
                         transport::ServiceNodeConfig{kPeriod, kPeriod});
      if (traced) nodes.back().attach_trace(s.probe);
    }
    // Seeded phases; ticks fire in phase order every period.
    Rng phase_rng(o.seed ^ 0x7111CEULL);
    std::vector<double> phase(n);
    for (double& ph : phase) ph = phase_rng.uniform() * kPeriod;
    std::vector<NodeId> order(n);
    std::iota(order.begin(), order.end(), NodeId{0});
    std::sort(order.begin(), order.end(),
              [&](NodeId a, NodeId b) { return phase[a] < phase[b]; });

    // due[i]: due time of node i's outstanding in-window exchange, or -1.
    std::vector<double> due(n, -1.0);
    const std::size_t slices =
        static_cast<std::size_t>(std::ceil(window_s / slice_s));
    std::vector<double> slice_busy(slices, 0), slice_done(slices, 0);
    // getPeer timings: one burst per slice (warm-up ones are discarded).
    std::vector<std::vector<double>> first(slices + 1), second(slices + 1);
    for (std::size_t i = 0; i <= slices; ++i) {
      first[i].reserve(ticks_in(i < slices ? slice_s : warmup_s));
      second[i].reserve(first[i].capacity());
    }
    const double window_start = warmup_s;
    const double window_end = warmup_s + window_s;
    std::uint64_t ticks = 0, completed = 0;
    std::uint64_t cycle = 0;
    std::size_t cursor = 0;
    double busy = 0;
    double pass_t = 0;
    bool in_window = false;
    std::uint64_t allocs = 0;
    const auto start = Clock::now();
    auto slice_of = [&](double t) {
      return std::min(slices - 1,
                      static_cast<std::size_t>((t - window_start) / slice_s));
    };
    const transport::FrameHandler handler =
        [&](NodeId to, std::span<const std::byte> bytes) {
          if (to >= n) return;
          transport::ServiceNode& node = nodes[to];
          const std::uint64_t before = node.stats().replies_delivered;
          {
            Tracer::Scope span(tr, span_frame);
            node.on_datagram(bytes, pass_t);
          }
          if (node.stats().replies_delivered != before && due[to] >= 0) {
            const double t = seconds_since(start);
            rtt_ms.push_back((t - due[to]) * 1e3);
            if (t < window_end) slice_done[slice_of(t)] += 1;
            due[to] = -1;
            ++completed;
          }
        };

    for (;;) {
      const auto pass_start = Clock::now();
      pass_t = std::chrono::duration<double>(pass_start - start).count();
      if (pass_t >= window_end) break;
      if (!in_window && pass_t >= window_start) {
        in_window = true;
        s.record_setup(t0, boot);
        allocs = alloc_count();
      }
      std::size_t fired = 0;
      while (fired < kBurst) {
        const NodeId id = order[cursor];
        const double due_at = static_cast<double>(cycle) * kPeriod + phase[id];
        if (due_at > pass_t) break;
        {
          Tracer::Scope span(tr, span_tick);
          nodes[id].on_tick(pass_t);
        }
        const bool counted = due_at >= window_start && due_at < window_end;
        if (counted) {
          ++ticks;
          late_ms.push_back((pass_t - due_at) * 1e3);
          due[id] = due_at;
        } else {
          due[id] = -1;
        }
        const std::size_t burst = counted ? slice_of(due_at) : slices;
        s.getpeer_ok = time_getpeer(nodes[id].gossip_node(), o.seed,
                                    first[burst], second[burst]) &&
                       s.getpeer_ok;
        ++fired;
        if (++cursor == n) {
          cursor = 0;
          ++cycle;
        }
      }
      std::size_t received = 0;
      for (transport::Transport* t : transports) received += t->poll(handler);
      if (in_window && fired + received > 0) {
        const double spent = seconds_since(pass_start);
        busy += spent;
        slice_busy[slice_of(pass_t)] += spent;
        ++polls;
        datagrams += received;
      }
    }
    const std::uint64_t window_allocs = alloc_count() - allocs;
    // Drain replies still in flight for in-window exchanges (no new ticks).
    const auto drain = Clock::now();
    while (completed < ticks && seconds_since(drain) < 0.2) {
      pass_t = seconds_since(start);
      for (transport::Transport* t : transports) t->poll(handler);
    }

    for (std::size_t i = 0; i < slices; ++i) {
      s.add_getpeer_burst(first[i], second[i]);
    }
    r.attempted += ticks;
    r.failed += ticks - completed;
    s.steady_allocs += window_allocs;
    for (std::size_t i = 0; i < slices; ++i) {
      if (slice_busy[i] > 0) {
        (traced ? s.traced_rates : s.rates).push_back(slice_done[i] /
                                                      slice_busy[i]);
      }
    }
    busy_total += busy;
    window_total += window_s;
    completed_total += static_cast<double>(completed);
    rate_ok = static_cast<double>(ticks) >=
                  0.98 * static_cast<double>(n) * window_s / kPeriod &&
              rate_ok;
    for (const transport::ServiceNode& node : nodes) {
      s.counters.frames_rejected += node.stats().frames_rejected;
      s.counters.replies_stale += node.stats().replies_stale;
    }
    for (const auto& udp : sockets->udp) {
      s.counters.udp_send_failures += udp->stats().send_failures;
    }
    {
      Tracer::Scope span(s.tracer(), s.span_check);
      s.views_ok = views_valid(net) && s.views_ok;
    }
    s.arena_bytes_per_node = static_cast<double>(net.resident_bytes()) /
                             static_cast<double>(n);
    if (round + 1 == rounds && o.trace) {
      nodes.clear();  // the kernel probe below mutates the shared arena
      report_layer_probes(net, o, 0, tracer, r);
    }
  }

  r.check("tick_rate_ok", rate_ok);
  const double q = tail_quantile(rtt_ms.size());
  r.metric("rtt_p50_ms", median(rtt_ms), "ms");
  r.metric("rtt_p99_ms", percentile(rtt_ms, 0.99), "ms");
  r.metric("rtt_tail_ms", percentile(rtt_ms, q), "ms");
  r.info("rtt_tail_quantile", std::to_string(q));
  r.info("rtt_samples", std::to_string(rtt_ms.size()));
  r.metric("bench.gen_late_p99_ms", percentile(late_ms, 0.99), "ms");
  r.metric("transport.loop_busy_frac", busy_total / window_total, "ratio");
  r.metric("transport.achieved_exch_per_s", completed_total / window_total,
           "exchanges/s");
  r.metric("transport.udp_datagrams_per_poll",
           polls == 0 ? 0.0
                      : static_cast<double>(datagrams) /
                            static_cast<double>(polls),
           "count");
  if (tracer != nullptr) {
    r.metric("transport.udp_send_ns", tracer->mean_self_ns(span_send), "ns");
    r.metric("transport.udp_poll_self_ns", tracer->mean_self_ns(span_poll),
             "ns");
    r.metric("transport.on_tick_self_ns", tracer->mean_self_ns(span_tick),
             "ns");
    r.metric("transport.on_frame_self_ns", tracer->mean_self_ns(span_frame),
             "ns");
  }
  s.finish();
}

}  // namespace pss::bench
