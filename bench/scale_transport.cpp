// scale_transport: the wire stack against its reference semantics.
//
// Phase 1 is a hard differential gate, in the scale_scenarios mold: a
// ServiceNode/LoopbackTransport run must finish bit-identical to an
// EventEngine run under cloned seeds — equal scenarios::state_digest
// (views, NodeStats, per-node Rng positions) and equal engine-level
// counters — for every evaluated protocol at zero delay / zero loss, and
// for newscast under latency jitter plus message loss. Any divergence
// exits non-zero, so CI can gate on `"differential_ok": true`.
//
// Phase 2 measures what the seam costs: exchanges/s for EventEngine vs
// the same workload over encode -> loopback queue -> decode, at the sizes
// in PSS_TRANS_NS (default 1000,10000). Each size runs
// max(20, ⌈2·10^6/n⌉) cycles, so every row times at least 2·10^6
// exchanges; PSS_TRANS_CYCLES fixes one count for both phases instead.
//
// Phase 3 leaves the simulator entirely: standalone ServiceNodes gossip
// over nonblocking UDP sockets on localhost, many nodes per socket
// (header-demuxed). UDP is best-effort, so this phase reports throughput
// and delivery ratio but is not digest-gated.
//
// Knobs: PSS_TRANS_NS, PSS_TRANS_CYCLES, PSS_TRANS_UDP_NS,
//        PSS_TRANS_UDP_CYCLES, PSS_TRANS_SOCKETS, PSS_TRANS_PORT,
//        PSS_TRANS_JSON, PSS_C, PSS_SEED.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/common/rng.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/transport/loopback_driver.hpp"
#include "pss/transport/udp_transport.hpp"

namespace {

using namespace pss;

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_sizes(const std::string& csv,
                                     const char* knob) {
  std::vector<std::size_t> out;
  std::size_t start = 0;
  while (start <= csv.size()) {
    std::size_t comma = csv.find(',', start);
    if (comma == std::string::npos) comma = csv.size();
    std::string token = csv.substr(start, comma - start);
    start = comma + 1;
    if (token.empty()) continue;
    std::size_t consumed = 0;
    unsigned long long value = 0;
    const bool digits_only =
        token.find_first_not_of("0123456789") == std::string::npos;
    try {
      if (digits_only) value = std::stoull(token, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != token.size() || value == 0) {
      std::fprintf(stderr,
                   "%s: bad entry '%s' (want a comma-separated list of "
                   "positive integers)\n",
                   knob, token.c_str());
      std::exit(1);
    }
    out.push_back(static_cast<std::size_t>(value));
  }
  return out;
}

struct DiffCheck {
  std::string check;
  std::uint64_t engine_digest = 0;
  std::uint64_t transport_digest = 0;
  bool matches = false;
};

struct LoopbackRow {
  std::size_t n = 0;
  std::size_t cycles = 0;
  std::uint64_t exchanges = 0;
  double engine_seconds = 0;
  double transport_seconds = 0;
  std::uint64_t state_digest = 0;
};

struct UdpRow {
  std::size_t n = 0;
  std::size_t sockets = 0;
  double run_seconds = 0;
  std::uint64_t requests = 0;
  std::uint64_t replies = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t send_failures = 0;
  std::uint64_t oversized = 0;
  std::uint64_t rejected = 0;
};

struct TransportRun {
  std::uint64_t digest = 0;
  sim::EventEngineStats stats;
  double seconds = 0;
};

TransportRun run_loopback(const ProtocolSpec& spec,
                          const ProtocolOptions& options, std::size_t n,
                          std::uint64_t seed, std::size_t cycles,
                          const sim::EventEngineConfig& config) {
  sim::Network net = sim::bootstrap::make_random(spec, options, n, seed);
  transport::LoopbackConfig bus_config;
  bus_config.min_delay = config.min_latency;
  bus_config.max_delay = config.max_latency;
  bus_config.loss_probability = config.drop_probability;
  transport::LoopbackTransport bus(bus_config, net.rng());
  transport::LoopbackDriver driver(
      net, bus,
      transport::LoopbackDriverConfig{config.period, config.reply_timeout});
  const auto t0 = Clock::now();
  driver.run_cycles(cycles);
  return {scenarios::state_digest(net), driver.engine_stats(),
          seconds_since(t0)};
}

TransportRun run_engine(const ProtocolSpec& spec,
                        const ProtocolOptions& options, std::size_t n,
                        std::uint64_t seed, std::size_t cycles,
                        const sim::EventEngineConfig& config) {
  sim::Network net = sim::bootstrap::make_random(spec, options, n, seed);
  sim::EventEngine engine(net, config);
  const auto t0 = Clock::now();
  engine.run_cycles(cycles);
  return {scenarios::state_digest(net), engine.stats(), seconds_since(t0)};
}

bool stats_equal(const sim::EventEngineStats& a,
                 const sim::EventEngineStats& b) {
  return a.wakeups == b.wakeups && a.messages_sent == b.messages_sent &&
         a.messages_dropped == b.messages_dropped &&
         a.messages_to_dead == b.messages_to_dead &&
         a.replies_delivered == b.replies_delivered &&
         a.replies_stale == b.replies_stale;
}

}  // namespace

int main() {
  const auto sizes = parse_sizes(
      env::get("PSS_TRANS_NS").value_or("1000,10000"), "PSS_TRANS_NS");
  // Phase 1 runs `cycles`; phase 2 runs cycles_for(n), at least
  // kRowExchanges per row unless PSS_TRANS_CYCLES fixes the count.
  constexpr std::size_t kRowExchanges = 2'000'000;
  const bool fixed_cycles = env::get("PSS_TRANS_CYCLES").has_value();
  const auto cycles =
      static_cast<std::size_t>(env::get_int("PSS_TRANS_CYCLES", 20));
  const std::size_t row_exchanges = fixed_cycles ? 0 : kRowExchanges;
  auto cycles_for = [&](std::size_t n) {
    return std::max(cycles, (row_exchanges + n - 1) / n);
  };
  const auto udp_sizes = parse_sizes(
      env::get("PSS_TRANS_UDP_NS").value_or("1000"), "PSS_TRANS_UDP_NS");
  const auto udp_cycles =
      static_cast<std::size_t>(env::get_int("PSS_TRANS_UDP_CYCLES", 10));
  const auto udp_sockets =
      static_cast<std::size_t>(env::get_int("PSS_TRANS_SOCKETS", 8));
  const auto base_port =
      static_cast<std::uint16_t>(env::get_int("PSS_TRANS_PORT", 19000));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 20));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const std::string out_path =
      env::get("PSS_TRANS_JSON").value_or("BENCH_transport.json");

  const ProtocolOptions options{c, false};
  std::printf("scale_transport: c=%zu cycles=%zu seed=%llu\n", c, cycles,
              static_cast<unsigned long long>(seed));

  // ---- Phase 1: differential gate ----------------------------------------
  // Checked at the smallest requested size; a mismatch is fatal.
  const std::size_t dn = *std::min_element(sizes.begin(), sizes.end());
  std::vector<DiffCheck> diffs;
  auto gate = [&](std::string check, const TransportRun& engine,
                  const TransportRun& transport) {
    const bool ok = engine.digest == transport.digest &&
                    stats_equal(engine.stats, transport.stats);
    std::printf("  differential %-28s %s\n", check.c_str(),
                ok ? "ok" : "DIVERGED");
    diffs.push_back({std::move(check), engine.digest, transport.digest, ok});
    if (!ok) {
      std::fprintf(stderr,
                   "FATAL: differential check '%s' diverged "
                   "(engine=%llu transport=%llu)\n",
                   diffs.back().check.c_str(),
                   static_cast<unsigned long long>(engine.digest),
                   static_cast<unsigned long long>(transport.digest));
      std::exit(1);
    }
  };

  sim::EventEngineConfig ideal;
  ideal.min_latency = 0.0;
  ideal.max_latency = 0.0;
  ideal.drop_probability = 0.0;
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    gate("zero-zero/" + spec.name(),
         run_engine(spec, options, dn, seed, cycles, ideal),
         run_loopback(spec, options, dn, seed, cycles, ideal));
  }

  sim::EventEngineConfig lossy;  // default latency jitter 0.01..0.10
  lossy.drop_probability = 0.15;
  gate("latency-loss/newscast",
       run_engine(ProtocolSpec::newscast(), options, dn, seed, cycles, lossy),
       run_loopback(ProtocolSpec::newscast(), options, dn, seed, cycles,
                    lossy));
  gate("determinism/replay",
       run_loopback(ProtocolSpec::newscast(), options, dn, seed, cycles,
                    lossy),
       run_loopback(ProtocolSpec::newscast(), options, dn, seed, cycles,
                    lossy));

  // ---- Phase 2: loopback seam cost ---------------------------------------
  // Same workload, default engine config (latency jitter, no loss); the
  // digests must still match, so phase 2 feeds the gate too.
  std::vector<LoopbackRow> loopback_rows;
  const sim::EventEngineConfig jitter;  // engine defaults
  for (const std::size_t n : sizes) {
    const ProtocolSpec spec = ProtocolSpec::newscast();
    const std::size_t row_cycles = cycles_for(n);
    const TransportRun engine =
        run_engine(spec, options, n, seed, row_cycles, jitter);
    const TransportRun loopback =
        run_loopback(spec, options, n, seed, row_cycles, jitter);
    gate("loopback-scale/n=" + std::to_string(n), engine, loopback);
    LoopbackRow row;
    row.n = n;
    row.cycles = row_cycles;
    row.exchanges = engine.stats.wakeups;
    row.engine_seconds = engine.seconds;
    row.transport_seconds = loopback.seconds;
    row.state_digest = loopback.digest;
    std::printf(
        "  loopback n=%-8zu engine %8.0f ex/s   wire %8.0f ex/s  (%.2fx)\n",
        n, row.exchanges / std::max(row.engine_seconds, 1e-9),
        row.exchanges / std::max(row.transport_seconds, 1e-9),
        row.transport_seconds / std::max(row.engine_seconds, 1e-9));
    loopback_rows.push_back(row);
  }

  // ---- Phase 3: UDP localhost --------------------------------------------
  // k sockets host n standalone nodes (node i on socket i % k); `now` is
  // in cycle units and each cycle ticks every node then drains all sockets
  // until quiescent. Best-effort: reported, not gated.
  std::vector<UdpRow> udp_rows;
  for (std::size_t run_index = 0; run_index < udp_sizes.size(); ++run_index) {
    const std::size_t n = udp_sizes[run_index];
    const std::size_t k = std::min(udp_sockets, n);
    // Distinct port range per run so back-to-back runs never collide.
    const auto port =
        static_cast<std::uint16_t>(base_port + 64 * run_index);
    const transport::UdpAddressBook book =
        transport::UdpAddressBook::local_range(port, n, k);
    const transport::WireCodec codec(options.view_size);

    std::vector<std::unique_ptr<transport::UdpTransport>> sockets;
    sockets.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      sockets.push_back(std::make_unique<transport::UdpTransport>(
          book, static_cast<NodeId>(s), codec.max_frame_bytes()));
    }

    std::deque<transport::ServiceNode> nodes;
    for (std::size_t i = 0; i < n; ++i) {
      nodes.emplace_back(static_cast<NodeId>(i), ProtocolSpec::newscast(),
                         options, Rng(seed ^ (0x0DDULL + i)),
                         *sockets[i % k]);
    }
    Rng boot(seed ^ 0xB007ULL);
    std::vector<NodeId> contacts;
    for (std::size_t i = 0; i < n; ++i) {
      contacts.clear();
      contacts.push_back(static_cast<NodeId>((i + 1) % n));
      for (int j = 0; j < 4; ++j) {
        contacts.push_back(static_cast<NodeId>(boot.below(n)));
      }
      nodes[i].init(contacts);
    }

    const double now_step = 1.0;
    const auto t0 = Clock::now();
    auto handler = [&](NodeId to, std::span<const std::byte> bytes,
                       double now) {
      if (to < n) nodes[to].on_datagram(bytes, now);
    };
    for (std::size_t cycle = 0; cycle < udp_cycles; ++cycle) {
      const double now = (cycle + 1) * now_step;
      for (std::size_t i = 0; i < n; ++i) nodes[i].on_tick(now);
      // Drain until two quiet passes: requests beget replies, so one pass
      // is not enough; the kernel queue empties within a few.
      std::size_t quiet = 0;
      for (std::size_t pass = 0; pass < 64 && quiet < 2; ++pass) {
        std::size_t received = 0;
        for (auto& socket : sockets) {
          received += socket->poll(
              [&](NodeId to, std::span<const std::byte> bytes) {
                handler(to, bytes, now);
              });
        }
        quiet = received == 0 ? quiet + 1 : 0;
      }
    }
    UdpRow row;
    row.n = n;
    row.sockets = k;
    row.run_seconds = seconds_since(t0);
    for (const auto& node : nodes) {
      row.requests += node.stats().requests_sent;
      row.replies += node.stats().replies_delivered;
      row.rejected += node.stats().frames_rejected;
    }
    for (const auto& socket : sockets) {
      row.datagrams_sent += socket->stats().datagrams_sent;
      row.send_failures += socket->stats().send_failures;
      row.oversized += socket->stats().oversized_dropped;
    }
    std::printf(
        "  udp      n=%-8zu sockets=%zu %8.0f ex/s  delivery=%.3f "
        "(sent=%llu failures=%llu)\n",
        n, k, row.requests / std::max(row.run_seconds, 1e-9),
        row.requests ? static_cast<double>(row.replies) / row.requests : 0.0,
        static_cast<unsigned long long>(row.datagrams_sent),
        static_cast<unsigned long long>(row.send_failures));
    udp_rows.push_back(row);
  }

  // ---- JSON ---------------------------------------------------------------
  const ProtocolSpec meta_spec = ProtocolSpec::newscast();
  const std::string spec_name = meta_spec.name();
  obs::RunRecorder rec(
      "scale_transport", 2,
      bench::make_run_metadata("scale_transport", "service", spec_name,
                               bench::protocol_wire_id(meta_spec),
                               sizes.back(), c, cycles, seed));
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("differential_n", static_cast<std::uint64_t>(dn));
  rec.json().field("row_exchanges",
                   static_cast<std::uint64_t>(row_exchanges));
  rec.json().field("udp_cycles", static_cast<std::uint64_t>(udp_cycles));
  rec.json().end_object();
  rec.json().key("differential");
  rec.json().begin_array();
  bool differential_ok = true;
  for (const DiffCheck& d : diffs) {
    rec.json().begin_object();
    rec.json().field("check", d.check);
    rec.json().field("engine_digest", obs::to_hex16(d.engine_digest));
    rec.json().field("transport_digest", obs::to_hex16(d.transport_digest));
    rec.json().field("matches", d.matches);
    rec.json().end_object();
    differential_ok = differential_ok && d.matches;
  }
  rec.json().end_array();
  rec.json().key("loopback");
  rec.json().begin_array();
  for (const LoopbackRow& r : loopback_rows) {
    rec.json().begin_object();
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("cycles", static_cast<std::uint64_t>(r.cycles));
    rec.json().field("exchanges", r.exchanges);
    rec.json().field("engine_seconds", r.engine_seconds);
    rec.json().field("transport_seconds", r.transport_seconds);
    rec.json().field("engine_exchanges_per_s",
                     r.exchanges / std::max(r.engine_seconds, 1e-9));
    rec.json().field("transport_exchanges_per_s",
                     r.exchanges / std::max(r.transport_seconds, 1e-9));
    rec.json().field("state_digest", obs::to_hex16(r.state_digest));
    rec.json().end_object();
  }
  rec.json().end_array();
  rec.json().key("udp");
  rec.json().begin_array();
  for (const UdpRow& r : udp_rows) {
    rec.json().begin_object();
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("sockets", static_cast<std::uint64_t>(r.sockets));
    rec.json().field("run_seconds", r.run_seconds);
    rec.json().field("requests", r.requests);
    rec.json().field("replies", r.replies);
    rec.json().field("exchanges_per_s",
                     r.requests / std::max(r.run_seconds, 1e-9));
    rec.json().field(
        "delivery_ratio",
        r.requests ? static_cast<double>(r.replies) / r.requests : 0.0);
    rec.json().field("datagrams_sent", r.datagrams_sent);
    rec.json().field("send_failures", r.send_failures);
    rec.json().field("oversized_dropped", r.oversized);
    rec.json().field("frames_rejected", r.rejected);
    rec.json().end_object();
  }
  rec.json().end_array();
  rec.gate("differential", differential_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rec.gates_ok() ? 0 : 1;
}
