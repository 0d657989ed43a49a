// The causal-tracing and runtime-profiling contract, in four parts:
//   1. Flight recorder — TraceRecorder ring semantics (overwrite-oldest,
//      drop accounting), byte-exact PSSTRACE1 golden dump round-trip.
//   2. Profiler — the log2 bucket algebra's edge units and the
//      percentile-as-upper-edge rule, pinned value by value.
//   3. Non-perturbation — a run with the tracing seam attached (disarmed
//      OR armed) ends digest-identical to an untraced run, on every
//      engine that carries the seam: CycleEngine, ParallelCycleEngine
//      (deterministic, 2 and 4 lanes), EventEngine, ParallelEventEngine,
//      and the ServiceNode/LoopbackDriver wire stack.
//   4. Pull endpoint — serves the latest installed snapshot over real TCP;
//      the threaded suite runs under TSan in CI.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "pss/obs/profiler.hpp"
#include "pss/obs/pull_endpoint.hpp"
#include "pss/obs/schemas.hpp"
#include "pss/obs/sinks.hpp"
#include "pss/obs/trace.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/parallel_cycle_engine.hpp"
#include "pss/sim/parallel_event_engine.hpp"
#include "pss/sim/trace_probe.hpp"
#include "pss/transport/loopback_driver.hpp"
#include "pss/transport/loopback_transport.hpp"

namespace pss {
namespace {

using sim::TracePhase;
using sim::TraceSpan;

// ---- shared fixtures --------------------------------------------------------

sim::Network make_net(std::size_t n, std::uint64_t seed = 42) {
  return sim::bootstrap::make_random(ProtocolSpec::newscast(),
                                     ProtocolOptions{8, false}, n, seed);
}

/// Recorder + profiler behind a tee — the attachment every traced run
/// uses (bench/scale_trace.cpp, examples/udp_gossip_daemon.cpp).
struct Kit {
  obs::TraceRecorder recorder{1 << 14};
  obs::Profiler profiler;
  obs::TraceTee tee;
  explicit Kit(bool armed) {
    tee.add(recorder);
    tee.add(profiler);
    recorder.set_armed(armed);
    profiler.set_armed(armed);
  }
};

enum class Mode { kNone, kDisarmed, kArmed };

struct Outcome {
  std::uint64_t digest = 0;
  std::uint64_t spans = 0;
};

/// Runs `drive(net, probe-or-null)` on a freshly seeded world.
template <typename Drive>
Outcome run_mode(std::size_t n, Mode mode, Drive drive) {
  sim::Network net = make_net(n);
  Kit kit(mode == Mode::kArmed);
  drive(net, mode == Mode::kNone ? nullptr : &kit.tee);
  return {scenarios::state_digest(net), kit.recorder.total_recorded()};
}

/// The non-perturbation triple: untraced == disarmed == armed, and the
/// armed run actually recorded spans (otherwise the check is vacuous).
template <typename Drive>
void expect_unperturbed(std::size_t n, Drive drive) {
  const Outcome base = run_mode(n, Mode::kNone, drive);
  const Outcome disarmed = run_mode(n, Mode::kDisarmed, drive);
  const Outcome armed = run_mode(n, Mode::kArmed, drive);
  EXPECT_EQ(base.digest, disarmed.digest);
  EXPECT_EQ(base.digest, armed.digest);
  EXPECT_EQ(disarmed.spans, 0u);
  EXPECT_GT(armed.spans, 0u);
}

// ---- 1. flight recorder -----------------------------------------------------

TEST(TraceRecorderTest, RingOverwritesOldestAndCountsDrops) {
  obs::TraceRecorder rec(3);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    rec.record({TracePhase::kSelect, static_cast<NodeId>(i), kInvalidNode, i,
                i, 100, 100 + i});
  }
  EXPECT_EQ(rec.capacity(), 3u);
  EXPECT_EQ(rec.size(), 3u);
  EXPECT_EQ(rec.total_recorded(), 5u);
  EXPECT_EQ(rec.dropped(), 2u);
  // Oldest-first: events 3, 4, 5 survive.
  EXPECT_EQ(rec.event(0).exchange_id, 3u);
  EXPECT_EQ(rec.event(1).exchange_id, 4u);
  EXPECT_EQ(rec.event(2).exchange_id, 5u);
  EXPECT_EQ(rec.event(2).duration_ns, 5u);

  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.total_recorded(), 5u);
}

TEST(TraceRecorderTest, DisarmedRecorderIgnoresSpans) {
  obs::TraceRecorder rec(4);
  rec.set_armed(false);
  rec.record({TracePhase::kSelect, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(rec.total_recorded(), 0u);
}

TEST(TraceRecorderTest, EncodeEventGoldenBytes) {
  // The packed 32-byte little-endian layout is a wire format: these bytes
  // may only change together with a pss.obs.trace version bump.
  obs::TraceEvent e;
  e.wall_ns = 0x0102030405060708ULL;
  e.exchange_id = 0x1112131415161718ULL;
  e.node = 0x21222324u;
  e.peer = 0x31323334u;
  e.duration_ns = 0x41424344u;
  e.tick = 0x1234u;
  e.kind = 1;  // merge_apply
  std::vector<std::byte> bytes;
  obs::TraceRecorder::encode_event(e, bytes);
  const unsigned char expected[obs::kTraceEventStride] = {
      0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // wall_ns
      0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // exchange_id
      0x24, 0x23, 0x22, 0x21,                          // node
      0x34, 0x33, 0x32, 0x31,                          // peer
      0x44, 0x43, 0x42, 0x41,                          // duration_ns
      0x34, 0x12,                                      // tick
      0x01, 0x00,                                      // kind, reserved
  };
  ASSERT_EQ(bytes.size(), obs::kTraceEventStride);
  for (std::size_t i = 0; i < obs::kTraceEventStride; ++i) {
    EXPECT_EQ(static_cast<unsigned char>(bytes[i]), expected[i]) << "byte " << i;
  }
}

TEST(TraceRecorderTest, SpanFoldsIntoEventFields) {
  obs::TraceRecorder rec(4);
  // tick truncates to its low 16 bits; duration saturates at u32 max.
  rec.record({TracePhase::kTimeout, 7, 9, 42, 0xABCD1234ULL, 1000,
              1000 + 0x1'FFFF'FFFFULL});
  const obs::TraceEvent& e = rec.event(0);
  EXPECT_EQ(e.wall_ns, 1000u);
  EXPECT_EQ(e.node, 7u);
  EXPECT_EQ(e.peer, 9u);
  EXPECT_EQ(e.exchange_id, 42u);
  EXPECT_EQ(e.tick, 0x1234u);
  EXPECT_EQ(e.kind, static_cast<std::uint8_t>(TracePhase::kTimeout));
  EXPECT_EQ(e.duration_ns, 0xFFFFFFFFu);  // saturated
}

TEST(TraceRecorderTest, DumpGoldenRoundTrip) {
  obs::TraceRecorder rec(4);
  rec.record({TracePhase::kSelect, 1, 2, 100, 5, 10'000, 10'500});
  rec.record({TracePhase::kRequestSent, 1, 2, 100, 5, 10'600, 12'000});

  obs::RunMetadata meta;
  meta.bench = "trace_test";
  meta.engine = "unit";
  meta.protocol = "(rand,head,pushpull)";
  meta.protocol_id = 7;
  meta.n = 4;
  meta.view_size = 8;
  meta.cycles = 1;
  meta.seed = 42;
  meta.git = "golden";  // pinned: the header must not depend on the build

  const std::string path = testing::TempDir() + "/trace_golden.bin";
  ASSERT_TRUE(rec.dump(path, meta));

  std::ifstream in(path, std::ios::binary);
  std::vector<char> raw((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());

  // Reconstruct the expected document byte for byte.
  const std::string header = obs::make_jsonl_header(obs::schemas::kTrace, meta);
  std::vector<std::byte> expected;
  const char magic[] = "PSSTRACE1";
  for (int i = 0; i < 9; ++i) expected.push_back(std::byte(magic[i]));
  expected.push_back(std::byte{0});
  auto u16 = [&](std::uint16_t v) {
    expected.push_back(std::byte(v & 0xff));
    expected.push_back(std::byte(v >> 8));
  };
  auto u32 = [&](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) expected.push_back(std::byte((v >> (8 * i)) & 0xff));
  };
  auto u64 = [&](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) expected.push_back(std::byte((v >> (8 * i)) & 0xff));
  };
  u16(32);
  u32(static_cast<std::uint32_t>(header.size()));
  u64(4);  // capacity
  u64(2);  // total_recorded
  u64(2);  // event_count
  for (char ch : header) expected.push_back(std::byte(ch));
  obs::TraceRecorder::encode_event(rec.event(0), expected);
  obs::TraceRecorder::encode_event(rec.event(1), expected);

  ASSERT_EQ(raw.size(), expected.size());
  for (std::size_t i = 0; i < raw.size(); ++i) {
    ASSERT_EQ(static_cast<unsigned char>(raw[i]),
              static_cast<unsigned char>(expected[i]))
        << "byte " << i;
  }
  // And the embedded header is the versioned schema, not a guess.
  const std::string text(raw.begin(), raw.end());
  EXPECT_NE(text.find("\"name\":\"pss.obs.trace\",\"version\":1"),
            std::string::npos);
  EXPECT_NE(text.find("\"git\":\"golden\""), std::string::npos);
  std::remove(path.c_str());
}

TEST(TraceRecorderTest, TeeForwardsOnlyToArmedChildren) {
  obs::TraceRecorder a(4);
  obs::TraceRecorder b(4);
  obs::TraceTee tee;
  tee.add(a);
  tee.add(b);
  b.set_armed(false);
  EXPECT_TRUE(tee.armed());
  tee.record({TracePhase::kSelect, 1, 2, 3, 4, 5, 6});
  EXPECT_EQ(a.total_recorded(), 1u);
  EXPECT_EQ(b.total_recorded(), 0u);
  a.set_armed(false);
  EXPECT_FALSE(tee.armed());
}

// ---- 2. profiler ------------------------------------------------------------

TEST(ProfilerTest, HistogramBucketEdgeUnits) {
  using P = obs::Profiler;
  // bucket 0 is exactly 0 ns; bucket b >= 1 is [2^(b-1), 2^b - 1].
  EXPECT_EQ(P::bucket_of(0), 0u);
  EXPECT_EQ(P::bucket_of(1), 1u);
  EXPECT_EQ(P::bucket_of(2), 2u);
  EXPECT_EQ(P::bucket_of(3), 2u);
  EXPECT_EQ(P::bucket_of(4), 3u);
  EXPECT_EQ(P::bucket_of(1023), 10u);
  EXPECT_EQ(P::bucket_of(1024), 11u);
  EXPECT_EQ(P::bucket_of(~0ULL), 64u);

  EXPECT_EQ(P::bucket_lo(0), 0u);
  EXPECT_EQ(P::bucket_hi(0), 0u);
  EXPECT_EQ(P::bucket_lo(1), 1u);
  EXPECT_EQ(P::bucket_hi(1), 1u);
  EXPECT_EQ(P::bucket_lo(2), 2u);
  EXPECT_EQ(P::bucket_hi(2), 3u);
  EXPECT_EQ(P::bucket_lo(10), 512u);
  EXPECT_EQ(P::bucket_hi(10), 1023u);
  EXPECT_EQ(P::bucket_lo(64), 1ULL << 63);
  EXPECT_EQ(P::bucket_hi(64), ~0ULL);
  // Every bucket's own edges map back into it.
  for (std::size_t b = 0; b < P::kBuckets; ++b) {
    EXPECT_EQ(P::bucket_of(P::bucket_lo(b)), b);
    EXPECT_EQ(P::bucket_of(P::bucket_hi(b)), b);
  }
}

TEST(ProfilerTest, RecordsPerPhaseAndAppliesPercentileRule) {
  obs::Profiler prof;
  auto span = [](std::uint64_t d) {
    return TraceSpan{TracePhase::kMergeApply, 1, 2, 3, 4, 1000, 1000 + d};
  };
  for (std::uint64_t d : {0ULL, 1ULL, 1ULL, 2ULL, 1000ULL}) {
    prof.record(span(d));
  }
  EXPECT_EQ(prof.count(TracePhase::kMergeApply), 5u);
  EXPECT_EQ(prof.sum_ns(TracePhase::kMergeApply), 1004u);
  EXPECT_EQ(prof.count(TracePhase::kSelect), 0u);
  EXPECT_EQ(prof.bucket_count(TracePhase::kMergeApply, 0), 1u);
  EXPECT_EQ(prof.bucket_count(TracePhase::kMergeApply, 1), 2u);
  EXPECT_EQ(prof.bucket_count(TracePhase::kMergeApply, 2), 1u);
  EXPECT_EQ(prof.bucket_count(TracePhase::kMergeApply, 10), 1u);
  // Percentile = upper edge of the first bucket whose cumulative count
  // reaches ceil(q * total): rank 3 of 5 lands in bucket 1 -> 1 ns.
  EXPECT_EQ(prof.percentile_ns(TracePhase::kMergeApply, 0.5), 1u);
  EXPECT_EQ(prof.percentile_ns(TracePhase::kMergeApply, 0.8), 3u);
  EXPECT_EQ(prof.percentile_ns(TracePhase::kMergeApply, 1.0), 1023u);
  EXPECT_EQ(prof.percentile_ns(TracePhase::kMergeApply, 0.0), 0u);
  EXPECT_EQ(prof.percentile_ns(TracePhase::kSelect, 0.5), 0u);
}

/// Captures begin/row calls so the export contract is checked against the
/// schema object itself, not a serialized form.
struct CaptureSink final : obs::MetricSink {
  const obs::MetricSchema* schema = nullptr;
  std::vector<std::vector<obs::MetricValue>> rows;
  void begin(const obs::MetricSchema& s, const obs::RunMetadata&) override {
    schema = &s;
  }
  void row(std::span<const obs::MetricValue> values) override {
    rows.emplace_back(values.begin(), values.end());
  }
  void finish() override {}
};

TEST(ProfilerTest, ExportsOneRowPerNonEmptyBucket) {
  obs::Profiler prof;
  prof.record({TracePhase::kSelect, 1, 2, 3, 4, 0, 5});        // bucket 3
  prof.record({TracePhase::kSelect, 1, 2, 3, 4, 0, 5});        // bucket 3
  prof.record({TracePhase::kReplyReceived, 1, 2, 3, 4, 0, 1});  // bucket 1
  CaptureSink sink;
  prof.export_rows(sink, obs::RunMetadata{});
  ASSERT_NE(sink.schema, nullptr);
  EXPECT_EQ(std::string(sink.schema->name), "pss.obs.profile");
  EXPECT_EQ(sink.schema->version, 1u);
  ASSERT_EQ(sink.rows.size(), 2u);  // one per non-empty (phase, bucket)
  for (const auto& row : sink.rows) {
    ASSERT_EQ(row.size(), 6u);  // phase_id, phase, bucket, lo, hi, count
  }
  // Rows come out in phase order: select (id 0) before reply_received (3).
  EXPECT_EQ(sink.rows[0][0].u, 0u);
  EXPECT_EQ(std::string(sink.rows[0][1].s), "select");
  EXPECT_EQ(sink.rows[0][2].u, 3u);
  EXPECT_EQ(sink.rows[0][5].u, 2u);
  EXPECT_EQ(std::string(sink.rows[1][1].s), "reply_received");
}

TEST(ProfilerTest, PrometheusRenderIsCumulative) {
  obs::Profiler prof;
  prof.record({TracePhase::kSelect, 1, 2, 3, 4, 0, 2});  // bucket 2, hi 3
  prof.record({TracePhase::kSelect, 1, 2, 3, 4, 0, 5});  // bucket 3, hi 7
  std::string text;
  prof.render_prometheus(text);
  EXPECT_NE(text.find("# TYPE pss_phase_duration_ns histogram"),
            std::string::npos);
  EXPECT_NE(text.find("pss_phase_duration_ns_bucket{phase=\"select\",le=\"3\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("pss_phase_duration_ns_bucket{phase=\"select\",le=\"7\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pss_phase_duration_ns_bucket{phase=\"select\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("pss_phase_duration_ns_sum{phase=\"select\"} 7"),
            std::string::npos);
  EXPECT_NE(text.find("pss_phase_duration_ns_count{phase=\"select\"} 2"),
            std::string::npos);
  // Phases that recorded nothing stay out of the exposition.
  EXPECT_EQ(text.find("merge_apply"), std::string::npos);
}

// ---- 3. non-perturbation differentials --------------------------------------

TEST(TraceDifferentialTest, CycleEngineDigestUnperturbed) {
  expect_unperturbed(300, [](sim::Network& net, sim::TraceProbe* probe) {
    sim::CycleEngine engine(net);
    if (probe != nullptr) engine.attach_trace(*probe);
    engine.run(10);
  });
}

TEST(TraceDifferentialTest, EventEngineDigestUnperturbed) {
  expect_unperturbed(300, [](sim::Network& net, sim::TraceProbe* probe) {
    sim::EventEngine engine(net, sim::EventEngineConfig{});
    if (probe != nullptr) engine.attach_trace(*probe);
    engine.run_cycles(10);
  });
}

TEST(TraceDifferentialTest, LoopbackServiceDigestUnperturbed) {
  expect_unperturbed(200, [](sim::Network& net, sim::TraceProbe* probe) {
    transport::LoopbackTransport bus(transport::LoopbackConfig{}, net.rng());
    transport::LoopbackDriver driver(net, bus);
    if (probe != nullptr) driver.attach_trace(*probe);
    driver.run_cycles(10);
  });
}

TEST(TraceDifferentialTest, LoopbackAttachAfterConstructionReachesNewNodes) {
  // attach_trace before the driver has scheduled later-added nodes: the
  // stored probe must be forwarded to nodes created afterwards.
  sim::Network net = make_net(50);
  transport::LoopbackTransport bus(transport::LoopbackConfig{}, net.rng());
  transport::LoopbackDriver driver(net, bus);
  Kit kit(/*armed=*/true);
  driver.attach_trace(kit.tee);
  net.add_nodes(10);
  sim::bootstrap::init_random(net);
  driver.run_cycles(5);
  EXPECT_GT(kit.recorder.total_recorded(), 0u);
}

TEST(TraceProbeParallel, DeterministicCycleEngineUnperturbed) {
  for (const unsigned threads : {2u, 4u}) {
    expect_unperturbed(300, [threads](sim::Network& net,
                                      sim::TraceProbe* probe) {
      sim::ParallelCycleEngine engine(
          net, {threads, sim::ParallelPolicy::kDeterministic});
      if (probe != nullptr) engine.attach_trace(*probe);
      engine.run(10);
    });
  }
}

TEST(TraceProbeParallel, ParallelEventEngineUnperturbed) {
  for (const unsigned threads : {2u, 4u}) {
    expect_unperturbed(300, [threads](sim::Network& net,
                                      sim::TraceProbe* probe) {
      sim::ParallelEventEngine engine(net, sim::EventEngineConfig{}, threads);
      if (probe != nullptr) engine.attach_trace(*probe);
      engine.run_cycles(10);
    });
  }
}

TEST(TraceProbeParallel, SpanCountsMatchAcrossAsyncDrivers) {
  // The three asynchronous drivers share one exchange core, so every phase
  // must be recorded the same number of times by each. Loss and a latency
  // beyond the reply timeout make timeouts and stale replies occur.
  sim::EventEngineConfig config;
  config.max_latency = 0.6;
  config.drop_probability = 0.15;
  using Counts = std::array<std::uint64_t, sim::kTracePhaseCount>;
  for (const ProtocolSpec& spec :
       {ProtocolSpec::newscast(), ProtocolSpec::lpbcast()}) {
    SCOPED_TRACE(spec.name());
    auto run = [&](auto drive) {
      sim::Network net =
          sim::bootstrap::make_random(spec, ProtocolOptions{10, false}, 200, 7);
      obs::Profiler profiler;
      profiler.set_armed(true);
      drive(net, profiler);
      Counts counts{};
      for (std::size_t p = 0; p < sim::kTracePhaseCount; ++p) {
        counts[p] = profiler.count(static_cast<TracePhase>(p));
      }
      return counts;
    };
    const Counts event = run([&](sim::Network& net, sim::TraceProbe& probe) {
      sim::EventEngine engine(net, config);
      engine.attach_trace(probe);
      engine.run_cycles(15);
    });
    const Counts parallel = run([&](sim::Network& net,
                                    sim::TraceProbe& probe) {
      sim::ParallelEventEngine engine(net, config, 3);
      engine.attach_trace(probe);
      engine.run_cycles(15);
    });
    const Counts loopback = run([&](sim::Network& net,
                                    sim::TraceProbe& probe) {
      transport::LoopbackTransport bus(
          transport::LoopbackConfig{config.min_latency, config.max_latency,
                                    config.drop_probability},
          net.rng());
      transport::LoopbackDriver driver(
          net, bus, {config.period, config.reply_timeout});
      driver.attach_trace(probe);
      driver.run_cycles(15);
    });
    EXPECT_EQ(event, parallel);
    EXPECT_EQ(event, loopback);
    if (spec == ProtocolSpec::newscast()) {
      // select, merge_apply, request_sent, reply_received, timeout: the
      // pull protocol times out and hears stale replies at this latency.
      EXPECT_EQ(event, (Counts{3000, 2503, 3000, 727, 2108}));
    }
  }
}

TEST(TraceProbeParallel, RelaxedPolicyRecordsConcurrently) {
  // Relaxed runs are not digest-stable, so no triple here — this pins the
  // thread-safety claim instead: lanes record through the tee into the
  // spinlocked ring and the atomic histograms without racing (TSan job).
  sim::Network net = make_net(500);
  sim::ParallelCycleEngine engine(net, {4, sim::ParallelPolicy::kRelaxed});
  Kit kit(/*armed=*/true);
  engine.attach_trace(kit.tee);
  engine.run(10);
  EXPECT_GT(kit.recorder.total_recorded(), 0u);
  EXPECT_GT(kit.profiler.count(sim::TracePhase::kMergeApply), 0u);
}

// ---- 4. pull endpoint -------------------------------------------------------

std::string http_get(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const char request[] = "GET /metrics HTTP/1.0\r\n\r\n";
  (void)!::send(fd, request, sizeof request - 1, 0);
  std::string out;
  char buf[4096];
  ssize_t got = 0;
  while ((got = ::recv(fd, buf, sizeof buf, 0)) > 0) out.append(buf, got);
  ::close(fd);
  return out;
}

TEST(PullEndpointTest, ServesLatestSnapshot) {
  obs::PullEndpoint http(0);
  ASSERT_TRUE(http.ok());
  ASSERT_NE(http.port(), 0);  // port 0 resolved to the kernel's choice
  http.set_text("pss_test_metric 1\n");
  std::string reply = http_get(http.port());
  EXPECT_NE(reply.find("HTTP/1.0 200 OK"), std::string::npos);
  EXPECT_NE(reply.find("text/plain; version=0.0.4"), std::string::npos);
  EXPECT_NE(reply.find("pss_test_metric 1"), std::string::npos);
  http.set_text("pss_test_metric 2\n");
  reply = http_get(http.port());
  EXPECT_NE(reply.find("pss_test_metric 2"), std::string::npos);
  EXPECT_EQ(reply.find("pss_test_metric 1"), std::string::npos);
  EXPECT_GE(http.requests_served(), 2u);
  http.stop();
  http.stop();  // idempotent
}

TEST(PullEndpointThreaded, ConcurrentScrapesAndUpdates) {
  obs::PullEndpoint http(0);
  ASSERT_TRUE(http.ok());
  std::atomic<int> ok_scrapes{0};
  std::vector<std::thread> scrapers;
  scrapers.reserve(3);
  for (int t = 0; t < 3; ++t) {
    scrapers.emplace_back([&] {
      for (int i = 0; i < 20; ++i) {
        const std::string reply = http_get(http.port());
        if (reply.find("HTTP/1.0 200 OK") != std::string::npos) {
          ok_scrapes.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (int i = 0; i < 200; ++i) {
    http.set_text("pss_counter " + std::to_string(i) + "\n");
  }
  for (std::thread& t : scrapers) t.join();
  EXPECT_EQ(ok_scrapes.load(), 60);
  http.stop();
}

}  // namespace
}  // namespace pss
