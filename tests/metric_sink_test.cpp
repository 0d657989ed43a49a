// Tests for the metrics-export surface: golden header/row formats for the
// CSV and JSON-lines sinks, ring buffer wrap/drain/dump semantics, schema
// validation, the RunRecorder envelope, and — most importantly — the
// differential guarantee that attaching a sink to a run cannot change its
// state digest on any engine (the write-only observation contract that
// bench/scale_metrics re-checks at scale on every bench run).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "../bench/bench_meta.hpp"
#include "pss/common/rng.hpp"
#include "pss/obs/json_writer.hpp"
#include "pss/obs/metric_sink.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/obs/schemas.hpp"
#include "pss/obs/sinks.hpp"
#include "pss/obs/streaming_observer.hpp"
#include "pss/protocol/spec.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/event_engine.hpp"
#include "pss/sim/network.hpp"
#include "pss/transport/loopback_transport.hpp"
#include "pss/transport/service_node.hpp"
#include "pss/transport/wire.hpp"

namespace {

using namespace pss;
using namespace pss::obs;

// A four-type schema exercising every cell encoding the backends support.
constexpr FieldSpec kGoldenFields[] = {
    {"cycle", FieldType::kU64},
    {"value", FieldType::kF64},
    {"label", FieldType::kStr},
    {"ok", FieldType::kBool},
};
constexpr MetricSchema kGoldenSchema{"pss.test.golden", 3, kGoldenFields,
                                     std::size(kGoldenFields)};

constexpr FieldSpec kPairFields[] = {
    {"cycle", FieldType::kU64},
    {"value", FieldType::kF64},
};
constexpr MetricSchema kPairSchema{"pss.test.pair", 1, kPairFields,
                                   std::size(kPairFields)};

// meta.git is set explicitly: an empty git field is substituted with the
// build's `git describe`, which would make goldens machine-dependent.
RunMetadata golden_meta() {
  RunMetadata meta;
  meta.bench = "unit";
  meta.engine = "cycle";
  meta.protocol = "newscast";
  meta.protocol_id = 10;
  meta.n = 64;
  meta.view_size = 8;
  meta.cycles = 4;
  meta.seed = 7;
  meta.git = "testgit";
  return meta;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

std::uint32_t read_le32(const std::string& bytes, std::size_t offset) {
  std::uint32_t v = 0;
  for (int b = 3; b >= 0; --b) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(b)]);
  }
  return v;
}

std::uint64_t read_le64(const std::string& bytes, std::size_t offset) {
  std::uint64_t v = 0;
  for (int b = 7; b >= 0; --b) {
    v = (v << 8) |
        static_cast<unsigned char>(bytes[offset + static_cast<std::size_t>(b)]);
  }
  return v;
}

// ---- golden file formats ----------------------------------------------------

TEST(CsvMetricSinkTest, GoldenHeaderAndRows) {
  const std::string path = temp_path("metric_sink_golden.csv");
  {
    CsvMetricSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.begin(kGoldenSchema, golden_meta());
    sink.row({std::uint64_t{1}, 0.5, "plain", true});
    sink.row({std::uint64_t{2}, -1.25, std::string_view("a,b\"c"), false});
    sink.finish();
    EXPECT_TRUE(sink.ok());
  }
  EXPECT_EQ(slurp(path),
            "# pss-metrics-csv 1\n"
            "# schema: pss.test.golden 3\n"
            "# fields: cycle:u64,value:f64,label:str,ok:bool\n"
            "# meta: bench=unit engine=cycle protocol=newscast protocol_id=10 "
            "n=64 c=8 cycles=4 seed=7 git=testgit\n"
            "cycle,value,label,ok\n"
            "1,0.5,plain,1\n"
            "2,-1.25,\"a,b\"\"c\",0\n");
}

TEST(JsonlMetricSinkTest, GoldenHeaderAndRow) {
  const std::string path = temp_path("metric_sink_golden.jsonl");
  {
    JsonlMetricSink sink(path);
    ASSERT_TRUE(sink.ok());
    sink.begin(kGoldenSchema, golden_meta());
    sink.row({std::uint64_t{1}, 0.5, "hi\"there", true});
    sink.finish();
    EXPECT_TRUE(sink.ok());
  }
  EXPECT_EQ(slurp(path),
            make_jsonl_header(kGoldenSchema, golden_meta()) + "\n" +
                "{\"cycle\":1,\"value\":0.5,\"label\":\"hi\\\"there\","
                "\"ok\":true}\n");
}

TEST(JsonlHeaderTest, GoldenHeaderObject) {
  EXPECT_EQ(
      make_jsonl_header(kPairSchema, golden_meta()),
      "{\"pss_metrics\":1,"
      "\"schema\":{\"name\":\"pss.test.pair\",\"version\":1},"
      "\"fields\":[{\"name\":\"cycle\",\"type\":\"u64\"},"
      "{\"name\":\"value\",\"type\":\"f64\"}],"
      "\"meta\":{\"bench\":\"unit\",\"engine\":\"cycle\","
      "\"protocol\":\"newscast\",\"protocol_id\":10,\"n\":64,\"c\":8,"
      "\"cycles\":4,\"seed\":7,\"git\":\"testgit\"}}");
}

TEST(JsonlHeaderTest, EmptyGitFieldFallsBackToBuildDescribe) {
  RunMetadata meta = golden_meta();
  meta.git = {};
  const std::string header = make_jsonl_header(kPairSchema, meta);
  const std::string describe(build_git_describe());
  ASSERT_FALSE(describe.empty());
  EXPECT_NE(header.find("\"git\":\"" + describe), std::string::npos);
}

// ---- JsonWriter formatting --------------------------------------------------

TEST(JsonWriterTest, EscapesStringsAndNullsNonFiniteDoubles) {
  std::string out;
  JsonWriter w(out, /*pretty=*/false);
  w.begin_object();
  w.field("s", "a\"b\\c\nd\x01");
  w.field("nan", std::numeric_limits<double>::quiet_NaN());
  w.field("inf", std::numeric_limits<double>::infinity());
  w.field("neg", std::int64_t{-3});
  w.end_object();
  EXPECT_TRUE(w.complete());
  EXPECT_EQ(out,
            "{\"s\":\"a\\\"b\\\\c\\nd\\u0001\","
            "\"nan\":null,\"inf\":null,\"neg\":-3}");
}

TEST(JsonWriterTest, DoublesRoundTripShortest) {
  std::string out;
  JsonWriter w(out, /*pretty=*/false);
  w.begin_array();
  w.value(0.1);
  w.value(1.0 / 3.0);
  w.end_array();
  EXPECT_EQ(out, "[0.1,0.3333333333333333]");
  EXPECT_EQ(std::stod("0.3333333333333333"), 1.0 / 3.0);
}

// ---- schema validation ------------------------------------------------------

TEST(MetricSinkTest, RowArityAndTypeMismatchesThrow) {
  // FanOutSink validates even with zero children, so a producer's schema
  // bug surfaces in runs that record nothing.
  FanOutSink fan;
  fan.begin(kPairSchema, golden_meta());
  EXPECT_THROW(fan.row({std::uint64_t{1}}), std::logic_error);
  EXPECT_THROW(fan.row({std::uint64_t{1}, 0.5, 0.5}), std::logic_error);
  EXPECT_THROW(fan.row({0.5, std::uint64_t{1}}), std::logic_error);
  fan.row({std::uint64_t{1}, 0.5});  // matching row passes
}

TEST(MetricSinkTest, FanOutForwardsToEveryChild) {
  RingBufferSink a(4);
  RingBufferSink b(4);
  FanOutSink fan;
  fan.add(a);
  fan.add(b);
  ASSERT_EQ(fan.count(), 2u);
  fan.begin(kPairSchema, golden_meta());
  fan.row({std::uint64_t{1}, 2.0});
  fan.finish();
  EXPECT_EQ(a.total_appended(), 1u);
  EXPECT_EQ(b.total_appended(), 1u);
}

// ---- ring buffer semantics --------------------------------------------------

TEST(RingBufferSinkTest, OverflowOverwritesOldestAndDrainsInOrder) {
  RingBufferSink ring(3);
  ring.begin(kPairSchema, golden_meta());
  for (std::uint64_t i = 1; i <= 5; ++i) {
    ring.row({i, static_cast<double>(i) * 0.5});
  }
  EXPECT_EQ(ring.capacity(), 3u);
  EXPECT_EQ(ring.size(), 3u);
  EXPECT_EQ(ring.total_appended(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);

  std::vector<std::uint64_t> cycles;
  std::vector<double> values;
  ring.drain([&](std::span<const std::uint64_t> cells) {
    ASSERT_EQ(cells.size(), kPairSchema.field_count);
    cycles.push_back(cells[0]);
    values.push_back(std::bit_cast<double>(cells[1]));
  });
  EXPECT_EQ(cycles, (std::vector<std::uint64_t>{3, 4, 5}));
  EXPECT_EQ(values, (std::vector<double>{1.5, 2.0, 2.5}));

  // drain() empties the ring but keeps counting from the same total.
  EXPECT_EQ(ring.size(), 0u);
  EXPECT_EQ(ring.total_appended(), 5u);
  EXPECT_EQ(ring.dropped(), 5u);
  ring.row({std::uint64_t{6}, 3.0});
  EXPECT_EQ(ring.size(), 1u);
  EXPECT_EQ(ring.total_appended(), 6u);
}

TEST(RingBufferSinkTest, DumpRoundTripsHeaderAndPackedCells) {
  RingBufferSink ring(4);
  ring.begin(kGoldenSchema, golden_meta());
  ring.row({std::uint64_t{1}, 0.5, "x", true});
  ring.row({std::uint64_t{2}, -2.0, "y", false});

  const std::string path = temp_path("metric_sink_ring.bin");
  ASSERT_TRUE(ring.dump(path));
  const std::string bytes = slurp(path);

  const std::string header = make_jsonl_header(kGoldenSchema, golden_meta());
  ASSERT_GE(bytes.size(), 48 + header.size() + 2 * 4 * 8);
  EXPECT_EQ(bytes.substr(0, 8), "PSSRING1");
  EXPECT_EQ(read_le32(bytes, 8), 1u);                    // format version
  EXPECT_EQ(read_le32(bytes, 12), header.size());        // header_len
  EXPECT_EQ(read_le32(bytes, 16), 4u);                   // field_count
  EXPECT_EQ(read_le32(bytes, 20), 32u);                  // record stride
  EXPECT_EQ(read_le64(bytes, 24), 4u);                   // capacity
  EXPECT_EQ(read_le64(bytes, 32), 2u);                   // total_appended
  EXPECT_EQ(read_le64(bytes, 40), 2u);                   // record_count
  EXPECT_EQ(bytes.substr(48, header.size()), header);

  const std::size_t rows = 48 + header.size();
  EXPECT_EQ(read_le64(bytes, rows + 0), 1u);
  EXPECT_EQ(std::bit_cast<double>(read_le64(bytes, rows + 8)), 0.5);
  EXPECT_EQ(read_le64(bytes, rows + 16), RingBufferSink::hash_str("x"));
  EXPECT_EQ(read_le64(bytes, rows + 24), 1u);  // bool true
  EXPECT_EQ(read_le64(bytes, rows + 32), 2u);
  EXPECT_EQ(std::bit_cast<double>(read_le64(bytes, rows + 40)), -2.0);
  EXPECT_EQ(read_le64(bytes, rows + 48), RingBufferSink::hash_str("y"));
  EXPECT_EQ(read_le64(bytes, rows + 56), 0u);  // bool false

  // dump() does not consume: the ring still holds both rows.
  EXPECT_EQ(ring.size(), 2u);
}

// ---- schema registry sanity -------------------------------------------------

TEST(SchemasTest, CanonicalSchemasMatchTheirDocumentedShape) {
  EXPECT_STREQ(schemas::kSnapshot.name, "pss.obs.snapshot");
  EXPECT_EQ(schemas::kSnapshot.version, 1u);
  EXPECT_EQ(schemas::kSnapshot.field_count, 17u);
  EXPECT_STREQ(schemas::kSeries.name, "pss.experiments.series");
  EXPECT_EQ(schemas::kSeries.version, 1u);
  EXPECT_EQ(schemas::kSeries.field_count, 10u);
  EXPECT_STREQ(schemas::kServiceTick.name, "pss.transport.service_tick");
  EXPECT_EQ(schemas::kServiceTick.version, 1u);
  EXPECT_EQ(schemas::kServiceTick.field_count, 10u);
}

TEST(BenchMetaTest, ProtocolWireIdMatchesTransportEncoding) {
  for (const ProtocolSpec& spec : ProtocolSpec::evaluated()) {
    EXPECT_EQ(bench::protocol_wire_id(spec),
              static_cast<std::int32_t>(transport::encode_protocol(spec)))
        << spec.name();
  }
}

// ---- RunRecorder ------------------------------------------------------------

TEST(RunRecorderTest, ToHex16IsZeroPaddedLowercase) {
  EXPECT_EQ(to_hex16(0), "0000000000000000");
  EXPECT_EQ(to_hex16(0x5BD0F8FD2469C20AULL), "5bd0f8fd2469c20a");
  EXPECT_EQ(to_hex16(0xFFFFFFFFFFFFFFFFULL), "ffffffffffffffff");
}

TEST(RunRecorderTest, EnvelopeRecordsGatesAndWritesOnce) {
  RunRecorder rec("unitbench", 2, golden_meta());
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("x", std::uint64_t{1});
  rec.json().end_object();
  EXPECT_TRUE(rec.gate("pass", true));
  EXPECT_FALSE(rec.gate("fail", false));
  EXPECT_FALSE(rec.gates_ok());

  const std::string path = temp_path("metric_sink_bench.json");
  ASSERT_TRUE(rec.write(path));
  const std::string doc = slurp(path);
  EXPECT_NE(doc.find("\"pss.bench.unitbench\""), std::string::npos);
  EXPECT_NE(doc.find("\"version\": 2"), std::string::npos);
  EXPECT_NE(doc.find("\"pass\": true"), std::string::npos);
  EXPECT_NE(doc.find("\"fail\": false"), std::string::npos);
  EXPECT_NE(doc.find("\"gates_ok\": false"), std::string::npos);
}

// ---- the write-only observation contract ------------------------------------

sim::Network make_net(std::size_t n, std::uint64_t seed) {
  sim::Network net(ProtocolSpec::newscast(), ProtocolOptions{8, false}, seed);
  net.reserve_nodes(n);
  net.add_nodes(n);
  sim::bootstrap::init_random(net);
  return net;
}

ObserverConfig small_observer_config() {
  ObserverConfig config;
  config.clustering_sample = 16;
  config.path_sources = 2;
  return config;
}

// Runs `cycles` on a fresh identically-seeded network with an observer
// attached, optionally streaming to `sink`; returns the state digest and
// the observer's record count.
template <typename RunEngine>
std::uint64_t run_observed(RunEngine run, MetricSink* sink,
                           std::size_t* records_out) {
  sim::Network net = make_net(64, 99);
  StreamingObserver observer(small_observer_config());
  if (sink != nullptr) {
    observer.attach_sink(*sink, golden_meta());
  }
  run(net, observer);
  *records_out = observer.records().size();
  return scenarios::state_digest(net);
}

template <typename RunEngine>
void expect_sink_is_write_only(RunEngine run) {
  std::size_t plain_records = 0;
  const std::uint64_t plain = run_observed(run, nullptr, &plain_records);
  ASSERT_GT(plain_records, 0u);

  RingBufferSink ring(128);
  std::size_t sinked_records = 0;
  const std::uint64_t sinked = run_observed(run, &ring, &sinked_records);

  EXPECT_EQ(plain, sinked);
  EXPECT_EQ(sinked_records, plain_records);
  EXPECT_EQ(ring.total_appended(), plain_records);
}

TEST(SinkDifferentialTest, CycleEngineDigestUnchangedBySink) {
  expect_sink_is_write_only([](sim::Network& net, StreamingObserver& obs) {
    sim::CycleEngine engine(net);
    engine.attach_probe(obs);
    engine.run(4);
  });
}

TEST(SinkDifferentialTest, ParallelCycleEngineDigestUnchangedBySink) {
  expect_sink_is_write_only([](sim::Network& net, StreamingObserver& obs) {
    sim::CycleEngine engine(net, {2});
    engine.attach_probe(obs);
    engine.run(4);
  });
}

TEST(SinkDifferentialTest, EventEngineDigestUnchangedBySink) {
  expect_sink_is_write_only([](sim::Network& net, StreamingObserver& obs) {
    sim::EventEngine engine(net, {});
    engine.attach_probe(obs);
    engine.run_cycles(4);
  });
}

// ---- ServiceNode live sink --------------------------------------------------

TEST(ServiceNodeSinkTest, EmitsOneServiceTickRowPerTick) {
  Rng bus_rng(0xB05ULL);
  transport::LoopbackTransport bus({}, bus_rng);
  transport::ServiceNode node(/*self=*/9, ProtocolSpec::newscast(),
                              ProtocolOptions{}, Rng(0xF00DULL), bus);
  RingBufferSink ring(8);
  node.attach_sink(ring, golden_meta());

  const NodeId contacts[] = {1, 2, 3};
  node.init(contacts);
  node.on_tick(0.0);
  node.on_tick(1.0);

  EXPECT_EQ(ring.total_appended(), 2u);
  std::size_t rows = 0;
  ring.drain([&](std::span<const std::uint64_t> cells) {
    ASSERT_EQ(cells.size(), schemas::kServiceTick.field_count);
    EXPECT_EQ(cells[0], rows + 1);  // 1-based tick counter
    EXPECT_EQ(std::bit_cast<double>(cells[1]),
              static_cast<double>(rows));  // now
    EXPECT_GT(cells[2], 0u);               // view_size after init
    ++rows;
  });
  EXPECT_EQ(rows, 2u);
}

}  // namespace
