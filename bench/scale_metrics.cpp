// Scale driver for the streaming observability subsystem: per-snapshot
// measurement cost, steady-state allocation behaviour and an
// exact-vs-streaming cross-check, at N ∈ {10^4, 10^5, 10^6}.
//
// The paper's whole evaluation is graph observables; this driver shows they
// can now be traced *during* a million-node run. Each network size stands
// up the flagship Newscast instance, attaches a StreamingObserver to the
// batched CycleEngine (cadence 1: every cycle records live count, degree
// summaries, components, sampled clustering and path length) and runs the
// usual 20-cycle window. The first cycle is the warm-up that sizes every
// census buffer; the remaining cycles run under a whole-process operator
// new/delete counter, and the recorded `steady_allocations` must be zero —
// the streaming path neither builds an UndirectedGraph/edge list nor
// allocates after warm-up (the bench hard-fails otherwise).
//
// At sizes up to PSS_METRICS_EXACT_MAX the streaming results are
// cross-checked against the exact snapshot-graph pipeline (graph::metrics,
// the test oracle in tests/oracle/graph, linked for this check only):
// degree histogram, degree summary and component structure must be
// bit-identical, and the sampled estimators must reproduce the exact
// module's estimators draw-for-draw from a cloned Rng. Any mismatch is a
// hard failure — the equivalence contract is enforced on every bench run,
// not just in the test suite. Results append to BENCH_metrics.json.
//
// Knobs (see docs/PERFORMANCE.md):
//   PSS_METRICS_NS        comma-separated sizes    (default 10000,100000,1000000)
//   PSS_CYCLES            cycles per run           (default 20)
//   PSS_C                 view size c              (default 30)
//   PSS_SEED              master seed              (default 42)
//   PSS_CLUSTERING_SAMPLE clustering sample        (default 1000)
//   PSS_PATH_SOURCES      BFS sources              (default 8)
//   PSS_METRICS_EXACT_MAX largest n cross-checked  (default 10000)
//   PSS_METRICS_JSON      output path              (default BENCH_metrics.json)
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "bench_meta.hpp"
#include "pss/common/env.hpp"
#include "pss/graph/metrics.hpp"
#include "pss/graph/undirected_graph.hpp"
#include "pss/obs/run_recorder.hpp"
#include "pss/obs/sinks.hpp"
#include "pss/obs/streaming_observer.hpp"
#include "pss/scenarios/digest.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"
#include "pss/sim/network.hpp"

// --- Whole-process allocation counter --------------------------------------
// Same idiom as scale_async: overriding the global allocation functions
// counts every heap allocation made while the measured window runs, so the
// zero-steady-state-allocation claim cannot hide behind a pool or a
// standard-library container.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
}  // namespace

void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::vector<std::size_t> parse_sizes(const std::string& text) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos < text.size()) {
    const std::size_t comma = text.find(',', pos);
    const std::string token =
        text.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!token.empty()) {
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
                     "PSS_METRICS_NS: bad network size '%s' (want a "
                     "comma-separated list of positive integers)\n",
                     token.c_str());
        std::exit(1);
      }
      out.push_back(static_cast<std::size_t>(value));
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  return out;
}

/// Compares every streamed observable against the exact graph::metrics
/// pipeline on the same snapshot; prints and returns false on any mismatch.
bool cross_check_exact(const pss::sim::Network& net, pss::obs::GraphCensus& census,
                       std::size_t clustering_sample, std::size_t path_sources,
                       std::uint64_t estimator_seed) {
  using namespace pss;
  bool ok = true;
  const auto fail = [&ok](const char* what) {
    std::fprintf(stderr, "FATAL: streaming/exact mismatch: %s\n", what);
    ok = false;
  };

  census.rebuild(net);
  const auto g = graph::UndirectedGraph::from_network(net);

  // Degree histogram: bit-equal, including the trailing max-degree bucket.
  const auto exact_hist = graph::degree_histogram(g);
  const auto hist = census.degree_histogram();
  if (exact_hist.size() != hist.size()) {
    fail("degree histogram size");
  } else {
    for (std::size_t d = 0; d < hist.size(); ++d) {
      if (exact_hist[d] != hist[d]) {
        fail("degree histogram bucket");
        break;
      }
    }
  }

  // Degree summary: bit-equal doubles (same accumulation order).
  const auto exact_sum = graph::degree_summary(g);
  const obs::DegreeStats& sum = census.degree_stats();
  if (exact_sum.min != sum.min || exact_sum.max != sum.max ||
      exact_sum.mean != sum.mean || exact_sum.variance != sum.variance) {
    fail("degree summary");
  }

  // Components: count, largest and the full size multiset.
  const auto exact_comp = graph::connected_components(g);
  const obs::ComponentStats& comp = census.components();
  const auto comp_sizes = census.component_sizes();
  if (exact_comp.count != comp.count || exact_comp.largest != comp.largest ||
      exact_comp.sizes.size() != comp_sizes.size()) {
    fail("component structure");
  } else {
    for (std::size_t i = 0; i < comp_sizes.size(); ++i) {
      if (exact_comp.sizes[i] != comp_sizes[i]) {
        fail("component size multiset");
        break;
      }
    }
  }

  // Edge/vertex counts and mean degree.
  if (g.vertex_count() != census.live_count() ||
      g.edge_count() != census.undirected_edge_count()) {
    fail("vertex/edge counts");
  }

  // Sampled estimators: cloned Rngs must reproduce the exact module's
  // estimators draw-for-draw.
  {
    Rng streaming_rng(estimator_seed);
    Rng exact_rng(estimator_seed);
    if (clustering_sample > 0) {
      const double c_stream =
          census.clustering_sampled(clustering_sample, streaming_rng);
      const double c_exact = graph::clustering_coefficient_sampled(
          g, clustering_sample, exact_rng);
      if (c_stream != c_exact) fail("sampled clustering");
    }
    if (path_sources > 0) {
      const auto p_stream =
          census.path_length_sampled(path_sources, streaming_rng);
      const auto p_exact =
          graph::average_path_length_sampled(g, path_sources, exact_rng);
      if (p_stream.average != p_exact.average ||
          p_stream.reachable_fraction != p_exact.reachable_fraction ||
          p_stream.diameter != p_exact.diameter) {
        fail("sampled path length");
      }
    }
  }
  return ok;
}

/// Timed snapshot passes per ladder size; snapshot_seconds is their median.
constexpr int kSnapshotReps = 5;

struct RunResult {
  std::size_t n = 0;
  double setup_seconds = 0;
  double run_seconds = 0;
  std::size_t snapshots = 0;
  double snapshot_seconds = 0;  ///< census + estimator pass (median)
  std::uint64_t steady_allocations = 0;
  double census_bytes_per_node = 0;
  bool exact_checked = false;
  bool exact_match = false;
  pss::obs::SnapshotRecord final_record;
};

}  // namespace

int main() {
  using namespace pss;

  const auto sizes = parse_sizes(
      env::get("PSS_METRICS_NS").value_or("10000,100000,1000000"));
  const auto cycles = static_cast<Cycle>(env::get_int("PSS_CYCLES", 20));
  const auto c = static_cast<std::size_t>(env::get_int("PSS_C", 30));
  const auto seed = static_cast<std::uint64_t>(env::get_int("PSS_SEED", 42));
  const auto clustering_sample =
      static_cast<std::size_t>(env::get_int("PSS_CLUSTERING_SAMPLE", 1000));
  const auto path_sources =
      static_cast<std::size_t>(env::get_int("PSS_PATH_SOURCES", 8));
  const auto exact_max =
      static_cast<std::size_t>(env::get_int("PSS_METRICS_EXACT_MAX", 10'000));
  const std::string out_path =
      env::get("PSS_METRICS_JSON").value_or("BENCH_metrics.json");

  const ProtocolSpec spec = ProtocolSpec::newscast();
  std::vector<RunResult> results;

  std::printf(
      "scale_metrics: spec=%s c=%zu cycles=%u seed=%llu "
      "clustering_sample=%zu path_sources=%zu\n",
      spec.name().c_str(), c, cycles, static_cast<unsigned long long>(seed),
      clustering_sample, path_sources);

  for (const std::size_t n : sizes) {
    RunResult r;
    r.n = n;

    const auto t_setup = Clock::now();
    sim::Network net(spec, ProtocolOptions{c, false}, seed);
    net.reserve_nodes(n);
    net.add_nodes(n);
    sim::bootstrap::init_random(net);
    r.setup_seconds = seconds_since(t_setup);

    obs::ObserverConfig ocfg;
    ocfg.clustering_sample = clustering_sample;
    ocfg.path_sources = path_sources;
    ocfg.reserve_records = cycles + 1;
    obs::StreamingObserver observer(ocfg);

    sim::CycleEngine engine(net);
    engine.attach_probe(observer);

    const auto t_run = Clock::now();
    // Cycle 1 is the warm-up: it sizes every census buffer (the in-CSR is
    // reserved at its n*c ceiling). Everything after it must not allocate.
    engine.run(1);
    const std::uint64_t allocs_before =
        g_alloc_count.load(std::memory_order_relaxed);
    if (cycles > 1) engine.run(cycles - 1);
    r.steady_allocations =
        g_alloc_count.load(std::memory_order_relaxed) - allocs_before;
    r.run_seconds = seconds_since(t_run);
    r.snapshots = observer.records().size();
    r.final_record = observer.latest();
    r.census_bytes_per_node =
        static_cast<double>(observer.census().storage_bytes()) /
        static_cast<double>(n);

    // Standalone cost of one full snapshot (census + both estimators),
    // separated from engine time: the median of kSnapshotReps identical
    // passes, each from a fresh timing Rng, so one slow pass does not set
    // the ladder.
    {
      std::vector<double> reps;
      for (int rep = 0; rep < kSnapshotReps; ++rep) {
        Rng timing_rng(seed ^ 0xC0FFEE);
        const auto t_snap = Clock::now();
        observer.census().rebuild(net);
        if (clustering_sample > 0) {
          (void)observer.census().clustering_sampled(clustering_sample,
                                                     timing_rng);
        }
        if (path_sources > 0) {
          (void)observer.census().path_length_sampled(path_sources,
                                                      timing_rng);
        }
        reps.push_back(seconds_since(t_snap));
      }
      std::nth_element(reps.begin(), reps.begin() + kSnapshotReps / 2,
                       reps.end());
      r.snapshot_seconds = reps[kSnapshotReps / 2];
    }

    if (n <= exact_max) {
      r.exact_checked = true;
      r.exact_match = cross_check_exact(net, observer.census(),
                                        clustering_sample, path_sources,
                                        seed ^ 0xE5717A7E);
      if (!r.exact_match) {
        std::fprintf(stderr,
                     "FATAL: streaming estimators diverged from exact "
                     "graph::metrics at n=%zu\n",
                     n);
        return 1;
      }
    }

    if (r.steady_allocations != 0) {
      std::fprintf(stderr,
                   "FATAL: streaming observability path allocated %llu times "
                   "after warm-up at n=%zu\n",
                   static_cast<unsigned long long>(r.steady_allocations), n);
      return 1;
    }

    const obs::SnapshotRecord& f = r.final_record;
    std::printf(
        "  n=%-8zu setup=%6.2fs run=%6.2fs snap=%7.3fs  deg[min=%zu mean=%.2f "
        "max=%zu]  comps=%zu largest=%zu  clust=%.4f path=%.3f%s%s\n",
        n, r.setup_seconds, r.run_seconds, r.snapshot_seconds, f.degree.min,
        f.degree.mean, f.degree.max, f.components.count, f.components.largest,
        f.clustering, f.path.average, r.exact_checked ? "  (=exact)" : "",
        r.steady_allocations == 0 ? "  0 steady allocs" : "");
    results.push_back(r);
  }

  // Differential: a sink-attached run must be digest-identical to the
  // sink-free run above — attaching a recorder cannot perturb the
  // simulation. Re-runs the smallest ladder size with a RingBufferSink on
  // the observer and compares full-state digests.
  std::uint64_t digest_plain = 0;
  std::uint64_t digest_sinked = 0;
  std::uint64_t sink_rows = 0;
  std::uint64_t plain_snapshots = 0;
  {
    const std::size_t n = sizes.front();
    obs::ObserverConfig ocfg;
    ocfg.clustering_sample = clustering_sample;
    ocfg.path_sources = path_sources;
    ocfg.reserve_records = cycles + 1;

    const auto run_once = [&](obs::MetricSink* sink,
                              std::uint64_t* snapshots_out) {
      sim::Network net(spec, ProtocolOptions{c, false}, seed);
      net.reserve_nodes(n);
      net.add_nodes(n);
      sim::bootstrap::init_random(net);
      obs::StreamingObserver observer(ocfg);
      if (sink) {
        const std::string spec_name = spec.name();
        observer.attach_sink(
            *sink, bench::make_run_metadata("scale_metrics", "cycle",
                                            spec_name,
                                            bench::protocol_wire_id(spec), n,
                                            c, cycles, seed));
      }
      sim::CycleEngine engine(net);
      engine.attach_probe(observer);
      engine.run(cycles);
      if (snapshots_out) *snapshots_out = observer.records().size();
      return scenarios::state_digest(net);
    };

    digest_plain = run_once(nullptr, &plain_snapshots);
    obs::RingBufferSink ring(cycles + 1);
    digest_sinked = run_once(&ring, nullptr);
    sink_rows = ring.total_appended();
  }
  const bool sink_differential_ok =
      digest_plain == digest_sinked && sink_rows == plain_snapshots;
  if (!sink_differential_ok) {
    std::fprintf(stderr,
                 "FATAL: sink-attached run diverged (plain=%s sinked=%s "
                 "rows=%llu)\n",
                 obs::to_hex16(digest_plain).c_str(),
                 obs::to_hex16(digest_sinked).c_str(),
                 static_cast<unsigned long long>(sink_rows));
  }

  const std::string spec_name = spec.name();
  obs::RunRecorder rec(
      "scale_metrics", 1,
      bench::make_run_metadata("scale_metrics", "cycle", spec_name,
                               bench::protocol_wire_id(spec), sizes.back(), c,
                               cycles, seed));
  rec.json().key("params");
  rec.json().begin_object();
  rec.json().field("clustering_sample",
                   static_cast<std::uint64_t>(clustering_sample));
  rec.json().field("path_sources", static_cast<std::uint64_t>(path_sources));
  rec.json().field("exact_max", static_cast<std::uint64_t>(exact_max));
  rec.json().field("snapshot_reps", static_cast<std::uint64_t>(kSnapshotReps));
  rec.json().end_object();
  rec.json().key("runs");
  rec.json().begin_array();
  bool all_exact = true;
  bool all_alloc_free = true;
  for (const RunResult& r : results) {
    const obs::SnapshotRecord& f = r.final_record;
    rec.json().begin_object();
    rec.json().field("n", static_cast<std::uint64_t>(r.n));
    rec.json().field("setup_seconds", r.setup_seconds);
    rec.json().field("run_seconds", r.run_seconds);
    rec.json().field("snapshots", static_cast<std::uint64_t>(r.snapshots));
    rec.json().field("snapshot_seconds", r.snapshot_seconds);
    rec.json().field("steady_allocations", r.steady_allocations);
    rec.json().field("census_bytes_per_node", r.census_bytes_per_node);
    rec.json().field("exact_checked", r.exact_checked);
    rec.json().field("exact_match", r.exact_match);
    rec.json().key("final");
    rec.json().begin_object();
    rec.json().field("cycle", static_cast<std::uint64_t>(f.cycle));
    rec.json().field("live", static_cast<std::uint64_t>(f.live));
    rec.json().field("undirected_edges",
                     static_cast<std::uint64_t>(f.undirected_edges));
    rec.json().field("degree_min", static_cast<std::uint64_t>(f.degree.min));
    rec.json().field("degree_max", static_cast<std::uint64_t>(f.degree.max));
    rec.json().field("degree_mean", f.degree.mean);
    rec.json().field("degree_variance", f.degree.variance);
    rec.json().field("in_degree_mean", f.in_degree.mean);
    rec.json().field("out_degree_mean", f.out_degree.mean);
    rec.json().field("components",
                     static_cast<std::uint64_t>(f.components.count));
    rec.json().field("largest_component",
                     static_cast<std::uint64_t>(f.components.largest));
    rec.json().field("outside_largest",
                     static_cast<std::uint64_t>(f.components.outside_largest));
    rec.json().field("partitioned", f.components.count > 1);
    rec.json().field("clustering", f.clustering);
    rec.json().field("path_length", f.path.average);
    rec.json().field("reachable_fraction", f.path.reachable_fraction);
    rec.json().field("diameter", static_cast<std::uint64_t>(f.path.diameter));
    rec.json().end_object();
    rec.json().end_object();
    all_exact = all_exact && (!r.exact_checked || r.exact_match);
    all_alloc_free = all_alloc_free && r.steady_allocations == 0;
  }
  rec.json().end_array();
  rec.json().key("differential");
  rec.json().begin_object();
  rec.json().field("n", static_cast<std::uint64_t>(sizes.front()));
  rec.json().field("digest_plain", obs::to_hex16(digest_plain));
  rec.json().field("digest_sinked", obs::to_hex16(digest_sinked));
  rec.json().field("sink_rows", sink_rows);
  rec.json().end_object();
  rec.gate("exact_match", all_exact);
  rec.gate("zero_steady_allocations", all_alloc_free);
  rec.gate("sink_differential", sink_differential_ok);
  if (!rec.write(out_path)) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return rec.gates_ok() ? 0 : 1;
}
