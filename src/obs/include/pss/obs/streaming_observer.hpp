// The obs module's engine-facing entry point: a SnapshotProbe that streams
// the paper's Figure-2/4/6-style observables from the arena on every firing.
//
// Attach one to any engine (CycleEngine at any lane count, EventEngine)
// via attach_probe(observer, cadence) and every cadence-th cycle/tick is
// recorded as a SnapshotRecord: live count, in/out/union degree summaries,
// component structure, and — when enabled — sampled clustering and path
// length. The observer owns its own Rng for the sampled estimators, so
// attaching it never perturbs the simulation's random streams (the probe
// contract in pss/sim/probe.hpp; pinned by a digest test).
//
// All heavy state lives in the reused GraphCensus; the record vector is
// reserved up front, so steady-state firings allocate nothing.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/obs/graph_census.hpp"
#include "pss/obs/metric_sink.hpp"
#include "pss/sim/probe.hpp"

namespace pss::obs {

struct ObserverConfig {
  /// Live nodes sampled for the clustering estimate; 0 disables it.
  std::size_t clustering_sample = 1000;
  /// BFS sources for the path-length estimate; 0 disables it.
  std::size_t path_sources = 8;
  /// Seed of the observer's private estimator Rng.
  std::uint64_t seed = 0x0B5E55EDULL;
  /// Records reserved up front (grows geometrically if exceeded).
  std::size_t reserve_records = 512;
};

/// One recorded snapshot (a streamed MetricsSample).
struct SnapshotRecord {
  Cycle cycle = 0;
  std::size_t live = 0;
  std::uint64_t undirected_edges = 0;
  std::uint64_t dead_links = 0;            ///< Figure 7 metric
  std::uint64_t cross_partition_links = 0; ///< Section 8 metric
  DegreeStats degree;      ///< undirected-union degrees
  DegreeStats in_degree;
  DegreeStats out_degree;
  ComponentStats components;
  double clustering = 0;   ///< 0 when disabled
  PathLengthEstimate path; ///< default when disabled
};

class StreamingObserver final : public sim::SnapshotProbe {
 public:
  explicit StreamingObserver(ObserverConfig config = {});

  /// Streams every subsequent snapshot to `sink` as one
  /// schemas::kSnapshot row. Call before the run: the observer calls
  /// sink.begin(kSnapshot, meta) here and row() per firing; the caller
  /// keeps ownership (and calls finish(), usually via the destructor).
  /// The sink is write-only observation — attaching one cannot change a
  /// run's state digest (pinned by tests/metric_sink_test.cpp).
  void attach_sink(MetricSink& sink, const RunMetadata& meta);

  void on_snapshot(const sim::Network& network, Cycle cycle) override;

  const std::vector<SnapshotRecord>& records() const { return records_; }
  const SnapshotRecord& latest() const {
    PSS_CHECK_MSG(!records_.empty(), "no snapshot recorded yet");
    return records_.back();
  }

  /// The underlying census, exposed so drivers can read per-node degrees or
  /// the histogram of the most recent snapshot without recomputing it.
  const GraphCensus& census() const { return census_; }
  GraphCensus& census() { return census_; }

 private:
  ObserverConfig config_;
  Rng rng_;
  GraphCensus census_;
  std::vector<SnapshotRecord> records_;
  MetricSink* sink_ = nullptr;
};

}  // namespace pss::obs
