// Arena-native graph observables: the paper's Section 4.2 measurements
// computed straight from the flat view storage, with no edge-list or
// UndirectedGraph materialization.
//
// The exact pipeline (graph::UndirectedGraph::from_network + graph::metrics)
// builds an explicit edge vector of N·c pairs, canonicalizes both
// orientations and sorts them — ~3×10⁷ pairs per snapshot at 10⁶ nodes,
// which confines the science to networks two orders of magnitude smaller
// than the engines can run. GraphCensus replaces that per-snapshot graph
// object with a reusable measurement pass over the packed descriptor array:
//
//   rebuild(network) —
//     pass 1  walks every live slot's descriptors once, counting live
//             out-degree (self and dead links skipped, exactly the edges
//             from_network keeps) and per-target in-degree;
//     pass 2  fills an implicit in-edge CSR into persistent buffers (the
//             count/fill idiom); iterating sources in ascending address
//             order makes every in-list arrive sorted for free;
//     pass 3  mutual bits and the undirected-union degree per node. v's
//             in-list is set in a per-lane N-bit address set; each of
//             v's view entries then reads its target's bit — set exactly
//             when the target points back — and stores it as one bit per
//             view entry (⌈c/64⌉ words per node), and the set words are
//             cleared again. The degree is
//                out + in − |out ∩ in|
//             with the mutual bits as the correction, streamed into the
//             degree histogram and the three degree summaries;
//     pass 4  connected components by union-find over view slots (path
//             halving + union by size).
//
//   Sampled estimators (clustering, path length) then run on demand over
//   the implicit adjacency — a node's undirected neighbourhood is its view
//   span unioned with its in-list:
//     clustering   counts bits instead of testing pairs: set N(v) in the
//                  lane's address set, then sweep each member a's view
//                  once, adding member(w) to D and member(w) & mutual(a, k)
//                  to M. D counts every edge among N(v) once per direction
//                  it is stored in, M each mutual edge twice, so the edges
//                  among N(v) number D − M/2 — the same integer the exact
//                  module counts, in O(Σ out-degree) per pick instead of
//                  O(deg² · log deg) edge lookups, and no in-list walks;
//     path length  runs a bit-parallel multi-source BFS: up to 64 sources
//                  per batch, one u64 per node each for seen, frontier and
//                  next. A level is one pull sweep over the live list that
//                  ORs the frontier words of the node's neighbours, so one
//                  pass over the adjacency advances 64 searches; distance
//                  sum (level · popcount), reachable pairs and diameter are
//                  tallied as integers.
//
// Parallel execution: set_thread_pool attaches a sim::ThreadPool and the
// per-node passes (1–3) plus the sampled estimators fan their node/source
// loops across lanes, bit-identical to the sequential walk at any lane
// count. The decomposition is deterministic by construction: lanes own
// contiguous chunks of the ascending live list (or pick list; for the BFS,
// of each level's sweep), every shared array cell has exactly one writer
// (out/und degrees, mutual-bit words and BFS words by node; the in-CSR
// through per-lane cursor bases derived from per-lane counts, which also
// keeps each in-list sorted), and cross-lane reductions are either exact
// integers merged in lane order or per-pick values reduced serially in pick
// order — so no floating-point reassociation and no write order can differ
// from the sequential pass. Pass 3 and the estimators have no separate
// serial code: without a pool they run the same per-lane task once, as
// lane 0. Union-find (pass 4) and the histogram/summary folds stay serial:
// they are O(N) against the O(N·c) passes and the summary's double
// accumulation order is part of the bit-equality contract with
// graph::degree_summary.
//
// Equivalence contract (pinned by tests/obs_test.cpp):
//   - degree histogram, component count/largest/size multiset: bit-equal
//     to graph::metrics on the exact snapshot graph;
//   - degree_stats(): bit-equal to graph::degree_summary (same accumulation
//     order: live addresses ascending are exactly the exact graph's
//     re-indexed vertices ascending);
//   - clustering_sampled / path_length_sampled: given the same Rng state,
//     bit-equal to the graph::metrics sampled estimators (same draw
//     sequence; the clustering sum in the same pick order over the same
//     integer edge counts; path-length totals exact integers, which the
//     exact module's double accumulation reproduces because every partial
//     sum stays below 2^53), hence trivially inside any error bound the
//     exact module satisfies.
//
// Allocation discipline: every buffer is a persistent member sized on the
// first rebuild or estimator call (the warm-up) — the BFS words and the
// mutual bits (8·⌈c/64⌉ bytes per address) once, the N-bit address set
// once per lane; subsequent snapshots of a same-sized network allocate
// nothing — the in-CSR is reserved at its hard ceiling of n·view_capacity
// entries, and the histogram carries 2x headroom over the warm-up
// snapshot's max degree, so re-allocating it takes a doubling of the max
// degree (a protocol regime change, not steady-state drift).
// bench/scale_metrics verifies the zero-steady-state-allocation claim with
// a whole-process operator-new counter; tests/obs_test.cpp checks that
// storage_bytes() holds still after the warm-up, on one lane and four.
//
// Lifetime: rebuild() stores a pointer to the network; the census (and any
// estimator call) is valid until the network is mutated or destroyed.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/common/types.hpp"
#include "pss/sim/network.hpp"
#include "pss/sim/thread_pool.hpp"

namespace pss::obs {

/// Degree distribution moments; field-for-field the exact module's
/// graph::DegreeSummary (duplicated so pss_obs does not depend on
/// pss_graph — the whole point is to never build its graph).
struct DegreeStats {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0;
  double variance = 0;  ///< population variance
};

/// Connectivity summary from the union-find pass.
struct ComponentStats {
  std::size_t count = 0;    ///< number of connected components
  std::size_t largest = 0;  ///< size of the largest component
  /// Live nodes outside the largest component (paper Figure 6 metric).
  std::size_t outside_largest = 0;
};

/// Result of a sampled path-length measurement (mirrors
/// graph::PathLengthResult).
struct PathLengthEstimate {
  double average = 0;             ///< mean distance over reachable ordered pairs
  double reachable_fraction = 1;  ///< reachable ordered pairs / sampled pairs
  std::uint32_t diameter = 0;     ///< max finite distance seen from the sources
};

class GraphCensus {
 public:
  GraphCensus() = default;

  /// Recomputes every streamed observable for the network's current state.
  /// O(N + E) with E = live->live view entries; allocation-free after the
  /// first call on a same-sized network.
  void rebuild(const sim::Network& network);

  /// Attaches a fork-join pool for rebuild() and the sampled estimators;
  /// nullptr detaches. Results are bit-identical with or without a pool at
  /// any lane count (see the header comment) — parallelism buys wall-clock
  /// only. The pool must outlive the census (or the next call here) and is
  /// driven only from the thread calling rebuild()/estimator methods.
  void set_thread_pool(sim::ThreadPool* pool) { pool_ = pool; }

  // --- Streamed observables (valid after rebuild) --------------------------

  std::size_t live_count() const { return live_list_.size(); }

  /// Live addresses ascending — index i here is vertex i of the exact
  /// snapshot graph, which is what makes the bit-equality contract hold.
  std::span<const NodeId> live_list() const { return live_list_; }

  /// Directed live->live non-self view entries.
  std::uint64_t directed_edge_count() const { return directed_edges_; }

  /// Live nodes' view entries pointing at dead (or never-allocated)
  /// addresses — bit-equal to Network::count_dead_links() on the same
  /// state, streamed out of pass 1 instead of a second O(N·c) walk (the
  /// paper's Figure 7 "overall dead links" metric).
  std::uint64_t dead_link_count() const { return dead_links_; }

  /// Live nodes' view entries pointing at live nodes of a different
  /// partition group — bit-equal to Network::count_cross_partition_links()
  /// (the Section 8 split-memory metric). Zero while unpartitioned.
  std::uint64_t cross_partition_link_count() const { return cross_links_; }

  /// Edges of the undirected union overlay (mutual pairs collapse to one).
  std::uint64_t undirected_edge_count() const { return undirected_edges_; }

  /// Per-node degrees (0 for dead nodes).
  std::uint32_t out_degree(NodeId id) const { return out_deg_[id]; }
  std::uint32_t in_degree(NodeId id) const {
    return static_cast<std::uint32_t>(in_off_[id + 1] - in_off_[id]);
  }
  std::uint32_t undirected_degree(NodeId id) const { return und_deg_[id]; }

  /// counts[d] = live nodes with undirected-union degree d; size is
  /// max degree + 1 — bit-equal to graph::degree_histogram on the exact
  /// snapshot graph.
  std::span<const std::uint64_t> degree_histogram() const { return hist_; }

  /// Union-degree summary — bit-equal to graph::degree_summary.
  const DegreeStats& degree_stats() const { return und_stats_; }
  const DegreeStats& in_degree_stats() const { return in_stats_; }
  const DegreeStats& out_degree_stats() const { return out_stats_; }

  const ComponentStats& components() const { return components_; }

  /// Component sizes, descending — same multiset as
  /// graph::connected_components().sizes on the exact snapshot graph.
  std::span<const std::size_t> component_sizes() const { return comp_sizes_; }

  // --- Sampled estimators (run on demand over the implicit adjacency) ------

  /// Clustering coefficient over `sample` uniformly drawn live nodes
  /// (exact mean of local coefficients when sample >= live_count). Given
  /// the same Rng state, bit-equal to
  /// graph::clustering_coefficient_sampled on the exact snapshot graph.
  double clustering_sampled(std::size_t sample, Rng& rng);

  /// Path length via BFS from `sources` uniformly drawn live nodes (every
  /// node when sources >= live_count). Given the same Rng state, bit-equal
  /// to graph::average_path_length_sampled on the exact snapshot graph.
  PathLengthEstimate path_length_sampled(std::size_t sources, Rng& rng);

  /// Bytes resident in the census's persistent buffers.
  std::size_t storage_bytes() const;

 private:
  /// Per-lane working state; lane 0 doubles as the serial path's scratch.
  /// Sized lazily to the attached pool's lane count and reused across
  /// rebuilds and estimator calls (same persistence discipline as the
  /// shared buffers). The address set costs N/8 bytes per lane.
  struct LaneScratch {
    std::vector<std::uint32_t> in_cnt;   ///< pass-1 per-lane in-degree counts
    std::uint64_t directed = 0, dead = 0, cross = 0;  ///< pass-1 tallies
    std::vector<std::size_t> cursor;     ///< pass-2 per-lane CSR cursors
    /// N-bit address set (one bit per address, ⌈N/64⌉ words): v's in-list
    /// in pass 3, N(v) in local_clustering. All-zero between uses — each
    /// user clears the words it touched.
    std::vector<std::uint64_t> set;
    std::uint64_t und_sum = 0;           ///< pass-3 union-degree sum
    std::size_t und_max = 0;             ///< pass-3 max union degree
    std::uint64_t reached = 0;           ///< BFS level tally of this lane
  };

  std::uint32_t find_root(std::uint32_t x);
  void unite(std::uint32_t a, std::uint32_t b);
  /// Fills picks_ with live-list indices: all of them ascending when
  /// `sample` >= live_count (no draws), else rng.sample_indices' draws.
  void pick_live_nodes(std::size_t sample, Rng& rng);
  double local_clustering(NodeId id, LaneScratch& sc) const;
  /// One pull level of the batched BFS over live_list_[first, last);
  /// returns the (source, node) pairs newly reached.
  std::uint64_t bfs_level(std::size_t first, std::size_t last,
                          std::uint64_t all);
  /// Lanes to fan `items` across — the pool's count, or 1 when no pool is
  /// attached (or there is nothing to split) — with a scratch slot each.
  unsigned lanes_for(std::size_t items) {
    const unsigned lanes =
        pool_ == nullptr || items < 2 ? 1 : pool_->concurrency();
    if (lanes_.size() < lanes) lanes_.resize(lanes);
    return lanes;
  }
  /// Runs task(lane) for every lane: inline when there is one, else on the
  /// pool. The serial and parallel estimators are this one code path.
  template <typename Task>
  void fan_out(unsigned lanes, Task&& task) {
    if (lanes == 1) {
      task(0u);
    } else {
      pool_->run(task);
    }
  }

  std::span<const NodeId> in_list(NodeId id) const {
    return {in_nbr_.data() + in_off_[id], in_nbr_.data() + in_off_[id + 1]};
  }

  const sim::Network* net_ = nullptr;
  std::uint64_t directed_edges_ = 0;
  std::uint64_t undirected_edges_ = 0;
  std::uint64_t dead_links_ = 0;
  std::uint64_t cross_links_ = 0;
  DegreeStats und_stats_, in_stats_, out_stats_;
  ComponentStats components_;

  std::vector<NodeId> live_list_;        ///< live addresses, ascending
  std::vector<std::uint32_t> out_deg_;   ///< live out-degree per address
  std::vector<std::uint32_t> und_deg_;   ///< union degree per address
  /// Pass-3 mutual bits, mutual_words_ = ⌈c/64⌉ words per address: bit k
  /// of v's words is set when view entry k of v targets a live w ≠ v that
  /// lists v too. Whole words per node, so lanes never share one.
  std::vector<std::uint64_t> mutual_;
  std::size_t mutual_words_ = 0;
  std::vector<std::size_t> in_off_;      ///< in-CSR offsets (size N+1)
  std::vector<NodeId> in_nbr_;           ///< in-CSR entries, sorted per list
  std::vector<std::size_t> cursor_;      ///< CSR fill cursors, reused
  std::vector<std::uint64_t> hist_;      ///< union-degree histogram
  std::vector<std::uint32_t> parent_;    ///< union-find parent per address
  std::vector<std::uint32_t> comp_size_; ///< union-find size at roots
  std::vector<std::size_t> comp_sizes_;  ///< component sizes, descending

  // Batched BFS state: bit j of a word belongs to the batch's source j.
  std::vector<std::uint64_t> seen_;      ///< sources that reached the node
  std::vector<std::uint64_t> frontier_;  ///< sources that reached it last level
  std::vector<std::uint64_t> next_;      ///< sources reaching it this level

  // Sampling scratch (reuses capacity across estimator calls).
  std::vector<std::size_t> picks_;
  std::vector<std::size_t> pick_scratch_;
  /// Per-pick local coefficients, reduced serially in pick order.
  std::vector<double> pick_clust_;

  // Parallel execution (inactive until set_thread_pool).
  sim::ThreadPool* pool_ = nullptr;
  std::vector<LaneScratch> lanes_;
};

}  // namespace pss::obs
