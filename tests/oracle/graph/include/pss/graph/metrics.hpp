// The test oracle for the evaluation's graph observables (Section 4.2):
// degree distribution, clustering coefficient, average path length, and
// connectivity (components / largest cluster / partitioning), computed on
// a materialized UndirectedGraph. The drivers measure through
// obs::GraphCensus; the tests (and scale_metrics' exact cross-check) hold
// the census to these textbook implementations.
//
// Exact variants are O(n·d²) (clustering) and O(n·(n+m)) (path length);
// sampled variants take an explicit sample size and an Rng. Tests validate
// the estimators against exact values on graphs with closed-form
// properties.
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/rng.hpp"
#include "pss/graph/undirected_graph.hpp"

namespace pss::graph {

/// Mean vertex degree (2m/n); 0 for the empty graph.
double average_degree(const UndirectedGraph& g);

/// counts[d] = number of vertices with degree d (size = max degree + 1).
std::vector<std::size_t> degree_histogram(const UndirectedGraph& g);

/// Summary of the degree distribution.
struct DegreeSummary {
  std::size_t min = 0;
  std::size_t max = 0;
  double mean = 0;
  double variance = 0;  ///< population variance
};
DegreeSummary degree_summary(const UndirectedGraph& g);

/// Local clustering coefficient of vertex v: edges among neighbours divided
/// by deg(v)·(deg(v)-1)/2; defined as 0 when deg(v) < 2.
double local_clustering(const UndirectedGraph& g, std::uint32_t v);

/// Exact graph clustering coefficient: mean of local coefficients.
double clustering_coefficient(const UndirectedGraph& g);

/// Estimate over `sample_size` uniformly sampled vertices (exact when
/// sample_size >= n).
double clustering_coefficient_sampled(const UndirectedGraph& g,
                                      std::size_t sample_size, Rng& rng);

/// BFS distances from `source`; unreachable vertices get kUnreachable.
inline constexpr std::uint32_t kUnreachable = 0xFFFFFFFFu;
std::vector<std::uint32_t> bfs_distances(const UndirectedGraph& g,
                                         std::uint32_t source);

/// Result of a path-length measurement.
struct PathLengthResult {
  double average = 0;          ///< mean distance over reachable ordered pairs
  double reachable_fraction = 1;  ///< reachable ordered pairs / all pairs
  std::uint32_t diameter = 0;  ///< max finite distance seen
};

/// Exact: BFS from every vertex.
PathLengthResult average_path_length(const UndirectedGraph& g);

/// Estimate: BFS from `sources` uniformly sampled vertices (exact when
/// sources >= n). Averages distances from the sampled sources to all other
/// vertices, an unbiased estimator of the all-pairs mean.
PathLengthResult average_path_length_sampled(const UndirectedGraph& g,
                                             std::size_t sources, Rng& rng);

/// Connected components.
struct ComponentInfo {
  std::size_t count = 0;
  std::size_t largest = 0;                ///< size of the largest component
  std::vector<std::size_t> sizes;         ///< all component sizes, descending
  std::vector<std::uint32_t> label;       ///< vertex -> component id
  /// Vertices outside the largest component (the paper's Figure 6 metric).
  std::size_t outside_largest() const;
  bool connected() const { return count <= 1; }
};
ComponentInfo connected_components(const UndirectedGraph& g);

}  // namespace pss::graph
