#include "pss/apps/aggregation.hpp"

#include <cmath>
#include <functional>

#include "pss/common/check.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/stats/descriptive.hpp"

namespace pss::apps {

double AggregationResult::mean_contraction() const {
  if (variance_per_round.size() < 2) return 1.0;
  // Geometric mean of the per-round ratios, ignoring rounds where the
  // variance already collapsed to (near) zero.
  double log_sum = 0;
  std::size_t counted = 0;
  for (std::size_t r = 0; r + 1 < variance_per_round.size(); ++r) {
    const double before = variance_per_round[r];
    const double after = variance_per_round[r + 1];
    if (before > 1e-12 && after > 1e-12) {
      log_sum += std::log(after / before);
      ++counted;
    }
  }
  return counted == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(counted));
}

std::size_t AggregationResult::rounds_to_variance(double target) const {
  for (std::size_t r = 0; r < variance_per_round.size(); ++r) {
    if (variance_per_round[r] <= target) return r;
  }
  return kNever;
}

namespace {

double population_variance(const std::vector<double>& values) {
  stats::Accumulator acc;
  for (double v : values) acc.add(v);
  return acc.variance_population();
}

/// Shared averaging loop: `partner(i)` returns the exchange partner of
/// node i this round, or an out-of-range index for "skip".
template <typename PartnerFn>
AggregationResult run_rounds(std::vector<double> values,
                             const AggregationParams& params,
                             PartnerFn&& partner,
                             const std::function<void()>& advance_round) {
  const std::size_t n = values.size();
  PSS_CHECK_MSG(n >= 2, "aggregation needs at least two nodes");
  AggregationResult result;
  {
    stats::Accumulator acc;
    for (double v : values) acc.add(v);
    result.true_mean = acc.mean();
  }
  result.variance_per_round.push_back(population_variance(values));
  for (Cycle round = 0; round < params.rounds; ++round) {
    if (advance_round) advance_round();
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t j = partner(i);
      if (j >= n || j == i) continue;
      const double avg = (values[i] + values[j]) / 2.0;
      values[i] = avg;
      values[j] = avg;
    }
    result.variance_per_round.push_back(population_variance(values));
  }
  return result;
}

}  // namespace

AggregationResult run_averaging_over_gossip(sim::Network& network,
                                            sim::CycleEngine& engine,
                                            const AggregationParams& params,
                                            std::vector<double> initial_values,
                                            Rng rng) {
  const auto live = network.live_nodes();
  PSS_CHECK_MSG(initial_values.size() == live.size(),
                "one initial value per live node required");
  std::vector<std::uint32_t> index_of(network.size(), 0);
  for (std::uint32_t i = 0; i < live.size(); ++i) index_of[live[i]] = i;
  auto partner = [&](std::size_t i) -> std::size_t {
    const flat::DescSpan view = network.view_span(live[i]);
    if (view.empty()) return live.size();  // skip
    const NodeId target = flat::peer_rand(view, rng);
    if (!network.is_live(target)) return live.size();
    return index_of[target];
  };
  auto advance = [&] { engine.run_cycle(); };
  return run_rounds(std::move(initial_values), params, partner, advance);
}

AggregationResult run_averaging_ideal(const AggregationParams& params,
                                      std::vector<double> initial_values,
                                      Rng rng) {
  const std::size_t n = initial_values.size();
  auto partner = [&rng, n](std::size_t i) -> std::size_t {
    auto pick = static_cast<std::size_t>(rng.below(n - 1));
    if (pick >= i) ++pick;
    return pick;
  };
  return run_rounds(std::move(initial_values), params, partner, {});
}

std::vector<double> ramp_values(std::size_t n) {
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) values[i] = static_cast<double>(i);
  return values;
}

std::vector<double> peak_values(std::size_t n) {
  std::vector<double> values(n, 0.0);
  if (n > 0) values[0] = static_cast<double>(n);
  return values;
}

}  // namespace pss::apps
