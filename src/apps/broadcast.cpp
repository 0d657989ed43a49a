#include "pss/apps/broadcast.hpp"

#include <functional>

#include "pss/common/check.hpp"
#include "pss/membership/flat_ops.hpp"
#include "pss/service/ideal_uniform_sampler.hpp"

namespace pss::apps {

namespace {

/// Shared epidemic loop; `sample(self)` returns the next gossip target for
/// an infected node (kInvalidNode = no peer available).
template <typename SampleFn>
BroadcastResult run_epidemic(std::size_t population, NodeId origin,
                             const BroadcastParams& params, SampleFn&& sample,
                             const std::function<void()>& advance_round) {
  PSS_CHECK_MSG(params.fanout > 0, "fanout must be positive");
  PSS_CHECK_MSG(origin < population, "origin outside the population");
  BroadcastResult result;
  std::vector<std::uint8_t> infected(population, 0);
  std::vector<NodeId> holders;
  infected[origin] = 1;
  holders.push_back(origin);
  result.infected_per_round.push_back(1);

  for (Cycle round = 1; round <= params.max_rounds; ++round) {
    if (advance_round) advance_round();
    // Infections discovered this round take effect next round (synchronous
    // rounds, as in the standard push-gossip analysis).
    std::vector<NodeId> newly;
    for (NodeId holder : holders) {
      for (std::size_t f = 0; f < params.fanout; ++f) {
        const NodeId target = sample(holder);
        if (target == kInvalidNode) continue;
        ++result.messages;
        if (infected[target]) {
          ++result.redundant_deliveries;
        } else {
          infected[target] = 1;
          newly.push_back(target);
        }
      }
    }
    holders.insert(holders.end(), newly.begin(), newly.end());
    result.infected_per_round.push_back(holders.size());
    if (holders.size() == population) {
      result.rounds_to_full = round;
      break;
    }
  }
  return result;
}

}  // namespace

BroadcastResult run_broadcast_over_gossip(sim::Network& network,
                                          sim::CycleEngine& engine,
                                          const BroadcastParams& params,
                                          NodeId origin, Rng rng) {
  PSS_CHECK_MSG(network.is_live(origin), "origin must be live");
  const auto live = network.live_nodes();
  // The epidemic runs over the live population; re-index for the dense
  // infected[] array.
  std::vector<std::uint32_t> index_of(network.size(), 0);
  for (std::uint32_t i = 0; i < live.size(); ++i) index_of[live[i]] = i;

  auto sample = [&](NodeId holder_index) -> NodeId {
    const NodeId holder = live[holder_index];
    const flat::DescSpan view = network.view_span(holder);
    if (view.empty()) return kInvalidNode;
    const NodeId target = flat::peer_rand(view, rng);
    if (!network.is_live(target)) return kInvalidNode;  // dead link: lost
    return index_of[target];
  };
  auto advance = [&] { engine.run_cycle(); };
  return run_epidemic(live.size(), index_of[origin], params, sample, advance);
}

BroadcastResult run_broadcast_ideal(std::size_t n, const BroadcastParams& params,
                                    NodeId origin, Rng rng) {
  PSS_CHECK_MSG(n >= 2, "population too small");
  auto sample = [&rng, n](NodeId holder) -> NodeId {
    // Uniform over the group minus the holder itself.
    auto pick = static_cast<NodeId>(rng.below(n - 1));
    if (pick >= holder) ++pick;
    return pick;
  };
  return run_epidemic(n, origin, params, sample, {});
}

}  // namespace pss::apps
