#include "pss/sim/bootstrap.hpp"

#include <algorithm>
#include <vector>

#include "pss/common/check.hpp"

namespace pss::sim::bootstrap {

// Every initializer writes hop-0 descriptors of distinct other nodes in
// ascending address order — already the store's normalized (hop, address)
// order — straight into each node's arena slot, one buffer reused for all.

void init_random(Network& network) {
  const auto live = network.live_nodes();
  const std::size_t n = live.size();
  PSS_CHECK_MSG(n >= 2, "random bootstrap needs at least two nodes");
  const std::size_t want = std::min(network.options().view_size, n - 1);
  Rng& rng = network.rng();
  std::vector<std::size_t> picks, scratch;
  std::vector<NodeDescriptor> entries;
  for (std::size_t i = 0; i < n; ++i) {
    // Sample positions in [0, n-1) and shift those at or past `i` by one so
    // the node itself is never drawn. The shift is monotone, so sorted
    // positions give ascending addresses.
    rng.sample_indices_into(n - 1, want, picks, scratch);
    std::sort(picks.begin(), picks.end());
    entries.clear();
    for (std::size_t p : picks) entries.push_back({live[p < i ? p : p + 1], 0});
    network.arena().views.assign(live[i], entries);
  }
}

void init_lattice(Network& network) {
  const auto live = network.live_nodes();
  const std::size_t n = live.size();
  PSS_CHECK_MSG(n >= 2, "lattice bootstrap needs at least two nodes");
  const std::size_t c = std::min(network.options().view_size, n - 1);
  std::vector<NodeDescriptor> entries;
  for (std::size_t i = 0; i < n; ++i) {
    entries.clear();
    // Nearest neighbours by ring distance: +1, -1, +2, -2, ...
    for (std::size_t dist = 1; entries.size() < c; ++dist) {
      entries.push_back({live[(i + dist) % n], 0});
      if (entries.size() >= c) break;
      entries.push_back({live[(i + n - dist % n) % n], 0});
    }
    std::sort(entries.begin(), entries.end(), ByHopThenAddress{});
    network.arena().views.assign(live[i], entries);
  }
}

void init_star(Network& network) {
  const auto live = network.live_nodes();
  const std::size_t n = live.size();
  PSS_CHECK_MSG(n >= 2, "star bootstrap needs at least two nodes");
  const std::size_t c = network.options().view_size;
  const NodeId hub = live.front();
  std::vector<NodeDescriptor> entries;
  for (std::size_t i = 1; i < n && entries.size() < c; ++i)
    entries.push_back({live[i], 0});
  network.arena().views.assign(hub, entries);
  const NodeDescriptor to_hub{hub, 0};
  for (std::size_t i = 1; i < n; ++i)
    network.arena().views.assign(live[i], {&to_hub, 1});
}

Network make_random(ProtocolSpec spec, ProtocolOptions options, std::size_t n,
                    std::uint64_t seed) {
  Network network(spec, options, seed);
  network.add_nodes(n);
  init_random(network);
  return network;
}

Network make_lattice(ProtocolSpec spec, ProtocolOptions options, std::size_t n,
                     std::uint64_t seed) {
  Network network(spec, options, seed);
  network.add_nodes(n);
  init_lattice(network);
  return network;
}

}  // namespace pss::sim::bootstrap
