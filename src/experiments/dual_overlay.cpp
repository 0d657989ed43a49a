#include "pss/experiments/dual_overlay.hpp"

#include "pss/obs/graph_census.hpp"

namespace pss::experiments {

namespace {

ProtocolSpec fast_spec() {
  return {PeerSelection::kRand, ViewSelection::kHead, ViewPropagation::kPushPull};
}

ProtocolSpec slow_spec() {
  return {PeerSelection::kRand, ViewSelection::kRand, ViewPropagation::kPushPull};
}

}  // namespace

DualOverlay::DualOverlay(std::size_t n, ProtocolOptions options,
                         std::uint64_t seed)
    : fast_(sim::bootstrap::make_random(fast_spec(), options, n, seed)),
      slow_(sim::bootstrap::make_random(slow_spec(), options, n, seed ^ 0xD0A1ULL)),
      fast_engine_(fast_),
      slow_engine_(slow_) {}

void DualOverlay::run_cycle() {
  fast_engine_.run_cycle();
  slow_engine_.run_cycle();
}

void DualOverlay::run(Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) run_cycle();
}

void DualOverlay::kill(NodeId id) {
  fast_.kill(id);
  slow_.kill(id);
}

void DualOverlay::set_partition_group(NodeId id, std::uint32_t group) {
  fast_.set_partition_group(id, group);
  slow_.set_partition_group(id, group);
}

void DualOverlay::clear_partitions() {
  fast_.clear_partitions();
  slow_.clear_partitions();
}

View DualOverlay::combined_view(NodeId id) const {
  const auto fast = fast_.view_span(id);
  const auto slow = slow_.view_span(id);
  View combined = View::merge(View({fast.begin(), fast.end()}),
                              View({slow.begin(), slow.end()}));
  combined.remove(id);
  return combined;
}

std::uint64_t DualOverlay::count_cross_partition_links() const {
  std::uint64_t cross = 0;
  for (NodeId id = 0; id < fast_.size(); ++id) {
    if (!fast_.is_live(id)) continue;
    const View combined = combined_view(id);
    for (const auto& d : combined.entries()) {
      if (fast_.is_live(d.address) &&
          fast_.partition_group(d.address) != fast_.partition_group(id)) {
        ++cross;
      }
    }
  }
  return cross;
}

std::uint64_t DualOverlay::count_dead_links() const {
  std::uint64_t dead = 0;
  for (NodeId id = 0; id < fast_.size(); ++id) {
    if (!fast_.is_live(id)) continue;
    const View combined = combined_view(id);
    for (const auto& d : combined.entries()) {
      if (!fast_.is_live(d.address)) ++dead;
    }
  }
  return dead;
}

bool DualOverlay::combined_connected() const {
  // A combined view holds up to 2c entries: measure the union overlay as a
  // network of its own.
  ProtocolOptions options = fast_.options();
  options.view_size *= 2;
  sim::Network combined(fast_.spec(), options, 0);
  combined.add_nodes(fast_.size());
  for (NodeId id = 0; id < fast_.size(); ++id) {
    if (fast_.is_live(id)) {
      combined.arena().views.assign(id, combined_view(id).entries());
    } else {
      combined.kill(id);
    }
  }
  obs::GraphCensus census;
  census.rebuild(combined);
  return census.components().count <= 1;
}

}  // namespace pss::experiments
