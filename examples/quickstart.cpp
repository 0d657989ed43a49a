// Quickstart: the peer sampling service in ~60 lines.
//
// Builds a 1000-node simulated network running Newscast
// (= (rand,head,pushpull) in the paper's notation), converges it, and uses
// the two-method service API — init() and getPeer() — exactly as a gossip
// application would.
//
//   $ ./examples/quickstart
#include <iostream>
#include <set>

#include "pss/obs/graph_census.hpp"
#include "pss/service/peer_sampling_service.hpp"
#include "pss/sim/bootstrap.hpp"
#include "pss/sim/cycle_engine.hpp"

int main() {
  using namespace pss;

  // 1. A simulated network: every node runs the same gossip protocol.
  const ProtocolSpec protocol = ProtocolSpec::newscast();
  const ProtocolOptions options{.view_size = 20, .remove_dead_on_failure = false};
  auto network = sim::bootstrap::make_random(protocol, options,
                                             /*n=*/1000, /*seed=*/42);
  std::cout << "running " << protocol.name() << " on " << network.size()
            << " nodes (view size c=" << options.view_size << ")\n";

  // 2. Run the cycle-driven engine until the overlay converges.
  sim::CycleEngine engine(network);
  engine.run(50);
  //    GraphCensus measures the overlay straight from the view storage; a
  //    path-length "sample" of every live node is the exact all-pairs mean
  //    and draws nothing from its Rng.
  obs::GraphCensus census;
  census.rebuild(network);
  Rng no_draws(0);
  std::cout << "after " << engine.cycle() << " cycles: avg degree "
            << census.degree_stats().mean << ", path length "
            << census.path_length_sampled(census.live_count(), no_draws).average
            << ", connected=" << (census.components().count <= 1 ? "yes" : "no")
            << "\n";

  // 3. The service API as a joining node uses it: a fresh node enters the
  //    group knowing three bootstrap contacts, init() seeds its view, and
  //    a few gossip cycles integrate it into the overlay.
  const NodeId joiner = network.add_node();
  PeerSamplingService service(network.node(joiner), Rng(7));
  const std::vector<NodeId> contacts{1, 2, 3};
  service.init(contacts);
  engine.run(5);
  std::cout << "fresh node " << joiner << " joined via 3 contacts; after 5 "
            << "cycles its view holds " << network.view_span(joiner).size()
            << " peers\n";
  std::cout << "getPeer() x 10:";
  for (int i = 0; i < 10; ++i) std::cout << " " << service.get_peer();
  std::cout << "\n";

  // 4. Keep gossiping while the application samples: the view refreshes
  //    every cycle, so consecutive samples roam over the whole network.
  std::set<NodeId> seen;
  for (int cycle = 0; cycle < 20; ++cycle) {
    engine.run_cycle();
    for (int i = 0; i < 5; ++i) seen.insert(service.get_peer());
  }
  std::cout << "distinct peers sampled over 20 more cycles: " << seen.size()
            << " (view holds only " << options.view_size << ")\n";
  return 0;
}
