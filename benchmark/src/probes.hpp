// Layer probes: each times one layer's public entry point on a workload's
// own overlay, so every workload reports the same per-layer ledger measured
// at its own size and cache footprint.
#pragma once

#include <cstdint>
#include <vector>

#include "harness.hpp"
#include "pss/common/types.hpp"
#include "pss/protocol/gossip_node.hpp"
#include "pss/sim/network.hpp"

namespace pss::bench {

/// One timed getPeer pair on `node`: a first call right after the view
/// changed (the node's View cache rebuilds) and a second, cached one.
/// Returns false if either call returned no peer or the node itself.
bool time_getpeer(GossipNode& node, std::uint64_t seed,
                  std::vector<double>& first_ns, std::vector<double>& second_ns);

/// View invariants I1–I3 on every live node: normalized (sorted by
/// (hop, address), addresses unique and valid), at most c entries, no self.
bool views_valid(const sim::Network& net);

/// Runs the kernel, codec, calendar-queue and census probes on `net` and
/// reports protocol.exchange_ns, transport.encode_ns, transport.decode_ns,
/// sim.queue_hold_ns (at `queue_population` pending events, or n if more)
/// and obs.census_ms. Mutates the overlay (the kernel rung runs
/// exchanges), so call it last.
void report_layer_probes(sim::Network& net, const Options& options,
                         std::size_t queue_population, Tracer* tracer,
                         Report& report);

}  // namespace pss::bench
