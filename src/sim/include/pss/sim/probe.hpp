// Policy-free observation hooks for the simulation engines.
//
// A SnapshotProbe is the mechanism half of measurement: each engine exposes
// attach_probe(probe, cadence) and invokes the probe between steps — after
// every `cadence`-th completed cycle (cycle engine) or period tick (event
// engine) — with the network in a consistent between-steps state. What the
// probe computes is entirely its own policy (the pss_obs module supplies the
// streaming estimators); the engines know nothing beyond this interface, so
// measurement can never leak into exchange mechanics.
//
// Contract:
//   - The network is handed out const. A probe must not mutate simulation
//     state, directly or indirectly — in particular it must bring its own
//     Rng for sampled estimators instead of drawing from the network's
//     master stream. tests/obs_test.cpp pins this with a state digest:
//     a run with probes attached ends bit-identical to one without.
//   - Probes fire on the engine's driving thread (for a multi-lane
//     CycleEngine, after the end-of-cycle barrier), so they may freely
//     read any slot.
//   - `cycle` is the number of completed cycles/ticks at the moment of the
//     call (1-based: the first call of a cadence-1 probe reports 1).
#pragma once

#include <cstdint>
#include <vector>

#include "pss/common/check.hpp"
#include "pss/common/types.hpp"

namespace pss::sim {

class Network;

class SnapshotProbe {
 public:
  virtual ~SnapshotProbe() = default;

  /// Called between engine steps; `network` is the live simulation state
  /// and must not be perturbed (see the contract above).
  virtual void on_snapshot(const Network& network, Cycle cycle) = 0;
};

/// One registered probe: fires when the completed-step count is a multiple
/// of `cadence`.
struct ProbeRegistration {
  SnapshotProbe* probe = nullptr;
  Cycle cadence = 1;
};

/// Shared firing helper for the three engines.
inline void fire_probes(const std::vector<ProbeRegistration>& probes,
                        const Network& network, Cycle completed) {
  for (const ProbeRegistration& r : probes) {
    if (completed % r.cadence == 0) r.probe->on_snapshot(network, completed);
  }
}

/// Shared registration helper (validates the cadence once, in one place).
inline void register_probe(std::vector<ProbeRegistration>& probes,
                           SnapshotProbe& probe, Cycle cadence) {
  PSS_CHECK_MSG(cadence > 0, "probe cadence must be positive");
  probes.push_back({&probe, cadence});
}

}  // namespace pss::sim
