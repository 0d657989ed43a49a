// The old name of the multi-lane cycle engine. CycleEngine runs on one lane
// or many (see cycle_engine.hpp); this alias remains only for the callers
// in benchmark/ that still spell it.
#pragma once

#include "pss/sim/cycle_engine.hpp"

namespace pss::sim {

using ParallelCycleEngine = CycleEngine;

}  // namespace pss::sim
