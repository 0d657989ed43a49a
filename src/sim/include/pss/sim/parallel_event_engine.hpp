// The old name of the multi-lane event engine. EventEngine runs on one lane
// or many (see event_engine.hpp); this alias remains only for the callers
// in benchmark/ that still spell it.
#pragma once

#include "pss/sim/event_engine.hpp"

namespace pss::sim {

using ParallelEventEngine = EventEngine;

}  // namespace pss::sim
