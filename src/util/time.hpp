// Simulation time.
//
// The simulator is discrete-time: the engine advances in fixed ticks
// (default 1 s of virtual time). All measurement-facing quantities are
// expressed in virtual seconds as doubles, matching the paper's units.
#pragma once

#include <cstdint>

namespace slmob {

// A tick index. Tick 0 is the start of the experiment.
using Tick = std::int64_t;

// Virtual time in seconds.
using Seconds = double;

constexpr Seconds kSecondsPerMinute = 60.0;
constexpr Seconds kSecondsPerHour = 3600.0;
constexpr Seconds kSecondsPerDay = 86400.0;

}  // namespace slmob
