// Simulation time.
#pragma once

#include <cstdint>

namespace pcn::sim {

/// Simulation time in slots (the paper's discrete time t).
using SimTime = std::int64_t;

}  // namespace pcn::sim
