#include "pcn/obs/timer.hpp"

#include <chrono>

namespace pcn::obs {

std::int64_t monotonic_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pcn::obs
