// Scoped wall-clock timing for the hot paths.
//
// `ScopedTimer` measures one region with the steady clock and, on scope
// exit, adds the elapsed nanoseconds to a Counter (per-shard, relaxed — the
// same cost as any counter increment).
#pragma once

#include <cstdint>

#include "pcn/obs/metrics.hpp"

namespace pcn::obs {

/// Monotonic timestamp in nanoseconds (std::chrono::steady_clock).
std::int64_t monotonic_ns();

/// RAII region timer; see the header comment.  Null counter handles make
/// the timer a cheap no-op apart from the clock reads.
class ScopedTimer {
 public:
  explicit ScopedTimer(Counter ns_counter, std::size_t shard = 0)
      : counter_(ns_counter), shard_(shard), start_ns_(monotonic_ns()) {}
  ~ScopedTimer() { counter_.add(monotonic_ns() - start_ns_, shard_); }
  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

  std::int64_t elapsed_ns() const { return monotonic_ns() - start_ns_; }

 private:
  Counter counter_;
  std::size_t shard_;
  std::int64_t start_ns_;
};

}  // namespace pcn::obs
