// Per-terminal simulation metrics.
//
// Everything needed to compare a simulation run against the analytical
// model: event counts, signalling costs (update cost U per update, poll
// cost V per polled cell), the paging-delay distribution in polling cycles,
// and the occupancy of each ring distance (the empirical steady state of
// the paper's Markov chain).
#pragma once

#include <cstdint>

#include "pcn/common/params.hpp"
#include "pcn/stats/histogram.hpp"

namespace pcn::sim {

struct TerminalMetrics {
  std::int64_t slots = 0;    ///< slots simulated
  std::int64_t moves = 0;    ///< cell crossings performed
  std::int64_t calls = 0;    ///< incoming calls delivered
  std::int64_t updates = 0;  ///< location updates sent
  std::int64_t polled_cells = 0;  ///< cells polled across all pages

  double update_cost = 0.0;  ///< updates · U
  double paging_cost = 0.0;  ///< polled_cells · V

  /// Air-interface bytes, from the proto codec: location-update frames,
  /// and page request/response frames respectively.
  std::int64_t update_bytes = 0;
  std::int64_t paging_bytes = 0;

  std::int64_t total_bytes() const { return update_bytes + paging_bytes; }

  /// Failure injection (NetworkConfig::update_loss_prob): update frames
  /// lost on the air interface, and pages whose normal schedule missed the
  /// terminal (stale knowledge) and required expanding-ring recovery.
  std::int64_t lost_updates = 0;
  std::int64_t paging_failures = 0;

  /// Polling cycles needed per call (bucket k = located in cycle k).
  stats::Histogram paging_cycles;

  /// Ring distance from the network's knowledge center, sampled each slot
  /// (the chain's empirical state distribution).
  stats::Histogram ring_distance;

  double total_cost() const { return update_cost + paging_cost; }

  /// Average signalling cost per slot — the simulated counterpart of the
  /// paper's C_T(d, m).
  double cost_per_slot() const;

  /// Simulated counterparts of C_u(d) and C_v(d, m).
  double update_cost_per_slot() const;
  double paging_cost_per_slot() const;
};

}  // namespace pcn::sim
