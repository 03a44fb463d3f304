// Fleet runner for the differential suites: simulates several independent
// distance-policy terminals with one profile and aggregates their metrics.
// Terminals are statistically independent replicas (per-terminal
// counter-based draws), so the aggregate behaves like one run of
// terminals * slots stationary slots — tighter confidence bands per unit
// of wall clock — and a multi-terminal fleet genuinely exercises the
// sharded parallel path of Network::run at thread counts > 1.
#pragma once

#include <cstdint>
#include <vector>

#include "pcn/sim/network.hpp"
#include "support/generators.hpp"

namespace pcn::proptest {

/// Sums of the per-terminal metrics a differential test compares against
/// the analytical model.
struct FleetMetrics {
  std::int64_t slots = 0;
  std::int64_t moves = 0;
  std::int64_t calls = 0;
  std::int64_t updates = 0;
  std::int64_t polled_cells = 0;
  double update_cost = 0.0;
  double paging_cost = 0.0;
  stats::Histogram paging_cycles;
  stats::Histogram ring_distance;

  double update_cost_per_slot() const;
  double paging_cost_per_slot() const;
  double cost_per_slot() const;

  void accumulate(const sim::TerminalMetrics& metrics);
};

/// Runs `terminals` distance-policy replicas of `scenario` for
/// `slots_per_terminal` slots each and returns the per-terminal metrics
/// (index = attach order) — callers aggregate or diff them as needed.
/// `engine` pins the slot-loop implementation (the engine-identity suites
/// force kReference / kSimd; the default auto-selects).
std::vector<sim::TerminalMetrics> run_distance_fleet(
    const Scenario& scenario, sim::SlotSemantics semantics, int threads,
    int terminals, std::int64_t slots_per_terminal,
    sim::SimEngine engine = sim::SimEngine::kAuto);

/// Aggregate of run_distance_fleet.
FleetMetrics run_distance_fleet_aggregate(const Scenario& scenario,
                                          sim::SlotSemantics semantics,
                                          int threads, int terminals,
                                          std::int64_t slots_per_terminal);

/// Steps `network` one run(1) at a time for `slots` slots and returns, per
/// terminal in `ids`, its cell at the end of each of those slots — the
/// trajectory trace::ScriptedMobility replays.  The network must run
/// SimEngine::kReference, so no run(1) builds a SIMD fleet plan; both
/// engines produce the same walk.
std::vector<std::vector<geometry::Cell>> record_trajectories(
    sim::Network& network, const std::vector<sim::TerminalId>& ids,
    std::int64_t slots);

/// Exact equality of every field the simulator reports, histograms
/// included — the thread-determinism check.
bool metrics_identical(const sim::TerminalMetrics& a,
                       const sim::TerminalMetrics& b);

}  // namespace pcn::proptest
