// Pre-resolved telemetry handles for the simulation hot paths.
//
// Shared by the polymorphic reference engine (network.cpp) and the
// lane-parallel SIMD engine (simd_engine.cpp): both flush the same
// per-worker EventTally into the same registry counters, so the metric
// catalogue (docs/observability.md) is engine-independent.
#pragma once

#include "pcn/obs/metrics.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::sim::obs_detail {

/// 1-in-N sampling of the per-page detail (span + per-page histograms).
/// Counts stay exact via the batched EventTally; only the expensive clock
/// reads and histogram observes are sampled, which is what keeps the
/// telemetry overhead inside the 3% gate (tools/run_checks.sh).
inline constexpr std::uint64_t kPageSampleEvery = 32;

/// Pre-resolved telemetry handles for the simulation hot paths.  Resolved
/// once at Network construction so the slot loop never touches the
/// registry's name index; every increment is one relaxed atomic add on a
/// per-shard cell (see docs/observability.md for the metric catalogue).
struct RuntimeStats {
  explicit RuntimeStats(obs::MetricsRegistry& registry)
      : run_count(registry.counter("sim.run.count")),
        run_slots(registry.counter("sim.run.slots")),
        run_wall_ns(registry.counter("sim.run.wall_ns")),
        segment_count(registry.counter("sim.segment.count")),
        segment_parallel(registry.counter("sim.segment.parallel")),
        segment_wall_ns(registry.counter("sim.segment.wall_ns")),
        shard_wall_ns(registry.counter("sim.shard.wall_ns")),
        page_wall_ns(registry.counter("sim.page.wall_ns")),
        terminal_slots(registry.counter("sim.terminal.slots")),
        moves(registry.counter("sim.terminal.moves")),
        updates(registry.counter("sim.update.count")),
        updates_lost(registry.counter("sim.update.lost")),
        pages(registry.counter("sim.page.count")),
        page_fallbacks(registry.counter("sim.page.fallbacks")),
        page_sampled(registry.counter("sim.page.sampled")),
        polled_cells(registry.counter("sim.page.polled_cells")),
        page_cycles(registry.histogram("sim.page.cycles",
                                       obs::linear_buckets(1.0, 1.0, 8))),
        page_polled(registry.histogram("sim.page.polled_per_call",
                                       obs::exponential_buckets(1.0, 2.0,
                                                                10))) {}

  /// Drains a worker's plain tally into the registry (a handful of relaxed
  /// atomic adds, once per shard segment).  The sampling tick survives.
  void flush(EventTally& tally, std::size_t shard) {
    terminal_slots.add(tally.terminal_slots, shard);
    moves.add(tally.moves, shard);
    updates.add(tally.updates, shard);
    updates_lost.add(tally.updates_lost, shard);
    pages.add(tally.pages, shard);
    page_fallbacks.add(tally.page_fallbacks, shard);
    page_sampled.add(tally.page_sampled, shard);
    polled_cells.add(tally.polled_cells, shard);
    const std::uint64_t tick = tally.page_tick;
    tally = EventTally{};
    tally.page_tick = tick;
  }

  obs::Counter run_count, run_slots, run_wall_ns;
  obs::Counter segment_count, segment_parallel, segment_wall_ns;
  obs::Counter shard_wall_ns, page_wall_ns;
  obs::Counter terminal_slots, moves;
  obs::Counter updates, updates_lost;
  obs::Counter pages, page_fallbacks, page_sampled, polled_cells;
  obs::Histogram page_cycles, page_polled;
};

}  // namespace pcn::sim::obs_detail
