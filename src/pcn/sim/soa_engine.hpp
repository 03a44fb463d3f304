// Struct-of-arrays fast path for the canonical distance-update scenario.
//
// When every attached terminal is the paper's canonical configuration —
// RandomWalk mobility, DistanceUpdatePolicy, SDF (or matching plan-
// partition) paging over fixed-disk knowledge, no observer, no loss
// injection — the slot loop needs none of the polymorphic machinery: the
// per-slot work reduces to an RNG draw, an axial-coordinate walk step, a
// ring-distance compare and a table-driven paging sweep.  This engine
// flattens the fleet into plain arrays (position, center cell, RNG state,
// per-terminal plan constants), pre-resolves each distinct paging partition
// into a lookup table (group sizes, cumulative cells, ring bounds, frame-
// byte constants), and evolves event-free slot ranges terminal-major in
// cache-friendly per-shard chunks with no virtual dispatch and no per-slot
// allocation.
//
// Equivalence contract: the engine replays the reference implementation's
// event order and floating-point accumulation sequence exactly —
// TerminalMetrics, flight-recorder events and signalling-byte counts are
// bit-identical to the polymorphic engine at every thread count
// (tests/sim/test_soa_engine.cpp).  Telemetry counters flow through the
// same obs_detail::RuntimeStats handles.
//
// Network::run selects the engine per run (NetworkConfig::engine); between
// event-free segments the Network syncs the flat state back into the
// Terminal / LocationServer objects, so user events and observers of the
// public API never see engine-dependent state.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcn/sim/fleet_plan.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/stats/rng.hpp"

namespace pcn::sim {

class SoaEngine {
 public:
  /// The engine borrows the network; `net` must outlive it.
  explicit SoaEngine(Network& net);

  /// Verifies that the whole fleet matches the canonical scenario and
  /// (re)builds the flat per-terminal plan and the paging tables.  Returns
  /// false — with the first offending condition in `*why` — when the fast
  /// path cannot be taken.  Safe to call again after user events mutated
  /// the fleet (thresholds re-read, tables rebuilt).
  bool prepare(std::string* why);

  /// Runs the event-free slot range [first, last] over every terminal,
  /// fanning the fleet out across shard workers when `use_workers` (the
  /// caller applies the same profitability heuristic as the reference
  /// engine).  State is loaded from the Terminal/LocationServer objects at
  /// segment entry and synced back before returning.
  void run_segment(SimTime first, SimTime last, Network::Scratch& scratch,
                   bool use_workers);

  /// Flat engine state per terminal, in bytes (static plan + dynamic
  /// state arrays); 157, pinned by tests/sim/test_soa_engine.cpp.
  std::size_t bytes_per_terminal() const;

 private:
  /// Worker body: loads attachments [begin, end) into the flat arrays,
  /// evolves them over [first, last], and syncs the objects back.
  void run_shard(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  /// The hot loop, specialized per (geometry, slot semantics) so the slot
  /// body carries no per-slot branches on either.
  template <bool kTwoD, bool kChain>
  void run_range(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch,
                 std::int64_t* rd_row, std::int64_t* pc_row);

  Network& net_;

  /// Static per-terminal plan + interned paging tables (rebuilt by
  /// prepare; shared shape with the simd engine — see fleet_plan.hpp).
  FleetPlan plan_;

  // ---- dynamic state (objects <-> arrays per segment) ----
  std::vector<std::int64_t> pos_q_, pos_r_;  ///< terminal position
  std::vector<std::int64_t> cen_q_, cen_r_;  ///< knowledge center
  std::vector<SimTime> since_;               ///< last center reset
  std::vector<stats::Rng> ev_rng_, wk_rng_;  ///< per-terminal streams
  std::vector<std::uint64_t> next_page_;     ///< page-id correlator
  /// Center was reset during the segment: sync must replay the reset into
  /// the update policy and the location server.
  std::vector<std::uint8_t> dirty_;
};

}  // namespace pcn::sim
