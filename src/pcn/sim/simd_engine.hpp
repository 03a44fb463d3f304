// Lane-parallel SIMD fast path for the canonical distance-update scenario.
//
// Eligibility is FleetPlan's (fleet_plan.hpp) plus two engine limits.
// Every (terminal, slot) pair draws from the simulator's counter-based
// slot-draw contract (stats::SlotDraws), a pure function of (seed,
// terminal, slot) with no loop-carried RNG state, so eight terminals
// evolve per instruction in the AVX2 kernel, with a portable scalar
// kernel as the universal fallback.  Terminals are processed in
// cache-blocked batches (kBatchLanes in simd_engine.cpp) sliced into
// 8-lane kernel blocks.
//
// Equivalence contract: the reference engine evaluates the same draw
// contract, so TerminalMetrics and signalling-byte counts are
// bit-identical to it at every thread count, on every kernel, and across
// run segmentation (tests/sim/test_simd_engine.cpp).  That is why
// SimEngine::kAuto selects this engine whenever it can run.
//
// Engine limits (prepare() rejects; kAuto then runs the reference engine,
// forced kSimd throws InvalidArgument):
//   * flight recording — the kernels have no per-event hot path to record;
//   * PCN_SIMD_ISA=none — every kernel disabled (test hook).
// Telemetry under this engine keeps all event counters exact (folded in at
// batch sync) but leaves the 1-in-32 sampled per-page series empty
// (sim.page.cycles, sim.page.polled_per_call, sim.page.wall_ns) — there is
// no per-page hot-path hook to hang them on.  RunReport's
// paging_delay_cycles comes from TerminalMetrics and stays exact.
// docs/usage.md documents both.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcn/sim/fleet_plan.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::sim {

/// Kernel instruction-set paths, in preference order.
enum class SimdIsa { kAvx2, kPortable };

const char* to_string(SimdIsa isa);

/// Result of probing kernel availability on this machine.
struct SimdSupport {
  bool available = false;
  SimdIsa isa = SimdIsa::kPortable;
  /// Why no kernel is available (static string); meaningful when
  /// !available.
  const char* reason = "";
};

/// Probes which kernel the simd engine would run: AVX2 when compiled in
/// (PCN_SIMD_AVX2) and reported by cpuid, else the portable kernel.  The
/// PCN_SIMD_ISA environment variable overrides the choice — "avx2"
/// (require it), "portable" (force the fallback), "none" (disable every
/// kernel; makes the unsupported-hardware error path testable anywhere),
/// "auto"/unset/unknown (detect).  The same probe picks the walk of
/// pcnd's closed-loop load generator (daemon/load_gen.hpp): the AVX2
/// walk only when this reports an available AVX2 kernel, else the
/// portable walk, with identical requests either way.
SimdSupport simd_support();

class SimdEngine {
 public:
  /// The engine borrows the network; `net` must outlive it.
  explicit SimdEngine(Network& net);

  /// Probes kernel support, verifies the fleet is canonical (FleetPlan),
  /// rejects flight recording, and (re)builds the flat per-terminal plan
  /// and lane arrays.  Returns false
  /// with the first offending condition in `*why` when the engine cannot
  /// run.
  bool prepare(std::string* why);

  /// Shard body: evolves attachments [begin, end) over the slot range
  /// [first, last] in kBatchLanes-sized batches of 8-lane kernel blocks.
  /// Network::run_segment fans the shards out; the shard boundaries don't
  /// affect results, since every lane draws from its own counter stream.
  void run_shard(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  /// Flat engine state per terminal, in bytes (static plan + hot lane
  /// arrays); 149, pinned by tests/sim/test_simd_engine.cpp.
  std::size_t bytes_per_terminal() const;

  /// The kernel path selected by the last successful prepare().
  SimdIsa isa() const { return isa_; }

 private:
  /// One cache-blocked batch: objects -> lane scratch, kernel blocks over
  /// the full slot range, lane scratch -> objects + metrics.
  void run_batch(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  Network& net_;
  SimdIsa isa_ = SimdIsa::kPortable;

  /// Static per-terminal plan + interned paging tables (fleet_plan.hpp).
  FleetPlan plan_;

  // ---- static lane arrays, rebuilt by prepare() (indexed by attachment
  // order; kernels alias them at the block offset) ----
  std::vector<std::uint32_t> tid_lo_, tid_hi_;  ///< Philox stream words
  std::vector<const PagingTable*> table_;       ///< resolved table pointer
};

}  // namespace pcn::sim
