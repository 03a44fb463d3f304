// Lane-parallel SIMD fast path for the canonical distance-update scenario.
//
// Same eligibility rules as the SoA engine (shared FleetPlan), different
// evolution strategy: instead of replaying the reference engine's
// sequential per-terminal RNG streams, every (terminal, slot) pair draws
// its event words from a counter-based Philox4x32-10 stream keyed on the
// network seed (stats/counter_rng.hpp).  That makes each slot a pure
// function of (key, terminal, slot) — no loop-carried RNG state — so
// eight terminals evolve per instruction in the AVX2 kernel, with a
// portable scalar-emulation kernel (bit-identical by construction) as the
// universal fallback.  Terminals are processed in cache-blocked batches
// (kBatchLanes in simd_engine.cpp) sliced into 8-lane kernel blocks.
//
// Equivalence contract — weaker than SoA's, by design: metrics are
// *statistically* equivalent to the reference/soa pair (same distributions;
// gated by the tier-2 oracle suite in test_prop_simd_statistical.cpp), and
// the engine is bit-identical to itself across runs, thread counts and
// ISA paths (tests/sim/test_simd_engine.cpp).  Because draws are
// counter-indexed, the engine never consumes the terminals' sequential
// streams: a reference/soa run after a simd segment continues from
// untouched RNG state.
//
// Deliberate limits (prepare() rejects, run() reports via InvalidArgument):
//   * flight recording — per-event recording needs the bit-exact engines;
//   * PCN_SIMD_ISA=none — every kernel disabled (test hook).
// Telemetry under this engine keeps all event counters exact (folded in at
// batch sync) but skips the per-page sampled spans/histograms
// (net.page wall time, page_cycles, page_polled) — there is no per-page
// hot-path hook to hang them on.  docs/usage.md documents both.
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
/// "auto"/unset/unknown (detect).
SimdSupport simd_support();

class SimdEngine {
 public:
  /// The engine borrows the network; `net` must outlive it.
  explicit SimdEngine(Network& net);

  /// Probes kernel support, verifies the fleet is canonical (FleetPlan),
  /// rejects flight recording, and (re)builds the flat per-terminal plan,
  /// the fixed-point event thresholds and the Philox key.  Returns false
  /// with the first offending condition in `*why` when the engine cannot
  /// run.
  bool prepare(std::string* why);

  /// Runs the event-free slot range [first, last] over every terminal in
  /// cache-blocked batches, fanning batches across shard workers when
  /// `use_workers`.
  void run_segment(SimTime first, SimTime last, Network::Scratch& scratch,
                   bool use_workers);

  /// Flat engine state per terminal, in bytes (static plan + hot lane
  /// arrays); 173, pinned by tests/sim/test_simd_engine.cpp.
  std::size_t bytes_per_terminal() const;

  /// The kernel path selected by the last successful prepare().
  SimdIsa isa() const { return isa_; }

 private:
  /// Worker body: evolves attachments [begin, end) over [first, last] in
  /// kBatchLanes-sized batches of 8-lane kernel blocks.
  void run_shard(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  /// One cache-blocked batch: objects -> lane scratch, kernel blocks over
  /// the full slot range, lane scratch -> objects + metrics.
  void run_batch(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Network::Scratch& scratch);

  Network& net_;
  SimdIsa isa_ = SimdIsa::kPortable;

  /// Static per-terminal plan + interned paging tables (shared shape with
  /// the SoA engine — see fleet_plan.hpp).
  FleetPlan plan_;

  // ---- static lane arrays, rebuilt by prepare() (indexed by attachment
  // order; kernels alias them at the block offset) ----
  std::vector<std::uint32_t> t_call_, t_move_;  ///< fixed-point thresholds
  std::vector<std::uint32_t> tid_lo_, tid_hi_;  ///< Philox stream words
  std::vector<const PagingTable*> table_;       ///< resolved table pointer

  /// Philox key halves, derived from the network seed (see kSimdKeySalt
  /// in simd_engine.cpp).
  std::uint32_t key0_ = 0, key1_ = 0;
};

}  // namespace pcn::sim
