// Kernel ABI for the lane-parallel SIMD slot-loop engine.
//
// The engine (simd_engine.cpp) slices each cache-blocked terminal batch
// into 8-lane blocks and hands every block to one of three kernels over a
// slot range:
//
//   * run_block_portable  — scalar code, built into every binary; also
//     serves partial (< 8 lane) tail blocks.  Each lane-slot evaluates the
//     draw contract's scalar form, stats::SlotDraws::draw, verbatim — the
//     same call the reference engine makes.
//   * run_block_avx2      — the same arithmetic eight lanes per
//     instruction, compiled into its own TU with -mavx2 and dispatched
//     only when cpuid reports AVX2 (simd_engine.cpp).
//   * run_block_pair_avx2 — two 8-lane blocks as sixteen int16 lanes, for
//     chain-faithful fleets whose walk state fits int16.
//
// Draw contract.  All three follow stats::SlotDraws (counter_rng.hpp):
// chain-faithful slots read event and direction halfwords from one Philox
// block per four slots, independent slots read three full words of one
// block per slot.  Event halfwords that tie a threshold's high half, and
// 2-D direction draws that Lemire's multiply-shift sends to refinement
// (4 of 2^16 halfwords, 4 of 2^32 words), leave the vector path: the lane
// takes the contract's scalar helpers (SlotDraws::chain_events,
// SlotDraws::refined_direction) and the vector masks are patched.  Rare
// events (location updates, calls) funnel through the shared scalar
// rare_slot below.  So every kernel — and the reference engine — makes
// the same decisions from the same words, and the engine's results are
// bit-identical to the reference engine's at any thread count
// (tests/sim/test_simd_engine.cpp, tests/stats/test_counter_rng.cpp).
//
// Everything here is pure integer: costs (weight * count) and telemetry
// are folded in by the engine at batch sync, so the kernels never touch
// floating point and never see the Network.
#pragma once

#include <cstdint>
#include <cstdlib>

#include "pcn/sim/fleet_plan.hpp"
#include "pcn/sim/sim_time.hpp"
#include "pcn/stats/counter_rng.hpp"

namespace pcn::sim::simd_detail {

inline constexpr int kLanes = 8;

struct KernelParams {
  stats::SlotDraws draws{0};  ///< the draw contract, keyed by the seed
  bool count_bytes = true;
};

/// Pointers into one 8-lane block of the batch arrays.  Static plan
/// pointers alias the engine's per-terminal arrays at the block offset;
/// dynamic state and accumulators live in the batch scratch.
struct LaneBlock {
  // Hot vector state (int32 lanes).
  std::int32_t* rel_q;            ///< position relative to the center
  std::int32_t* rel_r;
  const std::uint32_t* t_call;    ///< fixed-point event thresholds
  const std::uint32_t* t_move;
  const std::int32_t* thr;        ///< distance threshold d
  const std::uint32_t* tid_lo;    ///< Philox stream words (terminal id)
  const std::uint32_t* tid_hi;
  // Cold per-lane state (rare path only).
  std::int64_t* cen_q;            ///< absolute knowledge center
  std::int64_t* cen_r;
  std::int64_t* since;            ///< last center reset slot
  std::uint64_t* page_id;         ///< per-terminal page correlator
  std::uint8_t* dirty;            ///< center reset during the segment
  // Per-lane accumulators.
  std::int64_t* moves;            ///< segment delta
  std::int64_t* updates;          ///< absolute ordinal (continues metrics)
  std::int64_t* calls;            ///< segment delta
  std::int64_t* polled;           ///< segment delta (cells)
  std::int64_t* upd_bytes;        ///< segment delta
  std::int64_t* page_bytes;       ///< segment delta
  // Per-lane plan constants and histogram rows.
  const PagingTable* const* table;
  const std::int32_t* id_bytes;
  const std::int32_t* upd_const;
  const std::int32_t* resp_const;
  std::int64_t* rd_rows;          ///< [lane][rd_stride] occupancy counts
  std::int64_t* pc_rows;          ///< [lane][pc_stride] paging cycles
  std::int32_t rd_stride = 0;
  std::int32_t pc_stride = 0;
};

/// Axial unit directions in hex_directions() order (entries 6–7 pad the
/// table to a full 8-lane permute; the neighbor index is always < 6).
inline constexpr std::int32_t kDirQ[8] = {1, 1, 0, -1, -1, 0, 0, 0};
inline constexpr std::int32_t kDirR[8] = {0, -1, -1, 0, 1, 1, 0, 0};

/// Scalar rare-event tail for one lane at slot `t`: the location update
/// (dist > threshold) and/or the call.  `dist` is the post-move ring
/// distance; both events reset the relative position, so the slot's
/// occupancy sample is 0 whenever this runs (the caller files it).
/// Shared verbatim by every kernel.
inline void rare_slot(const KernelParams& kp, const LaneBlock& b, int lane,
                      SimTime t, bool called, std::int64_t dist) {
  using plan_detail::signed_len;
  using plan_detail::varint_len;
  if (dist > b.thr[lane]) {
    b.cen_q[lane] += b.rel_q[lane];
    b.cen_r[lane] += b.rel_r[lane];
    b.rel_q[lane] = 0;
    b.rel_r[lane] = 0;
    ++b.updates[lane];
    if (kp.count_bytes) {
      // Sequence number is the post-increment update ordinal, as in the
      // reference frame encoding; position equals the fresh center.
      b.upd_bytes[lane] +=
          b.upd_const[lane] +
          varint_len(static_cast<std::uint64_t>(b.updates[lane])) +
          signed_len(b.cen_q[lane]) + signed_len(b.cen_r[lane]);
    }
    b.since[lane] = t;
    b.dirty[lane] = 1;
    dist = 0;
  }
  if (called) {
    const std::uint64_t call_id = b.page_id[lane]++;
    const PagingTable& tab = *b.table[lane];
    // The containment invariant puts the terminal in the subarea of its
    // current ring: poll every cycle up to (and including) it.
    const auto h = static_cast<std::size_t>(
        tab.cycle_of[static_cast<std::size_t>(dist)]);
    b.polled[lane] += tab.cum[h];
    const std::int64_t cq = b.cen_q[lane];
    const std::int64_t cr = b.cen_r[lane];
    const std::int64_t pq = cq + b.rel_q[lane];
    const std::int64_t pr = cr + b.rel_r[lane];
    if (kp.count_bytes) {
      for (std::size_t j = 0; j <= h; ++j) {
        b.page_bytes[lane] += tab.inv_bytes[j] +
                              varint_len(call_id) + b.id_bytes[lane] +
                              signed_len(cq + tab.off_q[j]) +
                              signed_len(cr + tab.off_r[j]);
      }
      b.page_bytes[lane] += b.resp_const[lane] + varint_len(call_id) +
                            signed_len(pq) + signed_len(pr);
    }
    b.pc_rows[lane * b.pc_stride + static_cast<std::int32_t>(h) + 1]++;
    ++b.calls[lane];
    b.cen_q[lane] = pq;
    b.cen_r[lane] = pr;
    b.rel_q[lane] = 0;
    b.rel_r[lane] = 0;
    b.since[lane] = t;
    b.dirty[lane] = 1;
  }
}

/// The terminal id a lane's Philox stream words carry.
inline std::uint64_t lane_terminal(const LaneBlock& b, int lane) {
  return b.tid_lo[lane] | std::uint64_t{b.tid_hi[lane]} << 32;
}

/// One lane-slot of the portable kernel: the contract's scalar draw, the
/// walk step, the ring distance and the rare tail.
template <bool kTwoD, bool kChain>
inline void lane_slot(const KernelParams& kp, const LaneBlock& b, int lane,
                      SimTime t) {
  const stats::SlotDraws::Slot draw =
      kp.draws.draw(lane_terminal(b, lane), t, kChain, kTwoD,
                    b.t_call[lane], b.t_move[lane]);
  if (draw.moved) {
    if constexpr (kTwoD) {
      b.rel_q[lane] += kDirQ[draw.neighbor];
      b.rel_r[lane] += kDirR[draw.neighbor];
    } else {
      b.rel_q[lane] += draw.neighbor * 2 - 1;
    }
    ++b.moves[lane];
  }
  std::int64_t dist;
  if constexpr (kTwoD) {
    const std::int64_t dq = b.rel_q[lane];
    const std::int64_t dr = b.rel_r[lane];
    dist = (std::llabs(dq) + std::llabs(dr) + std::llabs(dq + dr)) / 2;
  } else {
    dist = std::llabs(std::int64_t{b.rel_q[lane]});
  }
  if (dist > b.thr[lane] || draw.called) {
    rare_slot(kp, b, lane, t, draw.called, dist);
    dist = 0;
  }
  b.rd_rows[lane * b.rd_stride + dist]++;
}

/// Runs lanes [0, n) of `block` over slots [first, last] with the scalar
/// emulation path (n <= kLanes; partial tail blocks take this path under
/// every ISA).
void run_block_portable(const KernelParams& kp, const LaneBlock& block,
                        int n, bool two_d, bool chain, SimTime first,
                        SimTime last);

#if PCN_HAVE_AVX2_KERNEL
/// Runs all 8 lanes of `block` over slots [first, last] with AVX2.
void run_block_avx2(const KernelParams& kp, const LaneBlock& block,
                    bool two_d, bool chain, SimTime first, SimTime last);

/// Largest distance threshold the 16-lane paired chain kernel accepts:
/// its walk state and ring distances live in int16 lanes, and the hex
/// distance intermediate |dq| + |dr| + |dq + dr| is bounded by
/// 4 * (threshold + 1), which must stay below 2^15.
inline constexpr std::int32_t kPairMaxThreshold = 8190;

/// Runs TWO full 8-lane blocks over slots [first, last] as sixteen int16
/// lanes per vector — the chain-faithful fast path.  The event and
/// direction halfwords are 16-bit by the contract's quad mapping, and
/// every other per-slot quantity (relative position, ring distance,
/// per-chunk move/occupancy counts) fits int16 when every threshold is
/// <= kPairMaxThreshold — the caller's gate.  Bit-identical
/// to running the blocks through run_block_avx2 / run_block_portable.
void run_block_pair_avx2(const KernelParams& kp, const LaneBlock& a,
                         const LaneBlock& b, bool two_d, SimTime first,
                         SimTime last);
#endif

}  // namespace pcn::sim::simd_detail
