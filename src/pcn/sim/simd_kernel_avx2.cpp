// AVX2 kernel for the SIMD slot-loop engine: eight terminals per
// instruction.  Compiled in its own TU with -mavx2 (src/CMakeLists.txt)
// and called only after simd_support() saw cpuid report AVX2, so the rest
// of the binary stays free of AVX2 encodings.
//
// The arithmetic is the integer-for-integer image of the draw contract
// (stats::SlotDraws): Philox4x32-10 draws under the quad-halfword (chain)
// or per-slot (independent) counter mapping, threshold compares against
// halfword or sign-bias-flipped words, Lemire's multiply-shift onto the
// hex direction LUT through a cross-lane permute, and |dq|+|dr|+|dq+dr|
// >> 1 ring distance.  Rare events (updates, calls, halfword/threshold
// ties, direction draws sent to refinement) exit through a movemask into
// the contract's scalar helpers, after spilling the hot vectors — so the
// only vector/scalar divergence surface is the common-case slot, which is
// branch-free and exact.  tests/sim/test_simd_engine.cpp pins the
// bit-identity against run_block_portable and the reference engine.
#include "pcn/sim/simd_kernel.hpp"

#if PCN_HAVE_AVX2_KERNEL

#include <immintrin.h>

#include <algorithm>

namespace pcn::sim::simd_detail {
namespace {

/// Slots between spills of the packed int32 move counters into the
/// per-lane int64 accumulators (they saturate after 2^31 increments).
constexpr SimTime kMoveFlushChunk = SimTime{1} << 20;

/// Per-lane 32x32 -> hi/lo 32-bit products (pmuludq on the even and
/// odd lanes, recombined).
inline void mulhilo_epu32(__m256i a, __m256i m, __m256i& hi, __m256i& lo) {
  const __m256i even = _mm256_mul_epu32(a, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/// Eight Philox4x32-10 blocks: counter = (`counter`, stream lane), one
/// lane per terminal.  All four output words feed the slot loop (the
/// chain path spends a block on two slots).
inline void philox8(std::uint32_t key0, std::uint32_t key1,
                    std::uint64_t counter, __m256i tid_lo, __m256i tid_hi,
                    __m256i& w0, __m256i& w1, __m256i& w2, __m256i& w3) {
  using namespace stats::philox_detail;
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(kMul0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(kMul1));
  const __m256i weyl0 = _mm256_set1_epi32(static_cast<int>(kWeyl0));
  const __m256i weyl1 = _mm256_set1_epi32(static_cast<int>(kWeyl1));
  __m256i c0 = _mm256_set1_epi32(static_cast<int>(
      static_cast<std::uint32_t>(counter)));
  __m256i c1 = _mm256_set1_epi32(static_cast<int>(
      static_cast<std::uint32_t>(counter >> 32)));
  __m256i c2 = tid_lo;
  __m256i c3 = tid_hi;
  __m256i k0 = _mm256_set1_epi32(static_cast<int>(key0));
  __m256i k1 = _mm256_set1_epi32(static_cast<int>(key1));
  for (int round = 0; round < kRounds; ++round) {
    __m256i hi0;
    __m256i lo0;
    __m256i hi1;
    __m256i lo1;
    mulhilo_epu32(c0, m0, hi0, lo0);
    mulhilo_epu32(c2, m1, hi1, lo1);
    c0 = _mm256_xor_si256(_mm256_xor_si256(hi1, c1), k0);
    c1 = lo1;
    c2 = _mm256_xor_si256(_mm256_xor_si256(hi0, c3), k1);
    c3 = lo0;
    k0 = _mm256_add_epi32(k0, weyl0);
    k1 = _mm256_add_epi32(k1, weyl1);
  }
  w0 = c0;
  w1 = c1;
  w2 = c2;
  w3 = c3;
}

inline __m256i load8(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

/// Lanes whose direction draw the contract sends to refinement: the low
/// 16 (chain) or 32 (independent) bits of 6d below 4.
inline __m256i needs_refine_epi32(__m256i low) {
  return _mm256_cmpeq_epi32(
      _mm256_and_si256(low, _mm256_set1_epi32(~3)), _mm256_setzero_si256());
}

template <bool kTwoD, bool kChain>
void run_block_impl(const KernelParams& kp, const LaneBlock& b,
                    SimTime first, SimTime last) {
  const std::uint32_t key0 = kp.draws.key_lo();
  const std::uint32_t key1 = kp.draws.key_hi();
  const __m256i bias = _mm256_set1_epi32(
      static_cast<int>(0x80000000u));
  // Thresholds pre-flipped so the unsigned "word < threshold" compare
  // becomes a signed greater-than (independent path; the chain compares
  // halfwords < 2^16, where plain signed compares are already exact).  A
  // kCertain move threshold (q = 1) always fires; call thresholds are
  // never kCertain (c < 1).
  const __m256i tcall = _mm256_xor_si256(load8(b.t_call), bias);
  const __m256i tmove = _mm256_xor_si256(load8(b.t_move), bias);
  const __m256i move_certain = _mm256_cmpeq_epi32(
      load8(b.t_move), _mm256_set1_epi32(static_cast<int>(stats::kCertain)));
  const __m256i tcall_hi = _mm256_srli_epi32(load8(b.t_call), 16);
  const __m256i tmove_hi = _mm256_srli_epi32(load8(b.t_move), 16);
  [[maybe_unused]] const __m256i lo16 = _mm256_set1_epi32(0xFFFF);
  const __m256i thr = load8(b.thr);
  const __m256i tid_lo = load8(b.tid_lo);
  const __m256i tid_hi = load8(b.tid_hi);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i six = _mm256_set1_epi32(6);
  const __m256i dir_q = _mm256_setr_epi32(kDirQ[0], kDirQ[1], kDirQ[2],
                                          kDirQ[3], kDirQ[4], kDirQ[5],
                                          kDirQ[6], kDirQ[7]);
  const __m256i dir_r = _mm256_setr_epi32(kDirR[0], kDirR[1], kDirR[2],
                                          kDirR[3], kDirR[4], kDirR[5],
                                          kDirR[6], kDirR[7]);
  __m256i rel_q = load8(b.rel_q);
  __m256i rel_r = load8(b.rel_r);

  // Occupancy histogram: when the fleet's bucket stride fits, counts are
  // accumulated per bucket in packed int32 vectors (one cmpeq+sub per
  // bucket per slot, no scalar scatter in the hot loop) and folded into
  // rd_rows at chunk flush.  Wide strides fall back to the per-slot
  // scalar scatter.
  constexpr int kMaxVecHist = 8;
  const bool vec_hist = b.rd_stride <= kMaxVecHist;
  __m256i hist[kMaxVecHist];
  __m256i bucket[kMaxVecHist];
  for (int d = 0; d < kMaxVecHist; ++d) bucket[d] = _mm256_set1_epi32(d);

  __m256i move_count = _mm256_setzero_si256();

  // One slot's decisions, walk step, distance and rare tail.  The chain
  // path hands 16-bit event/direction halfwords in `we`/`wd` (values
  // < 2^16 per int32 lane); the independent path hands full words (`we`
  // event, `wc` call, `wd` direction).
  const auto slot_step = [&](__m256i we, __m256i wc, __m256i wd,
                             SimTime t) __attribute__((always_inline)) {
    __m256i called;
    __m256i moved;
    if constexpr (kChain) {
      called = _mm256_cmpgt_epi32(tcall_hi, we);
      moved =
          _mm256_andnot_si256(called, _mm256_cmpgt_epi32(tmove_hi, we));
      const __m256i tie =
          _mm256_or_si256(_mm256_cmpeq_epi32(we, tcall_hi),
                          _mm256_cmpeq_epi32(we, tmove_hi));
      const int tie_mask = _mm256_movemask_ps(_mm256_castsi256_ps(tie));
      if (tie_mask != 0) [[unlikely]] {
        // A halfword tied a threshold high half (p <= 2^-15 per lane):
        // resolve those lanes with the contract's exact scalar rule, then
        // patch the decision masks.
        alignas(32) std::int32_t ev_arr[kLanes];
        alignas(32) std::int32_t called_arr[kLanes];
        alignas(32) std::int32_t moved_arr[kLanes];
        _mm256_store_si256(reinterpret_cast<__m256i*>(ev_arr), we);
        _mm256_store_si256(reinterpret_cast<__m256i*>(called_arr), called);
        _mm256_store_si256(reinterpret_cast<__m256i*>(moved_arr), moved);
        for (int m = tie_mask; m != 0; m &= m - 1) {
          const int lane = __builtin_ctz(static_cast<unsigned>(m));
          const stats::SlotDraws::Slot ev = kp.draws.chain_events(
              lane_terminal(b, lane), t,
              static_cast<std::uint32_t>(ev_arr[lane]), b.t_call[lane],
              b.t_move[lane]);
          called_arr[lane] = ev.called ? -1 : 0;
          moved_arr[lane] = ev.moved ? -1 : 0;
        }
        called = load8(called_arr);
        moved = load8(moved_arr);
      }
    } else {
      const __m256i wef = _mm256_xor_si256(we, bias);
      moved = _mm256_or_si256(_mm256_cmpgt_epi32(tmove, wef), move_certain);
      called = _mm256_cmpgt_epi32(tcall, _mm256_xor_si256(wc, bias));
    }
    if constexpr (kTwoD) {
      // Lemire's multiply-shift: halfword draws scale by 2^-16 (mullo +
      // shift), full words by 2^-32 (the pmuludq high halves); the low
      // bits of the product flag the draws that go to refinement.
      __m256i dir;
      __m256i low;
      if constexpr (kChain) {
        const __m256i m6 = _mm256_mullo_epi32(wd, six);
        dir = _mm256_srli_epi32(m6, 16);
        low = _mm256_and_si256(m6, lo16);
      } else {
        mulhilo_epu32(wd, six, dir, low);
      }
      const __m256i refine =
          _mm256_and_si256(moved, needs_refine_epi32(low));
      const int refine_mask =
          _mm256_movemask_ps(_mm256_castsi256_ps(refine));
      if (refine_mask != 0) [[unlikely]] {
        alignas(32) std::int32_t dir_arr[kLanes];
        _mm256_store_si256(reinterpret_cast<__m256i*>(dir_arr), dir);
        for (int m = refine_mask; m != 0; m &= m - 1) {
          const int lane = __builtin_ctz(static_cast<unsigned>(m));
          dir_arr[lane] =
              kp.draws.refined_direction(lane_terminal(b, lane), t);
        }
        dir = load8(dir_arr);
      }
      const __m256i dq = _mm256_permutevar8x32_epi32(dir_q, dir);
      const __m256i dr = _mm256_permutevar8x32_epi32(dir_r, dir);
      rel_q = _mm256_add_epi32(rel_q, _mm256_and_si256(moved, dq));
      rel_r = _mm256_add_epi32(rel_r, _mm256_and_si256(moved, dr));
    } else {
      const __m256i step = _mm256_sub_epi32(
          _mm256_slli_epi32(_mm256_and_si256(wd, one), 1), one);
      rel_q = _mm256_add_epi32(rel_q, _mm256_and_si256(moved, step));
    }
    move_count = _mm256_sub_epi32(move_count, moved);
    __m256i dist;
    if constexpr (kTwoD) {
      const __m256i s = _mm256_add_epi32(rel_q, rel_r);
      dist = _mm256_srli_epi32(
          _mm256_add_epi32(_mm256_add_epi32(_mm256_abs_epi32(rel_q),
                                            _mm256_abs_epi32(rel_r)),
                           _mm256_abs_epi32(s)),
          1);
    } else {
      dist = _mm256_abs_epi32(rel_q);
    }
    const __m256i upd = _mm256_cmpgt_epi32(dist, thr);
    const __m256i rare = _mm256_or_si256(upd, called);
    const int rare_mask = _mm256_movemask_ps(_mm256_castsi256_ps(rare));
    if (rare_mask != 0) {
      alignas(32) std::int32_t dist_arr[kLanes];
      alignas(32) std::int32_t called_arr[kLanes];
      _mm256_store_si256(reinterpret_cast<__m256i*>(dist_arr), dist);
      _mm256_store_si256(reinterpret_cast<__m256i*>(called_arr), called);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.rel_q), rel_q);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.rel_r), rel_r);
      for (int m = rare_mask; m != 0; m &= m - 1) {
        const int lane = __builtin_ctz(static_cast<unsigned>(m));
        rare_slot(kp, b, lane, t, called_arr[lane] != 0, dist_arr[lane]);
      }
      // Every rare lane (update and/or call) ends with a reset relative
      // position, and rare_slot touches nothing else the hot vectors
      // carry — so the registers are patched in place instead of
      // reloading the spilled state.
      rel_q = _mm256_andnot_si256(rare, rel_q);
      rel_r = _mm256_andnot_si256(rare, rel_r);
      dist = _mm256_andnot_si256(rare, dist);
    }
    if (vec_hist) {
      for (int d = 0; d < b.rd_stride; ++d) {
        hist[d] = _mm256_sub_epi32(
            hist[d], _mm256_cmpeq_epi32(dist, bucket[d]));
      }
    } else {
      alignas(32) std::int32_t d_arr[kLanes];
      _mm256_store_si256(reinterpret_cast<__m256i*>(d_arr), dist);
      for (int lane = 0; lane < kLanes; ++lane) {
        b.rd_rows[lane * b.rd_stride + d_arr[lane]]++;
      }
    }
  };

  SimTime t = first;
  while (t <= last) {
    const SimTime chunk_last = std::min(last, t + (kMoveFlushChunk - 1));
    move_count = _mm256_setzero_si256();
    if (vec_hist) {
      for (int d = 0; d < b.rd_stride; ++d) {
        hist[d] = _mm256_setzero_si256();
      }
    }
    __m256i w0;
    __m256i w1;
    __m256i w2;
    __m256i w3;
    if constexpr (kChain) {
      // Quad draw: block (t >> 2); slot t & 3 reads event halfword
      // (t & 1) of word (t >> 1) & 1 and the matching direction
      // halfword of words 2–3 (the mapping lane_slot documents).
      const auto half_lo = [&](__m256i w) {
        return _mm256_and_si256(w, lo16);
      };
      const auto half_hi = [](__m256i w) {
        return _mm256_srli_epi32(w, 16);
      };
      const auto quad_slot = [&](SimTime s) {
        const __m256i e = ((s >> 1) & 1) != 0 ? w1 : w0;
        const __m256i d = ((s >> 1) & 1) != 0 ? w3 : w2;
        if ((s & 1) != 0) {
          slot_step(half_hi(e), e, half_hi(d), s);
        } else {
          slot_step(half_lo(e), e, half_lo(d), s);
        }
      };
      // Head: enter the quad grid (at most three slots, at a segment or
      // chunk boundary).
      if ((t & 3) != 0) {
        philox8(key0, key1, static_cast<std::uint64_t>(t) >> 2,
                tid_lo, tid_hi, w0, w1, w2, w3);
        for (; t <= chunk_last && (t & 3) != 0; ++t) quad_slot(t);
      }
      // Two independent Philox blocks in flight per iteration: the
      // 10-round chain is latency-bound, so interleaving a second
      // counter's rounds roughly doubles multiplier utilisation.
      for (; t + 7 <= chunk_last; t += 8) {
        const std::uint64_t group = static_cast<std::uint64_t>(t) >> 2;
        __m256i x0;
        __m256i x1;
        __m256i x2;
        __m256i x3;
        philox8(key0, key1, group, tid_lo, tid_hi, w0, w1, w2, w3);
        philox8(key0, key1, group + 1, tid_lo, tid_hi, x0, x1, x2, x3);
        slot_step(half_lo(w0), w0, half_lo(w2), t);
        slot_step(half_hi(w0), w0, half_hi(w2), t + 1);
        slot_step(half_lo(w1), w1, half_lo(w3), t + 2);
        slot_step(half_hi(w1), w1, half_hi(w3), t + 3);
        slot_step(half_lo(x0), x0, half_lo(x2), t + 4);
        slot_step(half_hi(x0), x0, half_hi(x2), t + 5);
        slot_step(half_lo(x1), x1, half_lo(x3), t + 6);
        slot_step(half_hi(x1), x1, half_hi(x3), t + 7);
      }
      for (; t + 3 <= chunk_last; t += 4) {
        philox8(key0, key1, static_cast<std::uint64_t>(t) >> 2, tid_lo,
                tid_hi, w0, w1, w2, w3);
        slot_step(half_lo(w0), w0, half_lo(w2), t);
        slot_step(half_hi(w0), w0, half_hi(w2), t + 1);
        slot_step(half_lo(w1), w1, half_lo(w3), t + 2);
        slot_step(half_hi(w1), w1, half_hi(w3), t + 3);
      }
      // Tail: a partial quad (chunk or segment end).
      if (t <= chunk_last) {
        philox8(key0, key1, static_cast<std::uint64_t>(t) >> 2, tid_lo,
                tid_hi, w0, w1, w2, w3);
        for (; t <= chunk_last; ++t) quad_slot(t);
      }
    } else {
      for (; t <= chunk_last; ++t) {
        philox8(key0, key1, static_cast<std::uint64_t>(t), tid_lo, tid_hi,
                w0, w1, w2, w3);
        slot_step(w0, w1, w2, t);
      }
    }
    alignas(32) std::int32_t lane_arr[kLanes];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_arr), move_count);
    for (int lane = 0; lane < kLanes; ++lane) {
      b.moves[lane] += lane_arr[lane];
    }
    if (vec_hist) {
      for (int d = 0; d < b.rd_stride; ++d) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(lane_arr), hist[d]);
        for (int lane = 0; lane < kLanes; ++lane) {
          b.rd_rows[lane * b.rd_stride + d] += lane_arr[lane];
        }
      }
    }
  }
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.rel_q), rel_q);
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(b.rel_r), rel_r);
}

// ---- 16-lane paired chain kernel -----------------------------------------
//
// Chain-faithful slots only touch 16-bit quantities: the event and
// direction draws are halfwords by the quad mapping, and when every
// threshold is <= kPairMaxThreshold the walk state and ring distance fit
// int16 lanes exactly.  Packing TWO 8-lane blocks into one epi16 vector
// halves the per-slot vector instruction count for everything after the
// Philox draws (which stay 32-bit, two blocks' worth per quad group).
// The arithmetic is still the integer-for-integer image of lane_slot, so
// the path is bit-identical to the 8-lane kernels.

/// Packed-lane order of _mm256_pack*_epi32(a, b): each 128-bit half packs
/// four of a's then four of b's int32 lanes.  Entry j of a packed epi16
/// vector maps to block kPairBlk[j], lane kPairLn[j].
constexpr int kPairBlk[16] = {0, 0, 0, 0, 1, 1, 1, 1,
                              0, 0, 0, 0, 1, 1, 1, 1};
constexpr int kPairLn[16] = {0, 1, 2, 3, 0, 1, 2, 3,
                             4, 5, 6, 7, 4, 5, 6, 7};

/// Slots between int16 accumulator flushes: per-chunk move and occupancy
/// counts reach at most 2^14 < 2^15, so the packed counters stay exact.
/// A multiple of 4, preserving quad alignment within a chunk.
constexpr SimTime kPairFlushChunk = SimTime{1} << 14;

template <bool kTwoD>
void run_pair_impl(const KernelParams& kp, const LaneBlock& A,
                   const LaneBlock& B, SimTime first, SimTime last) {
  const std::uint32_t key0 = kp.draws.key_lo();
  const std::uint32_t key1 = kp.draws.key_hi();
  const __m256i bias16 = _mm256_set1_epi16(static_cast<short>(0x8000));
  const __m256i m16 = _mm256_set1_epi32(0xFFFF);
  const __m256i one16 = _mm256_set1_epi16(1);
  [[maybe_unused]] const __m256i six16 = _mm256_set1_epi16(6);
  [[maybe_unused]] const __m256i ff16 = _mm256_set1_epi16(0x00FF);
  [[maybe_unused]] const __m256i not3_16 = _mm256_set1_epi16(~3);
  // Byte LUTs for the hex walk, entries kDir{Q,R}[dir] + 1 (so they fit
  // unsigned bytes).  The neighbor index is < 6; the odd bytes of the
  // epi16 index vector are zero and their lookups are masked off.
  [[maybe_unused]] const __m256i lutq = _mm256_setr_epi8(
      2, 2, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  //
      2, 2, 1, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1);
  [[maybe_unused]] const __m256i lutr = _mm256_setr_epi8(
      1, 0, 0, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1,  //
      1, 0, 0, 1, 2, 2, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1);

  // Thresholds: the high halves pre-flipped into signed epi16 space (the
  // unsigned halfword compare becomes signed greater-than / equality).
  const __m256i tcall16 = _mm256_xor_si256(
      _mm256_packus_epi32(_mm256_srli_epi32(load8(A.t_call), 16),
                          _mm256_srli_epi32(load8(B.t_call), 16)),
      bias16);
  const __m256i tmove16 = _mm256_xor_si256(
      _mm256_packus_epi32(_mm256_srli_epi32(load8(A.t_move), 16),
                          _mm256_srli_epi32(load8(B.t_move), 16)),
      bias16);
  const __m256i thr16 = _mm256_packs_epi32(load8(A.thr), load8(B.thr));
  const __m256i tidA_lo = load8(A.tid_lo);
  const __m256i tidA_hi = load8(A.tid_hi);
  const __m256i tidB_lo = load8(B.tid_lo);
  const __m256i tidB_hi = load8(B.tid_hi);
  __m256i rel_q = _mm256_packs_epi32(load8(A.rel_q), load8(B.rel_q));
  __m256i rel_r = _mm256_packs_epi32(load8(A.rel_r), load8(B.rel_r));

  const LaneBlock* const blocks[2] = {&A, &B};

  constexpr int kMaxVecHist = 8;
  const bool vec_hist = A.rd_stride <= kMaxVecHist;
  __m256i hist[kMaxVecHist];
  __m256i bucket[kMaxVecHist];
  for (int d = 0; d < kMaxVecHist; ++d) {
    bucket[d] = _mm256_set1_epi16(static_cast<short>(d));
  }
  __m256i move_count = _mm256_setzero_si256();

  const auto pack_lo = [&](__m256i a, __m256i b) {
    return _mm256_packus_epi32(_mm256_and_si256(a, m16),
                               _mm256_and_si256(b, m16));
  };
  const auto pack_hi = [](__m256i a, __m256i b) {
    return _mm256_packus_epi32(_mm256_srli_epi32(a, 16),
                               _mm256_srli_epi32(b, 16));
  };

  // One slot for all sixteen lanes: `web` holds the event halfwords
  // (sign-bias flipped), `wd` the raw direction halfwords.
  const auto slot_step = [&](__m256i web, __m256i wd,
                             SimTime t) __attribute__((always_inline)) {
    __m256i called = _mm256_cmpgt_epi16(tcall16, web);
    __m256i moved =
        _mm256_andnot_si256(called, _mm256_cmpgt_epi16(tmove16, web));
    const __m256i tie =
        _mm256_or_si256(_mm256_cmpeq_epi16(web, tcall16),
                        _mm256_cmpeq_epi16(web, tmove16));
    const int tie_mask = _mm256_movemask_epi8(tie) & 0x55555555;
    if (tie_mask != 0) [[unlikely]] {
      // A halfword tied a threshold high half: resolve those lanes with
      // the contract's exact scalar rule and patch the decision masks.
      alignas(32) std::int16_t ev_arr[16];
      alignas(32) std::int16_t called_arr[16];
      alignas(32) std::int16_t moved_arr[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(ev_arr), web);
      _mm256_store_si256(reinterpret_cast<__m256i*>(called_arr), called);
      _mm256_store_si256(reinterpret_cast<__m256i*>(moved_arr), moved);
      for (int m = tie_mask; m != 0; m &= m - 1) {
        const int j = __builtin_ctz(static_cast<unsigned>(m)) >> 1;
        const LaneBlock& blk = *blocks[kPairBlk[j]];
        const int lane = kPairLn[j];
        const stats::SlotDraws::Slot ev = kp.draws.chain_events(
            lane_terminal(blk, lane), t,
            static_cast<std::uint16_t>(ev_arr[j]) ^ 0x8000u,
            blk.t_call[lane], blk.t_move[lane]);
        called_arr[j] = ev.called ? -1 : 0;
        moved_arr[j] = ev.moved ? -1 : 0;
      }
      called =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(called_arr));
      moved =
          _mm256_load_si256(reinterpret_cast<const __m256i*>(moved_arr));
    }
    if constexpr (kTwoD) {
      // Lemire's multiply-shift: dir = (d16 * 6) >> 16 is one epu16 high
      // multiply, and the low product flags the halfwords that go to
      // refinement.  The axial steps come from the byte LUTs, unbiased
      // after the mask.
      __m256i dir = _mm256_mulhi_epu16(wd, six16);
      const __m256i refine = _mm256_and_si256(
          moved,
          _mm256_cmpeq_epi16(
              _mm256_and_si256(_mm256_mullo_epi16(wd, six16), not3_16),
              _mm256_setzero_si256()));
      const int refine_mask = _mm256_movemask_epi8(refine) & 0x55555555;
      if (refine_mask != 0) [[unlikely]] {
        alignas(32) std::int16_t dir_arr[16];
        _mm256_store_si256(reinterpret_cast<__m256i*>(dir_arr), dir);
        for (int m = refine_mask; m != 0; m &= m - 1) {
          const int j = __builtin_ctz(static_cast<unsigned>(m)) >> 1;
          const LaneBlock& blk = *blocks[kPairBlk[j]];
          dir_arr[j] = static_cast<std::int16_t>(kp.draws.refined_direction(
              lane_terminal(blk, kPairLn[j]), t));
        }
        dir = _mm256_load_si256(reinterpret_cast<const __m256i*>(dir_arr));
      }
      const __m256i dq = _mm256_sub_epi16(
          _mm256_and_si256(_mm256_shuffle_epi8(lutq, dir), ff16), one16);
      const __m256i dr = _mm256_sub_epi16(
          _mm256_and_si256(_mm256_shuffle_epi8(lutr, dir), ff16), one16);
      rel_q = _mm256_add_epi16(rel_q, _mm256_and_si256(moved, dq));
      rel_r = _mm256_add_epi16(rel_r, _mm256_and_si256(moved, dr));
    } else {
      const __m256i step = _mm256_sub_epi16(
          _mm256_slli_epi16(_mm256_and_si256(wd, one16), 1), one16);
      rel_q = _mm256_add_epi16(rel_q, _mm256_and_si256(moved, step));
    }
    move_count = _mm256_sub_epi16(move_count, moved);
    __m256i dist;
    if constexpr (kTwoD) {
      const __m256i s = _mm256_add_epi16(rel_q, rel_r);
      dist = _mm256_srli_epi16(
          _mm256_add_epi16(_mm256_add_epi16(_mm256_abs_epi16(rel_q),
                                            _mm256_abs_epi16(rel_r)),
                           _mm256_abs_epi16(s)),
          1);
    } else {
      dist = _mm256_abs_epi16(rel_q);
    }
    const __m256i upd = _mm256_cmpgt_epi16(dist, thr16);
    const __m256i rare = _mm256_or_si256(upd, called);
    const int rare_mask = _mm256_movemask_epi8(rare) & 0x55555555;
    if (rare_mask != 0) {
      alignas(32) std::int16_t dist_arr[16];
      alignas(32) std::int16_t called_arr[16];
      alignas(32) std::int16_t q_arr[16];
      alignas(32) std::int16_t r_arr[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(dist_arr), dist);
      _mm256_store_si256(reinterpret_cast<__m256i*>(called_arr), called);
      _mm256_store_si256(reinterpret_cast<__m256i*>(q_arr), rel_q);
      _mm256_store_si256(reinterpret_cast<__m256i*>(r_arr), rel_r);
      for (int m = rare_mask; m != 0; m &= m - 1) {
        const int j = __builtin_ctz(static_cast<unsigned>(m)) >> 1;
        const LaneBlock& blk = *blocks[kPairBlk[j]];
        const int lane = kPairLn[j];
        // rare_slot reads the lane's relative position from the block
        // arrays — sync the rare lanes before handing over.
        blk.rel_q[lane] = q_arr[j];
        blk.rel_r[lane] = r_arr[j];
        rare_slot(kp, blk, lane, t, called_arr[j] != 0, dist_arr[j]);
      }
      // Every rare lane ends with a reset relative position (see the
      // 8-lane kernel): patch the registers in place.
      rel_q = _mm256_andnot_si256(rare, rel_q);
      rel_r = _mm256_andnot_si256(rare, rel_r);
      dist = _mm256_andnot_si256(rare, dist);
    }
    if (vec_hist) {
      for (int d = 0; d < A.rd_stride; ++d) {
        hist[d] = _mm256_sub_epi16(hist[d],
                                   _mm256_cmpeq_epi16(dist, bucket[d]));
      }
    } else {
      alignas(32) std::int16_t d_arr[16];
      _mm256_store_si256(reinterpret_cast<__m256i*>(d_arr), dist);
      for (int j = 0; j < 16; ++j) {
        const LaneBlock& blk = *blocks[kPairBlk[j]];
        blk.rd_rows[kPairLn[j] * blk.rd_stride + d_arr[j]]++;
      }
    }
  };

  __m256i w0, w1, w2, w3;  // block A draws, group
  __m256i x0, x1, x2, x3;  // block A draws, group + 1
  __m256i c0, c1, c2, c3;  // block B draws, group
  __m256i d0, d1, d2, d3;  // block B draws, group + 1
  const auto quad_slot = [&](SimTime s) {
    const bool hiw = ((s >> 1) & 1) != 0;
    const __m256i eA = hiw ? w1 : w0;
    const __m256i eB = hiw ? c1 : c0;
    const __m256i dA = hiw ? w3 : w2;
    const __m256i dB = hiw ? c3 : c2;
    if ((s & 1) != 0) {
      slot_step(_mm256_xor_si256(pack_hi(eA, eB), bias16), pack_hi(dA, dB),
                s);
    } else {
      slot_step(_mm256_xor_si256(pack_lo(eA, eB), bias16), pack_lo(dA, dB),
                s);
    }
  };

  SimTime t = first;
  while (t <= last) {
    const SimTime chunk_last = std::min(last, t + (kPairFlushChunk - 1));
    move_count = _mm256_setzero_si256();
    if (vec_hist) {
      for (int d = 0; d < A.rd_stride; ++d) {
        hist[d] = _mm256_setzero_si256();
      }
    }
    // Head: enter the quad grid (at most three slots).
    if ((t & 3) != 0) {
      const std::uint64_t group = static_cast<std::uint64_t>(t) >> 2;
      philox8(key0, key1, group, tidA_lo, tidA_hi, w0, w1, w2, w3);
      philox8(key0, key1, group, tidB_lo, tidB_hi, c0, c1, c2, c3);
      for (; t <= chunk_last && (t & 3) != 0; ++t) quad_slot(t);
    }
    // Four independent Philox chains in flight (two counters x two
    // blocks) keep the multiplier pipe busy through the 10 rounds.
    for (; t + 7 <= chunk_last; t += 8) {
      const std::uint64_t group = static_cast<std::uint64_t>(t) >> 2;
      philox8(key0, key1, group, tidA_lo, tidA_hi, w0, w1, w2, w3);
      philox8(key0, key1, group + 1, tidA_lo, tidA_hi, x0, x1, x2,
              x3);
      philox8(key0, key1, group, tidB_lo, tidB_hi, c0, c1, c2, c3);
      philox8(key0, key1, group + 1, tidB_lo, tidB_hi, d0, d1, d2,
              d3);
      slot_step(_mm256_xor_si256(pack_lo(w0, c0), bias16), pack_lo(w2, c2),
                t);
      slot_step(_mm256_xor_si256(pack_hi(w0, c0), bias16), pack_hi(w2, c2),
                t + 1);
      slot_step(_mm256_xor_si256(pack_lo(w1, c1), bias16), pack_lo(w3, c3),
                t + 2);
      slot_step(_mm256_xor_si256(pack_hi(w1, c1), bias16), pack_hi(w3, c3),
                t + 3);
      slot_step(_mm256_xor_si256(pack_lo(x0, d0), bias16), pack_lo(x2, d2),
                t + 4);
      slot_step(_mm256_xor_si256(pack_hi(x0, d0), bias16), pack_hi(x2, d2),
                t + 5);
      slot_step(_mm256_xor_si256(pack_lo(x1, d1), bias16), pack_lo(x3, d3),
                t + 6);
      slot_step(_mm256_xor_si256(pack_hi(x1, d1), bias16), pack_hi(x3, d3),
                t + 7);
    }
    for (; t + 3 <= chunk_last; t += 4) {
      const std::uint64_t group = static_cast<std::uint64_t>(t) >> 2;
      philox8(key0, key1, group, tidA_lo, tidA_hi, w0, w1, w2, w3);
      philox8(key0, key1, group, tidB_lo, tidB_hi, c0, c1, c2, c3);
      slot_step(_mm256_xor_si256(pack_lo(w0, c0), bias16), pack_lo(w2, c2),
                t);
      slot_step(_mm256_xor_si256(pack_hi(w0, c0), bias16), pack_hi(w2, c2),
                t + 1);
      slot_step(_mm256_xor_si256(pack_lo(w1, c1), bias16), pack_lo(w3, c3),
                t + 2);
      slot_step(_mm256_xor_si256(pack_hi(w1, c1), bias16), pack_hi(w3, c3),
                t + 3);
    }
    // Tail: a partial quad (chunk or segment end).
    if (t <= chunk_last) {
      const std::uint64_t group = static_cast<std::uint64_t>(t) >> 2;
      philox8(key0, key1, group, tidA_lo, tidA_hi, w0, w1, w2, w3);
      philox8(key0, key1, group, tidB_lo, tidB_hi, c0, c1, c2, c3);
      for (; t <= chunk_last; ++t) quad_slot(t);
    }
    // Flush the packed int16 accumulators into the per-lane rows.
    alignas(32) std::int16_t lane_arr[16];
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_arr), move_count);
    for (int j = 0; j < 16; ++j) {
      blocks[kPairBlk[j]]->moves[kPairLn[j]] += lane_arr[j];
    }
    if (vec_hist) {
      for (int d = 0; d < A.rd_stride; ++d) {
        _mm256_store_si256(reinterpret_cast<__m256i*>(lane_arr), hist[d]);
        for (int j = 0; j < 16; ++j) {
          const LaneBlock& blk = *blocks[kPairBlk[j]];
          blk.rd_rows[kPairLn[j] * blk.rd_stride + d] += lane_arr[j];
        }
      }
    }
  }
  alignas(32) std::int16_t q_arr[16];
  alignas(32) std::int16_t r_arr[16];
  _mm256_store_si256(reinterpret_cast<__m256i*>(q_arr), rel_q);
  _mm256_store_si256(reinterpret_cast<__m256i*>(r_arr), rel_r);
  for (int j = 0; j < 16; ++j) {
    const LaneBlock& blk = *blocks[kPairBlk[j]];
    blk.rel_q[kPairLn[j]] = q_arr[j];
    blk.rel_r[kPairLn[j]] = r_arr[j];
  }
}

}  // namespace

void run_block_avx2(const KernelParams& kp, const LaneBlock& block,
                    bool two_d, bool chain, SimTime first, SimTime last) {
  if (two_d && chain) {
    run_block_impl<true, true>(kp, block, first, last);
  } else if (two_d) {
    run_block_impl<true, false>(kp, block, first, last);
  } else if (chain) {
    run_block_impl<false, true>(kp, block, first, last);
  } else {
    run_block_impl<false, false>(kp, block, first, last);
  }
}

void run_block_pair_avx2(const KernelParams& kp, const LaneBlock& a,
                         const LaneBlock& b, bool two_d, SimTime first,
                         SimTime last) {
  if (two_d) {
    run_pair_impl<true>(kp, a, b, first, last);
  } else {
    run_pair_impl<false>(kp, a, b, first, last);
  }
}

}  // namespace pcn::sim::simd_detail

#endif  // PCN_HAVE_AVX2_KERNEL
