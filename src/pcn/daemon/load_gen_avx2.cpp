// AVX2 walk for the closed-loop generator: eight terminals per
// instruction.  Compiled in its own TU with -mavx2 (src/CMakeLists.txt)
// and picked only after sim::simd_support() saw cpuid report AVX2.
//
// The integer-for-integer image of walk_portable (load_gen.cpp): the
// Philox block of each lane's (terminal, slot), the unsigned strict move
// and call compares (sign-bias-flipped into signed greater-than), the
// direction word 1 % 6 through an exact multiply-high by 0xAAAAAAAB and
// a cross-lane permute of the direction table, one conditional add/sub
// of the region per coordinate, and the ring distance
// max(|oq|, |or|, |oq + or|).  Only lanes that update or page leave the
// vector path, as event words.
#include "pcn/daemon/load_gen_walk.hpp"

#if PCN_HAVE_AVX2_KERNEL

#include <immintrin.h>

#include "pcn/stats/philox_avx2.hpp"

namespace pcn::daemon::load_gen_detail {

namespace {

inline __m256i load8(const void* p) {
  return _mm256_loadu_si256(static_cast<const __m256i*>(p));
}

inline void store8(void* p, __m256i v) {
  _mm256_storeu_si256(static_cast<__m256i*>(p), v);
}

/// Wraps coordinates in [-1, region] back into [0, region).
inline __m256i wrap(__m256i x, __m256i region, __m256i region_less1) {
  x = _mm256_add_epi32(
      x, _mm256_and_si256(_mm256_cmpgt_epi32(_mm256_setzero_si256(), x),
                          region));
  return _mm256_sub_epi32(
      x, _mm256_and_si256(_mm256_cmpgt_epi32(x, region_less1), region));
}

inline unsigned lane_mask(__m256i v) {
  return static_cast<unsigned>(_mm256_movemask_ps(_mm256_castsi256_ps(v)));
}

}  // namespace

std::size_t walk_avx2(const WalkParams& p, const WalkLanes& s,
                      std::int64_t slot, std::size_t begin, std::size_t end,
                      std::uint32_t* events) {
  const __m256i bias = _mm256_set1_epi32(static_cast<int>(0x80000000u));
  // Thresholds pre-flipped so "word < threshold" (unsigned) becomes a
  // signed greater-than against the flipped word.
  const __m256i t_move =
      _mm256_set1_epi32(static_cast<int>(p.t_move ^ 0x80000000u));
  const __m256i t_call =
      _mm256_set1_epi32(static_cast<int>(p.t_call ^ 0x80000000u));
  const __m256i thr_less1 = _mm256_set1_epi32(p.threshold - 1);
  const __m256i region = _mm256_set1_epi32(p.region);
  const __m256i region_less1 = _mm256_set1_epi32(p.region - 1);
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i in_flight = _mm256_set1_epi32(kInFlight);
  // floor(w / 6) = mulhi(w, 0xAAAAAAAB) >> 2 for every 32-bit w.
  const __m256i inv6 = _mm256_set1_epi32(static_cast<int>(0xAAAAAAABu));
  const __m256i dir_q = load8(p.dir_q);
  const __m256i dir_r = load8(p.dir_r);
  const auto stride = static_cast<std::uint32_t>(s.stride);
  // Low stream words of lanes 0..7 relative to lane 0 (mod 2^32).
  const __m256i lane_ids = _mm256_mullo_epi32(
      _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7),
      _mm256_set1_epi32(static_cast<int>(stride)));
  const auto counter = static_cast<std::uint64_t>(slot);

  std::size_t n = 0;
  for (std::size_t i = begin; i < end; i += kWalkLanes) {
    const std::uint64_t t0 = s.first + i * s.stride;
    const __m256i tid_lo = _mm256_add_epi32(
        _mm256_set1_epi32(static_cast<int>(static_cast<std::uint32_t>(t0))),
        lane_ids);
    __m256i tid_hi = _mm256_setzero_si256();
    if (p.wide_ids) {
      alignas(32) std::uint32_t hi[kWalkLanes];
      for (std::size_t lane = 0; lane < kWalkLanes; ++lane) {
        hi[lane] = static_cast<std::uint32_t>((t0 + lane * s.stride) >> 32);
      }
      tid_hi = load8(hi);
    }
    __m256i w0;
    __m256i w1;
    __m256i w2;
    __m256i w3;
    stats::avx2::philox8(p.rng.key_lo(), p.rng.key_hi(), counter, tid_lo,
                         tid_hi, w0, w1, w2, w3);

    const __m256i moved =
        _mm256_cmpgt_epi32(t_move, _mm256_xor_si256(w0, bias));
    __m256i oq = load8(s.off_q + i);
    __m256i dist;
    __m256i update;
    if (p.two_d) {
      __m256i hi;
      __m256i lo;
      stats::avx2::mulhilo_epu32(w1, inv6, hi, lo);
      const __m256i quot = _mm256_srli_epi32(hi, 2);
      const __m256i k = _mm256_sub_epi32(
          w1, _mm256_add_epi32(_mm256_slli_epi32(quot, 2),
                               _mm256_slli_epi32(quot, 1)));
      const __m256i dq =
          _mm256_and_si256(moved, _mm256_permutevar8x32_epi32(dir_q, k));
      const __m256i dr =
          _mm256_and_si256(moved, _mm256_permutevar8x32_epi32(dir_r, k));
      store8(s.pos_q + i,
             wrap(_mm256_add_epi32(load8(s.pos_q + i), dq), region,
                  region_less1));
      store8(s.pos_r + i,
             wrap(_mm256_add_epi32(load8(s.pos_r + i), dr), region,
                  region_less1));
      oq = _mm256_add_epi32(oq, dq);
      const __m256i orr = _mm256_add_epi32(load8(s.off_r + i), dr);
      dist = _mm256_max_epi32(
          _mm256_max_epi32(_mm256_abs_epi32(oq), _mm256_abs_epi32(orr)),
          _mm256_abs_epi32(_mm256_add_epi32(oq, orr)));
      update = _mm256_cmpgt_epi32(dist, thr_less1);
      store8(s.off_r + i, _mm256_andnot_si256(update, orr));
    } else {
      const __m256i dq = _mm256_and_si256(
          moved, _mm256_sub_epi32(
                     _mm256_slli_epi32(_mm256_and_si256(w1, one), 1), one));
      store8(s.pos_q + i,
             wrap(_mm256_add_epi32(load8(s.pos_q + i), dq), region,
                  region_less1));
      oq = _mm256_add_epi32(oq, dq);
      dist = _mm256_abs_epi32(oq);
      update = _mm256_cmpgt_epi32(dist, thr_less1);
    }
    store8(s.off_q + i, _mm256_andnot_si256(update, oq));

    const __m256i flight = _mm256_cvtepu8_epi32(_mm_loadl_epi64(
        reinterpret_cast<const __m128i*>(s.in_flight + i)));
    const __m256i call = _mm256_andnot_si256(
        _mm256_cmpeq_epi32(flight, in_flight),
        _mm256_cmpgt_epi32(t_call, _mm256_xor_si256(w2, bias)));

    const unsigned update_bits = lane_mask(update);
    const unsigned call_bits = lane_mask(call);
    unsigned emit = update_bits | call_bits;
    if (i + kWalkLanes > s.count) {
      emit &= (1u << (s.count - i)) - 1u;  // padding lanes never emit
    }
    while (emit != 0) {
      const int lane = __builtin_ctz(emit);
      emit &= emit - 1;
      const std::size_t index = i + static_cast<unsigned>(lane) - begin;
      events[n++] = static_cast<std::uint32_t>(index) << 2 |
                    ((update_bits >> lane) & 1u) * kEmitUpdate |
                    ((call_bits >> lane) & 1u) * kEmitPage;
    }
  }
  return n;
}

}  // namespace pcn::daemon::load_gen_detail

#endif  // PCN_HAVE_AVX2_KERNEL
