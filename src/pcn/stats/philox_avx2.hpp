// Philox4x32-10 eight lanes per instruction (AVX2).
//
// The lane image of stats::philox4x32 (counter_rng.hpp): lane i of the
// outputs equals philox4x32(key0, key1, lo(counter), hi(counter),
// stream_lo[i], stream_hi[i]), i.e. CounterRng::block(stream, counter)
// for that lane's stream.  Shared by every AVX2 walker: the simulator's
// lane kernels (sim/simd_kernel_avx2.cpp) and the closed-loop load
// generator's walk (daemon/load_gen_avx2.cpp).
//
// Include this header only from translation units compiled with -mavx2
// (src/CMakeLists.txt adds them under PCN_HAVE_AVX2_KERNEL) and reached
// only after a runtime cpuid check, so no AVX2 encoding leaks into code
// that runs on older CPUs.
#pragma once

#ifndef __AVX2__
#error "philox_avx2.hpp needs an -mavx2 translation unit"
#endif

#include <immintrin.h>

#include <cstdint>

#include "pcn/stats/counter_rng.hpp"

namespace pcn::stats::avx2 {

/// Per-lane 32x32 -> hi/lo 32-bit products (pmuludq on the even and
/// odd lanes, recombined).
inline void mulhilo_epu32(__m256i a, __m256i m, __m256i& hi, __m256i& lo) {
  const __m256i even = _mm256_mul_epu32(a, m);
  const __m256i odd = _mm256_mul_epu32(_mm256_srli_epi64(a, 32), m);
  lo = _mm256_blend_epi32(even, _mm256_slli_epi64(odd, 32), 0xAA);
  hi = _mm256_blend_epi32(_mm256_srli_epi64(even, 32), odd, 0xAA);
}

/// Eight Philox4x32-10 blocks: counter = (`counter`, stream lane), one
/// lane per stream (the stream's low and high words in `stream_lo` and
/// `stream_hi`).
inline void philox8(std::uint32_t key0, std::uint32_t key1,
                    std::uint64_t counter, __m256i stream_lo,
                    __m256i stream_hi, __m256i& w0, __m256i& w1, __m256i& w2,
                    __m256i& w3) {
  using namespace philox_detail;
  const __m256i m0 = _mm256_set1_epi32(static_cast<int>(kMul0));
  const __m256i m1 = _mm256_set1_epi32(static_cast<int>(kMul1));
  const __m256i weyl0 = _mm256_set1_epi32(static_cast<int>(kWeyl0));
  const __m256i weyl1 = _mm256_set1_epi32(static_cast<int>(kWeyl1));
  __m256i c0 = _mm256_set1_epi32(static_cast<int>(
      static_cast<std::uint32_t>(counter)));
  __m256i c1 = _mm256_set1_epi32(static_cast<int>(
      static_cast<std::uint32_t>(counter >> 32)));
  __m256i c2 = stream_lo;
  __m256i c3 = stream_hi;
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

}  // namespace pcn::stats::avx2
