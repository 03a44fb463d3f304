// The closed-loop generator's per-slot walk (load_gen.hpp), as a kernel
// over one terminal shard's flat arrays.
//
// A walk advances lanes [begin, end) of a shard by one slot: it draws
// the lane's Philox block (stream = terminal id, counter = slot), moves
// the terminal with probability q to a uniformly drawn neighbour, and
// decides whether it must report its position (distance from the last
// report >= d) and whether a call arrives (idle terminal, probability
// c).  It does not talk to the daemon: it writes one event word per lane
// that updates or pages, in increasing lane index, and the generator
// turns those into RequestSink calls.  So the walk is a pure function of
// (arrays, slot), and two walks agree exactly when they agree word for
// word on every lane:
//
//   * walk_portable — scalar, built into every binary;
//   * walk_avx2     — the same arithmetic eight lanes per instruction
//     (load_gen_avx2.cpp, compiled with -mavx2 and picked only when
//     sim::simd_support() reports AVX2).
#pragma once

#include <cstddef>
#include <cstdint>

#include "pcn/stats/counter_rng.hpp"

namespace pcn::daemon::load_gen_detail {

/// Lanes per AVX2 step; every shard's hot arrays are padded to a
/// multiple of it.
inline constexpr std::size_t kWalkLanes = 8;

/// In-flight byte of a terminal with a page outstanding: it takes no
/// call until the verdict arrives.
inline constexpr std::uint8_t kInFlight = 1;

/// Event word: (lane index - begin) << 2 | kEmitUpdate | kEmitPage.
inline constexpr std::uint32_t kEmitUpdate = 1;
inline constexpr std::uint32_t kEmitPage = 2;

/// Fleet-wide walk constants, fixed at construction.
struct WalkParams {
  stats::CounterRng rng{0};
  /// Event thresholds: the terminal moves iff word 0 < t_move and a call
  /// arrives iff word 2 < t_call (unsigned, strict).
  std::uint32_t t_move = 0;
  std::uint32_t t_call = 0;
  std::int32_t threshold = 1;  ///< update distance d
  std::int32_t region = 1;     ///< torus width
  bool two_d = true;
  /// Some terminal id needs the high stream word (more than 2^32
  /// terminals); otherwise the AVX2 walk leaves it zero.
  bool wide_ids = false;
  /// Direction k = word 1 % 6 steps by (dir_q[k], dir_r[k]), in
  /// hex_directions() order, padded to a full 8-lane permute; in 1-D bit
  /// 0 of word 1 picks +1 or -1.
  std::int32_t dir_q[kWalkLanes] = {};
  std::int32_t dir_r[kWalkLanes] = {};
};

/// One terminal shard's walk state: lane i is terminal first + i * stride.
/// The hot arrays hold padded_lanes(count) lanes; lanes at or past `count`
/// are padding, walked but never emitted.
struct WalkLanes {
  std::int32_t* pos_q;  ///< wrapped position, in [0, region)
  std::int32_t* pos_r;  ///< 0 in 1-D
  std::int32_t* off_q;  ///< offset from the last report; reset on update
  std::int32_t* off_r;
  const std::uint8_t* in_flight;
  std::size_t count;
  std::uint64_t first;
  std::uint64_t stride;
};

/// Rounds a lane count up to whole AVX2 steps.
inline std::size_t padded_lanes(std::size_t count) {
  return (count + kWalkLanes - 1) / kWalkLanes * kWalkLanes;
}

/// Advances lanes [begin, end) by slot `slot` and writes one event word
/// per lane that updates or pages to `events`, in increasing index;
/// returns the number written.  `begin` is a multiple of kWalkLanes and
/// `end` at most the padded lane count.
using WalkFn = std::size_t (*)(const WalkParams& params,
                               const WalkLanes& lanes, std::int64_t slot,
                               std::size_t begin, std::size_t end,
                               std::uint32_t* events);

std::size_t walk_portable(const WalkParams& params, const WalkLanes& lanes,
                          std::int64_t slot, std::size_t begin,
                          std::size_t end, std::uint32_t* events);

#if PCN_HAVE_AVX2_KERNEL
std::size_t walk_avx2(const WalkParams& params, const WalkLanes& lanes,
                      std::int64_t slot, std::size_t begin, std::size_t end,
                      std::uint32_t* events);
#endif

}  // namespace pcn::daemon::load_gen_detail
