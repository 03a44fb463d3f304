// Counter-based random streams and the simulator's slot-draw contract.
//
// Implements Philox4x32-10 (Salmon, Moraes, Dror & Shaw, "Parallel random
// numbers: as easy as 1, 2, 3", SC'11 — the Random123 generator): a keyed
// bijection from a 128-bit counter to 128 bits of output.  Unlike the
// sequential xoshiro streams in rng.hpp, a counter-based draw is a pure
// function of (key, stream, counter), so SIMD lanes need no per-lane
// mutable state and any (terminal, slot) pair can be evaluated in any
// order.
//
// The round function is ten rounds of
//
//   (c0,c1,c2,c3) <- (hi(M1*c2)^c1^k0, lo(M1*c2), hi(M0*c0)^c3^k1, lo(M0*c0))
//
// with the key bumped by the Weyl constants between rounds; the
// implementation is verified against the published Random123 known-answer
// vectors in tests/stats/test_counter_rng.cpp.
//
// On top of the generator sits SlotDraws, the one draw contract every
// simulator walker follows: the reference engine (sim/network.cpp) and
// the lane kernels (sim/simd_kernel*.{hpp,cpp}) decide each terminal's
// call, move and neighbour in each slot from the same function of (seed,
// terminal id, slot), so the two engines are bit-identical.
//
// Everything is header-inline: the kernels evaluate one block per
// (terminal, slot group) on the hot path, and the scalar form must compile
// down to straight-line integer code so the portable fallback and the AVX2
// kernel produce bit-identical words.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>

#include "pcn/stats/rng.hpp"

namespace pcn::stats {

/// One Philox output block: four uniform 32-bit words.
using PhiloxWords = std::array<std::uint32_t, 4>;

namespace philox_detail {

inline constexpr std::uint32_t kMul0 = 0xD2511F53u;
inline constexpr std::uint32_t kMul1 = 0xCD9E8D57u;
inline constexpr std::uint32_t kWeyl0 = 0x9E3779B9u;
inline constexpr std::uint32_t kWeyl1 = 0xBB67AE85u;
inline constexpr int kRounds = 10;

}  // namespace philox_detail

/// The raw keyed bijection: counter words (c0..c3) -> output words under
/// key (key0, key1).  Exposed so the vector kernels can replicate the
/// exact same arithmetic lane-wise.
inline PhiloxWords philox4x32(std::uint32_t key0, std::uint32_t key1,
                              std::uint32_t c0, std::uint32_t c1,
                              std::uint32_t c2, std::uint32_t c3) {
  using namespace philox_detail;
  for (int round = 0; round < kRounds; ++round) {
    const std::uint64_t p0 = std::uint64_t{kMul0} * c0;
    const std::uint64_t p1 = std::uint64_t{kMul1} * c2;
    const std::uint32_t n0 = static_cast<std::uint32_t>(p1 >> 32) ^ c1 ^ key0;
    const std::uint32_t n1 = static_cast<std::uint32_t>(p1);
    const std::uint32_t n2 = static_cast<std::uint32_t>(p0 >> 32) ^ c3 ^ key1;
    const std::uint32_t n3 = static_cast<std::uint32_t>(p0);
    c0 = n0;
    c1 = n1;
    c2 = n2;
    c3 = n3;
    key0 += kWeyl0;
    key1 += kWeyl1;
  }
  return {c0, c1, c2, c3};
}

/// The threshold of a certain event (p >= 1); see event_below.
inline constexpr std::uint32_t kCertain = 0xFFFFFFFFu;

/// Fixed-point event threshold: for a uniform 32-bit word w,
/// P(w < threshold32(p)) approximates p with error below 2^-32 (the
/// nearest representable probability).  p >= 1 maps to kCertain, and
/// every p < 1 stays strictly below it, so event_below can make p = 1
/// exact.  The simulator compares event words against these thresholds
/// instead of converting to double, keeping the hot path pure integer.
inline std::uint32_t threshold32(double p) {
  if (p <= 0.0) return 0;
  if (p >= 1.0) return kCertain;
  const auto scaled =
      static_cast<std::uint64_t>(std::llround(p * 4294967296.0));
  return scaled >= kCertain ? kCertain - 1
                            : static_cast<std::uint32_t>(scaled);
}

/// The event test for a uniform word against a threshold32 threshold:
/// w < threshold, except that kCertain (p = 1) always fires.
inline bool event_below(std::uint32_t w, std::uint32_t threshold) {
  return w < threshold || threshold == kCertain;
}

/// A keyed family of stateless uniform streams.  `stream` indexes an
/// independent substream (e.g. a terminal id), `counter` a position within
/// it (e.g. a slot); every (stream, counter) block is independent of every
/// other, and reading them in any order — or not at all — changes nothing.
class CounterRng {
 public:
  /// Keys the family directly with a 64-bit key.
  explicit CounterRng(std::uint64_t key)
      : key0_(static_cast<std::uint32_t>(key)),
        key1_(static_cast<std::uint32_t>(key >> 32)) {}

  /// Keys the family from a seed and a purpose salt through the shared
  /// seed_from helper, so callers (the simulator, tests) never collide
  /// with the sequential Rng streams derived from the same seed.
  static CounterRng keyed(std::uint64_t seed, std::uint64_t salt) {
    return CounterRng(rng_detail::seed_from(seed, salt));
  }

  std::uint64_t key() const {
    return key0_ | (std::uint64_t{key1_} << 32);
  }
  std::uint32_t key_lo() const { return key0_; }
  std::uint32_t key_hi() const { return key1_; }

  /// The four uniform words at (stream, counter).  The counter fills
  /// words 0–1, the stream words 2–3, matching the simd kernel layout.
  PhiloxWords block(std::uint64_t stream, std::uint64_t counter) const {
    return philox4x32(key0_, key1_, static_cast<std::uint32_t>(counter),
                      static_cast<std::uint32_t>(counter >> 32),
                      static_cast<std::uint32_t>(stream),
                      static_cast<std::uint32_t>(stream >> 32));
  }

  /// One uniform 64-bit value at (stream, counter) (words 0–1 packed).
  std::uint64_t next64(std::uint64_t stream, std::uint64_t counter) const {
    const PhiloxWords w = block(stream, counter);
    return w[0] | (std::uint64_t{w[1]} << 32);
  }

  /// Uniform double in [0, 1) at (stream, counter) — 53 high bits, the
  /// same mapping Rng::next_unit uses.
  double unit(std::uint64_t stream, std::uint64_t counter) const {
    return static_cast<double>(next64(stream, counter) >> 11) * 0x1.0p-53;
  }

  /// Derives an independently-keyed child family (nonlinear in `salt`,
  /// mirroring Rng::split's salt mixing, so derived keys do not alias the
  /// linear seed_from walk).
  CounterRng derive(std::uint64_t salt) const {
    return CounterRng(rng_detail::mix64(
        key() ^ (salt * 0x9e3779b97f4a7c15ULL + 0x853c49e6748fea9bULL)));
  }

 private:
  std::uint32_t key0_ = 0;
  std::uint32_t key1_ = 0;
};

/// The simulator's slot-draw contract: one exact mapping from (seed,
/// terminal id, slot) to the slot's call, move and neighbour decisions,
/// shared verbatim by the reference engine and every lane kernel.
///
/// Key.  Philox keyed by seed_from(seed, kKeySalt); the stream words
/// carry the terminal id, the counter words the slot.
///
/// Events.  `t_call` = threshold32(c); `t_move` = threshold32(c + q)
/// under chain-faithful semantics (one draw: call below t_call, else a
/// move below t_move) and threshold32(q) under independent semantics.
///   * Chain-faithful: block (slot >> 2) serves four slots.  Slot t reads
///     the event halfword (t & 1) of word (t >> 1) & 1 and the direction
///     halfword at the same position of word 2 + ((t >> 1) & 1).  The
///     event halfword is compared with the thresholds' high halves; on a
///     tie (probability <= 2^-15) the low 16 bits come from refine16,
///     reconstructing an exact 32-bit draw.
///   * Independent: block (slot) serves one slot: word 0 is the move
///     word, word 1 the call word, word 2 the direction word.
///   An event fires when event_below(draw, threshold).
///
/// Direction.  In 1-D the neighbour is bit 0 of the direction draw (0 =
/// q - 1, 1 = q + 1).  In 2-D it is Lemire's multiply-shift on the
/// direction draw d of k = 16 (chain) or 32 (independent) bits: the
/// neighbour is (6d) >> k unless the low k bits of 6d fall below
/// 2^k mod 6 = 4.  Those 4 values go to refinement, which leaves each of
/// the 6 neighbours exactly (2^k - 4) / 6 accepted values; the refined
/// neighbour is the first accepted 32-bit multiply-shift among words 1–3
/// of refinement block 0, then words 0–3 of blocks 1, 2, ...  Only a
/// moving slot reads its direction.
///
/// Counter domains (the top bits of counter word c1, so slots must stay
/// below 2^48): slot blocks have bit 31 clear, refinement block k is
/// (slot, 2^31 | k << 16), and the update-loss draw is word 0 of
/// (slot, 2^30).  The domains never overlap, so adding a refinement or a
/// loss draw never shifts any other draw.
class SlotDraws {
 public:
  /// Salt ("pcn-simd") separating the simulator's key from every other
  /// stream derived from the network seed.
  static constexpr std::uint64_t kKeySalt = 0x70636e2d73696d64ULL;
  static constexpr std::uint32_t kRefineDomain = 0x80000000u;
  static constexpr std::uint32_t kLossDomain = 0x40000000u;

  /// One slot's decisions.  `neighbor` indexes cell_neighbors order and
  /// is meaningful only when `moved`.
  struct Slot {
    bool called = false;
    bool moved = false;
    int neighbor = 0;
  };

  explicit SlotDraws(std::uint64_t seed)
      : rng_(CounterRng::keyed(seed, kKeySalt)) {}

  std::uint32_t key_lo() const { return rng_.key_lo(); }
  std::uint32_t key_hi() const { return rng_.key_hi(); }

  /// The slot block serving `slot`: counter slot >> 2 (chain) or slot.
  PhiloxWords slot_block(std::uint64_t terminal, std::int64_t slot,
                         bool chain) const {
    const auto t = static_cast<std::uint64_t>(slot);
    return rng_.block(terminal, chain ? t >> 2 : t);
  }

  /// Refinement block k of `slot`.
  PhiloxWords refine_block(std::uint64_t terminal, std::int64_t slot,
                           std::uint32_t k) const {
    return rng_.block(terminal, static_cast<std::uint64_t>(slot) |
                                    std::uint64_t{kRefineDomain | k << 16}
                                        << 32);
  }

  /// The low 16 bits of a chain slot's tied event draw.
  std::uint32_t refine16(std::uint64_t terminal, std::int64_t slot) const {
    return refine_block(terminal, slot, 0)[0] & 0xFFFFu;
  }

  /// Lemire's multiply-shift of a 16-bit (chain) or 32-bit (independent)
  /// direction draw onto the 6 hex neighbours, or -1 when the draw is one
  /// of the 4 that go to refinement.
  static int direction16(std::uint32_t d16) {
    const std::uint32_t m = d16 * 6u;
    return (m & 0xFFFFu) < 4u ? -1 : static_cast<int>(m >> 16);
  }
  static int direction32(std::uint32_t d32) {
    const std::uint64_t m = std::uint64_t{d32} * 6u;
    return static_cast<std::uint32_t>(m) < 4u ? -1
                                              : static_cast<int>(m >> 32);
  }

  /// The neighbour a direction draw selects: bit 0 in 1-D, Lemire's
  /// multiply-shift in 2-D (-1: the draw goes to refinement).
  static int neighbor_of(std::uint32_t dir_draw, bool chain, bool two_d) {
    if (!two_d) return static_cast<int>(dir_draw & 1u);
    return chain ? direction16(dir_draw) : direction32(dir_draw);
  }

  /// The refined hex neighbour of `slot`.
  int refined_direction(std::uint64_t terminal, std::int64_t slot) const {
    for (std::uint32_t k = 0;; ++k) {
      const PhiloxWords w = refine_block(terminal, slot, k);
      for (std::size_t i = k == 0 ? 1 : 0; i < w.size(); ++i) {
        const int dir = direction32(w[i]);
        if (dir >= 0) return dir;
      }
    }
  }

  /// Chain-faithful call/move decision from the slot's event halfword.
  Slot chain_events(std::uint64_t terminal, std::int64_t slot,
                    std::uint32_t e16, std::uint32_t t_call,
                    std::uint32_t t_move) const {
    Slot out;
    if (e16 == t_call >> 16 || e16 == t_move >> 16) {
      const std::uint32_t x = (e16 << 16) | refine16(terminal, slot);
      out.called = event_below(x, t_call);
      out.moved = !out.called && event_below(x, t_move);
    } else {
      out.called = e16 < t_call >> 16;
      out.moved = !out.called && e16 < t_move >> 16;
    }
    return out;
  }

  /// Every decision of one (terminal, slot) — the scalar form of the
  /// contract the reference engine runs.
  Slot draw(std::uint64_t terminal, std::int64_t slot, bool chain,
            bool two_d, std::uint32_t t_call, std::uint32_t t_move) const {
    const PhiloxWords w = slot_block(terminal, slot, chain);
    Slot out;
    std::uint32_t dir_draw;
    if (chain) {
      const auto word = static_cast<std::size_t>((slot >> 1) & 1);
      const auto shift = static_cast<unsigned>((slot & 1) * 16);
      out = chain_events(terminal, slot, (w[word] >> shift) & 0xFFFFu,
                         t_call, t_move);
      dir_draw = (w[2 + word] >> shift) & 0xFFFFu;
    } else {
      out.moved = event_below(w[0], t_move);
      out.called = event_below(w[1], t_call);
      dir_draw = w[2];
    }
    if (out.moved) {
      out.neighbor = neighbor_of(dir_draw, chain, two_d);
      if (out.neighbor < 0) out.neighbor = refined_direction(terminal, slot);
    }
    return out;
  }

  /// Whether the location update `terminal` sends in `slot` is lost, for
  /// t_loss = threshold32(loss probability).
  bool update_lost(std::uint64_t terminal, std::int64_t slot,
                   std::uint32_t t_loss) const {
    const auto counter = static_cast<std::uint64_t>(slot) |
                         std::uint64_t{kLossDomain} << 32;
    return event_below(rng_.block(terminal, counter)[0], t_loss);
  }

 private:
  CounterRng rng_;
};

}  // namespace pcn::stats
