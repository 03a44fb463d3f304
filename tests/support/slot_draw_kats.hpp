// Known answers of the simulator's slot-draw contract (stats::SlotDraws):
// (seed, terminal, slot, semantics, geometry, c, q) -> (called, moved,
// neighbor).  The reference engine's step (SlotDraws::draw,
// tests/stats/test_counter_rng.cpp) and every lane kernel
// (tests/sim/test_simd_engine.cpp) must reproduce each row.  The rows
// cover plain slots and each exact path of the contract: chain-faithful
// event ties resolved by refine16, 16-bit direction draws Lemire's map
// sends to refinement, a 32-bit one under independent semantics, and the
// certain move of q = 1.
#pragma once

#include <cstdint>

#include "pcn/stats/counter_rng.hpp"

namespace pcn::proptest {

struct SlotDrawKat {
  const char* what;
  std::uint64_t terminal;
  std::int64_t slot;
  bool chain;
  bool two_d;
  double c;
  double q;
  bool called;
  bool moved;
  int neighbor;  ///< meaningful when moved

  std::uint32_t t_call() const { return stats::threshold32(c); }
  std::uint32_t t_move() const {
    return stats::threshold32(chain ? c + q : q);
  }
};

inline constexpr std::uint64_t kKatSeed = 2026;

inline constexpr SlotDrawKat kSlotDrawKats[] = {
    {"chain 2-D, halfword 0 of word 1", 3, 10, true, true, 0.1, 0.6, false,
     true, 4},
    {"chain 2-D, halfword 1 of word 1", 3, 11, true, true, 0.1, 0.6, false,
     true, 5},
    {"chain 2-D, idle slot", 3, 12, true, true, 0.1, 0.6, false, false, 0},
    {"chain 2-D, halfword 1 of word 0", 3, 13, true, true, 0.1, 0.6, false,
     true, 1},
    {"chain 1-D", 6, 9, true, false, 0.1, 0.6, false, true, 0},
    {"independent 2-D, call", 5, 7, false, true, 0.3, 0.5, true, false, 0},
    {"independent 1-D, call", 5, 8, false, false, 0.3, 0.5, true, false, 0},
    {"chain direction halfword 32768 refined", 0, 9941, true, true, 0.1, 0.8,
     false, true, 1},
    {"chain direction halfword 43691 refined", 0, 44759, true, true, 0.1,
     0.8, false, true, 2},
    {"chain event tie on t_move, refined to idle", 0, 65292, true, true, 0.1,
     0.6, false, false, 0},
    {"chain event tie on t_move, refined to a move", 1, 61808, true, true,
     0.1, 0.6, false, true, 2},
    {"independent direction word 0 refined, certain move", 11, 6574932,
     false, true, 0.0, 1.0, false, true, 3},
};

}  // namespace pcn::proptest
