// Deterministic trace replay.
//
// ScriptedMobility replays a recorded slot-by-slot trajectory (a
// terminal's position() read after each run(1) step) through the
// MobilityModel interface: the slot loop draws its move event with
// probability 1 exactly when the script changes cells, and the move
// target is the scripted cell.  This lets one captured mobility trace be
// re-run under different update/paging policies for like-for-like
// comparisons.
//
// Replay dictates moves deterministically, so it must run under
// SlotSemantics::kIndependent (chain-faithful semantics suppresses the
// move when a call fires in the same slot, which would desynchronize the
// script).  After the script ends the terminal stays put.
#pragma once

#include <vector>

#include "pcn/sim/mobility.hpp"

namespace pcn::trace {

class ScriptedMobility final : public sim::MobilityModel {
 public:
  /// `start_cell` is the terminal's attach position (its TerminalSpec
  /// start); `positions[k]` is its cell at the end of slot `start + k`
  /// (slots are 1-based in Network::run, so start defaults to 1).
  /// Consecutive positions — including start_cell -> positions[0] — must
  /// be equal or neighboring cells.
  ScriptedMobility(Dimension dim, geometry::Cell start_cell,
                   std::vector<geometry::Cell> positions,
                   sim::SimTime start = 1);

  double move_probability(sim::SimTime now) const override;
  geometry::Cell move_target(geometry::Cell from, sim::SimTime now,
                             int neighbor) const override;
  std::string name() const override;

  sim::SimTime script_length() const {
    return static_cast<sim::SimTime>(positions_.size());
  }

 private:
  /// Scripted positions at the end of slots `now` and `now - 1` (clamped
  /// to the script boundaries).
  geometry::Cell position_at(sim::SimTime now) const;

  Dimension dim_;
  geometry::Cell start_cell_;
  std::vector<geometry::Cell> positions_;
  sim::SimTime start_;
};

}  // namespace pcn::trace
