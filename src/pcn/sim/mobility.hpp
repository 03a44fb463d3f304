// Terminal mobility models (paper §2.1).
//
// The paper's model is a slotted random walk: with probability q the
// terminal moves to a uniformly chosen neighboring cell, otherwise it
// stays.  `PhasedRandomWalk` extends this with piecewise-constant q(t)
// (e.g. commute vs. office hours) to exercise the adaptive per-user
// controller the paper's §8 points at.
//
// A model draws nothing itself: the slot loop decides whether the terminal
// moves (with move_probability) and which neighbor it drew, both from the
// simulator's slot-draw contract (stats::SlotDraws), and the model maps
// that neighbor index to the destination cell.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "pcn/geometry/cell.hpp"
#include "pcn/sim/sim_time.hpp"

namespace pcn::sim {

/// Decides, once per slot, whether and where the terminal moves.
class MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// Per-slot movement probability at time `now` (used by the slot loop to
  /// draw the move event; also what an oracle estimator would know).
  virtual double move_probability(SimTime now) const = 0;

  /// Destination given that a move happens at `now` from `from`;
  /// `neighbor` is the uniformly drawn neighbor index (cell_neighbors
  /// order: 0..5 in 2-D, 0 = q - 1 and 1 = q + 1 in 1-D).
  virtual geometry::Cell move_target(geometry::Cell from, SimTime now,
                                     int neighbor) const = 0;

  virtual std::string name() const = 0;
};

/// The paper's uniform random walk with constant q.
class RandomWalk final : public MobilityModel {
 public:
  RandomWalk(Dimension dim, double move_prob);

  double move_probability(SimTime now) const override;
  geometry::Cell move_target(geometry::Cell from, SimTime now,
                             int neighbor) const override;
  std::string name() const override;

  Dimension dimension() const { return dim_; }

 private:
  Dimension dim_;
  double move_prob_;
};

/// Random walk whose q switches between phases on a fixed schedule; the
/// schedule repeats with period = sum of phase lengths.
class PhasedRandomWalk final : public MobilityModel {
 public:
  struct Phase {
    double move_prob = 0.1;
    SimTime length = 1;  ///< slots this phase lasts
  };

  PhasedRandomWalk(Dimension dim, std::vector<Phase> phases);

  double move_probability(SimTime now) const override;
  geometry::Cell move_target(geometry::Cell from, SimTime now,
                             int neighbor) const override;
  std::string name() const override;

 private:
  const Phase& phase_at(SimTime now) const;

  Dimension dim_;
  std::vector<Phase> phases_;
  SimTime period_ = 0;
};

}  // namespace pcn::sim
