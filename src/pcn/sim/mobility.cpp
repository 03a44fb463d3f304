#include "pcn/sim/mobility.hpp"

#include "pcn/common/error.hpp"

namespace pcn::sim {

RandomWalk::RandomWalk(Dimension dim, double move_prob)
    : dim_(dim), move_prob_(move_prob) {
  PCN_EXPECT(move_prob > 0.0 && move_prob <= 1.0,
             "RandomWalk: move probability must lie in (0, 1]");
}

double RandomWalk::move_probability(SimTime) const { return move_prob_; }

geometry::Cell RandomWalk::move_target(geometry::Cell from, SimTime,
                                       int neighbor) const {
  return geometry::cell_neighbor(dim_, from, neighbor);
}

std::string RandomWalk::name() const { return "random-walk"; }

PhasedRandomWalk::PhasedRandomWalk(Dimension dim, std::vector<Phase> phases)
    : dim_(dim), phases_(std::move(phases)) {
  PCN_EXPECT(!phases_.empty(), "PhasedRandomWalk: at least one phase");
  for (const Phase& phase : phases_) {
    PCN_EXPECT(phase.move_prob > 0.0 && phase.move_prob <= 1.0,
               "PhasedRandomWalk: move probability must lie in (0, 1]");
    PCN_EXPECT(phase.length >= 1, "PhasedRandomWalk: phase length >= 1");
    period_ += phase.length;
  }
}

const PhasedRandomWalk::Phase& PhasedRandomWalk::phase_at(SimTime now) const {
  SimTime offset = now % period_;
  for (const Phase& phase : phases_) {
    if (offset < phase.length) return phase;
    offset -= phase.length;
  }
  PCN_ASSERT(false);
  return phases_.front();
}

double PhasedRandomWalk::move_probability(SimTime now) const {
  return phase_at(now).move_prob;
}

geometry::Cell PhasedRandomWalk::move_target(geometry::Cell from, SimTime,
                                             int neighbor) const {
  return geometry::cell_neighbor(dim_, from, neighbor);
}

std::string PhasedRandomWalk::name() const { return "phased-random-walk"; }

}  // namespace pcn::sim
