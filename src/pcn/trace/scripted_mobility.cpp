#include "pcn/trace/scripted_mobility.hpp"

#include "pcn/common/error.hpp"

namespace pcn::trace {

ScriptedMobility::ScriptedMobility(Dimension dim, geometry::Cell start_cell,
                                   std::vector<geometry::Cell> positions,
                                   sim::SimTime start)
    : dim_(dim),
      start_cell_(start_cell),
      positions_(std::move(positions)),
      start_(start) {
  PCN_EXPECT(!positions_.empty(), "ScriptedMobility: empty trajectory");
  geometry::Cell previous = start_cell_;
  for (const geometry::Cell& cell : positions_) {
    PCN_EXPECT(geometry::cell_distance(dim_, previous, cell) <= 1,
               "ScriptedMobility: consecutive positions must be equal or "
               "neighboring cells");
    previous = cell;
  }
}

geometry::Cell ScriptedMobility::position_at(sim::SimTime now) const {
  if (now < start_) return start_cell_;
  const auto index = static_cast<std::size_t>(now - start_);
  if (index >= positions_.size()) return positions_.back();
  return positions_[index];
}

double ScriptedMobility::move_probability(sim::SimTime now) const {
  return position_at(now) == position_at(now - 1) ? 0.0 : 1.0;
}

geometry::Cell ScriptedMobility::move_target(geometry::Cell from,
                                             sim::SimTime now,
                                             int) const {
  const geometry::Cell target = position_at(now);
  PCN_EXPECT(geometry::cell_distance(dim_, from, target) <= 1,
             "ScriptedMobility: replay desynchronized from the simulation "
             "(use SlotSemantics::kIndependent)");
  return target;
}

std::string ScriptedMobility::name() const { return "scripted-replay"; }

}  // namespace pcn::trace
