// A mobile terminal: position, mobility process and update policy.  Its
// random decisions are not state it carries: the slot loop draws them from
// the simulator's counter-based slot-draw contract (stats::SlotDraws),
// keyed by (seed, terminal id, slot), so runs are reproducible
// independently of scheduling order.
#pragma once

#include <memory>
#include <string>

#include "pcn/geometry/cell.hpp"
#include "pcn/sim/location_server.hpp"
#include "pcn/sim/mobility.hpp"
#include "pcn/sim/update_policy.hpp"

namespace pcn::sim {

class Terminal {
 public:
  Terminal(TerminalId id, geometry::Cell start, double call_prob,
           std::unique_ptr<MobilityModel> mobility,
           std::unique_ptr<UpdatePolicy> update_policy);

  TerminalId id() const { return id_; }
  geometry::Cell position() const { return position_; }
  double call_probability() const { return call_prob_; }

  MobilityModel& mobility() { return *mobility_; }
  const MobilityModel& mobility() const { return *mobility_; }
  UpdatePolicy& update_policy() { return *update_policy_; }
  const UpdatePolicy& update_policy() const { return *update_policy_; }

  void move_to(geometry::Cell cell) { position_ = cell; }

 private:
  TerminalId id_;
  geometry::Cell position_;
  double call_prob_;
  std::unique_ptr<MobilityModel> mobility_;
  std::unique_ptr<UpdatePolicy> update_policy_;
};

}  // namespace pcn::sim
