// Observation hook for the network simulation.
//
// An observer receives every externally visible event (moves, updates,
// delivered calls, end-of-slot positions) as it happens — the basis for
// trace recording (pcn::trace::EventLog), live dashboards, or custom
// metrics, without touching the simulation core.
#pragma once

#include <cstdint>

#include "pcn/geometry/cell.hpp"
#include "pcn/sim/location_server.hpp"
#include "pcn/sim/sim_time.hpp"

namespace pcn::sim {

class NetworkObserver {
 public:
  virtual ~NetworkObserver() = default;

  /// Terminal moved from `from` to `to` during slot `now`.
  virtual void on_move(TerminalId id, SimTime now, geometry::Cell from,
                       geometry::Cell to);

  /// Terminal sent a location update from `cell` at `now`.
  virtual void on_update(TerminalId id, SimTime now, geometry::Cell cell);

  /// An incoming call was delivered: the terminal was located at `cell`
  /// after `cycles` polling cycles and `polled_cells` polled cells.
  virtual void on_call(TerminalId id, SimTime now, geometry::Cell cell,
                       int cycles, std::int64_t polled_cells);

  /// End of slot `now`: the terminal rests at `position`.
  virtual void on_slot_end(TerminalId id, SimTime now,
                           geometry::Cell position);
};

}  // namespace pcn::sim
