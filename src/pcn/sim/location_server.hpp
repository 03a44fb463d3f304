// Network-side location database.
//
// The location server stores, per terminal, what the fixed network knows
// about its whereabouts — the paper's "network stores each terminal's
// location in a database whenever such information is available" (§2.1).
// Knowledge is a center cell plus a containment radius whose semantics
// depend on the update policy in force:
//
//   * kFixedDisk   — distance-based (radius d) and movement-based
//                    (radius M) schemes: the terminal is within `radius`
//                    of the center, at any time.
//   * kGrowingDisk — time-based scheme: the terminal can have drifted at
//                    most one ring per elapsed slot since the last reset.
//   * kLocationArea — LA scheme: the center is the LA center and the
//                    terminal is somewhere inside that LA (radius = R).
#pragma once

#include <string>
#include <unordered_map>

#include "pcn/geometry/cell.hpp"
#include "pcn/sim/sim_time.hpp"

namespace pcn::sim {

using TerminalId = int;

enum class KnowledgeKind { kFixedDisk, kGrowingDisk, kLocationArea };

/// What the network knows about one terminal.
struct Knowledge {
  KnowledgeKind kind = KnowledgeKind::kFixedDisk;
  geometry::Cell center{};  ///< reference cell (LA center for kLocationArea)
  int radius = 0;           ///< containment radius parameter
  SimTime since = 0;        ///< when the knowledge was last refreshed

  /// Radius of the containment disk at time `now`.
  int radius_at(SimTime now) const;
};

class LocationServer {
 public:
  explicit LocationServer(Dimension dim);

  /// Registers a terminal whose updates carry `kind`/`radius` semantics;
  /// `initial` is its attach position at time `now`.
  void register_terminal(TerminalId id, KnowledgeKind kind, int radius,
                         geometry::Cell initial, SimTime now);

  /// Processes a location-update message: the terminal reports `cell`.
  void on_update(TerminalId id, geometry::Cell cell, SimTime now);

  /// After a successful page the network knows the exact cell.
  void on_located(TerminalId id, geometry::Cell cell, SimTime now);

  /// Adjusts the containment radius of a terminal's knowledge (dynamic
  /// per-user thresholds carry the new radius on update messages).
  void set_radius(TerminalId id, int radius);

  const Knowledge& knowledge(TerminalId id) const;

  /// Stable mutable handle for batch engines: directory nodes don't move,
  /// so the reference survives until the terminal is erased (never, today).
  /// Pair with refresh() to apply update traffic without a lookup per
  /// event.
  Knowledge& knowledge_mut(TerminalId id);

  /// Applies a location report to an already-resolved knowledge entry
  /// (the handle form of on_update).
  void refresh(Knowledge& knowledge, geometry::Cell cell, SimTime now);

  Dimension dimension() const { return dim_; }

 private:
  void reset_center(Knowledge& knowledge, geometry::Cell cell, SimTime now);

  Dimension dim_;
  std::unordered_map<TerminalId, Knowledge> directory_;
};

}  // namespace pcn::sim
