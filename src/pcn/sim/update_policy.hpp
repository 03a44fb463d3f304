// Terminal-side location-update policies.
//
// An UpdatePolicy decides, once per slot, whether the terminal must report
// its location.  The policy's reference point is reset whenever the network
// re-learns the terminal's exact position — after a location update or a
// successfully paged call (the paper's "center cell is reset", §2.2).
//
// Implementations:
//   * DistanceUpdatePolicy  — the paper's scheme: update when the ring
//     distance from the center cell exceeds the threshold d.
//   * TimeUpdatePolicy      — baseline [3]: update every T slots.
//   * MovementUpdatePolicy  — baseline [3]: update after M cell crossings.
//   * LaUpdatePolicy        — baseline [8]: update on location-area change.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "pcn/geometry/cell.hpp"
#include "pcn/sim/sim_time.hpp"

namespace pcn::sim {

class UpdatePolicy {
 public:
  virtual ~UpdatePolicy() = default;

  /// The network's knowledge was refreshed: `center` is the terminal's
  /// exact cell at `now` (initial attach, after update, after paged call).
  virtual void on_center_reset(geometry::Cell center, SimTime now) = 0;

  /// Observation hook, called once per slot after the movement phase.
  virtual void on_slot(geometry::Cell position, bool moved, SimTime now);

  /// Observation hook: an incoming call reached the terminal at `now`
  /// (invoked before the resulting on_center_reset).
  virtual void on_call(SimTime now);

  /// Must the terminal update now?  Called after on_slot each slot.
  virtual bool update_due(geometry::Cell position, SimTime now) const = 0;

  /// Containment radius the policy guarantees from the moment of a center
  /// reset: the terminal stays within this many rings of the reset cell
  /// until its next update.  Policies without a fixed-disk guarantee (time
  /// based) return nullopt and the network keeps the registered knowledge
  /// semantics.  Carried on update messages so the network's paging area
  /// can track per-user dynamic thresholds.
  virtual std::optional<int> containment_radius() const;

  virtual std::string name() const = 0;
};

/// The paper's distance-based policy with threshold d >= 0.
class DistanceUpdatePolicy : public UpdatePolicy {
 public:
  DistanceUpdatePolicy(Dimension dim, int threshold);

  void on_center_reset(geometry::Cell center, SimTime now) override;
  bool update_due(geometry::Cell position, SimTime now) const override;
  std::optional<int> containment_radius() const override;
  std::string name() const override;

  int threshold() const { return threshold_; }
  Dimension dimension() const { return dim_; }

  /// Re-targets the policy (used by the adaptive controller); takes effect
  /// immediately.
  void set_threshold(int threshold);

  geometry::Cell center() const { return center_; }

 private:
  Dimension dim_;
  int threshold_;
  geometry::Cell center_{};
};

/// Time-based baseline: update every `period` slots since the last reset.
class TimeUpdatePolicy final : public UpdatePolicy {
 public:
  explicit TimeUpdatePolicy(SimTime period);

  void on_center_reset(geometry::Cell center, SimTime now) override;
  bool update_due(geometry::Cell position, SimTime now) const override;
  std::string name() const override;

 private:
  SimTime period_;
  SimTime last_reset_ = 0;
};

/// Movement-based baseline: update after `max_moves` cell crossings since
/// the last reset.
class MovementUpdatePolicy final : public UpdatePolicy {
 public:
  explicit MovementUpdatePolicy(int max_moves);

  void on_center_reset(geometry::Cell center, SimTime now) override;
  void on_slot(geometry::Cell position, bool moved, SimTime now) override;
  bool update_due(geometry::Cell position, SimTime now) const override;
  std::string name() const override;

 private:
  int max_moves_;
  int moves_since_reset_ = 0;
};

/// Static location-area baseline: update when entering a different LA.
class LaUpdatePolicy final : public UpdatePolicy {
 public:
  LaUpdatePolicy(Dimension dim, int la_radius);

  void on_center_reset(geometry::Cell center, SimTime now) override;
  bool update_due(geometry::Cell position, SimTime now) const override;
  std::string name() const override;

 private:
  geometry::CellLaTiling tiling_;
  geometry::Cell la_center_{};
};

}  // namespace pcn::sim
