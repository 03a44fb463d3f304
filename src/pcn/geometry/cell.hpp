// Unified cell view over the two coverage-area geometries.
//
// The simulator treats both models through one cell type: a 2-D axial
// coordinate.  The 1-D line embeds as the q axis (r pinned to 0, neighbors
// q ± 1), so entity code is geometry-agnostic and dispatches through the
// `Dimension` tag.
#pragma once

#include <cstdint>
#include <vector>

#include "pcn/common/params.hpp"
#include "pcn/geometry/hex.hpp"

namespace pcn::geometry {

/// A cell in either geometry; for Dimension::kOneD only the q axis is used.
using Cell = HexCell;

/// Ring distance between two cells under the given geometry.
std::int64_t cell_distance(Dimension dim, Cell a, Cell b);

/// Neighbors of a cell (2 for 1-D, 6 for 2-D).
std::vector<Cell> cell_neighbors(Dimension dim, Cell cell);

/// Neighbor `index` of a cell, in cell_neighbors order, without
/// allocating.
Cell cell_neighbor(Dimension dim, Cell cell, int index);

/// All cells of ring r_i around `center`.
std::vector<Cell> cell_ring(Dimension dim, Cell center, int ring);

/// Appends the cells of ring r_i to `out` (same order as `cell_ring`);
/// allocation-free when `out` has capacity — the paging hot path reuses one
/// buffer across polling cycles.
void append_cell_ring(Dimension dim, Cell center, int ring,
                      std::vector<Cell>& out);

/// All cells within distance d of `center`, ordered ring by ring.
std::vector<Cell> cell_disk(Dimension dim, Cell center, int distance);

/// Location-area tiling usable with the unified cell type (see
/// la_tiling.hpp for the underlying constructions).
class CellLaTiling {
 public:
  CellLaTiling(Dimension dim, int radius);

  Dimension dimension() const { return dim_; }
  int radius() const { return radius_; }

  /// Cells per LA: 2R+1 (1-D) or 3R²+3R+1 (2-D).
  std::int64_t la_size() const;

  /// Center of the LA containing `cell`.
  Cell la_center(Cell cell) const;

  bool same_la(Cell a, Cell b) const;

  /// All cells of the LA centered at `center`.
  std::vector<Cell> la_cells(Cell center) const;

 private:
  Dimension dim_;
  int radius_;
};

}  // namespace pcn::geometry
