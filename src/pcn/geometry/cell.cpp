#include "pcn/geometry/cell.hpp"

#include "pcn/common/error.hpp"
#include "pcn/geometry/la_tiling.hpp"
#include "pcn/geometry/line.hpp"

namespace pcn::geometry {

std::int64_t cell_distance(Dimension dim, Cell a, Cell b) {
  if (dim == Dimension::kTwoD) return hex_distance(a, b);
  PCN_EXPECT(a.r == b.r, "cell_distance: 1-D cells live on one line");
  return line_distance(LineCell{a.q}, LineCell{b.q});
}

std::vector<Cell> cell_neighbors(Dimension dim, Cell cell) {
  if (dim == Dimension::kTwoD) {
    const auto neighbors = hex_neighbors(cell);
    return {neighbors.begin(), neighbors.end()};
  }
  return {Cell{cell.q - 1, cell.r}, Cell{cell.q + 1, cell.r}};
}

Cell cell_neighbor(Dimension dim, Cell cell, int index) {
  if (dim == Dimension::kTwoD) {
    PCN_EXPECT(index >= 0 && index < 6, "cell_neighbor: index out of range");
    return hex_add(cell, hex_directions()[static_cast<std::size_t>(index)]);
  }
  PCN_EXPECT(index == 0 || index == 1, "cell_neighbor: index out of range");
  return Cell{cell.q + (index == 0 ? -1 : 1), cell.r};
}

std::vector<Cell> cell_ring(Dimension dim, Cell center, int ring) {
  std::vector<Cell> cells;
  append_cell_ring(dim, center, ring, cells);
  return cells;
}

void append_cell_ring(Dimension dim, Cell center, int ring,
                      std::vector<Cell>& out) {
  if (dim == Dimension::kTwoD) {
    append_hex_ring(center, ring, out);
    return;
  }
  PCN_EXPECT(ring >= 0, "cell_ring: ring index must be >= 0");
  if (ring == 0) {
    out.push_back(center);
    return;
  }
  out.push_back(Cell{center.q - ring, center.r});
  out.push_back(Cell{center.q + ring, center.r});
}

std::vector<Cell> cell_disk(Dimension dim, Cell center, int distance) {
  if (dim == Dimension::kTwoD) return hex_disk(center, distance);
  PCN_EXPECT(distance >= 0, "cell_disk: distance must be >= 0");
  std::vector<Cell> cells;
  cells.reserve(static_cast<std::size_t>(2 * distance + 1));
  for (int i = 0; i <= distance; ++i) {
    for (Cell cell : cell_ring(dim, center, i)) cells.push_back(cell);
  }
  return cells;
}

CellLaTiling::CellLaTiling(Dimension dim, int radius)
    : dim_(dim), radius_(radius) {
  PCN_EXPECT(radius >= 0, "CellLaTiling: radius must be >= 0");
}

std::int64_t CellLaTiling::la_size() const {
  if (dim_ == Dimension::kTwoD) return HexLaTiling(radius_).la_size();
  return LineLaTiling(radius_).la_size();
}

Cell CellLaTiling::la_center(Cell cell) const {
  if (dim_ == Dimension::kTwoD) return HexLaTiling(radius_).la_center(cell);
  const LineCell center = LineLaTiling(radius_).la_center(LineCell{cell.q});
  return Cell{center.x, cell.r};
}

bool CellLaTiling::same_la(Cell a, Cell b) const {
  return la_center(a) == la_center(b);
}

std::vector<Cell> CellLaTiling::la_cells(Cell center) const {
  if (dim_ == Dimension::kTwoD) return HexLaTiling(radius_).la_cells(center);
  std::vector<Cell> cells;
  for (LineCell cell : LineLaTiling(radius_).la_cells(LineCell{center.q})) {
    cells.push_back(Cell{cell.x, center.r});
  }
  return cells;
}

}  // namespace pcn::geometry
