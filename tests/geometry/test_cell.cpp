#include "pcn/geometry/cell.hpp"

#include <gtest/gtest.h>

#include <unordered_set>

#include "pcn/common/error.hpp"
#include "pcn/geometry/ring_metrics.hpp"

namespace pcn::geometry {
namespace {

TEST(CellDistance, OneDimUsesTheQAxis) {
  EXPECT_EQ(cell_distance(Dimension::kOneD, Cell{3, 0}, Cell{-2, 0}), 5);
}

TEST(CellDistance, OneDimRejectsCellsOffTheLine) {
  EXPECT_THROW(cell_distance(Dimension::kOneD, Cell{0, 0}, Cell{0, 1}),
               InvalidArgument);
}

TEST(CellDistance, TwoDimIsHexDistance) {
  EXPECT_EQ(cell_distance(Dimension::kTwoD, Cell{0, 0}, Cell{2, -1}),
            hex_distance(Cell{0, 0}, Cell{2, -1}));
}

class CellGeometry : public ::testing::TestWithParam<Dimension> {};

TEST_P(CellGeometry, NeighborCountMatchesDimension) {
  const Dimension dim = GetParam();
  const auto neighbors = cell_neighbors(dim, Cell{4, 0});
  EXPECT_EQ(neighbors.size(),
            static_cast<std::size_t>(neighbor_count(dim)));
  for (const Cell& n : neighbors) {
    EXPECT_EQ(cell_distance(dim, Cell{4, 0}, n), 1);
  }
}

TEST_P(CellGeometry, IndexedNeighborMatchesTheNeighborList) {
  // cell_neighbor(i) is cell_neighbors()[i] without the allocation; the
  // simulator's walkers move by the drawn index.
  const Dimension dim = GetParam();
  for (const Cell from : {Cell{}, Cell{4, 0}, Cell{-7, 0}}) {
    const Cell cell = dim == Dimension::kTwoD ? Cell{from.q, 3} : from;
    const auto neighbors = cell_neighbors(dim, cell);
    for (int i = 0; i < neighbor_count(dim); ++i) {
      EXPECT_EQ(cell_neighbor(dim, cell, i),
                neighbors[static_cast<std::size_t>(i)])
          << "index " << i;
    }
  }
  EXPECT_THROW(cell_neighbor(dim, Cell{}, -1), InvalidArgument);
  EXPECT_THROW(cell_neighbor(dim, Cell{}, neighbor_count(dim)),
               InvalidArgument);
}

TEST_P(CellGeometry, RingSizesMatchRingMetrics) {
  const Dimension dim = GetParam();
  for (int i = 0; i <= 8; ++i) {
    EXPECT_EQ(cell_ring(dim, Cell{}, i).size(),
              static_cast<std::size_t>(ring_size(dim, i)));
  }
}

TEST_P(CellGeometry, RingCellsAreAtExactlyThatDistance) {
  const Dimension dim = GetParam();
  const Cell center{-3, 0};
  for (int i = 0; i <= 8; ++i) {
    for (const Cell& cell : cell_ring(dim, center, i)) {
      EXPECT_EQ(cell_distance(dim, center, cell), i);
    }
  }
}

TEST_P(CellGeometry, DiskMatchesCellsWithinAndIsDuplicateFree) {
  const Dimension dim = GetParam();
  for (int d = 0; d <= 8; ++d) {
    const auto disk = cell_disk(dim, Cell{}, d);
    EXPECT_EQ(disk.size(), static_cast<std::size_t>(cells_within(dim, d)));
    std::unordered_set<Cell, HexCellHash> unique(disk.begin(), disk.end());
    EXPECT_EQ(unique.size(), disk.size());
  }
}

TEST_P(CellGeometry, NeighborsStayInTheGeometry) {
  // 1-D neighbors keep r = 0; walking neighbors repeatedly never leaves
  // the line.
  const Dimension dim = GetParam();
  Cell cursor{};
  for (int step = 0; step < 50; ++step) {
    cursor = cell_neighbors(dim, cursor)[static_cast<std::size_t>(step) %
                                         cell_neighbors(dim, cursor).size()];
  }
  if (dim == Dimension::kOneD) {
    EXPECT_EQ(cursor.r, 0);
  }
}

INSTANTIATE_TEST_SUITE_P(BothGeometries, CellGeometry,
                         ::testing::Values(Dimension::kOneD,
                                           Dimension::kTwoD));

class CellLaTilingTest : public ::testing::TestWithParam<Dimension> {};

TEST_P(CellLaTilingTest, LaSizeMatchesUnderlyingTiling) {
  const Dimension dim = GetParam();
  const CellLaTiling tiling(dim, 2);
  EXPECT_EQ(tiling.la_size(), dim == Dimension::kOneD ? 5 : 19);
}

TEST_P(CellLaTilingTest, CellsMapWithinRadiusAndIdempotently) {
  const Dimension dim = GetParam();
  const CellLaTiling tiling(dim, 2);
  for (const Cell& cell : cell_disk(dim, Cell{}, 15)) {
    const Cell center = tiling.la_center(cell);
    EXPECT_LE(cell_distance(dim, cell, center), 2);
    EXPECT_EQ(tiling.la_center(center), center);
  }
}

TEST_P(CellLaTilingTest, LaCellsAllShareTheLa) {
  const Dimension dim = GetParam();
  const CellLaTiling tiling(dim, 2);
  const Cell center = tiling.la_center(Cell{});
  const auto cells = tiling.la_cells(center);
  EXPECT_EQ(cells.size(), static_cast<std::size_t>(tiling.la_size()));
  for (const Cell& cell : cells) {
    EXPECT_TRUE(tiling.same_la(cell, center));
  }
}

INSTANTIATE_TEST_SUITE_P(BothGeometries, CellLaTilingTest,
                         ::testing::Values(Dimension::kOneD,
                                           Dimension::kTwoD));

}  // namespace
}  // namespace pcn::geometry
