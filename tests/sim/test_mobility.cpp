#include "pcn/sim/mobility.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/stats/counter_rng.hpp"

namespace pcn::sim {
namespace {

TEST(RandomWalk, ReportsItsMoveProbability) {
  const RandomWalk walk(Dimension::kTwoD, 0.25);
  EXPECT_DOUBLE_EQ(walk.move_probability(0), 0.25);
  EXPECT_DOUBLE_EQ(walk.move_probability(1000000), 0.25);
}

TEST(RandomWalk, RejectsInvalidMoveProbability) {
  EXPECT_THROW(RandomWalk(Dimension::kOneD, 0.0), InvalidArgument);
  EXPECT_THROW(RandomWalk(Dimension::kOneD, 1.0001), InvalidArgument);
}

TEST(RandomWalk, NeighborIndexFollowsCellNeighborsOrder) {
  // The slot loop draws the neighbor index (uniform over the contract's
  // exact map, tests/stats/test_counter_rng.cpp); the walk must send
  // index i to cell_neighbors()[i], so the six indices reach six
  // distinct neighbors.
  const RandomWalk walk(Dimension::kTwoD, 0.5);
  const geometry::Cell from{3, -2};
  const std::vector<geometry::Cell> neighbors =
      geometry::cell_neighbors(Dimension::kTwoD, from);
  std::set<std::pair<std::int64_t, std::int64_t>> reached;
  for (int i = 0; i < 6; ++i) {
    const geometry::Cell next = walk.move_target(from, i, i);
    EXPECT_EQ(next, neighbors[static_cast<std::size_t>(i)]);
    EXPECT_EQ(geometry::cell_distance(Dimension::kTwoD, from, next), 1);
    reached.insert({next.q, next.r});
  }
  EXPECT_EQ(reached.size(), 6u);
  EXPECT_THROW(walk.move_target(from, 0, 6), InvalidArgument);
}

/// The neighbour index the draw contract gives a certain move of
/// terminal 0 in `slot` (2-D).
int drawn_neighbor(const stats::SlotDraws& draws, std::int64_t slot,
                   bool chain) {
  const stats::SlotDraws::Slot s =
      draws.draw(0, slot, chain, true, 0, stats::kCertain);
  EXPECT_TRUE(s.moved);
  return s.neighbor;
}

TEST(RandomWalk, TargetsAreAlwaysNeighbors) {
  const RandomWalk walk(Dimension::kTwoD, 0.5);
  const stats::SlotDraws draws(1);
  geometry::Cell cursor{};
  for (int slot = 0; slot < 2000; ++slot) {
    const geometry::Cell next =
        walk.move_target(cursor, slot, drawn_neighbor(draws, slot, true));
    EXPECT_EQ(geometry::cell_distance(Dimension::kTwoD, cursor, next), 1);
    cursor = next;
  }
}

TEST(RandomWalk, NeighborSelectionIsUniform) {
  // Paper: each of the 6 neighbors is chosen with probability 1/6 — here
  // end to end, from the contract's direction draw (16-bit under
  // chain-faithful slots, 32-bit under independent ones) to the cell.
  const RandomWalk walk(Dimension::kTwoD, 1.0);
  const stats::SlotDraws draws(3);
  for (const bool chain : {true, false}) {
    SCOPED_TRACE(chain ? "chain-faithful" : "independent");
    std::map<std::pair<std::int64_t, std::int64_t>, int> counts;
    const int n = 60000;
    for (int slot = 0; slot < n; ++slot) {
      const geometry::Cell next = walk.move_target(
          geometry::Cell{}, slot, drawn_neighbor(draws, slot, chain));
      ++counts[{next.q, next.r}];
    }
    ASSERT_EQ(counts.size(), 6u);
    const double expected = n / 6.0;
    const double sigma = std::sqrt(n * (1.0 / 6) * (5.0 / 6));
    for (const auto& [cell, count] : counts) {
      EXPECT_NEAR(count, expected, 5 * sigma);
    }
  }
}

TEST(RandomWalk, OneDimWalkStaysOnTheLine) {
  const RandomWalk walk(Dimension::kOneD, 0.5);
  EXPECT_EQ(walk.move_target(geometry::Cell{4, 0}, 0, 0),
            (geometry::Cell{3, 0}));
  EXPECT_EQ(walk.move_target(geometry::Cell{4, 0}, 0, 1),
            (geometry::Cell{5, 0}));
  EXPECT_THROW(walk.move_target(geometry::Cell{4, 0}, 0, 2),
               InvalidArgument);
}

TEST(PhasedRandomWalk, SwitchesProbabilityOnSchedule) {
  const PhasedRandomWalk walk(
      Dimension::kTwoD,
      {{0.4, 100}, {0.01, 50}});
  EXPECT_DOUBLE_EQ(walk.move_probability(0), 0.4);
  EXPECT_DOUBLE_EQ(walk.move_probability(99), 0.4);
  EXPECT_DOUBLE_EQ(walk.move_probability(100), 0.01);
  EXPECT_DOUBLE_EQ(walk.move_probability(149), 0.01);
  // Periodic wrap-around.
  EXPECT_DOUBLE_EQ(walk.move_probability(150), 0.4);
  EXPECT_DOUBLE_EQ(walk.move_probability(150 + 149), 0.01);
}

TEST(PhasedRandomWalk, ValidatesPhases) {
  EXPECT_THROW(PhasedRandomWalk(Dimension::kOneD, {}), InvalidArgument);
  EXPECT_THROW(PhasedRandomWalk(Dimension::kOneD, {{0.0, 10}}),
               InvalidArgument);
  EXPECT_THROW(PhasedRandomWalk(Dimension::kOneD, {{0.1, 0}}),
               InvalidArgument);
}

TEST(PhasedRandomWalk, TargetsAreNeighbors) {
  const PhasedRandomWalk walk(Dimension::kOneD, {{0.2, 10}});
  const geometry::Cell next = walk.move_target(geometry::Cell{5, 0}, 0, 1);
  EXPECT_EQ(geometry::cell_distance(Dimension::kOneD, geometry::Cell{5, 0},
                                    next),
            1);
}

TEST(PhasedRandomWalk, SimulatedMoveRateFollowsEachPhase) {
  // The slot loop compares the move draw with threshold32(q(t)) every
  // slot, so each phase moves at its own rate.
  constexpr int kTerminals = 8;
  constexpr std::int64_t kPhaseSlots = 5000;
  const std::vector<PhasedRandomWalk::Phase> phases = {{0.4, kPhaseSlots},
                                                       {0.05, kPhaseSlots}};
  Network network(NetworkConfig{Dimension::kTwoD,
                                SlotSemantics::kChainFaithful, 77},
                  CostWeights{10.0, 1.0});
  std::vector<TerminalId> ids;
  for (int i = 0; i < kTerminals; ++i) {
    TerminalSpec spec = make_distance_terminal(
        Dimension::kTwoD, MobilityProfile{0.4, 0.01}, 3, DelayBound(2));
    spec.mobility = std::make_unique<PhasedRandomWalk>(Dimension::kTwoD,
                                                       phases);
    ids.push_back(network.add_terminal(std::move(spec)));
  }
  const auto total_moves = [&] {
    std::int64_t moves = 0;
    for (TerminalId id : ids) moves += network.metrics(id).moves;
    return moves;
  };
  for (const PhasedRandomWalk::Phase& phase : phases) {
    const std::int64_t before = total_moves();
    network.run(kPhaseSlots);
    const double n = static_cast<double>(kTerminals * kPhaseSlots);
    const double sigma =
        std::sqrt(n * phase.move_prob * (1.0 - phase.move_prob));
    EXPECT_NEAR(static_cast<double>(total_moves() - before),
                n * phase.move_prob, 5 * sigma)
        << "q = " << phase.move_prob;
  }
}

TEST(MobilityModels, HaveDescriptiveNames) {
  EXPECT_EQ(RandomWalk(Dimension::kOneD, 0.1).name(), "random-walk");
  EXPECT_EQ(PhasedRandomWalk(Dimension::kOneD, {{0.1, 5}}).name(),
            "phased-random-walk");
}

}  // namespace
}  // namespace pcn::sim
