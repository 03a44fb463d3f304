#include "pcn/baselines/baseline_models.hpp"

#include <gtest/gtest.h>

#include "pcn/common/error.hpp"
#include "pcn/geometry/ring_metrics.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::baselines {
namespace {

constexpr CostWeights kWeights{100.0, 10.0};

// --- walk distributions ------------------------------------------------------

TEST(WalkDistribution, ZeroMovesIsADeltaAtTheCenter) {
  const auto dist = walk_ring_distribution(Dimension::kTwoD, 0);
  ASSERT_EQ(dist.size(), 1u);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
}

TEST(WalkDistribution, OneMoveAlwaysLeavesTheCenter) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    const auto dist = walk_ring_distribution(dim, 1);
    ASSERT_EQ(dist.size(), 2u);
    EXPECT_DOUBLE_EQ(dist[0], 0.0);
    EXPECT_DOUBLE_EQ(dist[1], 1.0);
  }
}

TEST(WalkDistribution, OneDimTwoMovesIsTheSymmetricWalk) {
  // From ring 1: back with 1/2, out with 1/2.
  const auto dist = walk_ring_distribution(Dimension::kOneD, 2);
  EXPECT_DOUBLE_EQ(dist[0], 0.5);
  EXPECT_DOUBLE_EQ(dist[1], 0.0);
  EXPECT_DOUBLE_EQ(dist[2], 0.5);
}

TEST(WalkDistribution, TwoDimTwoMovesMatchesRingOneEdgeCounts) {
  // From ring 1: inward 1/6, sideways 1/3 (stay on ring 1), outward 1/2.
  const auto dist = walk_ring_distribution(Dimension::kTwoD, 2);
  EXPECT_NEAR(dist[0], 1.0 / 6, 1e-15);
  EXPECT_NEAR(dist[1], 1.0 / 3, 1e-15);
  EXPECT_NEAR(dist[2], 0.5, 1e-15);
}

TEST(WalkDistribution, IsNormalizedForManyMoves) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    const auto dist = walk_ring_distribution(dim, 40);
    double total = 0.0;
    for (double p : dist) {
      EXPECT_GE(p, 0.0);
      total += p;
    }
    EXPECT_NEAR(total, 1.0, 1e-12);
  }
}

TEST(LazyWalkDistribution, ZeroMoveProbabilityStaysPut) {
  const auto dist =
      lazy_walk_ring_distribution(Dimension::kTwoD, 0.0, 25);
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
}

TEST(LazyWalkDistribution, FullMoveProbabilityIsThePureWalk) {
  const auto lazy = lazy_walk_ring_distribution(Dimension::kTwoD, 1.0, 7);
  const auto pure = walk_ring_distribution(Dimension::kTwoD, 7);
  for (std::size_t i = 0; i < pure.size(); ++i) {
    EXPECT_NEAR(lazy[i], pure[i], 1e-14);
  }
}

TEST(LazyWalkDistribution, MeanDistanceGrowsWithMoveProbability) {
  auto mean = [](const std::vector<double>& dist) {
    double value = 0.0;
    for (std::size_t i = 0; i < dist.size(); ++i) {
      value += static_cast<double>(i) * dist[i];
    }
    return value;
  };
  const auto slow = lazy_walk_ring_distribution(Dimension::kTwoD, 0.1, 30);
  const auto fast = lazy_walk_ring_distribution(Dimension::kTwoD, 0.6, 30);
  EXPECT_LT(mean(slow), mean(fast));
}

// --- movement-based analytic model -------------------------------------------

TEST(MovementModel, MEqualsOneIsTheDistanceZeroPolicy) {
  // Updating after every move is exactly the d = 0 distance policy:
  // C_u = q U, C_v = c g(0) V.
  const MobilityProfile profile{0.1, 0.02};
  const BaselineCosts costs = movement_based_costs(
      Dimension::kTwoD, profile, kWeights, 1, DelayBound(1));
  EXPECT_NEAR(costs.update, 0.1 * kWeights.update_cost, 1e-12);
  EXPECT_NEAR(costs.paging, 0.02 * kWeights.poll_cost, 1e-12);
  EXPECT_DOUBLE_EQ(costs.expected_delay_cycles, 1.0);
}

TEST(MovementModel, UpdateRateDecreasesWithTheThreshold) {
  const MobilityProfile profile{0.2, 0.02};
  double previous = 1e9;
  for (int max_moves : {1, 2, 4, 8, 16}) {
    const double update = movement_based_costs(Dimension::kTwoD, profile,
                                               kWeights, max_moves,
                                               DelayBound(2))
                              .update;
    EXPECT_LT(update, previous) << "M = " << max_moves;
    previous = update;
  }
}

class MovementModelVsSimulation
    : public ::testing::TestWithParam<std::tuple<Dimension, int>> {};

TEST_P(MovementModelVsSimulation, PredictsTheSimulatedCosts) {
  const auto& [dim, max_moves] = GetParam();
  const MobilityProfile profile{0.2, 0.02};
  const DelayBound bound(2);
  const BaselineCosts predicted =
      movement_based_costs(dim, profile, kWeights, max_moves, bound);

  sim::Network network(
      sim::NetworkConfig{dim, sim::SlotSemantics::kChainFaithful, 0xabc},
      kWeights);
  const sim::TerminalId id = network.add_terminal(
      sim::make_movement_terminal(dim, profile, max_moves, bound));
  network.run(400000);
  const sim::TerminalMetrics& m = network.metrics(id);

  EXPECT_NEAR(m.update_cost_per_slot(), predicted.update,
              0.05 * predicted.update + 1e-3);
  EXPECT_NEAR(m.paging_cost_per_slot(), predicted.paging,
              0.05 * predicted.paging + 1e-3);
  EXPECT_NEAR(m.paging_cycles.mean(), predicted.expected_delay_cycles,
              0.05);
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesByThreshold, MovementModelVsSimulation,
    ::testing::Combine(::testing::Values(Dimension::kOneD, Dimension::kTwoD),
                       ::testing::Values(1, 3, 6)));

// --- time-based analytic model ------------------------------------------------

TEST(TimeModel, PeriodOneUpdatesEverySlot) {
  // T = 1: an update fires every slot; calls are paged at the fresh center.
  const MobilityProfile profile{0.1, 0.02};
  const BaselineCosts costs =
      time_based_costs(Dimension::kTwoD, profile, kWeights, 1);
  EXPECT_NEAR(costs.update, kWeights.update_cost, 1e-12);
  EXPECT_NEAR(costs.paging, 0.02 * kWeights.poll_cost, 1e-12);
  EXPECT_DOUBLE_EQ(costs.expected_delay_cycles, 1.0);
}

TEST(TimeModel, UpdateRateApproachesOneOverPeriodForRareCalls) {
  const MobilityProfile profile{0.1, 0.0001};
  const BaselineCosts costs =
      time_based_costs(Dimension::kTwoD, profile, kWeights, 50);
  EXPECT_NEAR(costs.update, kWeights.update_cost / 50.0,
              kWeights.update_cost / 50.0 * 0.01);
}

class TimeModelVsSimulation
    : public ::testing::TestWithParam<std::tuple<Dimension, int>> {};

TEST_P(TimeModelVsSimulation, PredictsTheSimulatedCosts) {
  const auto& [dim, period] = GetParam();
  const MobilityProfile profile{0.2, 0.02};
  const BaselineCosts predicted =
      time_based_costs(dim, profile, kWeights, period);

  // A 16-terminal fleet: at one terminal's 400000 slots the sampling
  // noise alone (about 2% of the 2-D paging cost at T = 40) leaves one
  // seed in eight outside the band, on top of the model's 3.5% 2-D ring
  // approximation; sixteen replicas shrink the noise fourfold.
  sim::NetworkConfig config{dim, sim::SlotSemantics::kChainFaithful, 0xdef};
  config.threads = 4;
  sim::Network network(config, kWeights);
  for (int i = 0; i < 16; ++i) {
    network.add_terminal(sim::make_time_terminal(dim, profile, period));
  }
  network.run(400000);
  double slots = 0.0;
  double update_cost = 0.0;
  double paging_cost = 0.0;
  double delay_sum = 0.0;
  double delay_count = 0.0;
  for (sim::TerminalId id = 0; id < 16; ++id) {
    const sim::TerminalMetrics& m = network.metrics(id);
    slots += static_cast<double>(m.slots);
    update_cost += m.update_cost;
    paging_cost += m.paging_cost;
    delay_sum += m.paging_cycles.mean() *
                 static_cast<double>(m.paging_cycles.total());
    delay_count += static_cast<double>(m.paging_cycles.total());
  }

  EXPECT_NEAR(update_cost / slots, predicted.update,
              0.05 * predicted.update + 1e-3);
  EXPECT_NEAR(paging_cost / slots, predicted.paging,
              0.05 * predicted.paging + 2e-3);
  EXPECT_NEAR(delay_sum / delay_count, predicted.expected_delay_cycles,
              0.06);
}

INSTANTIATE_TEST_SUITE_P(
    GeometriesByPeriod, TimeModelVsSimulation,
    ::testing::Combine(::testing::Values(Dimension::kOneD, Dimension::kTwoD),
                       ::testing::Values(1, 10, 40)));

TEST(TimeModel, MultipleRingsPerCycleTradeCellsForDelay) {
  const MobilityProfile profile{0.2, 0.02};
  const BaselineCosts one =
      time_based_costs(Dimension::kTwoD, profile, kWeights, 40, 1);
  const BaselineCosts three =
      time_based_costs(Dimension::kTwoD, profile, kWeights, 40, 3);
  EXPECT_LT(three.expected_delay_cycles, one.expected_delay_cycles);
  EXPECT_GT(three.paging, one.paging);
}

// --- validation of inputs ------------------------------------------------------

TEST(BaselineModels, ValidateParameters) {
  const MobilityProfile profile{0.1, 0.02};
  EXPECT_THROW(movement_based_costs(Dimension::kOneD, profile, kWeights, 0,
                                    DelayBound(1)),
               InvalidArgument);
  EXPECT_THROW(time_based_costs(Dimension::kOneD, profile, kWeights, 0),
               InvalidArgument);
  EXPECT_THROW(time_based_costs(Dimension::kOneD, profile, kWeights, 5, 0),
               InvalidArgument);
  EXPECT_THROW(walk_ring_distribution(Dimension::kOneD, -1),
               InvalidArgument);
  EXPECT_THROW(lazy_walk_ring_distribution(Dimension::kOneD, 1.5, 3),
               InvalidArgument);
}

}  // namespace
}  // namespace pcn::baselines
