#include "pcn/trace/scripted_mobility.hpp"

#include <gtest/gtest.h>

#include "pcn/common/error.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/trace/event_log.hpp"

namespace pcn::trace {
namespace {

using geometry::Cell;

TEST(ScriptedMobility, MoveProbabilityFollowsTheScript) {
  // Start at origin; slot 1 moves to (1,0), slot 2 stays, slot 3 moves on.
  const ScriptedMobility mobility(
      Dimension::kTwoD, Cell{},
      {Cell{1, 0}, Cell{1, 0}, Cell{2, 0}});
  EXPECT_DOUBLE_EQ(mobility.move_probability(1), 1.0);
  EXPECT_DOUBLE_EQ(mobility.move_probability(2), 0.0);
  EXPECT_DOUBLE_EQ(mobility.move_probability(3), 1.0);
  // Beyond the script: stay put.
  EXPECT_DOUBLE_EQ(mobility.move_probability(4), 0.0);
  EXPECT_DOUBLE_EQ(mobility.move_probability(1000), 0.0);
}

TEST(ScriptedMobility, TargetsComeFromTheScript) {
  const ScriptedMobility mobility(Dimension::kTwoD, Cell{},
                                  {Cell{1, 0}, Cell{1, -1}});
  // The drawn neighbor index is ignored: the script names the target.
  EXPECT_EQ(mobility.move_target(Cell{}, 1, 3), (Cell{1, 0}));
  EXPECT_EQ(mobility.move_target(Cell{1, 0}, 2, 0), (Cell{1, -1}));
}

TEST(ScriptedMobility, RejectsTeleportingScripts) {
  EXPECT_THROW(ScriptedMobility(Dimension::kTwoD, Cell{}, {Cell{2, 0}}),
               InvalidArgument);
  EXPECT_THROW(ScriptedMobility(Dimension::kTwoD, Cell{},
                                {Cell{1, 0}, Cell{3, 0}}),
               InvalidArgument);
  EXPECT_THROW(ScriptedMobility(Dimension::kTwoD, Cell{}, {}),
               InvalidArgument);
}

TEST(ScriptedMobility, DesynchronizedReplayIsCaught) {
  const ScriptedMobility mobility(Dimension::kTwoD, Cell{}, {Cell{1, 0}});
  // Asking for the move from a cell far away from the script.
  EXPECT_THROW(mobility.move_target(Cell{5, 5}, 1, 0), InvalidArgument);
}

TEST(ScriptedReplay, ReproducesARecordedTrajectoryExactly) {
  constexpr MobilityProfile kProfile{0.3, 0.02};
  constexpr CostWeights kWeights{50.0, 2.0};
  constexpr std::int64_t kSlots = 3000;

  // Record a run under independent semantics (replay requires it).
  sim::Network source(
      sim::NetworkConfig{Dimension::kTwoD,
                         sim::SlotSemantics::kIndependent, 99},
      kWeights);
  EventLog recording;
  source.set_observer(&recording);
  const sim::TerminalId id = source.add_terminal(
      sim::make_distance_terminal(Dimension::kTwoD, kProfile, 3,
                                  DelayBound(2)));
  source.run(kSlots);
  const std::vector<Cell> trajectory = recording.trajectory(id);
  ASSERT_EQ(trajectory.size(), static_cast<std::size_t>(kSlots));

  // Replay the exact trajectory under a *different* policy.
  sim::Network replay(
      sim::NetworkConfig{Dimension::kTwoD,
                         sim::SlotSemantics::kIndependent, 4242},
      kWeights);
  EventLog verification;
  replay.set_observer(&verification);
  sim::TerminalSpec spec = sim::make_distance_terminal(
      Dimension::kTwoD, kProfile, 5, DelayBound(3));
  spec.mobility =
      std::make_unique<ScriptedMobility>(Dimension::kTwoD, Cell{},
                                         trajectory);
  const sim::TerminalId replay_id = replay.add_terminal(std::move(spec));
  replay.run(kSlots);

  const std::vector<Cell> replayed = verification.trajectory(replay_id);
  ASSERT_EQ(replayed.size(), trajectory.size());
  for (std::size_t k = 0; k < trajectory.size(); ++k) {
    ASSERT_EQ(replayed[k], trajectory[k]) << "slot " << k + 1;
  }
  // Same walk, same move count, independent of the replay network's seed.
  EXPECT_EQ(replay.metrics(replay_id).moves, source.metrics(id).moves);
}

TEST(ScriptedReplay, DifferentPoliciesOnTheSameTraceAreComparable) {
  // The point of replay: policy A vs policy B on the *identical* walk.
  constexpr MobilityProfile kProfile{0.3, 0.02};
  constexpr CostWeights kWeights{100.0, 10.0};
  constexpr std::int64_t kSlots = 20000;

  sim::Network source(
      sim::NetworkConfig{Dimension::kTwoD,
                         sim::SlotSemantics::kIndependent, 7},
      kWeights);
  EventLog recording;
  source.set_observer(&recording);
  const sim::TerminalId id = source.add_terminal(
      sim::make_distance_terminal(Dimension::kTwoD, kProfile, 3,
                                  DelayBound(2)));
  source.run(kSlots);
  const std::vector<Cell> trajectory = recording.trajectory(id);

  auto replay_cost = [&](int threshold) {
    sim::Network replay(
        sim::NetworkConfig{Dimension::kTwoD,
                           sim::SlotSemantics::kIndependent, 1},
        kWeights);
    sim::TerminalSpec spec = sim::make_distance_terminal(
        Dimension::kTwoD, kProfile, threshold, DelayBound(2));
    spec.mobility = std::make_unique<ScriptedMobility>(Dimension::kTwoD,
                                                       Cell{}, trajectory);
    const sim::TerminalId rid = replay.add_terminal(std::move(spec));
    replay.run(kSlots);
    return replay.metrics(rid).cost_per_slot();
  };

  // At q = 0.3, c = 0.02, U = 100, V = 10: a tiny threshold pays constant
  // updates, a huge one pays giant pages; the planned optimum (d* around
  // 3-5) must beat both extremes on this very walk.
  const double tiny = replay_cost(0);
  const double planned = replay_cost(4);
  const double huge = replay_cost(25);
  EXPECT_LT(planned, tiny);
  EXPECT_LT(planned, huge);
}

}  // namespace
}  // namespace pcn::trace
