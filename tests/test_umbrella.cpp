// The umbrella header must compile standalone and expose the whole public
// surface; this test drives one object from every module through it.
#include "pcn/pcn.hpp"

#include <gtest/gtest.h>

namespace {

TEST(Umbrella, EveryModuleIsReachable) {
  const pcn::MobilityProfile profile{0.05, 0.01};
  const pcn::CostWeights weights{100.0, 10.0};

  // geometry
  EXPECT_EQ(pcn::geometry::cells_within(pcn::Dimension::kTwoD, 2), 19);
  EXPECT_EQ(pcn::geometry::hex_from_spiral(0), (pcn::geometry::HexCell{}));

  // linalg
  EXPECT_EQ(pcn::linalg::Matrix::identity(2).at(1, 1), 1.0);

  // markov
  const auto pi = pcn::markov::solve_steady_state(
      pcn::markov::ChainSpec::one_dim(profile), 2);
  EXPECT_EQ(pi.size(), 3u);
  EXPECT_GT(pcn::markov::analyze_renewal(
                pcn::markov::ChainSpec::one_dim(profile), 2)
                .cycle_length(),
            0.0);

  // costs + optimize
  const pcn::costs::CostModel model =
      pcn::costs::CostModel::exact(pcn::Dimension::kTwoD, profile, weights);
  const pcn::optimize::Optimum optimum =
      pcn::optimize::exhaustive_search(model, pcn::DelayBound(2), 20);
  EXPECT_GE(optimum.threshold, 0);

  // stats
  pcn::stats::Summary summary;
  summary.add(1.0);
  EXPECT_EQ(summary.count(), 1);

  // proto
  pcn::proto::LocationUpdate update;
  update.terminal_id = 7;
  EXPECT_EQ(pcn::proto::decode_location_update(pcn::proto::encode(update)),
            update);

  // baselines
  EXPECT_GT(pcn::baselines::movement_based_costs(pcn::Dimension::kTwoD,
                                                 profile, weights, 3,
                                                 pcn::DelayBound(2))
                .total(),
            0.0);

  // capacity
  EXPECT_NEAR(pcn::capacity::erlang_b_blocking(1, 1.0), 0.5, 1e-12);

  // cli
  const char* argv[] = {"tool", "plan", "--q", "0.1"};
  const pcn::cli::Args args = pcn::cli::Args::parse(4, argv);
  EXPECT_EQ(args.command(), "plan");

  // core + sim + obs, end to end
  const pcn::core::LocationManager manager(pcn::Dimension::kTwoD, profile,
                                           weights);
  const pcn::core::LocationPlan plan = manager.plan(pcn::DelayBound(2));
  pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                 pcn::sim::SlotSemantics::kChainFaithful, 1};
  config.record_flight = true;
  config.flight_sample_every = 1;
  pcn::sim::Network network(config, weights);
  const pcn::sim::TerminalId id =
      network.add_terminal(manager.make_terminal_spec(plan));
  network.run(2000);
  EXPECT_EQ(network.metrics(id).slots, 2000);
  std::int64_t updates = 0;
  for (const pcn::obs::FlightEvent& event :
       network.flight_recorder()->merged()) {
    if (event.type == pcn::obs::FlightEventType::kLocationUpdate) ++updates;
  }
  EXPECT_EQ(network.flight_recorder()->dropped(), 0u);
  EXPECT_EQ(updates, network.metrics(id).updates);

  // trace: a scripted walk replays through the same simulator
  const pcn::trace::ScriptedMobility walk(pcn::Dimension::kTwoD,
                                          pcn::geometry::Cell{},
                                          {pcn::geometry::Cell{1, 0}});
  EXPECT_DOUBLE_EQ(walk.move_probability(1), 1.0);
}

}  // namespace
