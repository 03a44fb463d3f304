// Property suite: trace round-trips.  Recording a fleet's trajectories
// (record_trajectories) and replaying each through ScriptedMobility (same
// network seed, same attach order) must reproduce *identical* metrics —
// the event and walk RNG streams are split per purpose, so scripting the
// walk leaves the call stream untouched — and the replay must survive the
// sharded parallel path unchanged (scripted fleets are still lock-free
// terminals).
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "pcn/trace/scripted_mobility.hpp"
#include "support/fleet.hpp"
#include "support/property.hpp"

namespace pcn::proptest {
namespace {

constexpr int kTerminals = 4;
constexpr std::int64_t kSlots = 20000;

ScenarioLimits replay_limits() {
  ScenarioLimits limits;
  limits.max_threshold = 6;
  return limits;
}

std::optional<std::string> check_replay_round_trip(const Scenario& scenario) {
  sim::NetworkConfig config{scenario.dim, sim::SlotSemantics::kIndependent,
                            scenario.seed};
  config.engine = sim::SimEngine::kReference;
  sim::Network source(config, scenario.weights);
  std::vector<sim::TerminalId> ids;
  for (int i = 0; i < kTerminals; ++i) {
    ids.push_back(source.add_terminal(
        sim::make_distance_terminal(scenario.dim, scenario.profile,
                                    scenario.threshold, scenario.bound)));
  }
  const std::vector<std::vector<geometry::Cell>> trajectories =
      record_trajectories(source, ids, kSlots);

  const auto replay = [&](int threads) {
    sim::NetworkConfig replay_config = config;
    replay_config.threads = threads;
    sim::Network network(replay_config, scenario.weights);
    std::vector<sim::TerminalId> replay_ids;
    for (int i = 0; i < kTerminals; ++i) {
      sim::TerminalSpec spec = sim::make_distance_terminal(
          scenario.dim, scenario.profile, scenario.threshold, scenario.bound);
      spec.mobility = std::make_unique<trace::ScriptedMobility>(
          scenario.dim, geometry::Cell{},
          trajectories[static_cast<std::size_t>(i)]);
      replay_ids.push_back(network.add_terminal(std::move(spec)));
    }
    network.run(kSlots);
    std::vector<sim::TerminalMetrics> metrics;
    for (const sim::TerminalId id : replay_ids) {
      metrics.push_back(network.metrics(id));
    }
    return metrics;
  };

  const auto serial = replay(1);
  const auto sharded = replay(4);
  for (int i = 0; i < kTerminals; ++i) {
    const auto index = static_cast<std::size_t>(i);
    if (!metrics_identical(source.metrics(ids[index]), serial[index])) {
      return std::optional<std::string>(
          "replayed terminal " + std::to_string(i) +
          " diverged from the recording (1 thread)");
    }
    if (!metrics_identical(source.metrics(ids[index]), sharded[index])) {
      return std::optional<std::string>(
          "replayed terminal " + std::to_string(i) +
          " diverged from the recording (4 threads)");
    }
  }
  return std::nullopt;
}

TEST(PropReplay, RoundTripReproducesIdenticalMetricsThroughTheShardedPath) {
  PropertyOptions options;
  options.limits = replay_limits();
  check_property("replay/round-trip", check_replay_round_trip, options);
}

}  // namespace
}  // namespace pcn::proptest
