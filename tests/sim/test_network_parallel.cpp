// The sharded parallel simulation engine: Network::run must produce
// bit-identical per-terminal metrics for every thread count (per-terminal
// split RNG streams, shard-local state), give the same result however the
// run is split into run(k) calls, and keep all existing invariants.
#include <gtest/gtest.h>

#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::sim {
namespace {

constexpr MobilityProfile kProfile{0.2, 0.05};
constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 64;
constexpr std::int64_t kSlots = 10000;

NetworkConfig config_with_threads(int threads, std::uint64_t seed = 99,
                                  double loss = 0.0) {
  NetworkConfig config{Dimension::kTwoD, SlotSemantics::kChainFaithful,
                       seed};
  config.threads = threads;
  config.update_loss_prob = loss;
  return config;
}

/// A fleet mixing all four policy kinds round-robin with varied parameters.
std::vector<TerminalId> add_mixed_fleet(Network& network, int terminals) {
  std::vector<TerminalId> ids;
  for (int i = 0; i < terminals; ++i) {
    switch (i % 4) {
      case 0:
        ids.push_back(network.add_terminal(make_distance_terminal(
            Dimension::kTwoD, kProfile, 1 + i % 4, DelayBound(2))));
        break;
      case 1:
        ids.push_back(network.add_terminal(make_movement_terminal(
            Dimension::kTwoD, kProfile, 2 + i % 4, DelayBound(3))));
        break;
      case 2:
        ids.push_back(network.add_terminal(
            make_time_terminal(Dimension::kTwoD, kProfile, 10 + i % 7)));
        break;
      default:
        ids.push_back(network.add_terminal(
            make_la_terminal(Dimension::kTwoD, kProfile, 1 + i % 3)));
        break;
    }
  }
  return ids;
}

void expect_histograms_equal(const stats::Histogram& a,
                             const stats::Histogram& b) {
  ASSERT_EQ(a.bucket_count(), b.bucket_count());
  EXPECT_EQ(a.total(), b.total());
  for (int v = 0; v < a.bucket_count(); ++v) {
    EXPECT_EQ(a.count(v), b.count(v)) << "bucket " << v;
  }
}

void expect_metrics_identical(const TerminalMetrics& a,
                              const TerminalMetrics& b, TerminalId id) {
  SCOPED_TRACE(::testing::Message() << "terminal " << id);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.polled_cells, b.polled_cells);
  EXPECT_EQ(a.update_bytes, b.update_bytes);
  EXPECT_EQ(a.paging_bytes, b.paging_bytes);
  EXPECT_EQ(a.lost_updates, b.lost_updates);
  EXPECT_EQ(a.paging_failures, b.paging_failures);
  // Costs are sums of identical per-event addends in identical per-terminal
  // order, so even floating-point results match exactly.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

std::vector<TerminalMetrics> run_fleet(int threads, double loss = 0.0) {
  Network network(config_with_threads(threads, 99, loss), kWeights);
  const std::vector<TerminalId> ids = add_mixed_fleet(network, kTerminals);
  network.run(kSlots);
  std::vector<TerminalMetrics> metrics;
  for (TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
}

TEST(NetworkParallel, ThreadCountDoesNotChangeAnyTerminalMetric) {
  const std::vector<TerminalMetrics> serial = run_fleet(1);
  for (int threads : {2, 4, 0}) {  // 0 = hardware concurrency
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const std::vector<TerminalMetrics> parallel = run_fleet(threads);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      expect_metrics_identical(serial[i], parallel[i],
                               static_cast<TerminalId>(i));
    }
  }
}

TEST(NetworkParallel, DeterministicUnderLossInjectionToo) {
  const std::vector<TerminalMetrics> serial = run_fleet(1, 0.2);
  const std::vector<TerminalMetrics> parallel = run_fleet(4, 0.2);
  ASSERT_EQ(serial.size(), parallel.size());
  std::int64_t lost = 0;
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_metrics_identical(serial[i], parallel[i],
                             static_cast<TerminalId>(i));
    lost += serial[i].lost_updates;
  }
  EXPECT_GT(lost, 0);  // the loss path was actually exercised
}

TEST(NetworkParallel, EventsSplittingTheRunPreserveDeterminism) {
  // The run is split into run(500) calls: the points where a caller may
  // retarget policies between calls.
  auto run_chopped = [](int threads) {
    Network network(config_with_threads(threads), kWeights);
    const std::vector<TerminalId> ids = add_mixed_fleet(network, kTerminals);
    for (SimTime at = 0; at < kSlots; at += 500) network.run(500);
    EXPECT_EQ(network.now(), kSlots);
    std::vector<TerminalMetrics> metrics;
    for (TerminalId id : ids) metrics.push_back(network.metrics(id));
    return metrics;
  };
  const std::vector<TerminalMetrics> serial = run_chopped(1);
  const std::vector<TerminalMetrics> parallel = run_chopped(4);
  // Also: chopping the range into run(k) calls must not change the
  // outcome relative to an unchopped run.
  const std::vector<TerminalMetrics> unchopped = run_fleet(1);
  for (std::size_t i = 0; i < serial.size(); ++i) {
    expect_metrics_identical(serial[i], parallel[i],
                             static_cast<TerminalId>(i));
    expect_metrics_identical(serial[i], unchopped[i],
                             static_cast<TerminalId>(i));
  }
}

TEST(NetworkParallel, SplitRunsMatchOneShotRuns) {
  auto run_split = [](int threads) {
    Network network(config_with_threads(threads), kWeights);
    const std::vector<TerminalId> ids = add_mixed_fleet(network, kTerminals);
    network.run(kSlots / 4);
    network.run(kSlots / 4);
    network.run(kSlots / 2);
    std::vector<TerminalMetrics> metrics;
    for (TerminalId id : ids) metrics.push_back(network.metrics(id));
    return metrics;
  };
  const std::vector<TerminalMetrics> split = run_split(4);
  const std::vector<TerminalMetrics> one_shot = run_fleet(1);
  for (std::size_t i = 0; i < split.size(); ++i) {
    expect_metrics_identical(split[i], one_shot[i],
                             static_cast<TerminalId>(i));
  }
}

TEST(NetworkParallel, ClockCountsSlotsAcrossRunCalls) {
  Network network(config_with_threads(4), kWeights);
  const std::vector<TerminalId> ids = add_mixed_fleet(network, kTerminals);
  EXPECT_EQ(network.now(), 0);
  network.run(0);
  EXPECT_EQ(network.now(), 0);
  network.run(777);
  EXPECT_EQ(network.now(), 777);
  EXPECT_THROW(network.run(-1), InvalidArgument);
  EXPECT_EQ(network.now(), 777);
  network.run(1);
  EXPECT_EQ(network.now(), 778);
  // Every terminal has lived through exactly the slots the clock counts.
  for (TerminalId id : ids) EXPECT_EQ(network.metrics(id).slots, 778);
}

TEST(NetworkParallel, TimeseriesBoundariesDoNotChangeAnyTerminalMetric) {
  // Sampling every 333 slots splits the run at boundaries that divide
  // neither the run nor the fleet's shards evenly.
  NetworkConfig config = config_with_threads(4);
  config.timeseries_every_slots = 333;
  Network network(config, kWeights);
  const std::vector<TerminalId> ids = add_mixed_fleet(network, kTerminals);
  network.run(kSlots);
  ASSERT_NE(network.timeseries(), nullptr);
  // The baseline sample, one per boundary, and one at the run's end.
  EXPECT_EQ(network.timeseries()->sample_count(),
            static_cast<std::size_t>(1 + (kSlots + 332) / 333));
  const std::vector<TerminalMetrics> unsplit = run_fleet(1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_metrics_identical(network.metrics(ids[i]), unsplit[i], ids[i]);
  }
}

TEST(NetworkParallel, RejectsNegativeThreadCount) {
  EXPECT_THROW(Network(config_with_threads(-1), kWeights), InvalidArgument);
}

TEST(NetworkParallel, PropagatesWorkerExceptions) {
  // q + c > 1 violates chain-faithful semantics; the throw happens on a
  // shard worker and must surface to the caller.
  Network network(config_with_threads(4), kWeights);
  add_mixed_fleet(network, kTerminals);
  TerminalSpec bad =
      make_distance_terminal(Dimension::kTwoD, kProfile, 2, DelayBound(1));
  bad.call_prob = 0.85;
  network.add_terminal(std::move(bad));
  EXPECT_THROW(network.run(1000), InvalidArgument);
}

}  // namespace
}  // namespace pcn::sim
