// Engine equivalence: the struct-of-arrays fast path (sim/soa_engine.cpp)
// must be bit-identical to the reference polymorphic slot loop — every
// TerminalMetrics field including floating-point costs and histograms,
// signalling byte counts, and the flight-recorder event stream — at any
// thread count, for both geometries and both slot semantics.  Also covers
// engine selection: kAuto picks the fast path only for canonical fleets,
// kSoa rejects everything else with a diagnostic.
#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/obs/flight_recorder.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::sim {
namespace {

constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 48;
constexpr std::int64_t kSlots = 6000;

NetworkConfig make_config(Dimension dim, SlotSemantics semantics,
                          SimEngine engine, int threads) {
  NetworkConfig config{dim, semantics, 4242};
  config.threads = threads;
  config.engine = engine;
  return config;
}

/// A canonical fleet sweeping (q, c, d, m) so every paging table shape and
/// both hot-loop specializations get coverage.
std::vector<TerminalId> add_canonical_fleet(Network& network, Dimension dim,
                                            int terminals = kTerminals) {
  std::vector<TerminalId> ids;
  for (int i = 0; i < terminals; ++i) {
    const MobilityProfile profile{0.05 + 0.07 * (i % 5),
                                  0.01 + 0.02 * (i % 3)};
    ids.push_back(network.add_terminal(make_distance_terminal(
        dim, profile, 1 + i % 4, DelayBound(1 + i % 3))));
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
  // Bit-exact, not approximate: the SoA loop replays the reference
  // engine's floating-point accumulation order.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

std::vector<TerminalMetrics> run_canonical(Dimension dim,
                                           SlotSemantics semantics,
                                           SimEngine engine, int threads,
                                           bool* soa_active = nullptr) {
  Network network(make_config(dim, semantics, engine, threads), kWeights);
  const std::vector<TerminalId> ids = add_canonical_fleet(network, dim);
  network.run(kSlots);
  if (soa_active != nullptr) *soa_active = network.soa_active();
  std::vector<TerminalMetrics> metrics;
  for (TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
}

TEST(SoaEngine, BitIdenticalToReferenceAcrossDimsSemanticsAndThreads) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      const std::vector<TerminalMetrics> reference =
          run_canonical(dim, semantics, SimEngine::kReference, 1);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        bool active = false;
        const std::vector<TerminalMetrics> soa =
            run_canonical(dim, semantics, SimEngine::kSoa, threads, &active);
        EXPECT_TRUE(active);
        ASSERT_EQ(reference.size(), soa.size());
        for (std::size_t i = 0; i < reference.size(); ++i) {
          expect_metrics_identical(reference[i], soa[i],
                                   static_cast<TerminalId>(i));
        }
      }
    }
  }
}

// The flat per-terminal state the fast path keeps (doubles, ints, two
// RNG streams, flags): pinned so a layout change is a visible decision.
TEST(SoaEngine, FlatFootprintIs157BytesPerTerminal) {
  Network network(make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                              SimEngine::kSoa, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  network.run(100);
  ASSERT_TRUE(network.soa_active());
  EXPECT_EQ(network.soa_bytes_per_terminal(), 157u);
}

TEST(SoaEngine, AutoSelectsSoaForCanonicalFleetOnly) {
  bool active = false;
  const std::vector<TerminalMetrics> auto_run = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful, SimEngine::kAuto, 4,
      &active);
  EXPECT_TRUE(active);
  const std::vector<TerminalMetrics> reference =
      run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                    SimEngine::kReference, 4, &active);
  EXPECT_FALSE(active);
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_metrics_identical(reference[i], auto_run[i],
                             static_cast<TerminalId>(i));
  }
}

TEST(SoaEngine, AutoFallsBackWhenFleetIsNotCanonical) {
  auto config = make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kAuto, 2);
  Network network(config, kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 4);
  network.add_terminal(make_movement_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 3, DelayBound(2)));
  network.run(2000);  // must not throw
  EXPECT_FALSE(network.soa_active());
}

TEST(SoaEngine, AutoFallsBackUnderLossInjection) {
  auto config = make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kAuto, 1);
  config.update_loss_prob = 0.1;
  Network network(config, kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 4);
  network.run(2000);
  EXPECT_FALSE(network.soa_active());
}

TEST(SoaEngine, ForcedSoaRejectsNonCanonicalFleet) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSoa,
                              1),
                  kWeights);
  network.add_terminal(make_movement_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 3, DelayBound(2)));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

TEST(SoaEngine, ForcedSoaRejectsObserversAndLoss) {
  {
    Network network(make_config(Dimension::kTwoD,
                                SlotSemantics::kChainFaithful,
                                SimEngine::kSoa, 1),
                    kWeights);
    add_canonical_fleet(network, Dimension::kTwoD, 2);
    NetworkObserver observer;
    network.set_observer(&observer);
    EXPECT_THROW(network.run(100), InvalidArgument);
  }
  {
    auto config = make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSoa,
                              1);
    config.update_loss_prob = 0.1;
    Network network(config, kWeights);
    add_canonical_fleet(network, Dimension::kTwoD, 2);
    EXPECT_THROW(network.run(100), InvalidArgument);
  }
}

TEST(SoaEngine, FlightRecordingIsBitIdenticalAcrossEngines) {
  auto record = [](SimEngine engine, int threads) {
    auto config = make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, engine, threads);
    config.record_flight = true;
    config.flight_sample_every = 2;
    Network network(config, kWeights);
    add_canonical_fleet(network, Dimension::kTwoD, 16);
    network.run(3000);
    EXPECT_EQ(network.flight_recorder()->dropped(), 0u);
    return network.flight_recorder()->merged();
  };
  const std::vector<obs::FlightEvent> reference =
      record(SimEngine::kReference, 1);
  ASSERT_FALSE(reference.empty());
  for (int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    const std::vector<obs::FlightEvent> soa =
        record(SimEngine::kSoa, threads);
    ASSERT_EQ(reference.size(), soa.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_TRUE(reference[i] == soa[i]) << "event " << i;
    }
  }
}

TEST(SoaEngine, UserEventsSplittingTheRunPreserveIdentity) {
  auto run_with_events = [](SimEngine engine) {
    Network network(make_config(Dimension::kTwoD,
                                SlotSemantics::kChainFaithful, engine, 4),
                    kWeights);
    const std::vector<TerminalId> ids =
        add_canonical_fleet(network, Dimension::kTwoD);
    // Events force segment boundaries and (for the SoA engine) the
    // mid-run revalidation path.
    for (SimTime at : {SimTime{1}, SimTime{1500}, SimTime{1501},
                       SimTime{kSlots - 1}}) {
      network.events().schedule(at, [] {});
    }
    network.run(kSlots);
    std::vector<TerminalMetrics> metrics;
    for (TerminalId id : ids) metrics.push_back(network.metrics(id));
    return metrics;
  };
  const std::vector<TerminalMetrics> soa =
      run_with_events(SimEngine::kSoa);
  // Reference run without events: segment chopping must be unobservable.
  const std::vector<TerminalMetrics> reference = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful,
      SimEngine::kReference, 1);
  ASSERT_EQ(reference.size(), soa.size());
  for (std::size_t i = 0; i < reference.size(); ++i) {
    expect_metrics_identical(reference[i], soa[i],
                             static_cast<TerminalId>(i));
  }
}

TEST(SoaEngine, SplitRunsMatchOneShotRuns) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSoa,
                              4),
                  kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(network, Dimension::kTwoD);
  network.run(kSlots / 4);
  network.run(kSlots / 4);
  network.run(kSlots / 2);
  const std::vector<TerminalMetrics> reference = run_canonical(
      Dimension::kTwoD, SlotSemantics::kChainFaithful,
      SimEngine::kReference, 1);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    expect_metrics_identical(reference[i], network.metrics(ids[i]), ids[i]);
  }
}

TEST(SoaEngine, ChainSemanticsStillRejectImpossibleProfiles) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful, SimEngine::kSoa,
                              1),
                  kWeights);
  TerminalSpec bad = make_distance_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 2, DelayBound(2));
  bad.call_prob = 0.85;  // q + c > 1
  network.add_terminal(std::move(bad));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

}  // namespace
}  // namespace pcn::sim
