// Flight recorder: shard append/drop accounting, deterministic sampling,
// the (slot, terminal, seq) merge order, and the two simulator-level
// guarantees the subsystem is built on — TerminalMetrics stay bit-identical
// with recording on or off at any thread count, and the exported trace is
// byte-identical at 1 and 4 worker threads (see docs/observability.md) —
// plus a full recording's per-terminal agreement with TerminalMetrics.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "pcn/obs/flight_recorder.hpp"
#include "pcn/obs/trace_export.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::obs {
namespace {

FlightEvent make_event(std::int64_t slot, std::int32_t terminal,
                       std::uint32_t seq, FlightEventType type) {
  FlightEvent event;
  event.slot = slot;
  event.terminal = terminal;
  event.seq = seq;
  event.type = type;
  return event;
}

TEST(FlightRecorderTest, TypeNamesRoundTrip) {
  for (int raw = 0; raw <= static_cast<int>(FlightEventType::kAreaReset);
       ++raw) {
    const auto type = static_cast<FlightEventType>(raw);
    FlightEventType parsed;
    ASSERT_TRUE(parse_flight_event_type(to_string(type), &parsed))
        << to_string(type);
    EXPECT_EQ(parsed, type);
  }
  FlightEventType parsed;
  EXPECT_FALSE(parse_flight_event_type("bogus", &parsed));
  EXPECT_FALSE(parse_flight_event_type("", &parsed));
}

TEST(FlightRecorderTest, ShardDropsWhenFullAndCounts) {
  FlightRecorderConfig config;
  config.shard_capacity = 4;
  FlightRecorder recorder(config);
  recorder.ensure_shards(1);
  for (std::int64_t i = 0; i < 10; ++i) {
    recorder.shard(0).append(
        make_event(i, 0, 0, FlightEventType::kCallArrival));
  }
  EXPECT_EQ(recorder.recorded(), 4u);
  EXPECT_EQ(recorder.dropped(), 6u);
  // The first `capacity` events are the ones retained (append-only log).
  EXPECT_EQ(recorder.shard(0).events().front().slot, 0);
  EXPECT_EQ(recorder.shard(0).events().back().slot, 3);

  recorder.clear();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  recorder.shard(0).append(make_event(7, 0, 0, FlightEventType::kCallFound));
  EXPECT_EQ(recorder.recorded(), 1u);
}

TEST(FlightRecorderTest, SamplingIsEveryNthOrdinal) {
  FlightRecorderConfig config;
  config.sample_every = 4;
  const FlightRecorder recorder(config);
  int sampled = 0;
  for (std::uint64_t ordinal = 0; ordinal < 40; ++ordinal) {
    if (recorder.sampled(ordinal)) ++sampled;
  }
  EXPECT_EQ(sampled, 10);
  EXPECT_TRUE(recorder.sampled(0));
  EXPECT_FALSE(recorder.sampled(1));
  EXPECT_TRUE(recorder.sampled(4));

  // sample_every = 1 records everything.
  EXPECT_TRUE(FlightRecorder().sampled(3) == false);  // default is 1-in-8
  FlightRecorderConfig all;
  all.sample_every = 1;
  EXPECT_TRUE(FlightRecorder(all).sampled(3));
}

TEST(FlightRecorderTest, MergedSortsBySlotTerminalSeq) {
  FlightRecorder recorder;
  recorder.ensure_shards(2);
  // Interleave out-of-order events across two shards.
  recorder.shard(0).append(make_event(5, 1, 0, FlightEventType::kCallArrival));
  recorder.shard(0).append(make_event(5, 1, 1, FlightEventType::kPollCycle));
  recorder.shard(1).append(make_event(2, 3, 0, FlightEventType::kCallFound));
  recorder.shard(1).append(
      make_event(5, 0, 0, FlightEventType::kLocationUpdate));
  recorder.shard(0).append(make_event(2, 0, 0, FlightEventType::kAreaReset));

  const std::vector<FlightEvent> merged = recorder.merged();
  ASSERT_EQ(merged.size(), 5u);
  EXPECT_EQ(merged[0].slot, 2);
  EXPECT_EQ(merged[0].terminal, 0);
  EXPECT_EQ(merged[1].slot, 2);
  EXPECT_EQ(merged[1].terminal, 3);
  EXPECT_EQ(merged[2].slot, 5);
  EXPECT_EQ(merged[2].terminal, 0);
  EXPECT_EQ(merged[3].terminal, 1);
  EXPECT_EQ(merged[3].seq, 0u);
  EXPECT_EQ(merged[4].seq, 1u);
}

// ---- Simulator-level guarantees ---------------------------------------------

constexpr MobilityProfile kProfile{0.2, 0.05};
constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 16;
constexpr std::int64_t kSlots = 6000;

sim::NetworkConfig make_config(bool record, int threads,
                               std::uint64_t sample_every) {
  sim::NetworkConfig config{Dimension::kTwoD,
                            sim::SlotSemantics::kChainFaithful, 77};
  config.threads = threads;
  config.record_flight = record;
  config.flight_sample_every = sample_every;
  config.update_loss_prob = 0.01;  // exercise the lost/fallback paths too
  return config;
}

std::vector<sim::TerminalId> add_mixed_fleet(sim::Network& network) {
  using namespace pcn::sim;
  std::vector<TerminalId> ids;
  for (int i = 0; i < kTerminals; ++i) {
    switch (i % 4) {
      case 0:
        ids.push_back(network.add_terminal(make_distance_terminal(
            Dimension::kTwoD, kProfile, 1 + i % 4, pcn::DelayBound(2))));
        break;
      case 1:
        ids.push_back(network.add_terminal(make_movement_terminal(
            Dimension::kTwoD, kProfile, 2 + i % 4, pcn::DelayBound(3))));
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

void expect_metrics_identical(const sim::TerminalMetrics& a,
                              const sim::TerminalMetrics& b,
                              sim::TerminalId id) {
  SCOPED_TRACE(::testing::Message() << "terminal " << id);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.polled_cells, b.polled_cells);
  EXPECT_EQ(a.lost_updates, b.lost_updates);
  EXPECT_EQ(a.paging_failures, b.paging_failures);
  // Exact even for the floating-point costs: recording may not perturb
  // the per-event addends or their per-terminal order.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  ASSERT_EQ(a.paging_cycles.bucket_count(), b.paging_cycles.bucket_count());
  for (int v = 0; v < a.paging_cycles.bucket_count(); ++v) {
    EXPECT_EQ(a.paging_cycles.count(v), b.paging_cycles.count(v));
  }
}

TEST(FlightRecorderNetworkTest, MetricsBitIdenticalWithRecordingOnOrOff) {
  sim::Network reference(make_config(false, 1, 1), kWeights);
  const std::vector<sim::TerminalId> ids = add_mixed_fleet(reference);
  reference.run(kSlots);
  EXPECT_EQ(reference.flight_recorder(), nullptr);

  for (const bool record : {false, true}) {
    for (const int threads : {1, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "record_flight=" << record << " threads=" << threads);
      sim::Network network(make_config(record, threads, 1), kWeights);
      add_mixed_fleet(network);
      network.run(kSlots);
      for (const sim::TerminalId id : ids) {
        expect_metrics_identical(reference.metrics(id), network.metrics(id),
                                 id);
      }
    }
  }
}

TEST(FlightRecorderNetworkTest, ExportByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> exports;
  for (const int threads : {1, 4}) {
    sim::Network network(make_config(true, threads, 2), kWeights);
    add_mixed_fleet(network);
    network.run(kSlots);
    const FlightRecorder* recorder = network.flight_recorder();
    ASSERT_NE(recorder, nullptr);
    ASSERT_EQ(recorder->dropped(), 0u);
    EXPECT_GT(recorder->recorded(), 0u);
    // Identical meta on purpose: the recording itself must already be
    // thread-count independent, so the documents compare byte-for-byte.
    TraceMeta meta;
    meta.dimension = 2;
    meta.seed = 77;
    meta.slots = kSlots;
    meta.policy = "mixed";
    meta.sample_every = 2;
    exports.push_back(to_trace_jsonl(meta, recorder->merged()));
  }
  EXPECT_EQ(exports[0], exports[1]);
}

TEST(FlightRecorderNetworkTest, FullRecordingAccountsForEveryEvent) {
  // With every lifecycle recorded, each terminal's events add up to its
  // own TerminalMetrics — calls, polled cells, updates (delivered + lost)
  // and fallbacks — and a call found inside the schedule used at most the
  // terminal's delay bound.
  for (const int threads : {1, 4}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    sim::NetworkConfig config = make_config(true, threads, 1);
    config.flight_shard_capacity = std::size_t{1} << 18;
    sim::Network network(config, kWeights);
    const std::vector<sim::TerminalId> ids = add_mixed_fleet(network);
    network.run(kSlots);
    const FlightRecorder* recorder = network.flight_recorder();
    ASSERT_EQ(recorder->dropped(), 0u);

    struct Tally {
      std::int64_t calls = 0, polled = 0, updates = 0, lost = 0,
                   fallbacks = 0;
    };
    std::vector<Tally> tallies(ids.size());
    for (const FlightEvent& event : recorder->merged()) {
      Tally& tally = tallies[static_cast<std::size_t>(event.terminal)];
      switch (event.type) {
        case FlightEventType::kCallFound: {
          ++tally.calls;
          tally.polled += event.cells;
          EXPECT_GE(event.cycle, 1);
          const DelayBound bound =
              network.paging_policy(event.terminal).delay_bound();
          if (event.found && !bound.is_unbounded()) {
            EXPECT_LE(event.cycle, bound.cycles());
          }
          break;
        }
        case FlightEventType::kLocationUpdate:
          ++tally.updates;
          break;
        case FlightEventType::kUpdateLost:
          ++tally.updates;
          ++tally.lost;
          break;
        case FlightEventType::kPageFallback:
          ++tally.fallbacks;
          break;
        default:
          break;
      }
    }
    for (const sim::TerminalId id : ids) {
      SCOPED_TRACE(::testing::Message() << "terminal " << id);
      const sim::TerminalMetrics& metrics = network.metrics(id);
      const Tally& tally = tallies[static_cast<std::size_t>(id)];
      EXPECT_GT(tally.calls, 0);
      EXPECT_EQ(tally.calls, metrics.calls);
      EXPECT_EQ(tally.polled, metrics.polled_cells);
      EXPECT_EQ(tally.updates, metrics.updates);
      EXPECT_EQ(tally.lost, metrics.lost_updates);
      EXPECT_EQ(tally.fallbacks, metrics.paging_failures);
    }
  }
}

TEST(FlightRecorderNetworkTest, SamplingThinsTheRecording) {
  std::uint64_t recorded_all = 0;
  std::uint64_t recorded_sampled = 0;
  for (const std::uint64_t every : {std::uint64_t{1}, std::uint64_t{8}}) {
    sim::Network network(make_config(true, 1, every), kWeights);
    add_mixed_fleet(network);
    network.run(kSlots);
    (every == 1 ? recorded_all : recorded_sampled) =
        network.flight_recorder()->recorded();
  }
  EXPECT_GT(recorded_all, 0u);
  EXPECT_GT(recorded_sampled, 0u);
  // 1-in-8 sampling keeps roughly an eighth of the full recording.
  EXPECT_LT(recorded_sampled, recorded_all / 4);
}

}  // namespace
}  // namespace pcn::obs
