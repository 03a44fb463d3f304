// Recorded walks: the per-slot cells record_trajectories reads off a
// network stepped one run(1) at a time, checked against the simulator's
// own accounts of the same run — TerminalMetrics, the full flight
// recording, a one-shot run of the same seed and the other engine.  The
// walk is what trace::ScriptedMobility replays, so these pin that the
// recording is faithful: neighbour-only steps, one cell per slot, and a
// distance policy whose updates, pages and ring-distance histogram all
// follow from the walk and the call slots alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "pcn/obs/flight_recorder.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/trace/scripted_mobility.hpp"
#include "support/fleet.hpp"

namespace pcn::trace {
namespace {

using geometry::Cell;
using obs::FlightEvent;
using obs::FlightEventType;

constexpr MobilityProfile kProfile{0.2, 0.05};
constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kThreshold = 3;
constexpr int kDelay = 2;
constexpr std::int64_t kSlots = 4000;

/// Reference engine (record_trajectories requires it), optionally with
/// every call and update lifecycle flight-recorded.
sim::NetworkConfig walk_config(Dimension dim, sim::SlotSemantics semantics,
                               std::uint64_t seed, bool record) {
  sim::NetworkConfig config{dim, semantics, seed};
  config.engine = sim::SimEngine::kReference;
  if (record) {
    config.record_flight = true;
    config.flight_sample_every = 1;
    config.flight_shard_capacity = std::size_t{1} << 18;
  }
  return config;
}

sim::TerminalId add_walker(sim::Network& network, Dimension dim,
                           MobilityProfile profile = kProfile) {
  return network.add_terminal(
      sim::make_distance_terminal(dim, profile, kThreshold,
                                  DelayBound(kDelay)));
}

std::vector<Cell> record_one(sim::Network& network, sim::TerminalId id,
                             std::int64_t slots) {
  return proptest::record_trajectories(network, {id}, slots).front();
}

std::int64_t count_cell_changes(Dimension dim,
                                const std::vector<Cell>& walk) {
  std::int64_t changes = 0;
  Cell previous{};
  for (const Cell& cell : walk) {
    if (geometry::cell_distance(dim, previous, cell) != 0) ++changes;
    previous = cell;
  }
  return changes;
}

/// The distance policy's bookkeeping re-derived from a recorded walk and
/// the slots the terminal was called in, in the simulator's slot order:
/// move, update when the ring distance exceeds the threshold, page, then
/// sample the ring distance.  Updates and pages re-center on the
/// terminal's cell.
struct CenterTrack {
  std::vector<std::int64_t> update_slots;
  std::vector<std::int64_t> call_distances;  ///< per call, in call order
  stats::Histogram ring_distance;
};

CenterTrack track_center(Dimension dim, const std::vector<Cell>& walk,
                         const std::vector<std::int64_t>& call_slots) {
  CenterTrack track;
  Cell center{};
  std::size_t next_call = 0;
  for (std::size_t k = 0; k < walk.size(); ++k) {
    const auto slot = static_cast<std::int64_t>(k) + 1;
    const Cell cell = walk[k];
    if (geometry::cell_distance(dim, cell, center) > kThreshold) {
      track.update_slots.push_back(slot);
      center = cell;
    }
    if (next_call < call_slots.size() && call_slots[next_call] == slot) {
      track.call_distances.push_back(
          geometry::cell_distance(dim, cell, center));
      center = cell;
      ++next_call;
    }
    track.ring_distance.add(
        static_cast<int>(geometry::cell_distance(dim, cell, center)));
  }
  return track;
}

std::vector<std::int64_t> slots_of(const std::vector<FlightEvent>& events,
                                   FlightEventType type) {
  std::vector<std::int64_t> slots;
  for (const FlightEvent& event : events) {
    if (event.type == type) slots.push_back(event.slot);
  }
  return slots;
}

/// One fully recorded walker: its walk, metrics and merged recording.
struct RecordedRun {
  std::vector<Cell> walk;
  sim::TerminalMetrics metrics;
  std::vector<FlightEvent> events;
};

RecordedRun record_walker(Dimension dim, sim::SlotSemantics semantics,
                          std::uint64_t seed) {
  sim::Network network(walk_config(dim, semantics, seed, true), kWeights);
  const sim::TerminalId id = add_walker(network, dim);
  RecordedRun run;
  run.walk = record_one(network, id, kSlots);
  run.metrics = network.metrics(id);
  EXPECT_EQ(network.flight_recorder()->dropped(), 0u);
  run.events = network.flight_recorder()->merged();
  return run;
}

constexpr sim::SlotSemantics kBothSemantics[] = {
    sim::SlotSemantics::kChainFaithful, sim::SlotSemantics::kIndependent};

TEST(RecordedWalk, StepsGoOnlyToNeighboringCells) {
  for (const Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    SCOPED_TRACE(::testing::Message() << "dim=" << static_cast<int>(dim));
    sim::Network network(
        walk_config(dim, sim::SlotSemantics::kChainFaithful, 7, false),
        kWeights);
    const std::vector<Cell> walk =
        record_one(network, add_walker(network, dim), kSlots);
    Cell previous{};
    for (std::size_t k = 0; k < walk.size(); ++k) {
      ASSERT_LE(geometry::cell_distance(dim, previous, walk[k]), 1)
          << "slot " << k + 1;
      if (dim == Dimension::kOneD) {
        ASSERT_EQ(walk[k].r, 0) << "slot " << k + 1;
      }
      previous = walk[k];
    }
  }
}

TEST(RecordedWalk, HasOneCellPerSlotAndOneChangePerMove) {
  for (const Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    SCOPED_TRACE(::testing::Message() << "dim=" << static_cast<int>(dim));
    sim::Network network(
        walk_config(dim, sim::SlotSemantics::kIndependent, 9, false),
        kWeights);
    const sim::TerminalId id = add_walker(network, dim);
    const std::vector<Cell> walk = record_one(network, id, 1234);
    ASSERT_EQ(walk.size(), 1234u);
    EXPECT_EQ(network.now(), 1234);
    EXPECT_EQ(network.metrics(id).slots, 1234);
    EXPECT_GT(network.metrics(id).moves, 0);
    EXPECT_EQ(count_cell_changes(dim, walk), network.metrics(id).moves);
  }
}

TEST(RecordedWalk, TwoTerminalsWalkIndependently) {
  // A slow second terminal neither shows up in the first one's walk nor
  // changes it: each walk's cell changes are that terminal's own moves.
  const MobilityProfile slow{0.01, 0.001};
  sim::Network pair(
      walk_config(Dimension::kTwoD, sim::SlotSemantics::kChainFaithful, 6,
                  false),
      kWeights);
  const sim::TerminalId a = add_walker(pair, Dimension::kTwoD);
  const sim::TerminalId b = add_walker(pair, Dimension::kTwoD, slow);
  const auto walks = proptest::record_trajectories(pair, {a, b}, kSlots);
  const std::int64_t moves_a = count_cell_changes(Dimension::kTwoD, walks[0]);
  const std::int64_t moves_b = count_cell_changes(Dimension::kTwoD, walks[1]);
  EXPECT_EQ(moves_a, pair.metrics(a).moves);
  EXPECT_EQ(moves_b, pair.metrics(b).moves);
  EXPECT_GT(moves_a, moves_b);

  sim::Network alone(
      walk_config(Dimension::kTwoD, sim::SlotSemantics::kChainFaithful, 6,
                  false),
      kWeights);
  const sim::TerminalId only = add_walker(alone, Dimension::kTwoD);
  EXPECT_EQ(record_one(alone, only, kSlots), walks[0]);
}

TEST(RecordedWalk, SteppingOneSlotAtATimeMatchesOneRun) {
  for (const sim::SlotSemantics semantics : kBothSemantics) {
    SCOPED_TRACE(::testing::Message()
                 << "semantics=" << static_cast<int>(semantics));
    sim::Network stepped(walk_config(Dimension::kTwoD, semantics, 21, false),
                         kWeights);
    sim::Network one_shot(
        walk_config(Dimension::kTwoD, semantics, 21, false), kWeights);
    std::vector<sim::TerminalId> ids;
    for (int i = 0; i < 4; ++i) {
      ids.push_back(add_walker(stepped, Dimension::kTwoD));
      add_walker(one_shot, Dimension::kTwoD);
    }
    const auto walks = proptest::record_trajectories(stepped, ids, kSlots);
    one_shot.run(kSlots);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_TRUE(proptest::metrics_identical(stepped.metrics(ids[i]),
                                              one_shot.metrics(ids[i])))
          << "terminal " << ids[i];
      EXPECT_EQ(walks[i].back(), one_shot.terminal(ids[i]).position());
    }
  }
}

TEST(RecordedWalk, SteppedRecordingEqualsOneRunRecording) {
  // The flight recorder keeps appending across run() calls and numbers
  // events per (slot, terminal), so stepping leaves the merged recording
  // of a multi-terminal fleet exactly as one run writes it.
  const auto recording = [](bool step) {
    sim::Network network(
        walk_config(Dimension::kTwoD, sim::SlotSemantics::kIndependent, 33,
                    true),
        kWeights);
    std::vector<sim::TerminalId> ids;
    for (int i = 0; i < 3; ++i) {
      ids.push_back(add_walker(network, Dimension::kTwoD));
    }
    if (step) {
      proptest::record_trajectories(network, ids, 1500);
    } else {
      network.run(1500);
    }
    EXPECT_EQ(network.flight_recorder()->dropped(), 0u);
    return network.flight_recorder()->merged();
  };
  const std::vector<FlightEvent> stepped = recording(true);
  EXPECT_FALSE(stepped.empty());
  EXPECT_EQ(stepped, recording(false));
}

TEST(RecordedWalk, EnginesWalkTheSameCells) {
  // Record on the reference engine, then run the same seed on the
  // auto-selected engine (the SIMD engine wherever a kernel is available)
  // and compare every terminal's cell at several run boundaries.
  sim::Network reference(
      walk_config(Dimension::kTwoD, sim::SlotSemantics::kChainFaithful, 17,
                  false),
      kWeights);
  sim::NetworkConfig auto_config{Dimension::kTwoD,
                                 sim::SlotSemantics::kChainFaithful, 17};
  auto_config.engine = sim::SimEngine::kAuto;
  sim::Network automatic(auto_config, kWeights);
  std::vector<sim::TerminalId> ids;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(add_walker(reference, Dimension::kTwoD));
    add_walker(automatic, Dimension::kTwoD);
  }
  const auto walks = proptest::record_trajectories(reference, ids, 3000);
  for (const std::int64_t until : {1, 17, 500, 3000}) {
    automatic.run(until - automatic.now());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      EXPECT_EQ(automatic.terminal(ids[i]).position(),
                walks[i][static_cast<std::size_t>(until - 1)])
          << "terminal " << ids[i] << " slot " << until;
    }
  }
  for (const sim::TerminalId id : ids) {
    EXPECT_TRUE(proptest::metrics_identical(automatic.metrics(id),
                                            reference.metrics(id)))
        << "terminal " << id;
  }
}

TEST(RecordedWalk, UpdatesFireWhereTheWalkLeavesTheThresholdDisk) {
  for (const sim::SlotSemantics semantics : kBothSemantics) {
    SCOPED_TRACE(::testing::Message()
                 << "semantics=" << static_cast<int>(semantics));
    const RecordedRun run = record_walker(Dimension::kTwoD, semantics, 41);
    const CenterTrack track =
        track_center(Dimension::kTwoD, run.walk,
                     slots_of(run.events, FlightEventType::kCallArrival));
    EXPECT_GT(run.metrics.updates, 0);
    EXPECT_EQ(static_cast<std::int64_t>(track.update_slots.size()),
              run.metrics.updates);
    EXPECT_EQ(slots_of(run.events, FlightEventType::kLocationUpdate),
              track.update_slots);
    EXPECT_EQ(slots_of(run.events, FlightEventType::kAreaReset),
              track.update_slots);
    for (const FlightEvent& event : run.events) {
      if (event.type == FlightEventType::kLocationUpdate) {
        EXPECT_EQ(event.distance, kThreshold + 1) << "slot " << event.slot;
      } else if (event.type == FlightEventType::kAreaReset) {
        EXPECT_EQ(event.cells, kThreshold) << "slot " << event.slot;
      }
    }
  }
}

TEST(RecordedWalk, PagesFindTheTerminalAtTheWalksRingDistance) {
  for (const sim::SlotSemantics semantics : kBothSemantics) {
    SCOPED_TRACE(::testing::Message()
                 << "semantics=" << static_cast<int>(semantics));
    const RecordedRun run = record_walker(Dimension::kTwoD, semantics, 43);
    const CenterTrack track =
        track_center(Dimension::kTwoD, run.walk,
                     slots_of(run.events, FlightEventType::kCallArrival));
    ASSERT_GT(run.metrics.calls, 0);
    ASSERT_EQ(static_cast<std::int64_t>(track.call_distances.size()),
              run.metrics.calls);
    // Per call: the distance at arrival and the ring range of the cycle
    // that found the terminal.
    std::map<std::uint64_t, const FlightEvent*> hits;
    std::map<std::uint64_t, const FlightEvent*> found;
    std::vector<std::int64_t> arrival_distances;
    for (const FlightEvent& event : run.events) {
      if (event.type == FlightEventType::kCallArrival) {
        arrival_distances.push_back(event.distance);
      } else if (event.type == FlightEventType::kPollCycle && event.found) {
        hits[event.call] = &event;
      } else if (event.type == FlightEventType::kCallFound) {
        found[event.call] = &event;
      }
    }
    EXPECT_EQ(arrival_distances, track.call_distances);
    ASSERT_EQ(found.size(), track.call_distances.size());
    ASSERT_EQ(hits.size(), track.call_distances.size());
    for (std::size_t call = 0; call < track.call_distances.size(); ++call) {
      SCOPED_TRACE(::testing::Message() << "call " << call);
      const std::int64_t distance = track.call_distances[call];
      const FlightEvent& hit = *hits.at(call);
      const FlightEvent& done = *found.at(call);
      EXPECT_LE(hit.ring_lo, distance);
      EXPECT_GE(hit.ring_hi, distance);
      EXPECT_EQ(done.distance, distance);
      EXPECT_TRUE(done.found);
      EXPECT_EQ(done.cycle, hit.cycle + 1);
      EXPECT_LE(done.cycle, kDelay);
    }
  }
}

TEST(RecordedWalk, RingDistanceHistogramFollowsTheWalk) {
  for (const Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    SCOPED_TRACE(::testing::Message() << "dim=" << static_cast<int>(dim));
    const RecordedRun run =
        record_walker(dim, sim::SlotSemantics::kIndependent, 47);
    const CenterTrack track = track_center(
        dim, run.walk, slots_of(run.events, FlightEventType::kCallArrival));
    const stats::Histogram& simulated = run.metrics.ring_distance;
    EXPECT_EQ(simulated.total(), kSlots);
    ASSERT_EQ(track.ring_distance.bucket_count(), simulated.bucket_count());
    EXPECT_LE(simulated.bucket_count(), kThreshold + 1);
    for (int ring = 0; ring < simulated.bucket_count(); ++ring) {
      EXPECT_EQ(track.ring_distance.count(ring), simulated.count(ring))
          << "ring " << ring;
    }
  }
}

TEST(RecordedWalk, ReplayedWalkRecordsTheSameEvents) {
  // Replaying the walk under the same seed and policy leaves the call
  // stream untouched, so the full flight recording repeats event for
  // event, not only the metric totals PropReplay compares.
  const RecordedRun source = record_walker(
      Dimension::kTwoD, sim::SlotSemantics::kIndependent, 53);
  sim::Network replay(walk_config(Dimension::kTwoD,
                                  sim::SlotSemantics::kIndependent, 53, true),
                      kWeights);
  sim::TerminalSpec spec = sim::make_distance_terminal(
      Dimension::kTwoD, kProfile, kThreshold, DelayBound(kDelay));
  spec.mobility =
      std::make_unique<ScriptedMobility>(Dimension::kTwoD, Cell{},
                                         source.walk);
  const sim::TerminalId id = replay.add_terminal(std::move(spec));
  EXPECT_EQ(record_one(replay, id, kSlots), source.walk);
  EXPECT_EQ(replay.flight_recorder()->dropped(), 0u);
  EXPECT_EQ(replay.flight_recorder()->merged(), source.events);
  EXPECT_TRUE(proptest::metrics_identical(replay.metrics(id), source.metrics));
}

}  // namespace
}  // namespace pcn::trace
