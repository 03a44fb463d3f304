// Pcnd slot-loop semantics: update/page routing, the bounded-queue
// verdict paths (served / duplicate / dropped / expired / unknown),
// page accounting identities, queues at hostile cell coordinates, and
// the determinism contract — counters, delay histograms, sampled flight
// recordings and the outcome stream bit-identical at any worker-thread
// count.
#include "pcn/daemon/daemon.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "pcn/daemon/load_gen.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/obs/trace_export.hpp"

namespace pcn::daemon {
namespace {

DaemonRequest update_request(std::uint64_t terminal, std::uint64_t sequence,
                             geometry::Cell cell) {
  DaemonRequest request;
  request.kind = DaemonRequest::Kind::kUpdate;
  request.update.terminal_id = terminal;
  request.update.sequence = sequence;
  request.update.cell = cell;
  request.update.containment_radius = 2;
  return request;
}

DaemonRequest page_request(std::uint64_t page_id, std::uint64_t terminal) {
  DaemonRequest request;
  request.kind = DaemonRequest::Kind::kPage;
  request.page_id = page_id;
  request.terminal_id = terminal;
  return request;
}

PcndConfig base_config() {
  PcndConfig config;
  config.collect_outcomes = true;
  return config;
}

TEST(Pcnd, UpdateRegistersTerminalAndSequenceDedups) {
  Pcnd daemon(base_config());
  ASSERT_TRUE(daemon.submit(update_request(7, 2, {3, -1})));
  daemon.run_slots(1);
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {9, 9})));  // stale
  daemon.run_slots(1);

  EXPECT_EQ(daemon.terminal_count(), 1u);
  const Pcnd::TerminalInfo info = daemon.terminal_info(7);
  ASSERT_TRUE(info.known);
  EXPECT_EQ(info.center, (geometry::Cell{3, -1}));
  EXPECT_EQ(info.sequence, 2u);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.update.applied"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.update.stale"), 1);
  EXPECT_FALSE(daemon.terminal_info(8).known);
}

/// Ids that defeat an id-indexed or low-bit-hashed terminal DB: the
/// extremes of the 64-bit range, the top bit set, 2^32 strides (equal
/// low words), and dense ids interleaved with all of them.
std::vector<std::uint64_t> hostile_ids() {
  constexpr std::uint64_t kTop = std::uint64_t{1} << 63;
  std::vector<std::uint64_t> ids = {0, ~std::uint64_t{0},
                                    ~std::uint64_t{0} - 1};
  for (std::uint64_t k = 0; k < 24; ++k) {
    ids.push_back(kTop + k);
    ids.push_back((k + 1) << 32);
    ids.push_back(k + 1);
    ids.push_back(((k + 1) << 32) + 7);
    // One residue mod 16, so one shard's table holds the top keys.
    ids.push_back(~std::uint64_t{0} - 2 - k * 16);
  }
  return ids;
}

geometry::Cell cell_for(std::uint64_t id) {
  return {static_cast<std::int64_t>(id % 97),
          -static_cast<std::int64_t>((id >> 40) % 89)};
}

TEST(Pcnd, TerminalDbServesHostileIds) {
  for (const int shards : {1, 7, 16}) {
    SCOPED_TRACE("terminal_shards=" + std::to_string(shards));
    PcndConfig config = base_config();
    config.terminal_shards = shards;
    Pcnd daemon(config);
    const std::vector<std::uint64_t> ids = hostile_ids();
    for (const std::uint64_t id : ids) {
      ASSERT_TRUE(daemon.submit(update_request(id, 5, cell_for(id))));
    }
    daemon.run_slots(1);
    ASSERT_EQ(daemon.terminal_count(), ids.size());

    // Stale (lower) and duplicate (equal) sequences are dropped; a newer
    // one moves the terminal.
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const std::uint64_t id = ids[i];
      const std::uint64_t sequence = i % 3 == 0 ? 4 : i % 3 == 1 ? 5 : 6;
      ASSERT_TRUE(
          daemon.submit(update_request(id, sequence, cell_for(id + 1))));
    }
    // Pages: every registered id, plus ids that are only neighbours of
    // registered ones (same low word, same shard residue, off by one).
    const std::vector<std::uint64_t> unknown = {
        std::uint64_t{1} << 40, (std::uint64_t{1} << 63) + 1000,
        (std::uint64_t{3} << 32) + 1, 25, ~std::uint64_t{0} - 3};
    std::uint64_t page_id = 1;
    for (const std::uint64_t id : ids) {
      ASSERT_TRUE(daemon.submit(page_request(page_id++, id)));
    }
    for (const std::uint64_t id : unknown) {
      ASSERT_TRUE(daemon.submit(page_request(page_id++, id)));
    }
    daemon.run_slots(1);

    EXPECT_EQ(daemon.terminal_count(), ids.size());
    std::int64_t newer = 0;
    for (std::size_t i = 0; i < ids.size(); ++i) {
      const Pcnd::TerminalInfo info = daemon.terminal_info(ids[i]);
      ASSERT_TRUE(info.known) << ids[i];
      const bool moved = i % 3 == 2;
      newer += moved ? 1 : 0;
      EXPECT_EQ(info.sequence, moved ? 6u : 5u) << ids[i];
      EXPECT_EQ(info.center, cell_for(moved ? ids[i] + 1 : ids[i])) << ids[i];
      EXPECT_EQ(info.radius, 2u);
    }
    for (const std::uint64_t id : unknown) {
      EXPECT_FALSE(daemon.terminal_info(id).known) << id;
    }

    const obs::MetricsSnapshot snapshot =
        daemon.metrics_registry().snapshot();
    const auto total = static_cast<std::int64_t>(ids.size());
    EXPECT_EQ(snapshot.counter_value("daemon.update.applied"), total + newer);
    EXPECT_EQ(snapshot.counter_value("daemon.update.stale"), total - newer);
    EXPECT_EQ(snapshot.counter_value("daemon.page.unknown_terminal"),
              static_cast<std::int64_t>(unknown.size()));
    EXPECT_EQ(snapshot.counter_value("daemon.page.queued") +
                  snapshot.counter_value("daemon.page.dropped"),
              total);
  }
}

TEST(Pcnd, TerminalDbMemoryFollowsTerminalsNotIds) {
  // A lone terminal at 2^63 costs one minimal table, not an id-sized
  // array.
  Pcnd daemon(base_config());
  EXPECT_EQ(daemon.terminal_slots(), 0u);
  ASSERT_TRUE(daemon.submit(
      update_request(std::uint64_t{1} << 63, 1, {0, 0})));
  daemon.run_slots(1);
  EXPECT_EQ(daemon.terminal_count(), 1u);
  EXPECT_LE(daemon.terminal_slots(), 16u);

  // Sparse ids stay O(count) too: at most 16 slots per table or 16/7
  // slots per entry (load factor 7/8 after a doubling).  2^63 is among
  // them, now a stale repeat.
  const std::vector<std::uint64_t> ids = hostile_ids();
  for (const std::uint64_t id : ids) {
    ASSERT_TRUE(daemon.submit(update_request(id, 1, {0, 0})));
  }
  daemon.run_slots(1);
  const std::size_t count = daemon.terminal_count();
  EXPECT_EQ(count, ids.size());
  EXPECT_LE(daemon.terminal_slots(), 16u * 16u + count * 16u / 7u);

  // Dense ids are stored with no slack beyond the doubling.
  Pcnd dense(base_config());
  for (std::uint64_t id = 0; id < 4096; ++id) {
    ASSERT_TRUE(dense.submit(update_request(id, 1, {0, 0})));
  }
  dense.run_slots(1);
  EXPECT_EQ(dense.terminal_count(), 4096u);
  EXPECT_LE(dense.terminal_slots(), 2u * 4096u);
}

TEST(Pcnd, PageForKnownTerminalIsServed) {
  PcndConfig config = base_config();
  config.sla_delay_slots = 4;
  Pcnd daemon(config);
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {0, 0})));
  // Update and page land in the same slot; INGEST sorts updates before
  // pages for a terminal, so the page finds the center cell.
  ASSERT_TRUE(daemon.submit(page_request(100, 7)));
  daemon.run_slots(1);

  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].page_id, 100u);
  EXPECT_EQ(outcomes[0].terminal_id, 7u);
  EXPECT_EQ(outcomes[0].kind, proto::PageOutcomeKind::kServed);
  EXPECT_EQ(outcomes[0].queue_delay_slots, 0);
  EXPECT_EQ(outcomes[0].slot, 0);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.sla_violation"), 0);
  EXPECT_EQ(daemon.queue_depth({0, 0}), 0);
}

TEST(Pcnd, UnknownTerminalPageDropsImmediately) {
  Pcnd daemon(base_config());
  ASSERT_TRUE(daemon.submit(page_request(5, 1234)));
  daemon.run_slots(1);

  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  ASSERT_EQ(outcomes.size(), 1u);
  EXPECT_EQ(outcomes[0].kind, proto::PageOutcomeKind::kDropped);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.unknown_terminal"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 0);
  EXPECT_EQ(snapshot.counter_value("daemon.page.sla_violation"), 1);
}

TEST(Pcnd, DuplicatePageRefreshesNotDuplicates) {
  Pcnd daemon(base_config());
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {0, 0})));
  ASSERT_TRUE(daemon.submit(page_request(1, 7)));
  ASSERT_TRUE(daemon.submit(page_request(2, 7)));
  // Both submits land in slot 0 before any drain, so the second is a
  // duplicate regardless of the slot budget.
  daemon.run_slots(1);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.duplicate"), 1);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 1);
}

TEST(Pcnd, FullQueueDropsAndExpiryFiresUnderStarvedBudget) {
  PcndConfig config = base_config();
  // Budget ~1 page every 4 slots, tiny queue, short lifetime: with 4
  // terminals paged in one cell, some are dropped at the bound and the
  // rest mostly expire before the channel gets credit.
  config.capacity = capacity::PagingCapacityModel(1, 4.0);
  config.queue.max_pending = 2;
  config.queue.lifetime_slots = 2;
  config.queue.groups = 1;
  Pcnd daemon(config);
  for (std::uint64_t t = 0; t < 4; ++t) {
    ASSERT_TRUE(daemon.submit(update_request(t, 1, {0, 0})));
    ASSERT_TRUE(daemon.submit(page_request(10 + t, t)));
  }
  daemon.run_slots(8);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.page.dropped"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.page.queued") +
                snapshot.counter_value("daemon.page.dropped"),
            4);
  EXPECT_EQ(snapshot.counter_value("daemon.page.served") +
                snapshot.counter_value("daemon.page.expired"),
            2);
  EXPECT_GE(snapshot.counter_value("daemon.page.expired"), 1);
  EXPECT_EQ(daemon.max_queue_depth(), 2);

  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  EXPECT_EQ(outcomes.size(), 4u);
}

TEST(Pcnd, RingFullRejectsAndCounts) {
  PcndConfig config = base_config();
  config.ring_capacity = 4;
  Pcnd daemon(config);
  int accepted = 0;
  for (std::uint64_t t = 0; t < 6; ++t) {
    if (daemon.submit(update_request(t, 1, {0, 0}))) ++accepted;
  }
  EXPECT_EQ(accepted, 4);
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.request.rejected_ring_full"), 2);
  EXPECT_EQ(snapshot.counter_value("daemon.request.update"), 4);
}

TEST(Pcnd, SlaCountsLateServes) {
  PcndConfig config = base_config();
  config.capacity = capacity::PagingCapacityModel(1, 2.0);  // 1 page / 2 slots
  config.sla_delay_slots = 1;
  config.queue.groups = 1;
  Pcnd daemon(config);
  for (std::uint64_t t = 0; t < 3; ++t) {
    ASSERT_TRUE(daemon.submit(update_request(t, 1, {0, 0})));
    ASSERT_TRUE(daemon.submit(page_request(10 + t, t)));
  }
  daemon.run_slots(8);

  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  EXPECT_EQ(snapshot.counter_value("daemon.page.served"), 3);
  // Serves land in slots 1, 3, 5 -> delays 1, 3, 5; two exceed the
  // 1-slot SLA.
  EXPECT_EQ(snapshot.counter_value("daemon.page.sla_violation"), 2);
  const std::vector<std::int64_t> delays = daemon.delay_histogram();
  ASSERT_EQ(delays.size(), 6u);
  EXPECT_EQ(delays[1], 1);
  EXPECT_EQ(delays[3], 1);
  EXPECT_EQ(delays[5], 1);
}

TEST(Pcnd, DrainOutcomesRequiresCollectFlag) {
  PcndConfig config;  // collect_outcomes = false
  Pcnd daemon(config);
  std::vector<PageOutcomeEvent> outcomes;
  EXPECT_THROW(daemon.drain_outcomes(&outcomes), InvalidArgument);
}

TEST(Pcnd, RejectsBadConfig) {
  PcndConfig config;
  config.threads = 0;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
  config = PcndConfig{};
  config.terminal_shards = 0;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
  config = PcndConfig{};
  config.queue_shards = 0;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
  config = PcndConfig{};
  config.sla_delay_slots = -1;
  EXPECT_THROW(Pcnd{config}, InvalidArgument);
}

TEST(Pcnd, FlightRecorderCapturesPageLifecycles) {
  PcndConfig config = base_config();
  config.record_flight = true;
  config.flight_sample_every = 1;  // sample every page
  Pcnd daemon(config);
  ASSERT_TRUE(daemon.submit(update_request(7, 1, {0, 0})));
  ASSERT_TRUE(daemon.submit(page_request(100, 7)));
  ASSERT_TRUE(daemon.submit(page_request(5, 1234)));  // unknown -> dropped
  daemon.run_slots(1);

  ASSERT_NE(daemon.flight_recorder(), nullptr);
  const std::vector<obs::FlightEvent> events =
      daemon.flight_recorder()->merged();
  int queued = 0;
  int served = 0;
  int dropped = 0;
  for (const obs::FlightEvent& event : events) {
    switch (event.type) {
      case obs::FlightEventType::kPageQueued:
        ++queued;
        EXPECT_EQ(event.terminal, 7);
        break;
      case obs::FlightEventType::kPageServed:
        ++served;
        EXPECT_EQ(event.call, 100);
        break;
      case obs::FlightEventType::kPageDropped:
        ++dropped;
        EXPECT_EQ(event.terminal, 1234);
        break;
      default:
        break;
    }
  }
  EXPECT_EQ(queued, 1);
  EXPECT_EQ(served, 1);
  EXPECT_EQ(dropped, 1);
}

/// Collapses a run into a comparable fingerprint: every counter, the
/// exact delay histogram, and the merged flight recording.
std::string run_fingerprint(int threads, std::uint64_t seed) {
  PcndConfig config;
  config.threads = threads;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 12;
  config.sla_delay_slots = 4;
  config.record_flight = true;
  config.flight_sample_every = 4;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.seed = seed;
  workload_config.terminals = 600;
  workload_config.region = 6;  // 36 cells -> well past the capacity knee
  workload_config.call_prob = 0.1;
  workload_config.threshold = 2;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(48, &workload);

  std::string fingerprint;
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "daemon.run.wall_ns") continue;  // wall time varies
    fingerprint += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  for (const std::int64_t count : daemon.delay_histogram()) {
    fingerprint += std::to_string(count) + ",";
  }
  fingerprint += "\n";
  fingerprint += obs::to_trace_jsonl({}, daemon.flight_recorder()->merged());
  fingerprint += "outstanding=" + std::to_string(workload.outstanding_count());
  fingerprint +=
      " served=" + std::to_string(workload.outcomes_served()) +
      " dropped=" + std::to_string(workload.outcomes_dropped()) +
      " expired=" + std::to_string(workload.outcomes_expired());
  return fingerprint;
}

TEST(Pcnd, BitIdenticalResultsAcrossThreadCounts) {
  const std::string one = run_fingerprint(1, 42);
  const std::string two = run_fingerprint(2, 42);
  const std::string four = run_fingerprint(4, 42);
  const std::string five = run_fingerprint(5, 42);  // odd, non-divisor
  EXPECT_EQ(one, two);
  EXPECT_EQ(one, four);
  EXPECT_EQ(one, five);
  // Sanity: the scenario actually exercised the overload paths.
  EXPECT_NE(one.find("daemon.page.served"), std::string::npos);
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Sets PCN_SIMD_ISA, which picks the closed-loop generator's walk when a
/// workload is constructed, and restores the previous value on exit.
class ScopedWalk {
 public:
  explicit ScopedWalk(const char* isa) {
    const char* previous = std::getenv("PCN_SIMD_ISA");
    had_previous_ = previous != nullptr;
    if (had_previous_) previous_ = previous;
    setenv("PCN_SIMD_ISA", isa, 1);
  }
  ~ScopedWalk() {
    if (had_previous_) {
      setenv("PCN_SIMD_ISA", previous_.c_str(), 1);
    } else {
      unsetenv("PCN_SIMD_ISA");
    }
  }
  ScopedWalk(const ScopedWalk&) = delete;
  ScopedWalk& operator=(const ScopedWalk&) = delete;

 private:
  bool had_previous_ = false;
  std::string previous_;
};

/// The walks a generator can run: "auto" takes the AVX2 walk where the
/// build and the CPU have one, "portable" forces the scalar walk.
constexpr const char* kWalks[] = {"auto", "portable"};

/// The 2x-overloaded closed loop the outcome-stream tests run.
ClosedLoopConfig overload_load() {
  ClosedLoopConfig config;
  config.seed = 7;
  config.terminals = 720;
  config.region = 6;      // 36 cells, 36 pages/slot capacity
  config.call_prob = 0.1;  // 72 pages/slot offered
  config.threshold = 2;
  return config;
}

/// Every field of every PageOutcomeEvent a closed loop settles, in
/// drain_outcomes() order, slot by slot, each slot closed by a hash of
/// every terminal's stored center, sequence and radius: a request the
/// generator emits differently moves the stream in the slot it happens.
std::string outcome_stream(const ClosedLoopConfig& load,
                           AdmissionPolicy policy, int threads,
                           const char* walk) {
  PcndConfig config;
  config.threads = threads;
  config.collect_outcomes = true;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 6;
  config.queue.lifetime_slots = 10;
  config.queue.admission = policy;
  config.sla_delay_slots = 4;
  Pcnd daemon(config);

  const ScopedWalk scoped(walk);
  ClosedLoopWorkload workload(load);
  if (std::string(walk) == "portable") {
    EXPECT_STREQ(workload.walk_name(), "portable");
  }

  std::string out;
  std::vector<PageOutcomeEvent> outcomes;
  for (int slot = 0; slot < 48; ++slot) {
    daemon.run_slots(1, &workload);
    outcomes.clear();
    daemon.drain_outcomes(&outcomes);
    for (const PageOutcomeEvent& event : outcomes) {
      // Kind as a letter (served/dropped/expired/rejected) up front;
      // every other field is numeric.
      out += "?SDER"[static_cast<int>(event.kind)];
      out += ' ' + std::to_string(event.page_id) + ' ' +
             std::to_string(event.terminal_id) + ' ' +
             std::to_string(event.queue_delay_slots) + ' ' +
             std::to_string(event.queue_depth) + ' ' +
             std::to_string(event.slot) + ' ' +
             std::to_string(event.client) + '\n';
    }
    std::string table;
    for (std::uint64_t t = 0; t < load.terminals; ++t) {
      const Pcnd::TerminalInfo info = daemon.terminal_info(t);
      table += std::to_string(info.center.q) + ',' +
               std::to_string(info.center.r) + ',' +
               std::to_string(info.sequence) + ',' +
               std::to_string(info.radius) + ';';
    }
    out += "table " + std::to_string(fnv1a64(table)) + '\n';
  }
  return out;
}

// DRAIN visits queues cell-major, so outcomes within a slot come out in
// queue order rather than arrival order; that order must still be a pure
// function of the slot's requests, whatever the worker count — and
// whichever walk generated them.
TEST(Pcnd, OutcomeStreamIsIdenticalAcrossThreadCounts) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kDropNewest, AdmissionPolicy::kDropOldest,
        AdmissionPolicy::kPriorityDelayBound}) {
    SCOPED_TRACE(to_string(policy));
    const std::string one = outcome_stream(overload_load(), policy, 1, "auto");
    for (const char* walk : kWalks) {
      SCOPED_TRACE(walk);
      for (const int threads : {1, 2, 4, 5}) {
        EXPECT_EQ(one, outcome_stream(overload_load(), policy, threads, walk))
            << threads << " threads";
      }
    }
    // Sanity: overload produced served and dropped verdicts alike.
    EXPECT_NE(one.find('S'), std::string::npos);
    EXPECT_NE(one.find('D'), std::string::npos);
  }
}

/// A run at shard and group counts that are not powers of two, so every
/// shard, key and group index takes the reciprocal divide's general path:
/// the outcome stream, every counter but wall time, and the .series
/// capture, each in one string.
struct ShapedRun {
  std::string outcomes;
  std::string counters;
  std::string series;
};

/// The outcome-stream daemon at 3 terminal shards, 5 queue shards and 3
/// paging groups.
PcndConfig shaped_config(int threads, AdmissionPolicy policy) {
  PcndConfig config;
  config.threads = threads;
  config.terminal_shards = 3;
  config.queue_shards = 5;
  config.queue.groups = 3;
  config.collect_outcomes = true;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 6;
  config.queue.lifetime_slots = 10;
  config.queue.admission = policy;
  config.sla_delay_slots = 4;
  return config;
}

ShapedRun shaped_run(int threads, AdmissionPolicy policy) {
  PcndConfig config = shaped_config(threads, policy);
  config.timeseries_every_slots = 4;
  Pcnd daemon(config);
  ClosedLoopWorkload workload(overload_load());

  ShapedRun run;
  std::vector<PageOutcomeEvent> outcomes;
  for (int slot = 0; slot < 48; ++slot) {
    daemon.run_slots(1, &workload);
    outcomes.clear();
    daemon.drain_outcomes(&outcomes);
    for (const PageOutcomeEvent& event : outcomes) {
      run.outcomes += "?SDER"[static_cast<int>(event.kind)];
      run.outcomes += ' ' + std::to_string(event.page_id) + ' ' +
                      std::to_string(event.terminal_id) + ' ' +
                      std::to_string(event.queue_delay_slots) + ' ' +
                      std::to_string(event.queue_depth) + ' ' +
                      std::to_string(event.slot) + '\n';
    }
  }
  for (const auto& counter : daemon.metrics_registry().snapshot().counters) {
    if (counter.name == "daemon.run.wall_ns") continue;
    run.counters += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  run.series = daemon.timeseries_encoded();
  return run;
}

TEST(Pcnd, NonPowerOfTwoShapesAreIdenticalAcrossThreadCounts) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kDropNewest, AdmissionPolicy::kDropOldest,
        AdmissionPolicy::kPriorityDelayBound}) {
    SCOPED_TRACE(to_string(policy));
    const ShapedRun one = shaped_run(1, policy);
    const ShapedRun four = shaped_run(4, policy);
    EXPECT_EQ(one.outcomes, four.outcomes);
    EXPECT_EQ(one.counters, four.counters);
    EXPECT_EQ(one.series, four.series);
    EXPECT_NE(one.outcomes.find('S'), std::string::npos);
    EXPECT_NE(one.outcomes.find('D'), std::string::npos);
  }
}

// Counters are tallied per shard and published at the end of each
// shard's phase work, so at every slot boundary they must agree with the
// verdicts the slot's outcome stream carries.
TEST(Pcnd, PageCountersMatchTheOutcomeStreamEverySlot) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kDropNewest, AdmissionPolicy::kDropOldest}) {
    SCOPED_TRACE(to_string(policy));
    const PcndConfig config = shaped_config(4, policy);
    Pcnd daemon(config);
    ClosedLoopWorkload workload(overload_load());
    // An unknown terminal's page settles in APPLY, in a first slot the
    // workload sits out; the closed loop's pages settle in DRAIN.
    ASSERT_TRUE(daemon.submit(page_request(1, 1'000'000)));

    std::int64_t served = 0, failed = 0, expired = 0, violations = 0;
    std::vector<PageOutcomeEvent> outcomes;
    for (int slot = 0; slot < 48; ++slot) {
      SCOPED_TRACE(slot);
      daemon.run_slots(1, slot == 0 ? nullptr : &workload);
      outcomes.clear();
      daemon.drain_outcomes(&outcomes);
      for (const PageOutcomeEvent& event : outcomes) {
        const bool late = event.queue_delay_slots > config.sla_delay_slots;
        switch (event.kind) {
          case proto::PageOutcomeKind::kServed:
            ++served;
            violations += late ? 1 : 0;
            break;
          case proto::PageOutcomeKind::kExpired:
            ++expired;
            ++violations;
            break;
          default:
            ++failed;
            ++violations;
            break;
        }
      }
      const obs::MetricsSnapshot snapshot =
          daemon.metrics_registry().snapshot();
      const auto count = [&](const char* name) {
        return snapshot.counter_value(name);
      };
      EXPECT_EQ(count("daemon.page.served"), served);
      EXPECT_EQ(count("daemon.page.expired"), expired);
      EXPECT_EQ(count("daemon.page.dropped") + count("daemon.page.evicted") +
                    count("daemon.page.unknown_terminal"),
                failed);
      EXPECT_EQ(count("daemon.page.sla_violation"), violations);
      EXPECT_EQ(count("daemon.request.page"),
                count("daemon.page.queued") + count("daemon.page.duplicate") +
                    count("daemon.page.dropped") +
                    count("daemon.page.unknown_terminal"));
      EXPECT_EQ(count("daemon.page.unknown_terminal"), 1);
    }
    EXPECT_GT(served, 0);
    EXPECT_GT(failed, 1);
  }
}

// The two walks take different code paths only through their arithmetic:
// the shapes where that arithmetic has edges must emit the same requests.
TEST(Pcnd, ClosedLoopWalksAgreeAtTheEdgesOfTheConfigSpace) {
  struct Variant {
    const char* name;
    ClosedLoopConfig load;
  };
  std::vector<Variant> variants;
  const auto add = [&variants](const char* name, auto&& edit) {
    ClosedLoopConfig load = overload_load();
    edit(load);
    variants.push_back({name, load});
  };
  add("one_d", [](ClosedLoopConfig& c) {
    c.dimension = Dimension::kOneD;
    c.region = 36;
  });
  // 1003 terminals over 16 shards: 63 or 62 lanes, never a multiple of 8.
  add("ragged_shards", [](ClosedLoopConfig& c) { c.terminals = 1003; });
  add("region_1", [](ClosedLoopConfig& c) { c.region = 1; });
  add("region_3", [](ClosedLoopConfig& c) { c.region = 3; });
  add("threshold_1", [](ClosedLoopConfig& c) { c.threshold = 1; });
  add("move_0", [](ClosedLoopConfig& c) { c.move_prob = 0.0; });
  add("move_1", [](ClosedLoopConfig& c) { c.move_prob = 1.0; });
  add("call_1", [](ClosedLoopConfig& c) { c.call_prob = 1.0; });
  add("one_d_move_1", [](ClosedLoopConfig& c) {
    c.dimension = Dimension::kOneD;
    c.move_prob = 1.0;
    c.threshold = 1;
  });
  for (const Variant& variant : variants) {
    SCOPED_TRACE(variant.name);
    const std::string one = outcome_stream(
        variant.load, AdmissionPolicy::kDropNewest, 1, "portable");
    EXPECT_EQ(one, outcome_stream(variant.load, AdmissionPolicy::kDropNewest,
                                  4, "portable"));
    EXPECT_EQ(one, outcome_stream(variant.load, AdmissionPolicy::kDropNewest,
                                  1, "auto"));
    EXPECT_EQ(one, outcome_stream(variant.load, AdmissionPolicy::kDropNewest,
                                  4, "auto"));
    EXPECT_NE(one.find('S'), std::string::npos);
  }
}

/// Cells at the corners and edges of the int64 coordinate range, plus
/// 2^32 strides, enough of them to outgrow a shard's initial cell index.
std::vector<geometry::Cell> hostile_cells() {
  constexpr std::int64_t kMin = std::numeric_limits<std::int64_t>::min();
  constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
  std::vector<geometry::Cell> cells = {
      {kMin, kMin}, {kMin, kMax}, {kMax, kMin}, {kMax, kMax},
      {0, kMin},    {kMin, 0},    {0, kMax},    {kMax, 0}};
  for (std::int64_t k = 1; k <= 20; ++k) {
    cells.push_back({kMin + k, kMax - k});
    cells.push_back({k << 32, -(k << 32)});
  }
  return cells;
}

TEST(Pcnd, QueuesServeHostileCells) {
  const std::vector<geometry::Cell> cells = hostile_cells();
  for (const int queue_shards : {1, 16}) {
    SCOPED_TRACE("queue_shards=" + std::to_string(queue_shards));
    PcndConfig config = base_config();
    config.threads = 2;
    config.queue_shards = queue_shards;
    config.capacity = capacity::PagingCapacityModel(1, 1.0);  // 1 page/slot
    config.live_stats = true;
    Pcnd daemon(config);

    // Cell i gets 1 + i % 5 terminals, all paged in slot 1.
    std::uint64_t terminal = 0;
    std::vector<std::int64_t> paged(cells.size());
    for (std::size_t i = 0; i < cells.size(); ++i) {
      paged[i] = 1 + static_cast<std::int64_t>(i % 5);
      for (std::int64_t k = 0; k < paged[i]; ++k) {
        ASSERT_TRUE(daemon.submit(update_request(terminal++, 1, cells[i])));
      }
    }
    daemon.run_slots(1);
    for (std::uint64_t t = 0; t < terminal; ++t) {
      ASSERT_TRUE(daemon.submit(page_request(1000 + t, t)));
    }
    daemon.run_slots(1);

    // Each cell served one page; the rest wait in its queue.
    std::int64_t pending = 0;
    std::vector<LiveQueueStats::CellDepth> expected;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      EXPECT_EQ(daemon.queue_depth(cells[i]), paged[i] - 1) << i;
      pending += paged[i] - 1;
      if (paged[i] > 1) expected.push_back({cells[i], paged[i] - 1});
    }
    constexpr std::int64_t kMax = std::numeric_limits<std::int64_t>::max();
    EXPECT_EQ(daemon.queue_depth({kMax - 1, kMax - 1}), 0);
    EXPECT_EQ(daemon.queue_depth({1, 1}), 0);
    constexpr std::int64_t kStride = std::int64_t{21} << 32;  // k past 20
    EXPECT_EQ(daemon.queue_depth({kStride, -kStride}), 0);

    const LiveQueueStats stats = daemon.live_queue_stats();
    EXPECT_EQ(stats.total_pending, pending);
    EXPECT_EQ(stats.cells_pending, static_cast<std::int64_t>(expected.size()));
    EXPECT_EQ(stats.max_depth_ever, 5);
    std::sort(expected.begin(), expected.end(),
              [](const LiveQueueStats::CellDepth& a,
                 const LiveQueueStats::CellDepth& b) {
                if (a.depth != b.depth) return a.depth > b.depth;
                return a.cell < b.cell;
              });
    expected.resize(LiveQueueStats::kTopCells);
    ASSERT_EQ(stats.deepest.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(stats.deepest[i].cell, expected[i].cell) << i;
      EXPECT_EQ(stats.deepest[i].depth, expected[i].depth) << i;
    }

    daemon.run_slots(4);  // the deepest queue needs 5 slots in all
    const obs::MetricsSnapshot snapshot =
        daemon.metrics_registry().snapshot();
    EXPECT_EQ(snapshot.counter_value("daemon.page.served"),
              static_cast<std::int64_t>(terminal));
    EXPECT_EQ(snapshot.counter_value("daemon.page.dropped"), 0);
    for (const geometry::Cell& cell : cells) {
      EXPECT_EQ(daemon.queue_depth(cell), 0);
    }
    EXPECT_EQ(daemon.live_queue_stats().total_pending, 0);
  }
}

/// A 2x-overloaded closed-loop run at pin scale: every counter (wall
/// time aside), the exact delay histogram, the sampled flight trace and
/// every generator tally, in one string.  `region` cells wide in 1-D
/// and region^2 cells in 2-D.
std::string pinned_run(int threads, Dimension dimension = Dimension::kTwoD,
                       int region = 16) {
  PcndConfig config;
  config.threads = threads;
  config.capacity = capacity::PagingCapacityModel(2, 1.0);
  config.queue.max_pending = 16;
  config.queue.lifetime_slots = 24;
  config.sla_delay_slots = 8;
  config.record_flight = true;
  config.flight_sample_every = 16;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.seed = 2024;
  workload_config.terminals = 20'000;
  workload_config.region = region;
  workload_config.dimension = dimension;
  workload_config.call_prob = 0.05;  // 1000 pages/slot vs 512 capacity
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(200, &workload);

  std::string out;
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  for (const auto& counter : snapshot.counters) {
    if (counter.name == "daemon.run.wall_ns") continue;
    out += counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  for (const std::int64_t count : daemon.delay_histogram()) {
    out += std::to_string(count) + ",";
  }
  out += "\n";
  out += obs::to_trace_jsonl({}, daemon.flight_recorder()->merged());
  out += "submitted=" + std::to_string(workload.pages_submitted()) +
         " updates=" + std::to_string(workload.updates_sent()) +
         " served=" + std::to_string(workload.outcomes_served()) +
         " dropped=" + std::to_string(workload.outcomes_dropped()) +
         " expired=" + std::to_string(workload.outcomes_expired()) +
         " rejected=" + std::to_string(workload.outcomes_rejected()) +
         " outstanding=" + std::to_string(workload.outstanding_count()) +
         " terminals=" + std::to_string(daemon.terminal_count());
  return out;
}

// Pins the exact output of a fixed closed-loop run, not just its thread
// invariance: a storage-layout change to the terminal DB, the generator
// or the paging queues that perturbs any request, verdict, counter or
// flight event moves the digest.
TEST(Pcnd, ClosedLoopOutputDigestIsPinned) {
  constexpr std::uint64_t kDigest = 0xef931b37259ec13dull;
  const std::string one = pinned_run(1);
  // On a mismatch, the counter block says which path moved.
  EXPECT_EQ(fnv1a64(one), kDigest) << one.substr(0, one.find('{'));
  EXPECT_EQ(fnv1a64(pinned_run(4)), kDigest);
}

// The same pin on a 256-cell line: the 1-D walk (bit 0 picks the step,
// distance |offset|) at the 2-D pin's 512 pages/slot capacity.
TEST(Pcnd, ClosedLoopOneDimOutputDigestIsPinned) {
  constexpr std::uint64_t kDigest = 0x778e99bfaf5867aeull;
  const std::string one = pinned_run(1, Dimension::kOneD, 256);
  EXPECT_EQ(fnv1a64(one), kDigest) << one.substr(0, one.find('{'));
  EXPECT_EQ(fnv1a64(pinned_run(4, Dimension::kOneD, 256)), kDigest);
}

TEST(Pcnd, ClosedLoopWorkloadKeepsOnePageInFlight) {
  PcndConfig config;
  config.capacity = capacity::PagingCapacityModel(1, 2.0);
  config.queue.max_pending = 4;
  config.queue.lifetime_slots = 6;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.terminals = 200;
  workload_config.region = 4;
  workload_config.call_prob = 0.2;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(40, &workload);

  // Conservation: every submitted page is either settled back to the
  // workload or still in flight.
  EXPECT_EQ(workload.pages_submitted(),
            workload.outcomes_served() + workload.outcomes_dropped() +
                workload.outcomes_expired() + workload.outstanding_count());
  EXPECT_GT(workload.pages_submitted(), 0);
  EXPECT_GT(workload.updates_sent(), 0);

  // Daemon-side accounting: offered = queued + duplicate + dropped +
  // unknown, and settled = served + expired + dropped + unknown.
  const obs::MetricsSnapshot snapshot = daemon.metrics_registry().snapshot();
  const std::int64_t offered =
      snapshot.counter_value("daemon.request.page");
  EXPECT_EQ(offered, workload.pages_submitted());
  EXPECT_EQ(offered, snapshot.counter_value("daemon.page.queued") +
                         snapshot.counter_value("daemon.page.duplicate") +
                         snapshot.counter_value("daemon.page.dropped") +
                         snapshot.counter_value("daemon.page.unknown_terminal"));
  // The closed-loop generator registers a terminal before paging it.
  EXPECT_EQ(snapshot.counter_value("daemon.page.unknown_terminal"), 0);

  // The registry histograms hold one observation per served page (its
  // delay) and per admitted page (the depth it found), with exact sums.
  const obs::HistogramSample* delays =
      snapshot.find_histogram("daemon.page.queue_delay_slots");
  const obs::HistogramSample* depths =
      snapshot.find_histogram("daemon.queue.depth");
  ASSERT_NE(delays, nullptr);
  ASSERT_NE(depths, nullptr);
  EXPECT_EQ(delays->count, snapshot.counter_value("daemon.page.served"));
  EXPECT_EQ(depths->count, snapshot.counter_value("daemon.page.queued"));
  const std::vector<std::int64_t> exact = daemon.delay_histogram();
  std::int64_t delay_sum = 0;
  for (std::size_t k = 0; k < exact.size(); ++k) {
    delay_sum += static_cast<std::int64_t>(k) * exact[k];
  }
  EXPECT_GT(delay_sum, 0);
  EXPECT_EQ(delays->sum, static_cast<double>(delay_sum));
}

/// Generates one page for one terminal, from that terminal's shard.
class OnePageWorkload : public SlotWorkload {
 public:
  OnePageWorkload(std::uint64_t page_id, std::uint64_t terminal)
      : page_id_(page_id), terminal_(terminal) {}
  void generate(int shard, int shard_count, std::int64_t /*slot*/,
                RequestSink& sink) override {
    if (terminal_ % static_cast<std::uint64_t>(shard_count) ==
        static_cast<std::uint64_t>(shard)) {
      sink.page(page_id_, terminal_);
    }
  }
  void on_outcome(std::uint64_t, proto::PageOutcomeKind,
                  std::int64_t) override {}

 private:
  std::uint64_t page_id_;
  std::uint64_t terminal_;
};

TEST(Pcnd, RepeatedDropsOfOneTerminalGetDistinctSeq) {
  PcndConfig config = base_config();
  config.queue.max_pending = 1;
  config.record_flight = true;
  config.flight_sample_every = 1;
  Pcnd daemon(config);
  ASSERT_TRUE(daemon.submit(update_request(1, 1, {0, 0})));
  ASSERT_TRUE(daemon.submit(update_request(2, 1, {0, 0})));
  daemon.run_slots(1);
  // Terminal 1 fills the queue; terminal 2's three submits in the same
  // slot are tail drops with flight seq 2, 3 and 4.
  ASSERT_TRUE(daemon.submit(page_request(10, 1)));
  for (std::uint64_t page = 20; page < 23; ++page) {
    ASSERT_TRUE(daemon.submit(page_request(page, 2)));
  }
  daemon.run_slots(1);
  std::vector<std::uint32_t> seqs;
  for (const obs::FlightEvent& event : daemon.flight_recorder()->merged()) {
    if (event.type == obs::FlightEventType::kPageDropped) {
      EXPECT_EQ(event.terminal, 2);
      seqs.push_back(event.seq);
    }
  }
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{2, 3, 4}));

  // A ring page and a generated page for one unknown terminal in one
  // slot take runs from the same APPLY tracker: seq 2, then 3.
  Pcnd mixed(config);
  ASSERT_TRUE(mixed.submit(page_request(30, 5)));
  OnePageWorkload workload(/*page_id=*/31, /*terminal=*/5);
  mixed.run_slots(1, &workload);
  seqs.clear();
  for (const obs::FlightEvent& event : mixed.flight_recorder()->merged()) {
    if (event.type == obs::FlightEventType::kPageDropped) {
      EXPECT_EQ(event.terminal, 5);
      seqs.push_back(event.seq);
    }
  }
  EXPECT_EQ(seqs, (std::vector<std::uint32_t>{2, 3}));
}

/// Throws from terminal shard 1's generate, which runs on worker 1 of 2.
class ThrowingWorkload : public SlotWorkload {
 public:
  void generate(int shard, int /*shard_count*/, std::int64_t /*slot*/,
                RequestSink& /*sink*/) override {
    if (shard == 1) throw std::runtime_error("generate failed");
  }
  void on_outcome(std::uint64_t, proto::PageOutcomeKind,
                  std::int64_t) override {}
};

TEST(Pcnd, FailedPhaseRethrowsAndDoesNotAdvanceTheSlot) {
  PcndConfig config = base_config();
  config.threads = 2;
  Pcnd daemon(config);
  daemon.run_slots(1);
  const auto wall_ns = [&daemon] {
    for (const auto& counter : daemon.metrics_registry().snapshot().counters) {
      if (counter.name == "daemon.run.wall_ns") return counter.value;
    }
    ADD_FAILURE() << "no daemon.run.wall_ns counter";
    return decltype(obs::MetricsSnapshot{}.counters[0].value){};
  };
  const auto wall_before = wall_ns();
  // A ring update for terminal 17 (shard 1) is applied before shard 1's
  // generate throws in the same APPLY; what the failed phase counted is
  // still published.
  ASSERT_TRUE(daemon.submit(update_request(17, 1, {0, 0})));
  ThrowingWorkload workload;
  EXPECT_THROW(daemon.run_slots(3, &workload), std::runtime_error);
  EXPECT_EQ(daemon.now(), 1);
  const obs::MetricsSnapshot failed = daemon.metrics_registry().snapshot();
  EXPECT_EQ(failed.counter_value("daemon.request.update"), 1);
  EXPECT_EQ(failed.counter_value("daemon.update.applied"), 1);
  EXPECT_TRUE(daemon.terminal_info(17).known);
  // The failed call's wall time is counted too.
  EXPECT_GT(wall_ns(), wall_before);
  // The daemon and its workers stay usable after the failure.
  ASSERT_TRUE(daemon.submit(update_request(1, 1, {0, 0})));
  daemon.run_slots(2);
  EXPECT_EQ(daemon.now(), 3);
  EXPECT_TRUE(daemon.terminal_info(1).known);
}

TEST(DaemonReport, AccountsAndSerializes) {
  PcndConfig config;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.sla_delay_slots = 4;
  Pcnd daemon(config);
  ClosedLoopConfig workload_config;
  workload_config.terminals = 300;
  workload_config.region = 4;
  workload_config.call_prob = 0.15;
  ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(32, &workload);

  const DaemonRunReport report = make_daemon_report(
      daemon, workload_config.seed,
      static_cast<std::int64_t>(workload_config.terminals));
  EXPECT_EQ(report.slots, 32);
  EXPECT_EQ(report.terminals, 300);
  EXPECT_EQ(report.pages_offered,
            report.pages_queued + report.pages_duplicate +
                report.pages_dropped + report.pages_unknown);
  EXPECT_GT(report.pages_served, 0);
  EXPECT_GE(report.drop_rate, 0.0);
  EXPECT_LE(report.drop_rate, 1.0);
  EXPECT_GE(report.delay_p99, report.delay_p50);
  EXPECT_GE(report.delay_max, report.delay_p99);

  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"schema\":\"pcn.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"daemon\""), std::string::npos);
  EXPECT_NE(json.find("\"drop_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"queue_delay_slots\""), std::string::npos);
  EXPECT_NE(json.find("\"sla\""), std::string::npos);
}

}  // namespace
}  // namespace pcn::daemon
