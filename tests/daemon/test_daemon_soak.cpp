// Deterministic overload soak (tier 2): pcnd under a closed-loop fleet
// offering roughly twice the paging-channel capacity, long enough for
// the bounded queues to reach their stationary overloaded regime.
//
// What must hold:
//   * bit-identical results at 1 and 4 worker threads — every counter,
//     the exact queueing-delay histogram, the merged flight recording,
//     and the workload-side tallies;
//   * the run report lands in the golden overload band: a real drop
//     rate (the channel is over capacity) that still serves a majority
//     of the offered load at 2x (the queue smooths bursts, it does not
//     collapse);
//   * page accounting closes exactly — offered = queued + duplicate +
//     dropped + unknown, settled + in-flight = submitted.
//
// Scale knobs (for run_checks smoke): PCN_SOAK_TERMINALS, PCN_SOAK_SLOTS.
//
// The capacity-ladder tests below run a second, fixed scenario (no knobs):
// 20000 terminals on a 16x16 torus for 128 slots, 2 channels, 2 worker
// threads, seed 42, at a ladder of offered-load multiples of the fleet's
// paging capacity.  Every counter they read is a pure function of that
// scenario, so each row is pinned exactly: the delay-bounded paging knee
// (drop rate rising with offered load), victim choice under the eviction
// policies, and the open-loop vs delay-feedback plan at 2x.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "pcn/obs/trace_export.hpp"

namespace pcn::daemon {
namespace {

std::int64_t env_or(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? std::atoll(value) : fallback;
}

struct SoakResult {
  DaemonRunReport report;
  std::vector<std::int64_t> delay_histogram;
  std::string flight_jsonl;
  std::int64_t workload_submitted = 0;
  std::int64_t workload_served = 0;
  std::int64_t workload_dropped = 0;
  std::int64_t workload_expired = 0;
  std::int64_t workload_outstanding = 0;
};

SoakResult run_soak(
    int threads, AdmissionPolicy admission = AdmissionPolicy::kDropNewest,
    DelayPlanConfig::Mode plan_mode = DelayPlanConfig::Mode::kOff) {
  const std::int64_t terminals = env_or("PCN_SOAK_TERMINALS", 8000);
  const std::int64_t slots = env_or("PCN_SOAK_SLOTS", 400);
  constexpr int kRegion = 16;  // 256 cells
  constexpr double kOfferedMultiple = 2.0;

  PcndConfig config;
  config.threads = threads;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);  // 1 page/slot
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 16;
  config.queue.groups = 4;
  config.queue.admission = admission;
  config.sla_delay_slots = 8;
  config.plan.mode = plan_mode;
  config.record_flight = true;
  config.flight_sample_every = 64;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.seed = 2026;
  workload_config.terminals = static_cast<std::uint64_t>(terminals);
  workload_config.region = kRegion;
  workload_config.move_prob = 0.2;
  // Offered pages/slot = terminals * call_prob; pin it to 2x the total
  // channel capacity of region^2 cells x 1 page/slot.
  workload_config.call_prob =
      kOfferedMultiple * kRegion * kRegion / static_cast<double>(terminals);
  workload_config.threshold = 3;
  ClosedLoopWorkload workload(workload_config);

  daemon.run_slots(slots, &workload);

  SoakResult result;
  result.report =
      make_daemon_report(daemon, workload_config.seed, terminals);
  result.delay_histogram = daemon.delay_histogram();
  result.flight_jsonl =
      obs::to_trace_jsonl({}, daemon.flight_recorder()->merged());
  result.workload_submitted = workload.pages_submitted();
  result.workload_served = workload.outcomes_served();
  result.workload_dropped = workload.outcomes_dropped();
  result.workload_expired = workload.outcomes_expired();
  result.workload_outstanding = workload.outstanding_count();
  return result;
}

/// Every deterministic counter in the snapshot (wall time excluded).
std::string counter_fingerprint(const DaemonRunReport& report) {
  std::string fingerprint;
  for (const auto& counter : report.metrics.counters) {
    if (counter.name == "daemon.run.wall_ns") continue;
    fingerprint +=
        counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  return fingerprint;
}

TEST(DaemonSoak, TwoTimesCapacityOverloadIsDeterministicAcrossThreads) {
  const SoakResult one = run_soak(1);
  const SoakResult four = run_soak(4);

  // Bit-identical counters, delay distribution, flight recording and
  // workload tallies at both thread counts.
  EXPECT_EQ(counter_fingerprint(one.report), counter_fingerprint(four.report));
  EXPECT_EQ(one.delay_histogram, four.delay_histogram);
  EXPECT_EQ(one.flight_jsonl, four.flight_jsonl);
  EXPECT_EQ(one.workload_submitted, four.workload_submitted);
  EXPECT_EQ(one.workload_served, four.workload_served);
  EXPECT_EQ(one.workload_dropped, four.workload_dropped);
  EXPECT_EQ(one.workload_expired, four.workload_expired);
  EXPECT_EQ(one.workload_outstanding, four.workload_outstanding);
  EXPECT_EQ(one.report.pages_served, four.report.pages_served);
  EXPECT_EQ(one.report.pages_dropped, four.report.pages_dropped);
  EXPECT_EQ(one.report.pages_expired, four.report.pages_expired);
  EXPECT_EQ(one.report.max_queue_depth, four.report.max_queue_depth);
  EXPECT_EQ(one.report.sla_violations, four.report.sla_violations);

  const DaemonRunReport& report = one.report;

  // The scenario is genuinely past the knee...
  EXPECT_GT(report.pages_offered, 0);
  EXPECT_GT(report.pages_dropped + report.pages_expired, 0);
  // ...the golden overload band: at 2x offered load the bounded queue
  // drops a visible share but still serves most pages (the closed loop
  // throttles re-offers while a page is in flight).
  EXPECT_GE(report.drop_rate, 0.01);
  EXPECT_LE(report.drop_rate, 0.60);
  EXPECT_GT(report.pages_served,
            report.pages_dropped + report.pages_expired);

  // Bounded-queue guarantees.
  EXPECT_LE(report.max_queue_depth,
            static_cast<std::int64_t>(report.queue_max_pending));
  EXPECT_LE(report.delay_max, report.queue_lifetime_slots);
  EXPECT_GE(report.delay_p99, report.delay_p50);

  // Accounting closes exactly.
  EXPECT_EQ(report.pages_offered,
            report.pages_queued + report.pages_duplicate +
                report.pages_dropped + report.pages_unknown);
  EXPECT_EQ(report.pages_unknown, 0);
  EXPECT_EQ(one.workload_submitted,
            one.workload_served + one.workload_dropped +
                one.workload_expired + one.workload_outstanding);
  EXPECT_GE(report.sla_violations,
            report.pages_dropped + report.pages_expired);

  // The report serializes with the daemon schema markers.
  const std::string json = to_json(report);
  EXPECT_NE(json.find("\"schema\":\"pcn.run_report.v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"daemon\""), std::string::npos);
}

// The eviction policies under the same 2x overload: still bit-identical
// across thread counts, still inside the overload band — but the failure
// mass moves from tail drops to explicit evictions.
TEST(DaemonSoak, EvictionPoliciesAreDeterministicAndStayInTheOverloadBand) {
  for (const AdmissionPolicy policy :
       {AdmissionPolicy::kDropOldest, AdmissionPolicy::kPriorityDelayBound}) {
    SCOPED_TRACE(to_string(policy));
    const SoakResult one = run_soak(1, policy);
    const SoakResult four = run_soak(4, policy);

    EXPECT_EQ(counter_fingerprint(one.report),
              counter_fingerprint(four.report));
    EXPECT_EQ(one.delay_histogram, four.delay_histogram);
    EXPECT_EQ(one.flight_jsonl, four.flight_jsonl);
    EXPECT_EQ(one.workload_submitted, four.workload_submitted);
    EXPECT_EQ(one.workload_outstanding, four.workload_outstanding);

    const DaemonRunReport& report = one.report;
    EXPECT_EQ(report.queue_admission, to_string(policy));
    // Same overload band as drop_newest: a visible failure share, but a
    // served majority.
    EXPECT_GE(report.drop_rate, 0.01);
    EXPECT_LE(report.drop_rate, 0.60);
    EXPECT_GT(report.pages_served, report.pages_dropped +
                                       report.pages_evicted +
                                       report.pages_expired);
    if (policy == AdmissionPolicy::kDropOldest) {
      // drop_oldest always finds a victim: the tail-drop counter stays
      // at zero and the whole failure mass is evictions.
      EXPECT_EQ(report.pages_dropped, 0);
      EXPECT_GT(report.pages_evicted, 0);
    } else {
      // priority evicts when the newcomer is more urgent and rejects
      // otherwise; under a uniform workload both paths must trigger.
      EXPECT_GT(report.pages_evicted, 0);
    }

    // Accounting still closes exactly (evicted pages were counted as
    // queued on admission; they only join the failure numerator).
    EXPECT_EQ(report.pages_offered,
              report.pages_queued + report.pages_duplicate +
                  report.pages_dropped + report.pages_unknown);
    EXPECT_EQ(one.workload_submitted,
              one.workload_served + one.workload_dropped +
                  one.workload_expired + one.workload_outstanding);
    EXPECT_LE(report.max_queue_depth,
              static_cast<std::int64_t>(report.queue_max_pending));
  }
}

// The delay-feedback planner folds its EWMAs in serial FINALIZE, so a
// planner-steered run must stay bit-identical across thread counts too —
// including the adjustment trail itself.
TEST(DaemonSoak, FeedbackPlannerIsDeterministicAcrossThreads) {
  const SoakResult one =
      run_soak(1, AdmissionPolicy::kDropOldest,
               DelayPlanConfig::Mode::kFeedback);
  const SoakResult four =
      run_soak(4, AdmissionPolicy::kDropOldest,
               DelayPlanConfig::Mode::kFeedback);

  EXPECT_EQ(counter_fingerprint(one.report), counter_fingerprint(four.report));
  EXPECT_EQ(one.delay_histogram, four.delay_histogram);
  EXPECT_EQ(one.flight_jsonl, four.flight_jsonl);
  EXPECT_EQ(one.report.plan_effective_m, four.report.plan_effective_m);
  EXPECT_EQ(one.report.plan_widen, four.report.plan_widen);
  EXPECT_EQ(one.report.plan_narrow, four.report.plan_narrow);

  // Under sustained 2x overload the controller must have widened the
  // paging factor away from its starting point at least once.
  EXPECT_EQ(one.report.plan_mode, "feedback");
  EXPECT_GT(one.report.plan_widen, 0);
  EXPECT_GE(one.report.plan_effective_m, one.report.plan_m_start);
}

// --- Capacity ladder (fixed scenario, exact rows) ---------------------------

/// One point of the capacity ladder: `multiple` x the fleet's aggregate
/// paging capacity (cells x channels / slots_per_message) offered by a
/// closed-loop fleet, under the given admission policy and plan mode.
DaemonRunReport run_capacity_point(
    double multiple, AdmissionPolicy admission = AdmissionPolicy::kDropNewest,
    DelayPlanConfig::Mode plan_mode = DelayPlanConfig::Mode::kOff) {
  constexpr std::int64_t kTerminals = 20000;
  constexpr std::int64_t kSlots = 128;
  constexpr int kRegion = 16;
  constexpr std::uint64_t kSeed = 42;

  PcndConfig config;
  config.dimension = Dimension::kTwoD;
  config.threads = 2;
  config.capacity = capacity::PagingCapacityModel(2, 1.0);
  config.queue.max_pending = 64;
  config.queue.lifetime_slots = 128;
  config.queue.groups = 4;
  config.queue.admission = admission;
  config.sla_delay_slots = 8;
  config.plan.mode = plan_mode;
  Pcnd daemon(config);

  ClosedLoopConfig workload_config;
  workload_config.dimension = config.dimension;
  workload_config.seed = kSeed;
  workload_config.terminals = kTerminals;
  workload_config.region = kRegion;
  workload_config.move_prob = 0.2;
  workload_config.threshold = 3;
  const double capacity =
      double(kRegion) * kRegion * config.capacity.pages_per_slot();
  workload_config.call_prob =
      std::min(1.0, multiple * capacity / double(kTerminals));
  ClosedLoopWorkload workload(workload_config);

  daemon.run_slots(kSlots, &workload);
  DaemonRunReport report = make_daemon_report(daemon, kSeed, kTerminals);
  EXPECT_EQ(report.terminals, kTerminals);
  EXPECT_EQ(report.slots, kSlots);
  EXPECT_EQ(report.threads, 2);
  EXPECT_EQ(report.channels, 2);
  return report;
}

TEST(DaemonSoak, CapacityLadderMatchesPinnedRowsAndRisesPastTheKnee) {
  struct Row {
    double multiple;
    std::int64_t offered, served, dropped, expired;
    double drop_rate, mean_delay;
    int p50, p99;
    std::int64_t max_depth, sla_violations;
  };
  constexpr Row kRows[] = {
      {0.5, 32589, 32545, 0, 0, 0.0, 0.1668459056690736, 0, 2, 8, 0},
      {1.0, 61698, 60444, 0, 0, 0.0, 2.239643306200781, 1, 15, 41, 3115},
      {1.5, 71894, 65388, 1, 0, 1.3909366567446519e-05, 9.355890989172325, 5,
       47, 64, 24328},
      {2.0, 75578, 65509, 145, 0, 0.001918547725528593, 13.799493199407715,
       7, 68, 64, 29630},
      {3.0, 80306, 65535, 1728, 0, 0.021517694817323737, 17.30092317082475,
       8, 89, 64, 33666},
      {4.0, 85965, 65536, 5987, 0, 0.06964462281160938, 18.335906982421875,
       8, 98, 64, 37368},
  };
  double drop_rate_1x = -1.0;
  double drop_rate_2x = -1.0;
  double drop_rate_4x = -1.0;
  int delay_p99_2x = -1;
  double previous_drop_rate = -1.0;
  for (const Row& row : kRows) {
    SCOPED_TRACE(row.multiple);
    const DaemonRunReport r = run_capacity_point(row.multiple);
    EXPECT_EQ(r.pages_offered, row.offered);
    EXPECT_EQ(r.pages_served, row.served);
    EXPECT_EQ(r.pages_dropped, row.dropped);
    EXPECT_EQ(r.pages_expired, row.expired);
    EXPECT_EQ(r.drop_rate, row.drop_rate);
    EXPECT_EQ(r.mean_queue_delay_slots, row.mean_delay);
    EXPECT_EQ(r.delay_p50, row.p50);
    EXPECT_EQ(r.delay_p99, row.p99);
    EXPECT_EQ(r.max_queue_depth, row.max_depth);
    EXPECT_EQ(r.sla_violations, row.sla_violations);
    // The knee: the drop rate never falls as offered load rises.
    EXPECT_GE(r.drop_rate, previous_drop_rate);
    previous_drop_rate = r.drop_rate;
    if (row.multiple == 1.0) drop_rate_1x = r.drop_rate;
    if (row.multiple == 2.0) {
      drop_rate_2x = r.drop_rate;
      delay_p99_2x = r.delay_p99;
    }
    if (row.multiple == 4.0) drop_rate_4x = r.drop_rate;
  }
  EXPECT_EQ(drop_rate_1x, 0.0);
  EXPECT_EQ(drop_rate_2x, 0.001918547725528593);
  EXPECT_EQ(drop_rate_4x, 0.06964462281160938);
  EXPECT_EQ(delay_p99_2x, 68);
  // Past the knee the channel is saturated: the bounded queue must shed
  // clearly more at 4x than at capacity.
  EXPECT_GT(drop_rate_4x, drop_rate_1x);
}

TEST(DaemonSoak, AdmissionPoliciesAtTwiceCapacityMatchPinnedRows) {
  struct Row {
    AdmissionPolicy policy;
    std::int64_t offered, served, dropped, evicted, expired;
    double drop_rate;
    int p50, p99;
    std::int64_t max_depth, sla_violations;
  };
  const Row kRows[] = {
      {AdmissionPolicy::kDropOldest, 75554, 65509, 0, 92, 0,
       0.0012176721285438229, 7, 67, 64, 29626},
      {AdmissionPolicy::kPriorityDelayBound, 75570, 65509, 0, 144, 0,
       0.0019055180627233028, 7, 68, 64, 29620},
  };
  for (const Row& row : kRows) {
    SCOPED_TRACE(to_string(row.policy));
    const DaemonRunReport r = run_capacity_point(2.0, row.policy);
    EXPECT_EQ(r.pages_offered, row.offered);
    EXPECT_EQ(r.pages_served, row.served);
    EXPECT_EQ(r.pages_dropped, row.dropped);
    EXPECT_EQ(r.pages_evicted, row.evicted);
    EXPECT_EQ(r.pages_expired, row.expired);
    EXPECT_EQ(r.drop_rate, row.drop_rate);
    EXPECT_EQ(r.delay_p50, row.p50);
    EXPECT_EQ(r.delay_p99, row.p99);
    EXPECT_EQ(r.max_queue_depth, row.max_depth);
    EXPECT_EQ(r.sla_violations, row.sla_violations);
    // Every failed page is one violation, and so is every page served
    // past the bound, counted from the exact delay histogram.
    ASSERT_GT(r.sla_delay_slots, 0);
    std::int64_t served_late = 0;
    for (std::size_t k = static_cast<std::size_t>(r.sla_delay_slots) + 1;
         k < r.queue_delay_slots.size(); ++k) {
      served_late += r.queue_delay_slots[k];
    }
    EXPECT_EQ(r.sla_violations, r.pages_dropped + r.pages_evicted +
                                    r.pages_expired + r.pages_unknown +
                                    served_late);
  }
}

// The open-loop plan pins the paging delay bound at m_start; the feedback
// plan starts identically but steers on the measured delay EWMA.  Both
// runs are deterministic, so the acceptance check is exact: feedback must
// beat static on p99 queueing delay or on SLA violations at 2x, without
// giving up the served-page knee (>= 98% of static's served pages).
TEST(DaemonSoak, FeedbackPlanBeatsStaticAtTwiceCapacity) {
  const DaemonRunReport rs = run_capacity_point(
      2.0, AdmissionPolicy::kDropNewest, DelayPlanConfig::Mode::kStatic);
  const DaemonRunReport rf = run_capacity_point(
      2.0, AdmissionPolicy::kDropNewest, DelayPlanConfig::Mode::kFeedback);

  EXPECT_EQ(rs.pages_offered, 61908);
  EXPECT_EQ(rs.pages_served, 49148);
  EXPECT_EQ(rs.drop_rate, 0.007947276603993022);
  EXPECT_EQ(rs.delay_p50, 9);
  EXPECT_EQ(rs.delay_p99, 93);
  EXPECT_EQ(rs.sla_violations, 26194);
  EXPECT_EQ(rs.plan_effective_m, 2);
  EXPECT_EQ(rs.plan_widen, 0);
  EXPECT_EQ(rs.plan_narrow, 0);

  EXPECT_EQ(rf.pages_offered, 70558);
  EXPECT_EQ(rf.pages_served, 60412);
  EXPECT_EQ(rf.drop_rate, 0.0019983559624705918);
  EXPECT_EQ(rf.delay_p50, 7);
  EXPECT_EQ(rf.delay_p99, 78);
  EXPECT_EQ(rf.sla_violations, 27600);
  EXPECT_EQ(rf.plan_effective_m, 8);
  EXPECT_EQ(rf.plan_widen, 6);
  EXPECT_EQ(rf.plan_narrow, 0);

  EXPECT_TRUE(rf.delay_p99 < rs.delay_p99 ||
              rf.sla_violations < rs.sla_violations)
      << "p99 " << rf.delay_p99 << " vs " << rs.delay_p99 << ", violations "
      << rf.sla_violations << " vs " << rs.sla_violations;
  EXPECT_GE(double(rf.pages_served), 0.98 * double(rs.pages_served));
}

}  // namespace
}  // namespace pcn::daemon
