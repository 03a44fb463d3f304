// Run report for a pcnd run: schema `pcn.run_report.v1` with
// `"kind": "daemon"`, so the same consumers (jq pipelines, tests) read
// simulator and daemon reports alike.
//
// The daemon-specific sections:
//   * `pages` — offered / queued / duplicate / served / dropped /
//     evicted / expired / unknown_terminal counts, and `drop_rate` =
//     failed / offered (the accounting below) — the overload headline;
//     `evicted` counts pages an admission policy displaced after they
//     had been queued;
//   * `queue_delay_slots` — exact per-slot delay distribution of served
//     pages with mean/p50/p95/p99/max (percentiles over served pages);
//   * `sla` — the configured delay bound and total violations (every
//     failed page, plus pages served later than the bound);
//   * `queue` — config echo plus the deepest queue ever observed;
//   * `socket` — front-end health (frames in/out, decode errors,
//     ring-full rejections, disconnects, staged-outbox high watermark);
//     all zero when no socket front end was attached;
//   * `phase_us` — mean per-slot phase times from the
//     daemon.phase.* histograms (0 until a slot has run).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pcn/daemon/daemon.hpp"

namespace pcn::daemon {

/// Page accounting, defined once for the run report, the admin windows
/// and `pcnctl timeline`.  offered = queued + duplicate + dropped +
/// unknown_terminal; an evicted page was counted queued when admitted.
inline constexpr std::array<std::string_view, 4> kOfferedPageCounters = {
    "daemon.page.queued", "daemon.page.duplicate", "daemon.page.dropped",
    "daemon.page.unknown_terminal"};
/// failed = dropped + evicted + expired + unknown_terminal.
inline constexpr std::array<std::string_view, 4> kFailedPageCounters = {
    "daemon.page.dropped", "daemon.page.evicted", "daemon.page.expired",
    "daemon.page.unknown_terminal"};

/// Sum of `value(name)` over `names`: counter totals, windowed deltas or
/// windowed rates.
template <typename Value>
auto sum_counters(const std::array<std::string_view, 4>& names,
                  Value&& value) {
  decltype(value(names[0])) total{};
  for (const std::string_view name : names) total += value(name);
  return total;
}

/// failed / offered with each counter read through `value`; 0 when
/// nothing was offered.
template <typename Value>
double drop_rate(Value&& value) {
  const auto offered = sum_counters(kOfferedPageCounters, value);
  return offered > 0 ? static_cast<double>(
                           sum_counters(kFailedPageCounters, value)) /
                           static_cast<double>(offered)
                     : 0.0;
}

struct DaemonRunReport {
  // Config echo.
  std::string dimension;
  int threads = 1;
  std::uint64_t seed = 0;  ///< workload seed (0 when no workload attached)
  int channels = 0;
  double slots_per_message = 1.0;
  std::size_t queue_max_pending = 0;
  std::int64_t queue_lifetime_slots = 0;
  int queue_groups = 0;
  std::string queue_admission;
  int sla_delay_slots = 0;

  // Delay-feedback planner ("off" = legacy open-loop budget).
  std::string plan_mode;
  int plan_m_min = 0;
  int plan_m_max = 0;
  int plan_m_start = 0;
  int plan_effective_m = 0;
  std::int64_t plan_widen = 0;
  std::int64_t plan_narrow = 0;

  std::int64_t slots = 0;
  std::int64_t terminals = 0;

  // Page accounting (kOfferedPageCounters, kFailedPageCounters).
  std::int64_t pages_offered = 0;
  std::int64_t pages_queued = 0;
  std::int64_t pages_duplicate = 0;
  std::int64_t pages_served = 0;
  std::int64_t pages_dropped = 0;
  std::int64_t pages_evicted = 0;
  std::int64_t pages_expired = 0;
  std::int64_t pages_unknown = 0;
  double drop_rate = 0.0;

  // Served-page queueing delay, exact per-slot counts (index = slots).
  std::vector<std::int64_t> queue_delay_slots;
  double mean_queue_delay_slots = 0.0;
  int delay_p50 = 0;
  int delay_p95 = 0;
  int delay_p99 = 0;
  int delay_max = 0;

  std::int64_t sla_violations = 0;
  std::int64_t max_queue_depth = 0;

  // Socket front-end health (all zero without a SocketServer attached).
  std::int64_t socket_frames_in = 0;
  std::int64_t socket_frames_out = 0;
  std::int64_t socket_decode_errors = 0;
  std::int64_t socket_rejected_ring_full = 0;
  std::int64_t socket_disconnects = 0;
  std::int64_t socket_outbox_bytes_hwm = 0;

  // Mean per-slot phase times, microseconds.
  double phase_ingest_us = 0.0;
  double phase_apply_us = 0.0;
  double phase_drain_us = 0.0;
  double phase_finalize_us = 0.0;

  double run_wall_seconds = 0.0;
  double slots_per_sec = 0.0;

  obs::MetricsSnapshot metrics;
};

/// Builds the report from a daemon after run_slots returned.  `seed` and
/// `terminals` describe the workload (pass 0 when not applicable).
DaemonRunReport make_daemon_report(const Pcnd& daemon, std::uint64_t seed,
                                   std::int64_t terminals);

/// Serializes the report (schema pcn.run_report.v1, kind "daemon").
std::string to_json(const DaemonRunReport& report);

}  // namespace pcn::daemon
