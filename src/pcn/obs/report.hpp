// Exporters for the telemetry subsystem.
//
// Two stable machine-readable outputs:
//   * Prometheus text exposition (`to_prometheus`) — every metric becomes
//     `pcn_<name with dots as underscores>`, histograms use the standard
//     cumulative `_bucket{le="..."}` / `_sum` / `_count` triplet.
//   * A JSON `RunReport` (`make_run_report` + `to_json`) — schema
//     `pcn.run_report.v1`: config echo, aggregate event counts, per-slot
//     cost rates, per-ring occupancy, the paging-delay histogram, a
//     wall-time breakdown from the `.ns` timer counters, throughput
//     (slots/sec and terminals x slots/sec), and the full metrics
//     snapshot.  `pcnctl simulate --metrics-out=FILE` and the tests
//     consume this shape; see docs/observability.md for how to read one.
//
// This header is the top layer of pcn/obs: unlike metrics.hpp / timer.hpp
// it may depend on the simulator.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "pcn/obs/metrics.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::obs {

class JsonWriter;

/// Prometheus text exposition of a snapshot (sorted by metric name), with
/// `# HELP` / `# TYPE` headers per metric and label values escaped per the
/// text-format spec.
std::string to_prometheus(const MetricsSnapshot& snapshot);

/// Escapes a label value for the Prometheus text format: backslash, double
/// quote and newline become \\, \" and \n.
std::string prometheus_escape_label_value(std::string_view value);

/// One-line help text for a metric name: a curated description for the
/// metrics this project emits, or a generic fallback naming the dotted
/// path.  Already escaped for use after `# HELP`.
std::string prometheus_help(std::string_view name);

/// Snapshot as a JSON object {"counters":{...},"gauges":{...},
/// "histograms":{name:{"bounds":[...],"counts":[...],"count":n,"sum":x}}}.
std::string to_json(const MetricsSnapshot& snapshot);

/// Writes that object as the next value of `json` — the one snapshot
/// renderer every document embedding a snapshot uses (pcn.run_report.v1
/// for simulator and daemon runs, pcn.live_snapshot.v1).
void snapshot_to_json(JsonWriter& json, const MetricsSnapshot& snapshot);

/// Everything a run produced, aggregated over terminals.  Wall-time and
/// throughput fields are zero unless the network ran with
/// NetworkConfig::collect_runtime_stats.
struct RunReport {
  // Config echo.
  std::string dimension;           ///< "1-D" / "2-D"
  std::string semantics;           ///< "chain-faithful" / "independent"
  std::uint64_t seed = 0;
  int threads = 1;
  bool collect_runtime_stats = false;
  bool count_signalling_bytes = true;
  double update_loss_prob = 0.0;

  int terminals = 0;
  std::int64_t slots = 0;  ///< slots simulated per terminal

  // Aggregate event counts (sums over terminals).
  std::int64_t moves = 0;
  std::int64_t calls = 0;
  std::int64_t updates = 0;
  std::int64_t lost_updates = 0;
  std::int64_t paging_failures = 0;
  std::int64_t polled_cells = 0;
  std::int64_t update_bytes = 0;
  std::int64_t paging_bytes = 0;

  // Fleet-average cost rates (the simulated C_u, C_v, C_T per slot).
  double update_cost_per_slot = 0.0;
  double paging_cost_per_slot = 0.0;
  double total_cost_per_slot = 0.0;

  /// Fraction of terminal-slots spent at each ring distance from the
  /// network's knowledge center (the empirical chain occupancy).
  std::vector<double> ring_occupancy;
  /// Calls located after exactly k polling cycles (index k; [0] unused).
  std::vector<std::int64_t> paging_delay_cycles;
  double mean_paging_delay_cycles = 0.0;
  /// Percentiles of the same distribution (0 when no calls arrived).
  int delay_p50 = 0;
  int delay_p95 = 0;
  int delay_p99 = 0;
  int delay_max = 0;
  /// Tightest bounded paging delay bound m across the fleet's policies
  /// (0 when every policy is unbounded), and the number of calls that took
  /// more cycles than their own terminal's bound — nonzero only when lost
  /// updates forced expanding-ring recovery.
  int sla_bound_cycles = 0;
  std::int64_t sla_violations = 0;

  // Wall time and throughput, from the runtime-stats registry.
  double run_wall_seconds = 0.0;
  double slots_per_sec = 0.0;
  double terminal_slots_per_sec = 0.0;

  MetricsSnapshot metrics;
};

/// Builds the report from a finished (or paused) simulation.
RunReport make_run_report(const sim::Network& network);

/// Serializes the report (schema pcn.run_report.v1, compact JSON).
std::string to_json(const RunReport& report);

/// Writes `contents` to `path`, "-" meaning stdout.  Returns false and
/// fills `*error` with a path-qualified reason on failure.
bool write_file(const std::string& path, std::string_view contents,
                std::string* error);

/// Reads the whole file at `path` ("-" meaning stdin) into `*out`.
/// Returns false and fills `*error` with a path-qualified reason on
/// failure.
bool read_file(const std::string& path, std::string* out, std::string* error);

}  // namespace pcn::obs
