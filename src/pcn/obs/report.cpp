#include "pcn/obs/report.hpp"

#include <cerrno>
#include <charconv>
#include <cstdio>
#include <cstring>

#include "pcn/common/error.hpp"
#include "pcn/obs/json.hpp"
#include "pcn/stats/histogram.hpp"

namespace pcn::obs {
namespace {

/// `pcn_` prefix + dots flattened: sim.page.cycles -> pcn_sim_page_cycles.
std::string prometheus_name(std::string_view name) {
  std::string out = "pcn_";
  for (const char ch : name) out += ch == '.' ? '_' : ch;
  return out;
}

std::string format_double(double value) {
  char buf[32];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  PCN_ASSERT(result.ec == std::errc());
  return std::string(buf, result.ptr);
}

/// Curated `# HELP` texts for the metrics this project emits.  Names not
/// listed fall back to a generic line; keep entries terse — they ship in
/// every scrape.
struct HelpEntry {
  std::string_view name;
  std::string_view help;
};

constexpr HelpEntry kHelpTable[] = {
    {"daemon.request.update", "Location-update requests submitted."},
    {"daemon.request.page", "Page requests submitted."},
    {"daemon.request.rejected_ring_full",
     "Requests rejected because the ingest ring was full."},
    {"daemon.update.applied", "Location updates applied to the registry."},
    {"daemon.update.stale", "Location updates discarded as stale."},
    {"daemon.page.queued", "Pages admitted to a cell paging queue."},
    {"daemon.page.duplicate",
     "Pages coalesced into an already-queued page."},
    {"daemon.page.dropped", "Pages dropped by queue admission."},
    {"daemon.page.expired", "Pages expired before a paging slot served them."},
    {"daemon.page.served", "Pages served over the paging channel."},
    {"daemon.page.unknown_terminal",
     "Pages addressed to terminals the registry does not know."},
    {"daemon.page.sla_violation",
     "Served pages that exceeded the delay bound."},
    {"daemon.page.queue_delay_slots",
     "Slots a page waited in its cell queue before being served."},
    {"daemon.slot.count", "Paging slots processed."},
    {"daemon.run.wall_ns", "Wall time spent inside run_slots, nanoseconds."},
    {"daemon.queue.max_depth",
     "Deepest cell paging queue observed over the run."},
    {"daemon.queue.depth", "Cell queue depth sampled at each slot."},
    {"daemon.queue.depth_pending",
     "Pages pending across all cell queues (live-stats walk)."},
    {"daemon.queue.cells_pending",
     "Cells with at least one pending page (live-stats walk)."},
    {"daemon.phase.ingest_us",
     "Per-slot INGEST phase time, microseconds (serialized TSC)."},
    {"daemon.phase.apply_us",
     "Per-slot APPLY phase time, microseconds (serialized TSC)."},
    {"daemon.phase.drain_us",
     "Per-slot DRAIN phase time, microseconds (serialized TSC)."},
    {"daemon.phase.finalize_us",
     "Per-slot FINALIZE phase time, microseconds (serialized TSC)."},
    {"daemon.socket.frames_in", "Frames decoded from socket clients."},
    {"daemon.socket.frames_out", "Outcome frames written to socket clients."},
    {"daemon.socket.decode_errors",
     "Client frames rejected by the decoder."},
    {"daemon.socket.rejected_ring_full",
     "Client requests rejected because the ingest ring was full."},
    {"daemon.socket.disconnects", "Client connections torn down."},
    {"daemon.socket.outbox_bytes",
     "High watermark of staged outbox bytes across connections."},
    {"sim.run.wall_ns", "Wall time spent simulating, nanoseconds."},
    {"sim.run.slots", "Slots simulated."},
    {"sim.terminal.slots", "Terminal-slots simulated."},
};

std::string escape_help(std::string_view help) {
  std::string out;
  out.reserve(help.size());
  for (const char ch : help) {
    if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

}  // namespace

std::string prometheus_escape_label_value(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (const char ch : value) {
    if (ch == '\\') {
      out += "\\\\";
    } else if (ch == '"') {
      out += "\\\"";
    } else if (ch == '\n') {
      out += "\\n";
    } else {
      out += ch;
    }
  }
  return out;
}

std::string prometheus_help(std::string_view name) {
  for (const HelpEntry& entry : kHelpTable) {
    if (entry.name == name) return escape_help(entry.help);
  }
  return escape_help(std::string("pcn metric ") + std::string(name) + ".");
}

std::string to_prometheus(const MetricsSnapshot& snapshot) {
  std::string out;
  for (const CounterSample& counter : snapshot.counters) {
    const std::string name = prometheus_name(counter.name);
    out += "# HELP " + name + ' ' + prometheus_help(counter.name) + '\n';
    out += "# TYPE " + name + " counter\n";
    out += name + ' ' + std::to_string(counter.value) + '\n';
  }
  for (const GaugeSample& gauge : snapshot.gauges) {
    const std::string name = prometheus_name(gauge.name);
    out += "# HELP " + name + ' ' + prometheus_help(gauge.name) + '\n';
    out += "# TYPE " + name + " gauge\n";
    out += name + ' ' + format_double(gauge.value) + '\n';
  }
  for (const HistogramSample& histogram : snapshot.histograms) {
    const std::string name = prometheus_name(histogram.name);
    out += "# HELP " + name + ' ' + prometheus_help(histogram.name) + '\n';
    out += "# TYPE " + name + " histogram\n";
    std::int64_t cumulative = 0;
    for (std::size_t i = 0; i < histogram.bounds.size(); ++i) {
      cumulative += histogram.counts[i];
      out += name + "_bucket{le=\"" +
             prometheus_escape_label_value(format_double(
                 histogram.bounds[i])) +
             "\"} " + std::to_string(cumulative) + '\n';
    }
    out += name + "_bucket{le=\"+Inf\"} " +
           std::to_string(histogram.count) + '\n';
    out += name + "_sum " + format_double(histogram.sum) + '\n';
    out += name + "_count " + std::to_string(histogram.count) + '\n';
  }
  return out;
}

namespace {

void snapshot_to_json(JsonWriter& json, const MetricsSnapshot& snapshot) {
  json.begin_object();
  json.key("counters").begin_object();
  for (const CounterSample& counter : snapshot.counters) {
    json.member(counter.name, counter.value);
  }
  json.end_object();
  json.key("gauges").begin_object();
  for (const GaugeSample& gauge : snapshot.gauges) {
    json.member(gauge.name, gauge.value);
  }
  json.end_object();
  json.key("histograms").begin_object();
  for (const HistogramSample& histogram : snapshot.histograms) {
    json.key(histogram.name).begin_object();
    json.key("bounds").begin_array();
    for (const double bound : histogram.bounds) json.value(bound);
    json.end_array();
    json.key("counts").begin_array();
    for (const std::int64_t count : histogram.counts) json.value(count);
    json.end_array();
    json.member("count", histogram.count);
    json.member("sum", histogram.sum);
    json.end_object();
  }
  json.end_object();
  json.end_object();
}

}  // namespace

std::string to_json(const MetricsSnapshot& snapshot) {
  JsonWriter json;
  snapshot_to_json(json, snapshot);
  return json.take();
}

RunReport make_run_report(const sim::Network& network) {
  RunReport report;
  const sim::NetworkConfig& config = network.config();
  report.dimension = to_string(config.dimension);
  report.semantics = config.semantics == sim::SlotSemantics::kChainFaithful
                         ? "chain-faithful"
                         : "independent";
  report.seed = config.seed;
  report.threads = config.threads;
  report.collect_runtime_stats = config.collect_runtime_stats;
  report.count_signalling_bytes = config.count_signalling_bytes;
  report.update_loss_prob = config.update_loss_prob;
  report.terminals = static_cast<int>(network.terminal_count());
  report.slots = network.now();

  std::int64_t total_slots = 0;
  double update_cost = 0.0;
  double paging_cost = 0.0;
  std::vector<std::int64_t> ring_counts;
  for (std::size_t i = 0; i < network.terminal_count(); ++i) {
    const sim::TerminalMetrics& m =
        network.metrics(static_cast<sim::TerminalId>(i));
    total_slots += m.slots;
    report.moves += m.moves;
    report.calls += m.calls;
    report.updates += m.updates;
    report.lost_updates += m.lost_updates;
    report.paging_failures += m.paging_failures;
    report.polled_cells += m.polled_cells;
    report.update_bytes += m.update_bytes;
    report.paging_bytes += m.paging_bytes;
    update_cost += m.update_cost;
    paging_cost += m.paging_cost;
    if (m.ring_distance.bucket_count() >
        static_cast<int>(ring_counts.size())) {
      ring_counts.resize(
          static_cast<std::size_t>(m.ring_distance.bucket_count()));
    }
    for (int r = 0; r < m.ring_distance.bucket_count(); ++r) {
      ring_counts[static_cast<std::size_t>(r)] += m.ring_distance.count(r);
    }
    if (m.paging_cycles.bucket_count() >
        static_cast<int>(report.paging_delay_cycles.size())) {
      report.paging_delay_cycles.resize(
          static_cast<std::size_t>(m.paging_cycles.bucket_count()));
    }
    for (int k = 0; k < m.paging_cycles.bucket_count(); ++k) {
      report.paging_delay_cycles[static_cast<std::size_t>(k)] +=
          m.paging_cycles.count(k);
    }
  }
  if (total_slots > 0) {
    report.update_cost_per_slot = update_cost / double(total_slots);
    report.paging_cost_per_slot = paging_cost / double(total_slots);
    report.total_cost_per_slot =
        report.update_cost_per_slot + report.paging_cost_per_slot;
    report.ring_occupancy.reserve(ring_counts.size());
    for (const std::int64_t count : ring_counts) {
      report.ring_occupancy.push_back(double(count) / double(total_slots));
    }
  }
  if (report.calls > 0) {
    double weighted = 0.0;
    for (std::size_t k = 0; k < report.paging_delay_cycles.size(); ++k) {
      weighted += double(k) * double(report.paging_delay_cycles[k]);
    }
    report.mean_paging_delay_cycles = weighted / double(report.calls);
    const auto percentile = [&](double quantile) {
      return stats::count_percentile(report.paging_delay_cycles, report.calls,
                                     quantile);
    };
    report.delay_p50 = percentile(0.50);
    report.delay_p95 = percentile(0.95);
    report.delay_p99 = percentile(0.99);
    for (std::size_t k = 0; k < report.paging_delay_cycles.size(); ++k) {
      if (report.paging_delay_cycles[k] > 0) {
        report.delay_max = static_cast<int>(k);
      }
    }
  }

  // SLA verdicts: each terminal is judged against its own policy's bound.
  for (std::size_t i = 0; i < network.terminal_count(); ++i) {
    const auto id = static_cast<sim::TerminalId>(i);
    const DelayBound bound = network.paging_policy(id).delay_bound();
    if (bound.is_unbounded()) continue;
    if (report.sla_bound_cycles == 0 ||
        bound.cycles() < report.sla_bound_cycles) {
      report.sla_bound_cycles = bound.cycles();
    }
    const sim::TerminalMetrics& m = network.metrics(id);
    for (int k = bound.cycles() + 1; k < m.paging_cycles.bucket_count();
         ++k) {
      report.sla_violations += m.paging_cycles.count(k);
    }
  }

  report.metrics = network.metrics_registry().snapshot();
  const std::int64_t wall_ns =
      report.metrics.counter_value("sim.run.wall_ns");
  if (wall_ns > 0) {
    report.run_wall_seconds = double(wall_ns) / 1e9;
    report.slots_per_sec =
        double(report.metrics.counter_value("sim.run.slots")) /
        report.run_wall_seconds;
    report.terminal_slots_per_sec =
        double(report.metrics.counter_value("sim.terminal.slots")) /
        report.run_wall_seconds;
  }
  return report;
}

std::string to_json(const RunReport& report) {
  JsonWriter json;
  json.begin_object();
  json.member("schema", "pcn.run_report.v1");
  json.key("config").begin_object();
  json.member("dimension", report.dimension);
  json.member("semantics", report.semantics);
  json.member("seed", std::uint64_t{report.seed});
  json.member("threads", report.threads);
  json.member("collect_runtime_stats", report.collect_runtime_stats);
  json.member("count_signalling_bytes", report.count_signalling_bytes);
  json.member("update_loss_prob", report.update_loss_prob);
  json.end_object();
  json.member("terminals", report.terminals);
  json.member("slots", report.slots);
  json.key("events").begin_object();
  json.member("moves", report.moves);
  json.member("calls", report.calls);
  json.member("updates", report.updates);
  json.member("lost_updates", report.lost_updates);
  json.member("paging_failures", report.paging_failures);
  json.member("polled_cells", report.polled_cells);
  json.end_object();
  json.key("costs").begin_object();
  json.member("update_per_slot", report.update_cost_per_slot);
  json.member("paging_per_slot", report.paging_cost_per_slot);
  json.member("total_per_slot", report.total_cost_per_slot);
  json.end_object();
  json.key("bytes").begin_object();
  json.member("update", report.update_bytes);
  json.member("paging", report.paging_bytes);
  json.end_object();
  json.key("ring_occupancy").begin_array();
  for (const double fraction : report.ring_occupancy) json.value(fraction);
  json.end_array();
  json.key("paging_delay_cycles").begin_object();
  json.key("counts").begin_array();
  for (const std::int64_t count : report.paging_delay_cycles) {
    json.value(count);
  }
  json.end_array();
  json.member("mean", report.mean_paging_delay_cycles);
  json.member("p50", report.delay_p50);
  json.member("p95", report.delay_p95);
  json.member("p99", report.delay_p99);
  json.member("max", report.delay_max);
  json.end_object();
  json.key("sla").begin_object();
  json.member("bound_cycles", report.sla_bound_cycles);
  json.member("violations", report.sla_violations);
  json.end_object();
  json.key("wall").begin_object();
  json.member("run_seconds", report.run_wall_seconds);
  json.key("breakdown_seconds").begin_object();
  for (const CounterSample& counter : report.metrics.counters) {
    // Duration counters end in ".ns" or "_ns" by convention (see
    // docs/observability.md); strip the unit for the per-phase breakdown.
    if (counter.name.size() > 3 &&
        (counter.name.compare(counter.name.size() - 3, 3, ".ns") == 0 ||
         counter.name.compare(counter.name.size() - 3, 3, "_ns") == 0)) {
      json.member(counter.name.substr(0, counter.name.size() - 3),
                  double(counter.value) / 1e9);
    }
  }
  json.end_object();
  json.end_object();
  json.key("throughput").begin_object();
  json.member("slots_per_sec", report.slots_per_sec);
  json.member("terminal_slots_per_sec", report.terminal_slots_per_sec);
  json.end_object();
  json.key("metrics");
  snapshot_to_json(json, report.metrics);
  json.end_object();
  return json.take();
}

bool write_file(const std::string& path, std::string_view contents,
                std::string* error) {
  if (path == "-") {
    std::fwrite(contents.data(), 1, contents.size(), stdout);
    return true;
  }
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for writing: " +
               std::strerror(errno);
    }
    return false;
  }
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  const bool flushed = std::fclose(file) == 0;
  if (written != contents.size() || !flushed) {
    if (error != nullptr) *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

bool read_file(const std::string& path, std::string* out,
               std::string* error) {
  std::FILE* file = path == "-" ? stdin : std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    if (error != nullptr) {
      *error = "cannot open '" + path + "' for reading: " +
               std::strerror(errno);
    }
    return false;
  }
  out->clear();
  char buffer[1 << 16];
  std::size_t read;
  while ((read = std::fread(buffer, 1, sizeof(buffer), file)) > 0) {
    out->append(buffer, read);
  }
  const bool failed = std::ferror(file) != 0;
  if (file != stdin) std::fclose(file);
  if (failed) {
    if (error != nullptr) *error = "read error on '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace pcn::obs
