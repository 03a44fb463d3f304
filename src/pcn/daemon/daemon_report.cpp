#include "pcn/daemon/daemon_report.hpp"

#include "pcn/obs/json.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/stats/histogram.hpp"

namespace pcn::daemon {

DaemonRunReport make_daemon_report(const Pcnd& daemon, std::uint64_t seed,
                                   std::int64_t terminals) {
  const PcndConfig& config = daemon.config();
  DaemonRunReport report;
  report.dimension = to_string(config.dimension);
  report.threads = config.threads;
  report.seed = seed;
  report.channels = config.capacity.channels();
  report.slots_per_message = config.capacity.slots_per_message();
  report.queue_max_pending = config.queue.max_pending;
  report.queue_lifetime_slots = config.queue.lifetime_slots;
  report.queue_groups = config.queue.groups;
  report.queue_admission = to_string(config.queue.admission);
  report.sla_delay_slots = config.sla_delay_slots;
  report.plan_mode = to_string(config.plan.mode);
  if (const DelayFeedbackPlanner* planner = daemon.planner()) {
    report.plan_m_min = config.plan.m_min;
    report.plan_m_max = config.plan.m_max;
    report.plan_m_start = config.plan.m_start;
    report.plan_effective_m = planner->effective_m();
    report.plan_widen = planner->widen_count();
    report.plan_narrow = planner->narrow_count();
  }
  report.slots = daemon.now();
  report.terminals = terminals;

  report.metrics = daemon.metrics_registry().snapshot();
  const obs::MetricsSnapshot& m = report.metrics;
  report.pages_queued = m.counter_value("daemon.page.queued");
  report.pages_duplicate = m.counter_value("daemon.page.duplicate");
  report.pages_served = m.counter_value("daemon.page.served");
  report.pages_dropped = m.counter_value("daemon.page.dropped");
  report.pages_evicted = m.counter_value("daemon.page.evicted");
  report.pages_expired = m.counter_value("daemon.page.expired");
  report.pages_unknown = m.counter_value("daemon.page.unknown_terminal");
  report.sla_violations = m.counter_value("daemon.page.sla_violation");
  const auto total = [&m](std::string_view name) {
    return m.counter_value(name);
  };
  report.pages_offered = sum_counters(kOfferedPageCounters, total);
  report.drop_rate = drop_rate(total);
  report.max_queue_depth = daemon.max_queue_depth();

  report.queue_delay_slots = daemon.delay_histogram();
  if (report.pages_served > 0) {
    double weighted = 0.0;
    for (std::size_t k = 0; k < report.queue_delay_slots.size(); ++k) {
      weighted += double(k) * double(report.queue_delay_slots[k]);
    }
    report.mean_queue_delay_slots = weighted / double(report.pages_served);
    const auto percentile = [&](double quantile) {
      return stats::count_percentile(report.queue_delay_slots,
                                     report.pages_served, quantile);
    };
    report.delay_p50 = percentile(0.50);
    report.delay_p95 = percentile(0.95);
    report.delay_p99 = percentile(0.99);
    for (std::size_t k = 0; k < report.queue_delay_slots.size(); ++k) {
      if (report.queue_delay_slots[k] > 0) {
        report.delay_max = static_cast<int>(k);
      }
    }
  }

  report.socket_frames_in = m.counter_value("daemon.socket.frames_in");
  report.socket_frames_out = m.counter_value("daemon.socket.frames_out");
  report.socket_decode_errors =
      m.counter_value("daemon.socket.decode_errors");
  report.socket_rejected_ring_full =
      m.counter_value("daemon.socket.rejected_ring_full");
  report.socket_disconnects = m.counter_value("daemon.socket.disconnects");
  if (const obs::GaugeSample* outbox =
          m.find_gauge("daemon.socket.outbox_bytes")) {
    report.socket_outbox_bytes_hwm =
        static_cast<std::int64_t>(outbox->value);
  }

  report.phase_ingest_us = m.histogram_mean("daemon.phase.ingest_us");
  report.phase_apply_us = m.histogram_mean("daemon.phase.apply_us");
  report.phase_drain_us = m.histogram_mean("daemon.phase.drain_us");
  report.phase_finalize_us = m.histogram_mean("daemon.phase.finalize_us");

  const std::int64_t wall_ns = m.counter_value("daemon.run.wall_ns");
  if (wall_ns > 0) {
    report.run_wall_seconds = double(wall_ns) / 1e9;
    report.slots_per_sec =
        double(m.counter_value("daemon.slot.count")) / report.run_wall_seconds;
  }
  return report;
}

std::string to_json(const DaemonRunReport& report) {
  obs::JsonWriter json;
  json.begin_object();
  json.member("schema", "pcn.run_report.v1");
  json.member("kind", "daemon");
  json.key("config").begin_object();
  json.member("dimension", report.dimension);
  json.member("threads", report.threads);
  json.member("seed", std::uint64_t{report.seed});
  json.member("channels", report.channels);
  json.member("slots_per_message", report.slots_per_message);
  json.member("queue_max_pending",
              static_cast<std::int64_t>(report.queue_max_pending));
  json.member("queue_lifetime_slots", report.queue_lifetime_slots);
  json.member("queue_groups", report.queue_groups);
  json.member("queue_admission", report.queue_admission);
  json.member("sla_delay_slots", report.sla_delay_slots);
  json.end_object();
  json.key("plan").begin_object();
  json.member("mode", report.plan_mode);
  json.member("m_min", report.plan_m_min);
  json.member("m_max", report.plan_m_max);
  json.member("m_start", report.plan_m_start);
  json.member("effective_m", report.plan_effective_m);
  json.member("widen", report.plan_widen);
  json.member("narrow", report.plan_narrow);
  json.end_object();
  json.member("terminals", report.terminals);
  json.member("slots", report.slots);
  json.key("pages").begin_object();
  json.member("offered", report.pages_offered);
  json.member("queued", report.pages_queued);
  json.member("duplicate", report.pages_duplicate);
  json.member("served", report.pages_served);
  json.member("dropped", report.pages_dropped);
  json.member("evicted", report.pages_evicted);
  json.member("expired", report.pages_expired);
  json.member("unknown_terminal", report.pages_unknown);
  json.member("drop_rate", report.drop_rate);
  json.end_object();
  json.key("queue_delay_slots").begin_object();
  json.key("counts").begin_array();
  for (const std::int64_t count : report.queue_delay_slots) {
    json.value(count);
  }
  json.end_array();
  json.member("mean", report.mean_queue_delay_slots);
  json.member("p50", report.delay_p50);
  json.member("p95", report.delay_p95);
  json.member("p99", report.delay_p99);
  json.member("max", report.delay_max);
  json.end_object();
  json.key("sla").begin_object();
  json.member("bound_slots", report.sla_delay_slots);
  json.member("violations", report.sla_violations);
  json.end_object();
  json.key("queue").begin_object();
  json.member("max_depth", report.max_queue_depth);
  json.end_object();
  json.key("socket").begin_object();
  json.member("frames_in", report.socket_frames_in);
  json.member("frames_out", report.socket_frames_out);
  json.member("decode_errors", report.socket_decode_errors);
  json.member("rejected_ring_full", report.socket_rejected_ring_full);
  json.member("disconnects", report.socket_disconnects);
  json.member("outbox_bytes_hwm", report.socket_outbox_bytes_hwm);
  json.end_object();
  json.key("phase_us").begin_object();
  json.member("ingest", report.phase_ingest_us);
  json.member("apply", report.phase_apply_us);
  json.member("drain", report.phase_drain_us);
  json.member("finalize", report.phase_finalize_us);
  json.end_object();
  json.key("wall").begin_object();
  json.member("run_seconds", report.run_wall_seconds);
  json.end_object();
  json.key("throughput").begin_object();
  json.member("slots_per_sec", report.slots_per_sec);
  json.end_object();
  json.key("metrics");
  obs::snapshot_to_json(json, report.metrics);
  json.end_object();
  return json.take();
}

}  // namespace pcn::daemon
