// pcnd — the bounded-paging-channel location-server daemon.
//
// Commands:
//   run    drive the daemon with the built-in closed-loop workload for a
//          fixed number of slots and report what the bounded paging
//          channel did to the offered load (the overload experiment in a
//          box); optionally emit a pcn.run_report.v1 JSON report and a
//          pcn.trace.v1 flight trace of the page lifecycle events
//   serve  bind a Unix-domain socket, accept LocationUpdate / PageSubmit
//          frames (u32-LE length prefix + proto frame), run the slot loop
//          at a fixed cadence, and stream PageOutcome verdicts back
//
// run flags:
//   --terminals N      closed-loop terminals (default 100000)
//   --slots N          slots to run (default 512)
//   --threads N        worker threads (default 1; results identical)
//   --seed N           workload seed (default 1)
//   --dim {1|2}        geometry (default 2)
//   --region N         torus width: ~N^2 cells in 2-D, N in 1-D
//                      (default 64)
//   --q F              per-slot move probability (default 0.2)
//   --c F              per-slot page probability per idle terminal
//                      (default 0.05)
//   --d N              movement update threshold (default 3)
//   --channels N       paging channels per cell (default 2)
//   --service-slots F  slots one page message occupies (default 1.0)
//   --queue-max N      bounded queue depth per cell (default 64)
//   --lifetime N       page lifetime in slots (default 128)
//   --groups N         round-robin paging groups (default 4)
//   --admission P      full-queue admission policy: drop_newest (default),
//                      drop_oldest, or priority_delay_bound (evict the
//                      pending page with the most remaining SLA slack)
//   --sla N            queueing-delay SLA in slots (0 = none, default 8)
//   --plan MODE        paging-delay-bound planner: off (default; the
//                      open-loop capacity budget), static (fixed m =
//                      --plan-m), or feedback (m adapts to the measured
//                      queueing-delay EWMA; needs --sla > 0)
//   --plan-m N         static/initial paging delay bound m (default 2)
//   --plan-m-min N     smallest m the feedback rule may pick (default 1)
//   --plan-m-max N     largest m; the full-budget bound (default 8)
//   --plan-adjust N    slots between feedback decisions (default 16)
//   --offered F        scale --c so offered load is F times the fleet's
//                      aggregate paging capacity (overrides --c)
//   --metrics-out F    write the pcn.run_report.v1 JSON report to F
//                      ("-" = stdout)
//   --trace-out F      record a page-lifecycle flight trace to F
//   --trace-sample N   record 1 in N page lifecycles (default 8)
//   --admin-socket P   serve live scrapes (Prometheus text or
//                      pcn.live_snapshot.v1 JSON) on Unix socket P while
//                      the run is in flight; also enables the live
//                      queue-occupancy walk (see docs/daemon.md)
//   --series-out F     write a pcn.timeseries.v1 metric timeline to F
//                      ("-" = stdout); sampled in the serial FINALIZE
//                      phase, bit-identical at any --threads
//   --series-every N   sample the registry every N slots (default 16)
//
// serve flags: --socket PATH plus the daemon knobs above (no workload);
//   --slots N          slots to run before exiting (default 1024)
//   --slot-us N        microseconds of wall time per slot (default 1000)
//   --admin-socket P   as above; the `series` admin verb streams the
//                      in-flight timeline when --series-every is set
//   --series-out F / --series-every N   as above (serve keeps the newest
//                      4096 samples)
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <exception>
#include <memory>
#include <string>
#include <thread>

#include "pcn/cli/args.hpp"
#include "pcn/daemon/admin_server.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "pcn/daemon/socket_server.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/obs/trace_export.hpp"

namespace {

using pcn::cli::Args;
using pcn::cli::UsageError;

constexpr const char* kUsage = R"(usage: pcnd <command> [flags]

commands:
  run    closed-loop overload run against the bounded paging channel
  serve  Unix-socket daemon (LocationUpdate / PageSubmit in, PageOutcome out)

run:   --terminals N --slots N --threads N --seed N --dim {1|2} --region N
       --q F --c F --d N --channels N --service-slots F --queue-max N
       --lifetime N --groups N --admission P --sla N --offered F
       --plan {off|static|feedback} --plan-m N --plan-m-min N --plan-m-max N
       --plan-adjust N --metrics-out FILE --trace-out FILE --trace-sample N
       --admin-socket PATH --series-out FILE --series-every N
serve: --socket PATH --slots N --slot-us N --threads N --dim {1|2}
       --channels N --service-slots F --queue-max N --lifetime N --groups N
       --admission P --sla N --plan MODE --plan-m N --plan-m-min N
       --plan-m-max N --plan-adjust N --admin-socket PATH
       --series-out FILE --series-every N

admission policies (P): drop_newest | drop_oldest | priority_delay_bound
)";

pcn::Dimension parse_dim(const Args& args) {
  const std::int64_t dim = args.get_int_or("dim", 2);
  if (dim == 1) return pcn::Dimension::kOneD;
  if (dim == 2) return pcn::Dimension::kTwoD;
  throw UsageError("--dim must be 1 or 2");
}

pcn::daemon::PcndConfig parse_daemon_config(const Args& args) {
  pcn::daemon::PcndConfig config;
  config.dimension = parse_dim(args);
  config.threads = static_cast<int>(args.get_int_or("threads", 1));
  config.capacity = pcn::capacity::PagingCapacityModel(
      static_cast<int>(args.get_int_or("channels", 2)),
      args.get_double_or("service-slots", 1.0));
  config.queue.max_pending =
      static_cast<std::size_t>(args.get_int_or("queue-max", 64));
  config.queue.lifetime_slots = args.get_int_or("lifetime", 128);
  config.queue.groups = static_cast<int>(args.get_int_or("groups", 4));
  const std::string admission = args.get_string_or("admission", "drop_newest");
  if (admission == "drop_newest") {
    config.queue.admission = pcn::daemon::AdmissionPolicy::kDropNewest;
  } else if (admission == "drop_oldest") {
    config.queue.admission = pcn::daemon::AdmissionPolicy::kDropOldest;
  } else if (admission == "priority_delay_bound" || admission == "priority") {
    config.queue.admission = pcn::daemon::AdmissionPolicy::kPriorityDelayBound;
  } else {
    throw UsageError(
        "--admission must be drop_newest, drop_oldest, or "
        "priority_delay_bound");
  }
  config.sla_delay_slots = static_cast<int>(args.get_int_or("sla", 8));
  const std::string plan = args.get_string_or("plan", "off");
  if (plan == "off") {
    config.plan.mode = pcn::daemon::DelayPlanConfig::Mode::kOff;
  } else if (plan == "static") {
    config.plan.mode = pcn::daemon::DelayPlanConfig::Mode::kStatic;
  } else if (plan == "feedback") {
    config.plan.mode = pcn::daemon::DelayPlanConfig::Mode::kFeedback;
  } else {
    throw UsageError("--plan must be off, static, or feedback");
  }
  config.plan.m_start = static_cast<int>(args.get_int_or("plan-m", 2));
  config.plan.m_min = static_cast<int>(args.get_int_or("plan-m-min", 1));
  config.plan.m_max = static_cast<int>(args.get_int_or("plan-m-max", 8));
  config.plan.adjust_every_slots =
      static_cast<int>(args.get_int_or("plan-adjust", 16));
  return config;
}

/// Parses --series-out / --series-every into `config`, returning the output
/// path ("" when capture is off).  Capture is enabled whenever either flag
/// is given; --series-every defaults to 16 slots.
std::string parse_series_flags(const Args& args,
                               pcn::daemon::PcndConfig* config) {
  const std::string series_out = args.get_string_or("series-out", "");
  const bool every_given = args.has("series-every");
  const std::int64_t series_every = args.get_int_or("series-every", 16);
  if (series_every < 1) throw UsageError("--series-every must be >= 1");
  if (!series_out.empty() || every_given) {
    config->timeseries_every_slots = series_every;
  }
  return series_out;
}

/// Writes the daemon's captured timeline to `path` (pcn.timeseries.v1).
int write_series_file(const pcn::daemon::Pcnd& daemon,
                      const std::string& path) {
  if (path.empty()) return 0;
  std::string error;
  if (!pcn::obs::write_file(path, daemon.timeseries_encoded(), &error)) {
    std::fprintf(stderr, "pcnd: --series-out: %s\n", error.c_str());
    return 1;
  }
  return 0;
}

int cmd_run(const Args& args) {
  pcn::daemon::PcndConfig config = parse_daemon_config(args);

  pcn::daemon::ClosedLoopConfig workload_config;
  workload_config.dimension = config.dimension;
  workload_config.seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  workload_config.terminals =
      static_cast<std::uint64_t>(args.get_int_or("terminals", 100000));
  workload_config.region = static_cast<int>(args.get_int_or("region", 64));
  workload_config.move_prob = args.get_double_or("q", 0.2);
  workload_config.call_prob = args.get_double_or("c", 0.05);
  workload_config.threshold = static_cast<int>(args.get_int_or("d", 3));
  const std::int64_t slots = args.get_int_or("slots", 512);

  if (args.has("offered")) {
    // Aggregate capacity = cells * per-cell rate; offered = terminals * c.
    const double multiple = args.get_double("offered");
    if (multiple <= 0.0) throw UsageError("--offered must be > 0");
    const double cells =
        config.dimension == pcn::Dimension::kOneD
            ? double(workload_config.region)
            : double(workload_config.region) * double(workload_config.region);
    const double capacity = cells * config.capacity.pages_per_slot();
    workload_config.call_prob =
        std::min(1.0, multiple * capacity / double(workload_config.terminals));
  }

  const std::string metrics_out = args.get_string_or("metrics-out", "");
  const std::string trace_out = args.get_string_or("trace-out", "");
  const std::string admin_path = args.get_string_or("admin-socket", "");
  const auto trace_sample =
      static_cast<std::uint64_t>(args.get_int_or("trace-sample", 8));
  if (!trace_out.empty()) {
    config.record_flight = true;
    config.flight_sample_every = trace_sample;
  }
  if (!admin_path.empty()) config.live_stats = true;
  const std::string series_out = parse_series_flags(args, &config);
  args.reject_unconsumed();

  pcn::daemon::Pcnd daemon(config);
  std::unique_ptr<pcn::daemon::AdminServer> admin;
  if (!admin_path.empty()) {
    admin = std::make_unique<pcn::daemon::AdminServer>(&daemon, admin_path);
    admin->start();
  }
  pcn::daemon::ClosedLoopWorkload workload(workload_config);
  daemon.run_slots(slots, &workload);
  if (admin != nullptr) admin->stop();
  if (const int status = write_series_file(daemon, series_out); status != 0) {
    return status;
  }

  const pcn::daemon::DaemonRunReport report = pcn::daemon::make_daemon_report(
      daemon, workload_config.seed,
      static_cast<std::int64_t>(workload_config.terminals));
  std::printf("pcnd run: %" PRId64 " terminals, %" PRId64
              " slots, %d threads, %d channel%s/cell\n",
              report.terminals, report.slots, report.threads, report.channels,
              report.channels == 1 ? "" : "s");
  std::printf("pages    : %" PRId64 " offered, %" PRId64 " served, %" PRId64
              " dropped, %" PRId64 " evicted, %" PRId64 " expired, %" PRId64
              " duplicate\n",
              report.pages_offered, report.pages_served, report.pages_dropped,
              report.pages_evicted, report.pages_expired,
              report.pages_duplicate);
  std::printf("admission: %s\n", report.queue_admission.c_str());
  if (report.plan_mode != "off") {
    std::printf("plan     : %s, m %d (start %d, range [%d, %d]), %" PRId64
                " widen%s, %" PRId64 " narrow%s\n",
                report.plan_mode.c_str(), report.plan_effective_m,
                report.plan_m_start, report.plan_m_min, report.plan_m_max,
                report.plan_widen, report.plan_widen == 1 ? "" : "s",
                report.plan_narrow, report.plan_narrow == 1 ? "" : "s");
  }
  std::printf("drop rate: %.4f  (queue max depth %" PRId64 "/%zu)\n",
              report.drop_rate, report.max_queue_depth,
              config.queue.max_pending);
  std::printf("delay    : mean %.2f slots, p50 %d, p95 %d, p99 %d, max %d\n",
              report.mean_queue_delay_slots, report.delay_p50, report.delay_p95,
              report.delay_p99, report.delay_max);
  std::printf("sla      : bound %d slots, %" PRId64 " violation%s\n",
              report.sla_delay_slots, report.sla_violations,
              report.sla_violations == 1 ? "" : "s");
  if (report.run_wall_seconds > 0.0) {
    std::printf("wall     : %.3f s (%.0f slots/s)\n", report.run_wall_seconds,
                report.slots_per_sec);
  }

  if (!metrics_out.empty()) {
    std::string error;
    if (!pcn::obs::write_file(metrics_out, pcn::daemon::to_json(report),
                              &error)) {
      std::fprintf(stderr, "pcnd: %s\n", error.c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    pcn::obs::TraceMeta meta;
    meta.dimension = config.dimension == pcn::Dimension::kOneD ? 1 : 2;
    meta.semantics = "daemon";
    meta.seed = workload_config.seed;
    meta.threads = config.threads;
    meta.slots = report.slots;
    meta.move_prob = workload_config.move_prob;
    meta.call_prob = workload_config.call_prob;
    meta.policy = "daemon";
    meta.param = static_cast<std::int64_t>(config.queue.max_pending);
    meta.delay_cycles = config.sla_delay_slots;
    meta.sample_every = config.flight_sample_every;
    const pcn::obs::FlightRecorder* recorder = daemon.flight_recorder();
    meta.dropped_events = recorder->dropped();
    std::string error;
    if (!pcn::obs::write_file(
            trace_out, pcn::obs::to_trace_jsonl(meta, recorder->merged()),
            &error)) {
      std::fprintf(stderr, "pcnd: %s\n", error.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_serve(const Args& args) {
  pcn::daemon::PcndConfig config = parse_daemon_config(args);
  config.collect_outcomes = true;
  const std::string socket_path = args.get_string("socket");
  const std::string admin_path = args.get_string_or("admin-socket", "");
  const std::int64_t slots = args.get_int_or("slots", 1024);
  const std::int64_t slot_us = args.get_int_or("slot-us", 1000);
  if (slot_us < 0) throw UsageError("--slot-us must be >= 0");
  if (!admin_path.empty()) config.live_stats = true;
  const std::string series_out = parse_series_flags(args, &config);
  args.reject_unconsumed();

  pcn::daemon::Pcnd daemon(config);
  pcn::daemon::SocketServer server(&daemon, socket_path);
  server.start();
  std::unique_ptr<pcn::daemon::AdminServer> admin;
  if (!admin_path.empty()) {
    admin = std::make_unique<pcn::daemon::AdminServer>(&daemon, admin_path);
    admin->start();
  }
  std::fprintf(stderr, "pcnd: serving on %s (%" PRId64 " slots, %" PRId64
               " us/slot)\n",
               socket_path.c_str(), slots, slot_us);
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(slot_us);
    daemon.run_slots(1);
    server.flush_outcomes();
    std::this_thread::sleep_until(deadline);
  }
  if (admin != nullptr) admin->stop();
  server.stop();
  if (const int status = write_series_file(daemon, series_out); status != 0) {
    return status;
  }
  const pcn::obs::MetricsSnapshot snapshot =
      daemon.metrics_registry().snapshot();
  std::printf("pcnd serve: %" PRId64 " slots, %" PRId64 " updates, %" PRId64
              " pages served, %" PRId64 " dropped, %" PRId64
              " evicted, %" PRId64 " expired, %" PRId64
              " unknown_terminal\n",
              snapshot.counter_value("daemon.slot.count"),
              snapshot.counter_value("daemon.update.applied"),
              snapshot.counter_value("daemon.page.served"),
              snapshot.counter_value("daemon.page.dropped"),
              snapshot.counter_value("daemon.page.evicted"),
              snapshot.counter_value("daemon.page.expired"),
              snapshot.counter_value("daemon.page.unknown_terminal"));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Args::parse(argc, argv);
    if (args.command() == "run") return cmd_run(args);
    if (args.command() == "serve") return cmd_serve(args);
    std::fputs(kUsage, stderr);
    return 2;
  } catch (const UsageError& error) {
    std::fprintf(stderr, "pcnd: %s\n%s", error.what(), kUsage);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pcnd: %s\n", error.what());
    return 1;
  }
}
