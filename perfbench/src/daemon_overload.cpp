// daemon_overload: an in-process pcnd under closed-loop load at twice the
// aggregate paging capacity, slots free-running.
//
// The queues saturate, so DRAIN, the paging queues, admission and APPLY
// (terminal DB plus the in-loop generator) do nearly all the work; the
// socket front end and proto are bypassed.  Every count is a pure
// function of (seed, config), so the quality metrics are taken over a
// fixed horizon of slots and repeat exactly for a seed, while the
// throughput metrics use the whole timed window.
#include <algorithm>
#include <memory>

#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "daemon_layers.hpp"
#include "pcn/obs/timer.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Scale {
  std::uint64_t terminals;
  int region;
  std::int64_t warmup_slots;
  std::int64_t horizon_slots;  ///< slots the quality metrics cover
};

constexpr Scale kFull{100'000, 64, 64, 256};
constexpr Scale kTiny{4'000, 16, 16, 32};
constexpr int kThreads = 2;
constexpr int kSlaSlots = 8;
constexpr double kOfferedLoad = 2.0;  ///< multiple of aggregate capacity
constexpr std::size_t kTraceBlockSlots = 8;

pcn::daemon::PcndConfig daemon_config() {
  pcn::daemon::PcndConfig config;
  config.threads = kThreads;
  config.capacity = pcn::capacity::PagingCapacityModel(2, 1.0);
  config.queue.max_pending = 64;
  config.queue.lifetime_slots = 128;
  config.queue.admission = pcn::daemon::AdmissionPolicy::kDropNewest;
  config.sla_delay_slots = kSlaSlots;
  config.plan.mode = pcn::daemon::DelayPlanConfig::Mode::kOff;
  config.live_stats = true;
  return config;
}

/// Forwards to the closed-loop generator, timing each generate call so
/// APPLY can be split into daemon work and load generation.
class TimedWorkload final : public pcn::daemon::SlotWorkload {
 public:
  explicit TimedWorkload(const pcn::daemon::ClosedLoopConfig& config)
      : inner_(config) {}

  void generate(int shard, int shard_count, std::int64_t slot,
                pcn::daemon::RequestSink& sink) override {
    const trace::Span span("load_gen.generate");
    inner_.generate(shard, shard_count, slot, sink);
  }
  void on_outcome(std::uint64_t terminal_id, pcn::proto::PageOutcomeKind kind,
                  std::int64_t slot) override {
    inner_.on_outcome(terminal_id, kind, slot);
  }

  const pcn::daemon::ClosedLoopWorkload& inner() const { return inner_; }

 private:
  pcn::daemon::ClosedLoopWorkload inner_;
};

struct Instance {
  std::unique_ptr<pcn::daemon::Pcnd> daemon;
  std::unique_ptr<TimedWorkload> workload;
};

/// Construction, fleet registration (the generator's first slot registers
/// every terminal) and warm-up until the queues are saturated.
Instance set_up(const Scale& scale, std::uint64_t seed) {
  Instance instance;
  const pcn::daemon::PcndConfig config = daemon_config();
  instance.daemon = std::make_unique<pcn::daemon::Pcnd>(config);
  pcn::daemon::ClosedLoopConfig load;
  load.seed = seed;
  load.terminals = scale.terminals;
  load.region = scale.region;
  load.move_prob = 0.2;
  load.threshold = 3;
  const double capacity = double(scale.region) * double(scale.region) *
                          config.capacity.pages_per_slot();
  load.call_prob =
      std::min(1.0, kOfferedLoad * capacity / double(scale.terminals));
  instance.workload = std::make_unique<TimedWorkload>(load);
  for (std::int64_t s = 0; s < scale.warmup_slots; ++s) {
    instance.daemon->run_slots(1, instance.workload.get());
  }
  return instance;
}

/// Counters the quality metrics and the conservation check read.
struct Tally {
  std::int64_t requests = 0;
  std::int64_t updates = 0;
  std::int64_t served = 0;
  std::int64_t dropped = 0;
  std::int64_t expired = 0;
  std::int64_t evicted = 0;
  std::int64_t unknown = 0;
  std::vector<std::int64_t> delay_hist;

  static Tally read(const pcn::daemon::Pcnd& daemon) {
    const pcn::obs::MetricsSnapshot snap = daemon.metrics_registry().snapshot();
    Tally t;
    t.updates = snap.counter_value("daemon.request.update");
    t.requests = t.updates + snap.counter_value("daemon.request.page");
    t.served = snap.counter_value("daemon.page.served");
    t.dropped = snap.counter_value("daemon.page.dropped");
    t.expired = snap.counter_value("daemon.page.expired");
    t.evicted = snap.counter_value("daemon.page.evicted");
    t.unknown = snap.counter_value("daemon.page.unknown_terminal");
    t.delay_hist = daemon.delay_histogram();
    return t;
  }
  std::int64_t failures() const {
    return dropped + expired + evicted + unknown;
  }
};

}  // namespace

void run_daemon_overload(const Options& options, Report& report) {
  const Scale& scale = options.tiny ? kTiny : kFull;

  std::vector<double> setup_s;
  Instance instance;
  for (int i = 0; i < kSetupRepeats; ++i) {
    instance = {};  // release the previous fleet before timing the next
    const std::int64_t start = pcn::obs::monotonic_ns();
    instance = set_up(scale, options.seed);
    setup_s.push_back(double(pcn::obs::monotonic_ns() - start) * 1e-9);
  }
  pcn::daemon::Pcnd& daemon = *instance.daemon;
  TimedWorkload& workload = *instance.workload;

  // Timed window: free-running slots, one run_slots(1) per slot as the
  // serve loop issues them, for at least `seconds` and the horizon.  Rates
  // are medians over slots: a host stall inflates the few slots it hits,
  // not the figure.  A traced run records spans in alternate blocks of
  // kTraceBlockSlots slots, so tracing's cost is the difference between
  // the two kinds of block in the same process.
  pcn::obs::MetricsRegistry& registry = daemon.metrics_registry();
  const pcn::obs::Counter update_requests =
      registry.counter("daemon.request.update");
  const pcn::obs::Counter page_requests = registry.counter("daemon.request.page");
  const auto requests_so_far = [&] {
    return update_requests.value() + page_requests.value();
  };
  const pcn::obs::MetricsSnapshot start_snap = registry.snapshot();
  const Tally start = Tally::read(daemon);
  Tally horizon;
  double pending_sum = 0.0;
  std::vector<double> slot_us, requests_per_s, cpu_us_per_request;
  std::vector<double> traced_cpu, untraced_cpu;  // per request, trace only
  std::int64_t traced_slots = 0;
  const std::int64_t window_start = pcn::obs::monotonic_ns();
  const auto window_ns = static_cast<std::int64_t>(options.seconds * 1e9);
  std::int64_t now = window_start;
  while (static_cast<std::int64_t>(slot_us.size()) < scale.horizon_slots ||
         now - window_start < window_ns) {
    const bool traced =
        options.trace && (slot_us.size() / kTraceBlockSlots) % 2 == 0;
    trace::enable(traced);
    const std::int64_t slot_start = now;
    const double cpu_before = process_cpu_s();
    const std::int64_t requests_before = requests_so_far();
    {
      const trace::Span span("daemon.run_slots");
      daemon.run_slots(1, &workload);
    }
    now = pcn::obs::monotonic_ns();
    const double requests_in_slot =
        double(requests_so_far() - requests_before);
    slot_us.push_back(double(now - slot_start) * 1e-3);
    requests_per_s.push_back(requests_in_slot * 1e6 / slot_us.back());
    cpu_us_per_request.push_back((process_cpu_s() - cpu_before) * 1e6 /
                                 requests_in_slot);
    if (options.trace) {
      (traced ? traced_cpu : untraced_cpu).push_back(cpu_us_per_request.back());
      traced_slots += traced ? 1 : 0;
      pending_sum += double(daemon.live_queue_stats().total_pending);
    }
    if (static_cast<std::int64_t>(slot_us.size()) == scale.horizon_slots) {
      horizon = Tally::read(daemon);
    }
  }
  const double window_s = double(now - window_start) * 1e-9;
  const Tally end = Tally::read(daemon);

  // Quality over the horizon: verdicts reached in its slots.  Pages still
  // in flight at the horizon are neither served nor failed yet (they
  // settle within the queue lifetime, after it).
  std::vector<std::int64_t> delays = horizon.delay_hist;
  for (std::size_t k = 0; k < start.delay_hist.size(); ++k) {
    delays[k] -= start.delay_hist[k];
  }
  const std::int64_t served = horizon.served - start.served;
  const std::int64_t failed = horizon.failures() - start.failures();
  const std::int64_t settled = served + failed;
  std::int64_t within_sla = 0;
  for (std::size_t k = 0; k < delays.size() && k <= kSlaSlots; ++k) {
    within_sla += delays[k];
  }
  // Slots to verdict, counting the slot that settles the page (1 = served
  // in the slot it arrived), so a page is never "0 slots late".
  const Percentile delay_p50 = percentile(delays, 1, failed, 0.50);
  const Percentile delay_p99 = percentile(delays, 1, failed, 0.99);
  // A closed-loop caller waits this many slots of the free-running loop.
  const double median_slot_us = median(slot_us);
  const auto as_latency = [&](Percentile p) {
    p.value *= median_slot_us;
    return p;
  };
  const std::int64_t window_slots = static_cast<std::int64_t>(slot_us.size());
  const std::int64_t requests = end.requests - start.requests;
  const std::int64_t horizon_updates = horizon.updates - start.updates;

  const std::string over =
      "median of " + std::to_string(window_slots) + " slots";
  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(setup_s.size()));
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("requests_per_s", median(requests_per_s), "1/s", over);
    report.metric("terminal_slots_per_s",
                  double(scale.terminals) * 1e6 / median_slot_us, "1/s", over);
    report.metric("cpu_us_per_request", median(cpu_us_per_request), "us",
                  over);
    report.metric("page_latency_p50_us", as_latency(delay_p50), "us");
    report.metric("page_latency_p99_us", as_latency(delay_p99), "us");
    report.metric("page_served_share", double(served) / double(settled),
                  "share", std::to_string(settled) + " pages settled");
    report.metric("sla_met_share", double(within_sla) / double(settled),
                  "share");
    report.metric("page_delay_p99_slots", delay_p99, "slots");
    report.metric(
        "mean_cost_per_slot",
        (double(horizon_updates) * kUpdateCost + double(served) * kPollCost) /
            (double(scale.terminals) * double(scale.horizon_slots)),
        "cost");
  } else {
    const auto spans = trace::summarize();
    const trace::SpanStats& slots = spans.at("daemon.run_slots");
    report.metric("daemon.run_slots_us_p50",
                  percentile(slots.durations_ns, 0, 0.50).value * 1e-3, "us");
    report.metric("daemon.run_slots_us_p99",
                  percentile(slots.durations_ns, 0, 0.99).value * 1e-3, "us");
    report_daemon_layers(report, start_snap, registry.snapshot());
    report.metric("load_gen.generate_us_per_slot",
                  spans.at("load_gen.generate").total_ns * 1e-3 /
                      double(traced_slots),
                  "us", "summed over worker threads");
    report.metric("paging_queue.max_depth", double(daemon.max_queue_depth()),
                  "count");
    report.metric("paging_queue.pending_mean",
                  pending_sum / double(window_slots), "count");
    report.metric("trace_overhead_pct", overhead_pct(traced_cpu, untraced_cpu),
                  "%", "CPU per request, traced vs untraced slots");
  }

  // Conservation over the whole run: every page the generator submitted
  // is served, failed, or still in flight; the exact delay histogram
  // holds one entry per served page.
  const pcn::daemon::ClosedLoopWorkload& load = workload.inner();
  const std::int64_t accounted = load.outcomes_served() +
                                 load.outcomes_dropped() +
                                 load.outcomes_expired() +
                                 load.outcomes_rejected() +
                                 load.outstanding_count();
  report.check("pages_conserved",
               accounted == load.pages_submitted() &&
                   load.outcomes_served() == end.served &&
                   load.outcomes_dropped() + load.outcomes_expired() ==
                       end.dropped + end.evicted + end.expired + end.unknown,
               std::to_string(load.pages_submitted()) + " submitted, " +
                   std::to_string(accounted) + " accounted");
  std::int64_t mass = 0;
  for (const std::int64_t count : end.delay_hist) mass += count;
  report.check("delay_histogram_mass", mass == end.served,
               std::to_string(mass) + " in histogram, " +
                   std::to_string(end.served) + " served");
  report.set_work(requests, end.failures() - start.failures());
  report.line("closed loop, " + std::to_string(scale.terminals) +
              " terminals, " + std::to_string(scale.region) + "x" +
              std::to_string(scale.region) + " torus, " +
              std::to_string(kThreads) + " worker threads, " +
              std::to_string(window_slots) + " slots in " +
              std::to_string(window_s) + " s");
}

}  // namespace perfbench
