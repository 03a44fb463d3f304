// pcnctl — operations front-end for libpcn.
//
// Commands:
//   plan          compute the optimal threshold + paging plan for one profile
//   surface       print the C_T(d, m) trade-off surface
//   simulate      run the discrete-event network and report measured metrics
//   sweep         sweep q or c at the optimal threshold (figure 4/5 style)
//   baselines     analytic comparison vs movement-/time-based schemes
//   trace-summary analyze a pcn.trace.v1 flight recording
//   top           live dashboard for a running pcnd --admin-socket
//
// Common flags:
//   --dim {1|2}        geometry (default 2)
//   --q F --c F        movement / call probability (defaults 0.05 / 0.01)
//   --U F --V F        update / poll cost (defaults 100 / 10)
//   --delay N          max paging delay in cycles; omit for unbounded
//   --max-d N          threshold search cap D (default 100)
//   --scheme {sdf|optimal|hpf}   residing-area partitioner (default sdf)
//   --optimizer {scan|anneal|near}  threshold search (default scan)
// simulate extras:
//   --slots N          slots to run (default 200000)
//   --seed N           RNG seed (default 1)
//   --policy {distance|movement|time|la}  update policy (default distance)
//   --param N          policy parameter (M, T or R; distance uses the plan)
//   --threads N        worker threads (0 = hardware concurrency, default 1)
//   --engine {auto|reference|simd}  slot-loop engine: the polymorphic
//                      reference loop, the lane-parallel engine (simd;
//                      AVX2 with portable fallback; an error when it
//                      cannot run), or auto-selection (default; simd when
//                      eligible, else reference).  Both follow one draw
//                      contract, so every engine prints the same report
//   --metrics-out F    write a pcn.run_report.v1 JSON RunReport to F
//                      ("-" = stdout); enables runtime telemetry
//   --progress         stream chunked progress + slots/sec to stderr
//   --trace-out F      record a per-call flight trace to F ("-" = stdout)
//   --trace-format {jsonl|chrome}  pcn.trace.v1 JSONL (default) or a
//                      Chrome/Perfetto trace_event file
//   --trace-sample N   record 1 in N call lifecycles (default 8)
//   --series-out F     record a pcn.timeseries.v1 run timeline to F
//                      ("-" = stdout); enables runtime telemetry
//   --series-every N   sample the metrics registry every N slots
//                      (default 64; slot-indexed, bit-identical at any
//                      thread count)
// sweep extras:
//   --variable {q|c}   which rate to sweep
//   --from F --to F --points N
// trace-summary:
//   pcnctl trace-summary FILE   delay distribution, per-cycle costs,
//   SLA verdicts and the observed-vs-predicted model comparison for a
//   pcn.trace.v1 file; exits 1 when any call exceeded the delay bound.
// top:
//   --admin-socket P   pcnd admin socket to poll (required)
//   --interval-ms N    refresh interval (default 1000)
//   --count N          frames to render, 0 = until interrupted (default 0)
//   --once             render a single frame and exit
//   --json             print the raw pcn.live_snapshot.v1 document instead
//                      of the dashboard (with --once: one scrape, for
//                      scripting)
// timeline:
//   pcnctl timeline FILE        analyze a pcn.timeseries.v1 run timeline:
//   per-series sparkline tables, windowed rates/quantiles (RollingWindow
//   delta math over the replayed samples) and CUSUM changepoint verdicts
//   (machine-readable PCN_TIMELINE line with overload_onset_slot).
//   --admin-socket P   scrape the live timeline tail from a running pcnd
//                      instead of reading FILE
//   --window-slots N   summary window (default: the whole capture)
//   --baseline N       CUSUM baseline samples (default 8)
//   --threshold F      CUSUM detection threshold in baseline scales
//                      (default 8.0)
//   --json             machine-readable JSON instead of tables
//   --reencode OUT     re-encode the loaded timeline to OUT ("-" = stdout;
//                      byte-exact for files produced by this codec)
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <initializer_list>
#include <string>
#include <thread>

#include <vector>

#include "pcn/baselines/baseline_models.hpp"
#include "pcn/cli/args.hpp"
#include "pcn/core/location_manager.hpp"
#include "pcn/obs/json.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/obs/rolling_window.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/obs/timeseries.hpp"
#include "pcn/obs/timeseries_codec.hpp"
#include "pcn/obs/trace_analysis.hpp"
#include "pcn/obs/trace_export.hpp"
#include "pcn/proto/wire.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace {

using pcn::cli::Args;
using pcn::cli::UsageError;

constexpr const char* kUsage = R"(usage: pcnctl <command> [flags]

commands:
  plan          optimal threshold + paging plan for one user profile
  surface       C_T(d, m) trade-off surface
  simulate      discrete-event run with measured metrics
  sweep         cost-at-optimum sweep over q or c
  baselines     analytic movement-/time-based comparison vs the planned policy
  trace-summary analyze a pcn.trace.v1 flight recording (exit 1 on SLA
                violations)
  top           live dashboard for a running pcnd --admin-socket
  timeline      analyze a pcn.timeseries.v1 run timeline (sparklines,
                windowed rates, changepoint verdicts)

common flags: --dim {1|2} --q F --c F --U F --V F --delay N --max-d N
              --scheme {sdf|optimal|hpf} --optimizer {scan|anneal|near}
simulate:     --slots N --seed N --policy {distance|movement|time|la} --param N
              --threads N --engine {auto|reference|simd}
              --metrics-out FILE --progress
              --trace-out FILE --trace-format {jsonl|chrome} --trace-sample N
              --series-out FILE --series-every N
sweep:        --variable {q|c} --from F --to F --points N
trace-summary: pcnctl trace-summary FILE
top:          --admin-socket PATH --interval-ms N --count N --once --json
timeline:     pcnctl timeline FILE | --admin-socket PATH
              [--window-slots N] [--baseline N] [--threshold F] [--json]
              [--reencode OUT]
)";

pcn::Dimension parse_dim(const Args& args) {
  const std::int64_t dim = args.get_int_or("dim", 2);
  if (dim == 1) return pcn::Dimension::kOneD;
  if (dim == 2) return pcn::Dimension::kTwoD;
  throw UsageError("--dim must be 1 or 2");
}

pcn::MobilityProfile parse_profile(const Args& args) {
  return pcn::MobilityProfile{args.get_double_or("q", 0.05),
                              args.get_double_or("c", 0.01)};
}

pcn::CostWeights parse_weights(const Args& args) {
  return pcn::CostWeights{args.get_double_or("U", 100.0),
                          args.get_double_or("V", 10.0)};
}

pcn::DelayBound parse_delay(const Args& args) {
  if (!args.has("delay")) return pcn::DelayBound::unbounded();
  return pcn::DelayBound(static_cast<int>(args.get_int("delay")));
}

pcn::core::PlannerConfig parse_planner(const Args& args) {
  pcn::core::PlannerConfig config;
  config.max_threshold = static_cast<int>(args.get_int_or("max-d", 100));
  const std::string scheme = args.get_string_or("scheme", "sdf");
  if (scheme == "sdf") {
    config.scheme = pcn::costs::PartitionScheme::kSdfEqual;
  } else if (scheme == "optimal") {
    config.scheme = pcn::costs::PartitionScheme::kOptimalContiguous;
  } else if (scheme == "hpf") {
    config.scheme = pcn::costs::PartitionScheme::kHighestProbabilityFirst;
  } else {
    throw UsageError("--scheme must be sdf, optimal or hpf");
  }
  const std::string optimizer = args.get_string_or("optimizer", "scan");
  if (optimizer == "scan") {
    config.optimizer = pcn::core::OptimizerKind::kExhaustive;
  } else if (optimizer == "anneal") {
    config.optimizer = pcn::core::OptimizerKind::kSimulatedAnnealing;
  } else if (optimizer == "near") {
    config.optimizer = pcn::core::OptimizerKind::kNearOptimal;
  } else {
    throw UsageError("--optimizer must be scan, anneal or near");
  }
  return config;
}

int cmd_plan(const Args& args) {
  const pcn::Dimension dim = parse_dim(args);
  const pcn::MobilityProfile profile = parse_profile(args);
  const pcn::CostWeights weights = parse_weights(args);
  const pcn::DelayBound bound = parse_delay(args);
  const pcn::core::LocationManager manager(dim, profile, weights,
                                           parse_planner(args));
  args.reject_unconsumed();

  const pcn::core::LocationPlan plan = manager.plan(bound);
  std::printf("profile       : %s, q=%.4f, c=%.4f\n",
              to_string(dim).c_str(), profile.move_prob, profile.call_prob);
  std::printf("costs         : U=%.2f, V=%.2f, max delay=%s\n",
              weights.update_cost, weights.poll_cost,
              to_string(bound).c_str());
  std::printf("threshold d*  : %d\n", plan.threshold);
  std::printf("paging plan   :");
  for (int j = 0; j < plan.partition.subarea_count(); ++j) {
    std::printf(" cycle%d={", j + 1);
    for (std::size_t k = 0; k < plan.partition.rings(j).size(); ++k) {
      std::printf("%sr%d", k ? "," : "", plan.partition.rings(j)[k]);
    }
    std::printf("}");
  }
  std::printf("\n");
  std::printf("expected cost : %.6f per slot (update %.6f + paging %.6f)\n",
              plan.expected_total(), plan.expected.update,
              plan.expected.paging);
  std::printf("expected delay: %.3f polling cycles\n",
              plan.expected_delay_cycles);
  std::printf("evaluations   : %d\n", plan.evaluations);
  return 0;
}

int cmd_surface(const Args& args) {
  const pcn::Dimension dim = parse_dim(args);
  const pcn::MobilityProfile profile = parse_profile(args);
  const pcn::CostWeights weights = parse_weights(args);
  const int max_d = static_cast<int>(args.get_int_or("max-d", 12));
  const pcn::core::LocationManager manager(dim, profile, weights);
  args.reject_unconsumed();

  std::printf("C_T(d, m), %s, q=%.4f c=%.4f U=%.1f V=%.1f\n",
              to_string(dim).c_str(), profile.move_prob, profile.call_prob,
              weights.update_cost, weights.poll_cost);
  std::printf("   d |       m=1       m=2       m=3   unbounded\n");
  for (int d = 0; d <= max_d; ++d) {
    std::printf(" %3d |", d);
    for (int m : {1, 2, 3, 0}) {
      const pcn::DelayBound bound =
          m == 0 ? pcn::DelayBound::unbounded() : pcn::DelayBound(m);
      std::printf(" %9.4f", manager.total_cost(d, bound));
    }
    std::printf("\n");
  }
  return 0;
}

int cmd_simulate(const Args& args) {
  const pcn::Dimension dim = parse_dim(args);
  const pcn::MobilityProfile profile = parse_profile(args);
  const pcn::CostWeights weights = parse_weights(args);
  const pcn::DelayBound bound = parse_delay(args);
  const std::int64_t slots = args.get_int_or("slots", 200000);
  const auto seed = static_cast<std::uint64_t>(args.get_int_or("seed", 1));
  const std::string policy = args.get_string_or("policy", "distance");
  const int threads = static_cast<int>(args.get_int_or("threads", 1));
  const std::string engine_name = args.get_string_or("engine", "auto");
  pcn::sim::SimEngine engine = pcn::sim::SimEngine::kAuto;
  if (engine_name == "reference") {
    engine = pcn::sim::SimEngine::kReference;
  } else if (engine_name == "simd") {
    // Fail fast with a usage-level diagnostic when the engine cannot run
    // here (e.g. PCN_SIMD_ISA=none, or =avx2 without the hardware);
    // --engine auto on the same machine runs the reference engine.
    const pcn::sim::SimdSupport support = pcn::sim::simd_support();
    if (!support.available) {
      throw UsageError(std::string("--engine simd is unavailable here: ") +
                       support.reason);
    }
    engine = pcn::sim::SimEngine::kSimd;
  } else if (engine_name != "auto") {
    throw UsageError("--engine must be auto, reference or simd");
  }
  const std::string metrics_out = args.get_string_or("metrics-out", "");
  const bool progress = args.get_switch("progress");
  const std::string trace_out = args.get_string_or("trace-out", "");
  const std::string trace_format =
      args.get_string_or("trace-format", "jsonl");
  const std::int64_t trace_sample = args.get_int_or("trace-sample", 8);
  if (trace_format != "jsonl" && trace_format != "chrome") {
    throw UsageError("--trace-format must be jsonl or chrome");
  }
  if (trace_sample < 1) throw UsageError("--trace-sample must be >= 1");
  const std::string series_out = args.get_string_or("series-out", "");
  const std::int64_t series_every = args.get_int_or("series-every", 64);
  if (series_every < 1) throw UsageError("--series-every must be >= 1");
  const std::string scheme_name = args.get_string_or("scheme", "sdf");
  const pcn::core::LocationManager manager(dim, profile, weights,
                                           parse_planner(args));

  pcn::sim::TerminalSpec spec;
  std::string description;
  std::int64_t policy_param = 0;
  if (policy == "distance") {
    const pcn::core::LocationPlan plan = manager.plan(bound);
    spec = manager.make_terminal_spec(plan);
    description = "distance d*=" + std::to_string(plan.threshold);
    policy_param = plan.threshold;
  } else if (policy == "movement") {
    const int moves = static_cast<int>(args.get_int_or("param", 5));
    spec = pcn::sim::make_movement_terminal(dim, profile, moves, bound);
    description = "movement M=" + std::to_string(moves);
    policy_param = moves;
  } else if (policy == "time") {
    const auto period = args.get_int_or("param", 50);
    spec = pcn::sim::make_time_terminal(dim, profile, period);
    description = "time T=" + std::to_string(period);
    policy_param = period;
  } else if (policy == "la") {
    const int radius = static_cast<int>(args.get_int_or("param", 2));
    spec = pcn::sim::make_la_terminal(dim, profile, radius);
    description = "location-area R=" + std::to_string(radius);
    policy_param = radius;
  } else {
    throw UsageError("--policy must be distance, movement, time or la");
  }
  args.reject_unconsumed();

  pcn::sim::NetworkConfig net_config{
      dim, pcn::sim::SlotSemantics::kChainFaithful, seed};
  net_config.threads = threads;
  net_config.engine = engine;
  net_config.collect_runtime_stats = !metrics_out.empty() || progress;
  net_config.record_flight = !trace_out.empty();
  net_config.flight_sample_every =
      static_cast<std::uint64_t>(trace_sample);
  if (!series_out.empty()) {
    net_config.timeseries_every_slots = series_every;
  }
  pcn::sim::Network network(net_config, weights);
  const pcn::sim::TerminalId id = network.add_terminal(std::move(spec));
  if (progress) {
    // Chunked run: Network::run resumes exactly where the last call left
    // off, so slicing the slot budget leaves every metric bit-identical.
    const std::int64_t chunk = std::max<std::int64_t>(slots / 50, 1);
    const std::int64_t start_ns = pcn::obs::monotonic_ns();
    std::int64_t done = 0;
    while (done < slots) {
      const std::int64_t step = std::min(chunk, slots - done);
      network.run(step);
      done += step;
      const double elapsed =
          static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9;
      std::fprintf(stderr,
                   "\rprogress: %lld/%lld slots (%3.0f%%), %.2fM slots/s",
                   static_cast<long long>(done),
                   static_cast<long long>(slots),
                   100.0 * static_cast<double>(done) /
                       static_cast<double>(slots),
                   elapsed > 0.0
                       ? static_cast<double>(done) / elapsed * 1e-6
                       : 0.0);
    }
    std::fputc('\n', stderr);
  } else {
    network.run(slots);
  }
  const pcn::sim::TerminalMetrics& m = network.metrics(id);

  std::printf("policy        : %s over %lld slots (seed %llu)\n",
              description.c_str(), static_cast<long long>(slots),
              static_cast<unsigned long long>(seed));
  std::printf("events        : %lld moves, %lld updates, %lld calls\n",
              static_cast<long long>(m.moves),
              static_cast<long long>(m.updates),
              static_cast<long long>(m.calls));
  std::printf("cost          : %.6f per slot (update %.6f + paging %.6f)\n",
              m.cost_per_slot(), m.update_cost_per_slot(),
              m.paging_cost_per_slot());
  if (m.calls > 0) {
    std::printf("paging        : %.1f cells/call, delay mean %.3f max %d\n",
                static_cast<double>(m.polled_cells) /
                    static_cast<double>(m.calls),
                m.paging_cycles.mean(), m.paging_cycles.max_value());
  }
  std::printf("air interface : %lld update bytes + %lld paging bytes "
              "(%.2f bytes/slot)\n",
              static_cast<long long>(m.update_bytes),
              static_cast<long long>(m.paging_bytes),
              static_cast<double>(m.total_bytes()) /
                  static_cast<double>(m.slots));
  if (!metrics_out.empty()) {
    const pcn::obs::RunReport report = pcn::obs::make_run_report(network);
    std::string error;
    if (!pcn::obs::write_file(metrics_out, pcn::obs::to_json(report),
                              &error)) {
      std::fprintf(stderr, "pcnctl: --metrics-out: %s\n", error.c_str());
      return 1;
    }
  }
  if (!series_out.empty()) {
    std::string error;
    if (!pcn::obs::write_timeseries_file(
            series_out, network.timeseries()->data(), &error)) {
      std::fprintf(stderr, "pcnctl: --series-out: %s\n", error.c_str());
      return 1;
    }
  }
  if (!trace_out.empty()) {
    const pcn::obs::FlightRecorder* recorder = network.flight_recorder();
    pcn::obs::TraceMeta meta;
    meta.dimension = dim == pcn::Dimension::kOneD ? 1 : 2;
    meta.semantics = "chain_faithful";
    meta.seed = seed;
    meta.threads = threads;
    meta.slots = slots;
    meta.move_prob = profile.move_prob;
    meta.call_prob = profile.call_prob;
    meta.update_cost = weights.update_cost;
    meta.poll_cost = weights.poll_cost;
    meta.policy = policy;
    meta.param = policy_param;
    meta.scheme = scheme_name;
    meta.delay_cycles = bound.is_unbounded() ? 0 : bound.cycles();
    meta.sample_every = recorder->config().sample_every;
    meta.dropped_events = recorder->dropped();
    if (recorder->dropped() > 0) {
      std::fprintf(stderr,
                   "pcnctl: warning: flight recorder dropped %llu events "
                   "(raise NetworkConfig::flight_shard_capacity)\n",
                   static_cast<unsigned long long>(recorder->dropped()));
    }
    const std::vector<pcn::obs::FlightEvent> events = recorder->merged();
    const std::string text =
        trace_format == "chrome" ? pcn::obs::to_chrome_trace(meta, events)
                                 : pcn::obs::to_trace_jsonl(meta, events);
    std::string error;
    if (!pcn::obs::write_file(trace_out, text, &error)) {
      std::fprintf(stderr, "pcnctl: --trace-out: %s\n", error.c_str());
      return 1;
    }
  }
  return 0;
}

int cmd_trace_summary(const Args& args) {
  const std::string path = args.positional(0, "TRACE_FILE");
  args.reject_unconsumed();

  std::string text;
  std::string error;
  if (!pcn::obs::read_file(path, &text, &error)) {
    std::fprintf(stderr, "pcnctl: %s\n", error.c_str());
    return 1;
  }
  pcn::obs::TraceMeta meta;
  std::vector<pcn::obs::FlightEvent> events;
  // A zero-byte or whitespace-only file is a recording of nothing, not a
  // corrupt one: summarize it as an empty trace (all sections empty,
  // exit 0) instead of failing on the missing header line.
  const bool blank = text.find_first_not_of(" \t\r\n") == std::string::npos;
  if (!blank &&
      !pcn::obs::parse_trace_jsonl(text, &meta, &events, &error)) {
    std::fprintf(stderr, "pcnctl: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  const pcn::obs::TraceAnalysis analysis =
      pcn::obs::analyze_trace(meta, events);
  std::printf("trace         : %zu events (1 in %llu sampled, %llu "
              "dropped), %s, seed %llu, %lld slots\n",
              events.size(),
              static_cast<unsigned long long>(meta.sample_every),
              static_cast<unsigned long long>(meta.dropped_events),
              meta.policy.empty() ? "unknown policy" : meta.policy.c_str(),
              static_cast<unsigned long long>(meta.seed),
              static_cast<long long>(meta.slots));
  std::printf("calls         : %lld recorded (%lld clean, %lld fallback), "
              "%lld updates (+%lld lost), %lld area resets\n",
              static_cast<long long>(analysis.calls),
              static_cast<long long>(analysis.clean_calls),
              static_cast<long long>(analysis.fallback_calls),
              static_cast<long long>(analysis.updates),
              static_cast<long long>(analysis.updates_lost),
              static_cast<long long>(analysis.resets));
  if (analysis.pages_queued > 0 || analysis.pages_served > 0 ||
      analysis.pages_dropped > 0 || analysis.pages_expired > 0) {
    std::printf("daemon pages  : %lld queued, %lld served, %lld dropped, "
                "%lld expired\n",
                static_cast<long long>(analysis.pages_queued),
                static_cast<long long>(analysis.pages_served),
                static_cast<long long>(analysis.pages_dropped),
                static_cast<long long>(analysis.pages_expired));
  }
  if (analysis.calls > 0) {
    std::printf("cycles-to-find: mean %.3f, p50 %d, p95 %d, p99 %d, max %d\n",
                analysis.mean_cycles, analysis.p50, analysis.p95,
                analysis.p99, analysis.max_cycles);
    std::printf("poll cost     : %.2f cells/call, %.4f cost/call\n",
                static_cast<double>(analysis.total_cells) /
                    static_cast<double>(analysis.calls),
                analysis.mean_cost);
    std::printf("  cycle | reached |  found |      cells |       cost\n");
    for (std::size_t k = 0; k < analysis.per_cycle.size(); ++k) {
      const pcn::obs::CycleBreakdown& cycle = analysis.per_cycle[k];
      if (cycle.reached == 0) continue;
      std::printf("  %5zu | %7lld | %6lld | %10lld | %10.2f\n", k + 1,
                  static_cast<long long>(cycle.reached),
                  static_cast<long long>(cycle.found),
                  static_cast<long long>(cycle.cells), cycle.cost);
    }
  }

  const pcn::obs::AlphaComparison comparison =
      pcn::obs::compare_with_model(meta, analysis);
  if (comparison.applicable) {
    std::printf("model check   : predicted %.4f cost/call, observed %.4f "
                "(clean calls)\n",
                comparison.predicted_cost_per_call,
                comparison.observed_cost_per_call);
    std::printf("  subarea | predicted a_j | observed a_j | calls\n");
    for (std::size_t j = 0; j < comparison.predicted_alpha.size(); ++j) {
      std::printf("  %7zu | %13.5f | %12.5f | %lld\n", j + 1,
                  comparison.predicted_alpha[j], comparison.observed_alpha[j],
                  static_cast<long long>(comparison.observed_counts[j]));
    }
    if (comparison.dof > 0) {
      std::printf("  chi-square %.3f on %d dof (99.9%% critical %.3f): %s\n",
                  comparison.chi_square, comparison.dof,
                  comparison.critical_999,
                  comparison.consistent ? "consistent" : "INCONSISTENT");
    }
  } else {
    std::printf("model check   : skipped (%s)\n", comparison.reason.c_str());
  }

  // Dropped/expired daemon pages violate any delay SLA (the callee is
  // never found), so the tally must count them even with no bound m set.
  if (analysis.sla_bound > 0 || !analysis.violations.empty()) {
    if (analysis.sla_bound > 0) {
      std::printf("delay SLA     : bound m=%d, %zu violation%s\n",
                  analysis.sla_bound, analysis.violations.size(),
                  analysis.violations.size() == 1 ? "" : "s");
    } else {
      std::printf("delay SLA     : unbounded, %zu violation%s "
                  "(pages never served)\n",
                  analysis.violations.size(),
                  analysis.violations.size() == 1 ? "" : "s");
    }
    const std::size_t shown =
        std::min<std::size_t>(analysis.violations.size(), 10);
    for (std::size_t i = 0; i < shown; ++i) {
      const pcn::obs::SlaViolation& v = analysis.violations[i];
      if (v.cycles == pcn::obs::SlaViolation::kDroppedPage) {
        std::printf("  VIOLATION: terminal %lld page %llu at slot %lld "
                    "dropped (queue full, never served)\n",
                    static_cast<long long>(v.terminal),
                    static_cast<unsigned long long>(v.call),
                    static_cast<long long>(v.slot));
      } else if (v.cycles == pcn::obs::SlaViolation::kExpiredPage) {
        std::printf("  VIOLATION: terminal %lld page %llu at slot %lld "
                    "expired in queue (never served)\n",
                    static_cast<long long>(v.terminal),
                    static_cast<unsigned long long>(v.call),
                    static_cast<long long>(v.slot));
      } else {
        std::printf("  VIOLATION: terminal %lld call %llu at slot %lld took "
                    "%d cycles (> %d)\n",
                    static_cast<long long>(v.terminal),
                    static_cast<unsigned long long>(v.call),
                    static_cast<long long>(v.slot), v.cycles,
                    analysis.sla_bound);
      }
    }
    if (shown < analysis.violations.size()) {
      std::printf("  ... %zu more\n", analysis.violations.size() - shown);
    }
  } else {
    std::printf("delay SLA     : unbounded (no m to check)\n");
  }
  return analysis.violations.empty() ? 0 : 1;
}

int cmd_sweep(const Args& args) {
  const pcn::Dimension dim = parse_dim(args);
  const pcn::MobilityProfile base = parse_profile(args);
  const pcn::CostWeights weights = parse_weights(args);
  const pcn::DelayBound bound = parse_delay(args);
  const std::string variable = args.get_string_or("variable", "q");
  const double from = args.get_double_or("from", 0.001);
  const double to = args.get_double_or("to", variable == "q" ? 0.5 : 0.1);
  const auto points = args.get_int_or("points", 15);
  const int max_d = static_cast<int>(args.get_int_or("max-d", 100));
  args.reject_unconsumed();
  if (variable != "q" && variable != "c") {
    throw UsageError("--variable must be q or c");
  }
  if (!(from > 0.0) || !(to > from) || points < 2) {
    throw UsageError("need 0 < --from < --to and --points >= 2");
  }

  std::printf("sweep %s in [%g, %g], %s, delay %s, U=%.1f V=%.1f\n",
              variable.c_str(), from, to, to_string(dim).c_str(),
              to_string(bound).c_str(), weights.update_cost,
              weights.poll_cost);
  std::printf("  %8s |      C_T*   d*\n", variable.c_str());
  for (std::int64_t i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / static_cast<double>(points - 1);
    const double value = from * std::pow(to / from, t);
    pcn::MobilityProfile profile = base;
    (variable == "q" ? profile.move_prob : profile.call_prob) = value;
    pcn::core::PlannerConfig config;
    config.max_threshold = max_d;
    const pcn::core::LocationManager manager(dim, profile, weights, config);
    const pcn::core::LocationPlan plan = manager.plan(bound);
    std::printf("  %8.5f | %9.4f  %3d\n", value, plan.expected_total(),
                plan.threshold);
  }
  return 0;
}

int cmd_baselines(const Args& args) {
  const pcn::Dimension dim = parse_dim(args);
  const pcn::MobilityProfile profile = parse_profile(args);
  const pcn::CostWeights weights = parse_weights(args);
  const pcn::DelayBound bound = parse_delay(args);
  const pcn::core::LocationManager manager(dim, profile, weights,
                                           parse_planner(args));
  args.reject_unconsumed();

  const pcn::core::LocationPlan plan = manager.plan(bound);
  std::printf("analytic policy comparison, %s, q=%.4f c=%.4f, U=%.1f "
              "V=%.1f, delay %s\n\n",
              to_string(dim).c_str(), profile.move_prob, profile.call_prob,
              weights.update_cost, weights.poll_cost,
              to_string(bound).c_str());
  std::printf("  %-26s | cost/slot | update    | paging    | delay\n",
              "policy");
  std::printf("  ---------------------------+-----------+-----------+"
              "-----------+------\n");
  std::printf("  distance d*=%-2d (planned)   | %9.4f | %9.4f | %9.4f | "
              "%5.2f\n",
              plan.threshold, plan.expected_total(), plan.expected.update,
              plan.expected.paging, plan.expected_delay_cycles);
  for (int max_moves : {plan.threshold + 1, 2 * (plan.threshold + 1)}) {
    const pcn::baselines::BaselineCosts costs =
        pcn::baselines::movement_based_costs(dim, profile, weights,
                                             max_moves, bound);
    std::printf("  movement M=%-3d             | %9.4f | %9.4f | %9.4f | "
                "%5.2f\n",
                max_moves, costs.total(), costs.update, costs.paging,
                costs.expected_delay_cycles);
  }
  for (std::int64_t period : {25, 100}) {
    const pcn::baselines::BaselineCosts costs =
        pcn::baselines::time_based_costs(dim, profile, weights, period);
    std::printf("  time T=%-4lld (unbounded)   | %9.4f | %9.4f | %9.4f | "
                "%5.2f\n",
                static_cast<long long>(period), costs.total(), costs.update,
                costs.paging, costs.expected_delay_cycles);
  }
  return 0;
}

/// One admin-socket request: connect, send `verb` + newline, read to EOF.
bool admin_request(const std::string& path, const char* verb,
                   std::string* out, std::string* error) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    *error = std::string("cannot create socket: ") + std::strerror(errno);
    return false;
  }
  sockaddr_un address{};
  if (path.size() >= sizeof(address.sun_path)) {
    ::close(fd);
    *error = "socket path too long: " + path;
    return false;
  }
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    *error = "cannot connect to '" + path + "': " + std::strerror(errno);
    ::close(fd);
    return false;
  }
  const std::string request = std::string(verb) + "\n";
  std::size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("send failed: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  out->clear();
  char buffer[1 << 14];
  for (;;) {
    const ssize_t n = ::read(fd, buffer, sizeof(buffer));
    if (n < 0) {
      if (errno == EINTR) continue;
      *error = std::string("read failed: ") + std::strerror(errno);
      ::close(fd);
      return false;
    }
    if (n == 0) break;
    out->append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  if (out->empty()) {
    *error = "empty reply from '" + path + "'";
    return false;
  }
  return true;
}

void render_top_window(const char* label, const pcn::obs::JsonValue& window) {
  const pcn::obs::JsonValue* delay = window.find("delay");
  std::printf("  %-3s | %9.0f | %9.0f | %9.0f | %7.4f | %6.1f %6.1f %6.1f\n",
              label, window.number_or("pages_per_sec", 0.0),
              window.number_or("served_per_sec", 0.0),
              window.number_or("dropped_per_sec", 0.0),
              window.number_or("drop_rate", 0.0),
              delay == nullptr ? 0.0 : delay->number_or("p50", 0.0),
              delay == nullptr ? 0.0 : delay->number_or("p95", 0.0),
              delay == nullptr ? 0.0 : delay->number_or("p99", 0.0));
}

void render_top_frame(const pcn::obs::JsonValue& doc, bool clear_screen) {
  if (clear_screen) std::printf("\x1b[2J\x1b[H");
  std::printf("pcnd live · slot %lld · scrape #%lld\n",
              static_cast<long long>(doc.int_or("slot", 0)),
              static_cast<long long>(doc.int_or("scrape_seq", 0)));

  std::printf("\n  win |   pages/s |  served/s | dropped/s | droprate |"
              "    delay p50/p95/p99 (slots)\n");
  if (const pcn::obs::JsonValue* windows = doc.find("windows")) {
    for (const char* label : {"1s", "10s", "60s"}) {
      if (const pcn::obs::JsonValue* window = windows->find(label)) {
        render_top_window(label, *window);
      }
    }
  }

  if (const pcn::obs::JsonValue* phase = doc.find("phase_us")) {
    std::printf("\nphase (mean us/slot): ingest %.1f | apply %.1f | "
                "drain %.1f | finalize %.1f\n",
                phase->number_or("ingest", 0.0),
                phase->number_or("apply", 0.0),
                phase->number_or("drain", 0.0),
                phase->number_or("finalize", 0.0));
  }

  if (const pcn::obs::JsonValue* queues = doc.find("queues")) {
    std::printf("queues: %lld pending in %lld cells (max depth ever %lld)\n",
                static_cast<long long>(queues->int_or("total_pending", 0)),
                static_cast<long long>(queues->int_or("cells_pending", 0)),
                static_cast<long long>(queues->int_or("max_depth", 0)));
    const pcn::obs::JsonValue* deepest = queues->find("deepest");
    if (deepest != nullptr && deepest->is_array() &&
        !deepest->array.empty()) {
      std::printf("  deepest cells:");
      for (const pcn::obs::JsonValue& cell : deepest->array) {
        std::printf(" (%lld,%lld)=%lld",
                    static_cast<long long>(cell.int_or("q", 0)),
                    static_cast<long long>(cell.int_or("r", 0)),
                    static_cast<long long>(cell.int_or("depth", 0)));
      }
      std::printf("\n");
    }
  }

  if (const pcn::obs::JsonValue* socket = doc.find("socket")) {
    std::printf("socket: %lld in / %lld out, %lld decode errors, "
                "%lld disconnects, outbox hwm %lld B\n",
                static_cast<long long>(socket->int_or("frames_in", 0)),
                static_cast<long long>(socket->int_or("frames_out", 0)),
                static_cast<long long>(socket->int_or("decode_errors", 0)),
                static_cast<long long>(socket->int_or("disconnects", 0)),
                static_cast<long long>(socket->int_or("outbox_bytes", 0)));
  }
  std::fflush(stdout);
}

int cmd_top(const Args& args) {
  const std::string path = args.get_string("admin-socket");
  const std::int64_t interval_ms = args.get_int_or("interval-ms", 1000);
  const bool once = args.get_switch("once");
  const bool raw_json = args.get_switch("json");
  std::int64_t count = args.get_int_or("count", 0);
  if (interval_ms < 0) throw UsageError("--interval-ms must be >= 0");
  if (count < 0) throw UsageError("--count must be >= 0");
  if (once) count = 1;
  args.reject_unconsumed();

  for (std::int64_t frame = 0; count == 0 || frame < count; ++frame) {
    std::string reply;
    std::string error;
    if (!admin_request(path, "json", &reply, &error)) {
      std::fprintf(stderr, "pcnctl top: %s\n", error.c_str());
      return 1;
    }
    pcn::obs::JsonValue doc;
    if (!pcn::obs::parse_json(reply, &doc, &error)) {
      std::fprintf(stderr, "pcnctl top: bad snapshot: %s\n", error.c_str());
      return 1;
    }
    if (raw_json) {
      std::printf("%s\n", reply.c_str());
      std::fflush(stdout);
    } else {
      // Clear the screen between frames, never for a single shot.
      render_top_frame(doc, /*clear_screen=*/!once && frame > 0);
    }
    const bool last = count != 0 && frame + 1 == count;
    if (!last && interval_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

// --- timeline ---------------------------------------------------------------

/// Downsampled unicode sparkline: `values` scaled to their max, one block
/// per chunk (max-of-chunk, so short spikes survive the downsampling).
std::string sparkline(const std::vector<double>& values, std::size_t width) {
  static const char* const kBlocks[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇",
                                        "█"};
  if (values.empty()) return "";
  width = std::min(width, values.size());
  double top = 0.0;
  for (const double v : values) top = std::max(top, v);
  std::string out;
  for (std::size_t chunk = 0; chunk < width; ++chunk) {
    const std::size_t begin = chunk * values.size() / width;
    const std::size_t end =
        std::max(begin + 1, (chunk + 1) * values.size() / width);
    double peak = 0.0;
    for (std::size_t i = begin; i < end && i < values.size(); ++i) {
      peak = std::max(peak, values[i]);
    }
    const int level =
        top <= 0.0 ? 0
                   : std::min(7, static_cast<int>(peak / top * 7.999));
    out += kBlocks[std::max(0, level)];
  }
  return out;
}

/// Per-sample "activity" view of one series: counter and histogram-count
/// deltas (what happened between samples), raw values for gauges.
std::vector<double> series_activity(const pcn::obs::Timeseries::Series& s) {
  std::vector<double> out;
  const auto deltas = [&out](const std::vector<std::int64_t>& column) {
    out.reserve(column.size());
    std::int64_t previous = 0;
    for (const std::int64_t v : column) {
      out.push_back(static_cast<double>(v - previous));
      previous = v;
    }
  };
  switch (s.kind) {
    case pcn::obs::SeriesKind::kCounter:
      deltas(s.values);
      break;
    case pcn::obs::SeriesKind::kGauge:
      out = s.dvalues;
      break;
    case pcn::obs::SeriesKind::kHistogram:
      deltas(s.counts);
      break;
  }
  return out;
}

/// Sum of the windowed per-slot rates of several counters ("per_sec" is
/// per-slot here: replayed timestamps are slot * 1e9 ns).
double summed_rate(const pcn::obs::RollingWindow& window,
                   std::initializer_list<const char*> names,
                   std::int64_t window_ns) {
  double total = 0.0;
  for (const char* name : names) {
    if (const auto rate = window.rate(name, window_ns)) {
      total += rate->per_sec;
    }
  }
  return total;
}

int cmd_timeline(const Args& args) {
  const std::string socket_path = args.get_string_or("admin-socket", "");
  const std::string path =
      socket_path.empty() ? args.positional(0, "SERIES_FILE") : "";
  const std::int64_t window_slots = args.get_int_or("window-slots", 0);
  const std::int64_t baseline = args.get_int_or("baseline", 8);
  const double threshold = args.get_double_or("threshold", 8.0);
  const bool raw_json = args.get_switch("json");
  const std::string reencode = args.get_string_or("reencode", "");
  if (window_slots < 0) throw UsageError("--window-slots must be >= 0");
  if (baseline < 1) throw UsageError("--baseline must be >= 1");
  if (!(threshold > 0.0)) throw UsageError("--threshold must be > 0");
  args.reject_unconsumed();

  pcn::obs::Timeseries series;
  std::string error;
  if (!socket_path.empty()) {
    std::string reply;
    if (!admin_request(socket_path, "series", &reply, &error)) {
      std::fprintf(stderr, "pcnctl timeline: %s\n", error.c_str());
      return 1;
    }
    try {
      series = pcn::obs::decode_timeseries_string(reply);
    } catch (const pcn::proto::DecodeError& decode_error) {
      std::fprintf(stderr, "pcnctl timeline: '%s': %s\n",
                   socket_path.c_str(), decode_error.what());
      return 1;
    }
  } else if (!pcn::obs::read_timeseries_file(path, &series, &error)) {
    std::fprintf(stderr, "pcnctl timeline: %s\n", error.c_str());
    return 1;
  }
  if (!reencode.empty() &&
      !pcn::obs::write_timeseries_file(reencode, series, &error)) {
    std::fprintf(stderr, "pcnctl timeline: --reencode: %s\n", error.c_str());
    return 1;
  }

  const std::size_t samples = series.sample_count();
  const std::int64_t first_slot = samples > 0 ? series.slots.front() : 0;
  const std::int64_t last_slot = samples > 0 ? series.slots.back() : 0;

  // Replay the samples through RollingWindow with slot-as-seconds
  // timestamps: per_sec becomes per-slot, and the windowed delta math is
  // exactly what the live `pcnctl top` dashboard uses.
  pcn::obs::RollingWindow window(1, samples + 2);
  std::vector<std::int64_t> step_slots;   // sample i >= 1
  std::vector<double> failure_per_slot;   // drop+expire+unknown rate
  std::vector<double> delay_mean;         // windowed queue-delay mean
  for (std::size_t i = 0; i < samples; ++i) {
    window.add(series.slots[i] * 1'000'000'000, series.snapshot_at(i));
    if (i == 0) continue;
    const std::int64_t step_ns =
        (series.slots[i] - series.slots[i - 1]) * 1'000'000'000;
    step_slots.push_back(series.slots[i]);
    failure_per_slot.push_back(summed_rate(
        window,
        {"daemon.page.dropped", "daemon.page.expired",
         "daemon.page.unknown_terminal"},
        step_ns));
    const auto delay =
        window.quantiles("daemon.page.queue_delay_slots", step_ns);
    delay_mean.push_back(delay ? delay->mean : 0.0);
  }

  pcn::obs::ChangepointConfig cusum;
  cusum.baseline_samples = static_cast<std::size_t>(baseline);
  cusum.threshold_sigmas = threshold;
  const pcn::obs::Changepoint drop_shift =
      pcn::obs::detect_upward_shift(step_slots, failure_per_slot, cusum);
  const pcn::obs::Changepoint delay_shift =
      pcn::obs::detect_upward_shift(step_slots, delay_mean, cusum);
  std::int64_t overload_onset = -1;
  if (drop_shift.detected) overload_onset = drop_shift.onset_slot;
  if (delay_shift.detected &&
      (overload_onset < 0 || delay_shift.onset_slot < overload_onset)) {
    overload_onset = delay_shift.onset_slot;
  }

  const std::int64_t span_slots =
      window_slots > 0 ? window_slots : std::max<std::int64_t>(
                                            last_slot - first_slot, 1);
  const std::int64_t span_ns = span_slots * 1'000'000'000;

  if (raw_json) {
    pcn::obs::JsonWriter json;
    json.begin_object();
    json.member("schema", "pcn.timeline_analysis.v1");
    json.member("every_slots", series.every_slots);
    json.member("samples", static_cast<std::int64_t>(samples));
    json.member("first_slot", first_slot);
    json.member("last_slot", last_slot);
    json.key("series").begin_array();
    for (const pcn::obs::Timeseries::Series& s : series.series) {
      const std::vector<double> activity = series_activity(s);
      double total = 0.0;
      for (const double v : activity) total += v;
      json.begin_object();
      json.member("name", s.name);
      json.member("kind", s.kind == pcn::obs::SeriesKind::kCounter
                              ? "counter"
                              : s.kind == pcn::obs::SeriesKind::kGauge
                                    ? "gauge"
                                    : "histogram");
      if (s.kind == pcn::obs::SeriesKind::kCounter && !s.values.empty()) {
        json.member("last", s.values.back());
      } else if (s.kind == pcn::obs::SeriesKind::kHistogram &&
                 !s.counts.empty()) {
        json.member("last", s.counts.back());
      } else if (!s.dvalues.empty()) {
        json.member("last", s.dvalues.back());
      }
      if (s.kind != pcn::obs::SeriesKind::kGauge) {
        json.member("window_delta", total);
      }
      json.end_object();
    }
    json.end_array();
    const auto changepoint_json = [&json](const char* key,
                                          const pcn::obs::Changepoint& c) {
      json.key(key).begin_object();
      json.member("detected", c.detected);
      json.member("onset_slot", c.onset_slot);
      json.member("baseline_mean", c.baseline_mean);
      json.member("peak_score", c.peak_score);
      json.end_object();
    };
    changepoint_json("drop_shift", drop_shift);
    changepoint_json("delay_shift", delay_shift);
    json.member("overload_onset_slot", overload_onset);
    json.end_object();
    std::printf("%s\n", json.take().c_str());
    return 0;
  }

  std::printf("timeline      : %zu samples, every %lld slots, slots "
              "%lld..%lld\n",
              samples, static_cast<long long>(series.every_slots),
              static_cast<long long>(first_slot),
              static_cast<long long>(last_slot));
  std::printf("series        : %zu (window %lld slots)\n",
              series.series.size(), static_cast<long long>(span_slots));
  if (samples >= 2) {
    std::printf("\n  %-34s %12s %12s  activity\n", "series", "last",
                "window");
    for (const pcn::obs::Timeseries::Series& s : series.series) {
      const std::vector<double> activity = series_activity(s);
      std::string last;
      std::string windowed;
      if (s.kind == pcn::obs::SeriesKind::kGauge) {
        last = std::to_string(s.dvalues.empty() ? 0.0 : s.dvalues.back());
        last.resize(std::min<std::size_t>(last.size(), 12));
        windowed = "-";
      } else {
        const std::int64_t final_value =
            s.kind == pcn::obs::SeriesKind::kCounter
                ? (s.values.empty() ? 0 : s.values.back())
                : (s.counts.empty() ? 0 : s.counts.back());
        last = std::to_string(final_value);
        const auto rate = window.rate(s.name, span_ns);
        if (s.kind == pcn::obs::SeriesKind::kCounter && rate) {
          windowed = std::to_string(rate->delta);
        } else if (s.kind == pcn::obs::SeriesKind::kHistogram) {
          const auto q = window.quantiles(s.name, span_ns);
          windowed = q ? std::to_string(q->count) : "-";
        } else {
          windowed = "-";
        }
      }
      std::printf("  %-34s %12s %12s  %s\n", s.name.c_str(), last.c_str(),
                  windowed.c_str(), sparkline(activity, 48).c_str());
    }
    const auto delay =
        window.quantiles("daemon.page.queue_delay_slots", span_ns);
    if (delay && delay->count > 0) {
      std::printf("\nqueue delay   : %lld served in window, mean %.2f, "
                  "p50 %.1f, p95 %.1f, p99 %.1f, max %.0f slots\n",
                  static_cast<long long>(delay->count), delay->mean,
                  delay->at(0), delay->at(1), delay->at(2), delay->max);
    }
  }

  const auto print_shift = [](const char* label,
                              const pcn::obs::Changepoint& c) {
    if (c.detected) {
      std::printf("%s: shift at slot %lld (baseline %.4f, peak score "
                  "%.1f)\n",
                  label, static_cast<long long>(c.onset_slot),
                  c.baseline_mean, c.peak_score);
    } else {
      std::printf("%s: no upward shift (peak score %.1f)\n", label,
                  c.peak_score);
    }
  };
  std::printf("\n");
  print_shift("drop rate     ", drop_shift);
  print_shift("queue delay   ", delay_shift);
  std::printf("PCN_TIMELINE samples=%zu every=%lld last_slot=%lld "
              "drop_onset_slot=%lld delay_onset_slot=%lld "
              "overload_onset_slot=%lld\n",
              samples, static_cast<long long>(series.every_slots),
              static_cast<long long>(last_slot),
              static_cast<long long>(
                  drop_shift.detected ? drop_shift.onset_slot : -1),
              static_cast<long long>(
                  delay_shift.detected ? delay_shift.onset_slot : -1),
              static_cast<long long>(overload_onset));
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = Args::parse(argc, argv);
    if (args.command() == "plan") return cmd_plan(args);
    if (args.command() == "surface") return cmd_surface(args);
    if (args.command() == "simulate") return cmd_simulate(args);
    if (args.command() == "sweep") return cmd_sweep(args);
    if (args.command() == "baselines") return cmd_baselines(args);
    if (args.command() == "trace-summary") return cmd_trace_summary(args);
    if (args.command() == "top") return cmd_top(args);
    if (args.command() == "timeline") return cmd_timeline(args);
    std::fputs(kUsage, args.command().empty() ? stdout : stderr);
    return args.command().empty() ? 0 : 2;
  } catch (const UsageError& error) {
    std::fprintf(stderr, "pcnctl: %s\n\n%s", error.what(), kUsage);
    return 2;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "pcnctl: error: %s\n", error.what());
    return 1;
  }
}
