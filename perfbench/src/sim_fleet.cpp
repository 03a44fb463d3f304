// sim_fleet: the simulator alone, on perf_scale's canonical distance-update
// fleet (2-D, q = 0.1, c = 0.02, thresholds 1-4 round-robin, m = 2).
//
// It bypasses the daemon entirely, so it is the no-change prediction for
// every daemon or socket change, and its working set (~157 B/terminal at
// 1M terminals) is larger than the last-level cache, so it shows mobility
// kernel, paging-table and memory-layout changes the daemon workloads
// cannot.  Engine `auto` is the path a default user gets.  Each timed
// call is one whole run(): run() re-selects the engine and rebuilds the
// fleet plan per call, so chunked calls would measure that instead.
#include <algorithm>
#include <cmath>
#include <memory>

#include "pcn/costs/cost_model.hpp"
#include "pcn/markov/transient.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/sim/network.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Scale {
  std::int64_t terminals;
  std::int64_t slots;  ///< slots per timed run() call
};

constexpr Scale kFull{1'000'000, 256};
constexpr Scale kTiny{20'000, 64};
constexpr int kThreads = 2;
constexpr pcn::MobilityProfile kProfile{0.1, 0.02};
constexpr pcn::CostWeights kWeights{kUpdateCost, kPollCost};
constexpr int kDelayBound = 2;
constexpr int kThresholds = 4;  ///< terminal i uses threshold 1 + i % 4

/// Fleet-wide sums of the per-terminal metrics.
struct FleetTotals {
  std::int64_t slots = 0;
  std::int64_t calls = 0;
  std::int64_t updates = 0;
  std::int64_t failures = 0;
  double cost = 0.0;
  double cost_sq = 0.0;  ///< sum of squared per-terminal cost per slot
  std::vector<std::int64_t> cycles;  ///< cycles[k] = calls found in cycle k

  static FleetTotals read(const pcn::sim::Network& network) {
    FleetTotals t;
    for (std::size_t i = 0; i < network.terminal_count(); ++i) {
      const pcn::sim::TerminalMetrics& m =
          network.metrics(static_cast<pcn::sim::TerminalId>(i));
      t.slots += m.slots;
      t.calls += m.calls;
      t.updates += m.updates;
      t.failures += m.paging_failures;
      t.cost += m.total_cost();
      const double per_slot = m.total_cost() / double(m.slots);
      t.cost_sq += per_slot * per_slot;
      const auto buckets = static_cast<std::size_t>(m.paging_cycles.bucket_count());
      if (t.cycles.size() < buckets) t.cycles.resize(buckets, 0);
      for (std::size_t k = 0; k < buckets; ++k) {
        t.cycles[k] += m.paging_cycles.count(static_cast<int>(k));
      }
    }
    return t;
  }
  std::int64_t requests() const { return calls + updates; }
};

/// Construction, attaching the fleet, and the first run(1), which builds
/// the engine and its fleet plan.
std::unique_ptr<pcn::sim::Network> set_up(const Scale& scale,
                                          std::uint64_t seed) {
  pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                 pcn::sim::SlotSemantics::kChainFaithful,
                                 seed};
  config.threads = kThreads;
  config.engine = pcn::sim::SimEngine::kAuto;
  auto network = std::make_unique<pcn::sim::Network>(config, kWeights);
  for (std::int64_t i = 0; i < scale.terminals; ++i) {
    pcn::sim::TerminalSpec spec = pcn::sim::make_distance_terminal(
        pcn::Dimension::kTwoD, kProfile, static_cast<int>(1 + i % kThresholds),
        pcn::DelayBound(kDelayBound));
    const trace::Span span("sim.add_terminal");
    network->add_terminal(std::move(spec));
  }
  const trace::Span span("sim.first_run");
  network->run(1);
  return network;
}

}  // namespace

void run_sim_fleet(const Options& options, Report& report) {
  const Scale& scale = options.tiny ? kTiny : kFull;

  // A traced run records spans on the last set-up only: set-up is where
  // this workload's spans are dense (one per attached terminal), so the
  // traced set-up against the untraced ones is tracing's cost.
  std::vector<double> setup_s;
  std::unique_ptr<pcn::sim::Network> network;
  for (int i = 0; i < kSetupRepeats; ++i) {
    network.reset();  // release the previous fleet before timing the next
    trace::enable(options.trace && i + 1 == kSetupRepeats);
    const std::int64_t start = pcn::obs::monotonic_ns();
    network = set_up(scale, options.seed);
    setup_s.push_back(double(pcn::obs::monotonic_ns() - start) * 1e-9);
  }

  // Timed window: whole run() calls until `seconds` have passed.  The
  // quality metrics come from the first call, a fixed horizon, so they
  // are exact for a seed however many calls the window holds.
  FleetTotals before = FleetTotals::read(*network);
  FleetTotals horizon;
  double horizon_rss_mib = 0.0;
  std::vector<double> slots_per_s, requests_per_s, cpu_us_per_request,
      run_ns_per_terminal_slot;
  double window_s = 0.0;
  while (run_ns_per_terminal_slot.empty() || window_s < options.seconds) {
    const double cpu_start = process_cpu_s();
    const std::int64_t start = pcn::obs::monotonic_ns();
    {
      const trace::Span span("sim.run");
      network->run(scale.slots);
    }
    const double wall_s = double(pcn::obs::monotonic_ns() - start) * 1e-9;
    const double cpu_s = process_cpu_s() - cpu_start;
    window_s += wall_s;
    const FleetTotals after = FleetTotals::read(*network);
    const double work = double(scale.terminals) * double(scale.slots);
    const double requests = double(after.requests() - before.requests());
    slots_per_s.push_back(work / wall_s);
    requests_per_s.push_back(requests / wall_s);
    cpu_us_per_request.push_back(cpu_s * 1e6 / requests);
    run_ns_per_terminal_slot.push_back(wall_s * 1e9 / work);
    if (horizon.slots == 0) {
      horizon = after;
      horizon_rss_mib = peak_rss_mib();
    }
    before = after;
  }

  // Percentiles of polling cycles to locate a call (1-based, like the
  // daemon's slots to verdict); a paging failure is infinitely late.
  std::vector<std::int64_t> cycles = horizon.cycles;
  if (!cycles.empty()) cycles.erase(cycles.begin());  // bucket 0 is unused
  const Percentile cycles_p50 = percentile(cycles, 1, horizon.failures, 0.50);
  const Percentile cycles_p99 = percentile(cycles, 1, horizon.failures, 0.99);
  std::int64_t within_bound = 0;
  for (std::size_t k = 0; k < cycles.size() && k < kDelayBound; ++k) {
    within_bound += cycles[k];
  }
  const double slot_us = 1e6 / (median(slots_per_s) / double(scale.terminals));
  const auto as_latency = [&](Percentile p) {
    p.value *= slot_us;
    return p;
  };
  const double mean_cost = horizon.cost / double(horizon.slots);

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(setup_s.size()));
    report.metric("peak_rss_mb", horizon_rss_mib, "MiB",
                  "through the first run() call");
    report.metric("requests_per_s", median(requests_per_s), "1/s",
                  "updates + calls, median of " +
                      std::to_string(requests_per_s.size()) + " run() calls");
    report.metric("terminal_slots_per_s", median(slots_per_s), "1/s",
                  "median of " + std::to_string(slots_per_s.size()) +
                      " run() calls");
    report.metric("cpu_us_per_request", median(cpu_us_per_request), "us");
    report.metric("page_latency_p50_us", as_latency(cycles_p50), "us");
    report.metric("page_latency_p99_us", as_latency(cycles_p99), "us");
    report.metric("page_served_share",
                  double(horizon.calls - horizon.failures) /
                      double(horizon.calls),
                  "share", std::to_string(horizon.calls) + " calls");
    report.metric("sla_met_share",
                  double(within_bound) / double(horizon.calls), "share");
    report.metric("page_delay_p99_slots", cycles_p99, "slots");
    report.metric("mean_cost_per_slot", mean_cost, "cost",
                  "exact for the seed");
  } else {
    const auto spans = trace::summarize();
    report.metric("sim.add_terminal_ns",
                  spans.at("sim.add_terminal").total_ns /
                      double(spans.at("sim.add_terminal").count),
                  "ns");
    report.metric("sim.first_run_s",
                  spans.at("sim.first_run").total_ns * 1e-9 /
                      double(spans.at("sim.first_run").count),
                  "s");
    report.metric("sim.run_ns_per_terminal_slot",
                  median(run_ns_per_terminal_slot), "ns");
    report.metric("sim.bytes_per_terminal",
                  double(network->soa_bytes_per_terminal()), "bytes");
    report.metric("trace_overhead_pct",
                  overhead_pct({setup_s.back()},
                               {setup_s.begin(), setup_s.end() - 1}),
                  "%", "traced set-up vs the untraced ones");
  }

  // The simulated cost per slot must match the analytical C_T(d, m) of the
  // fleet's threshold mix.  C_T is a steady-state cost, while every
  // terminal starts at ring 0, so the expectation follows the chain from
  // ring 0 through the horizon's slots, pricing each slot with the cost
  // model's own update rate and SDF partition:
  //   E[cost in slot t] = pi_t(d) up(d) U + c V sum_j alpha_j(pi_t) w_j.
  // The band is five standard errors of the fleet mean plus the 2-D
  // ring-approximation slack of docs/testing.md (0.03 + 0.25 q, relative):
  // the paper's 2-D chain assumes a terminal is equally likely anywhere
  // on its ring, which the hex random walk only approximates.
  const auto model = pcn::costs::CostModel::exact(pcn::Dimension::kTwoD,
                                                  kProfile, kWeights);
  const pcn::markov::ChainSpec& chain = model.spec();
  double steady = 0.0, expected = 0.0;
  const std::int64_t horizon_slots = horizon.slots / scale.terminals;
  for (int d = 1; d <= kThresholds; ++d) {
    steady += model.total_cost(d, pcn::DelayBound(kDelayBound)) / kThresholds;
    const pcn::costs::Partition partition =
        model.partition(d, pcn::DelayBound(kDelayBound));
    std::vector<double> pi(static_cast<std::size_t>(d) + 1, 0.0);
    pi[0] = 1.0;
    double sum = 0.0;
    for (std::int64_t t = 0; t < horizon_slots; ++t) {
      sum += pi.back() * chain.up(d) * kUpdateCost +
             chain.call() * kPollCost *
                 partition.expected_polled_cells(pi, pcn::Dimension::kTwoD);
      pi = pcn::markov::evolve_distribution(chain, d, std::move(pi), 1);
    }
    expected += sum / double(horizon_slots) / kThresholds;
  }
  const double n = double(scale.terminals);
  const double variance =
      std::max(0.0, horizon.cost_sq / n - mean_cost * mean_cost);
  const double band = 5.0 * std::sqrt(variance / n) +
                      (0.03 + 0.25 * kProfile.move_prob) * expected;
  report.check("cost_matches_model", std::abs(mean_cost - expected) <= band,
               "simulated " + std::to_string(mean_cost) + ", C_T from ring 0 " +
                   std::to_string(expected) + " +- " + std::to_string(band) +
                   " (steady-state C_T " + std::to_string(steady) + ")");
  report.check("pages_located", horizon.failures == 0 &&
                                    within_bound == horizon.calls,
               std::to_string(horizon.calls) + " calls, " +
                   std::to_string(horizon.failures) + " paging failures");
  report.set_work(horizon.requests(), horizon.failures);
  std::string rates;
  for (const double rate : slots_per_s) {
    rates += ' ';
    rates += std::to_string(rate / 1e6);
  }
  report.line("terminal-slots/s of each run() call, millions:" + rates);
  report.line("engine auto (" +
              std::string(network->soa_active() ? "soa" : "reference") +
              "), " + std::to_string(scale.terminals) + " terminals, " +
              std::to_string(kThreads) + " threads, " +
              std::to_string(slots_per_s.size()) + " run(" +
              std::to_string(scale.slots) + ") calls in " +
              std::to_string(window_s) + " s");
}

}  // namespace perfbench
