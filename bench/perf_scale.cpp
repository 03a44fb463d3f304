// Performance F: multi-core simulator throughput, via google-benchmark, and
// the paired-block overhead probe.
//
// The google-benchmark sweep measures slot throughput (items = slots x
// terminals) of Network::run for a mixed-policy terminal fleet as the
// worker-thread count grows.  The sharded engine guarantees bit-identical
// per-terminal metrics for every thread count, so these numbers compare
// pure scheduling overhead and scaling.
//
// After the sweep, main() runs the overhead probe: every timing claim the
// repo gates on compares two configurations doing identical work, and all
// of them are measured by one estimator, paired_blocks().  It keeps two
// live instances (say, the simulator with and without the flight recorder)
// and advances both by the same block of slots in ABBA units: a, b, b, a.
// Each block is timed in process CPU time (CLOCK_PROCESS_CPUTIME_ID: every
// thread of this process, at nanosecond precision), each unit yields one
// statistic on its summed per-leg times — an overhead
// 100 * (on - off) / off, or a speedup slow / fast — and the claim is the
// median over units, printed with its interquartile range.  Neighbouring
// blocks share the host's frequency state and cache pressure, so the
// per-unit statistic cancels slow drifts that a comparison of two
// separate runs cannot, and the ABBA order cancels what a block pays for
// following the other leg.  Unit counts and block sizes are constants in
// run_probe(), not chosen per run.
//
// Claims (the process exits 1 when a median breaks its bound):
//   telemetry_overhead_pct      simulator, collect_runtime_stats    <= 3%
//   flight_overhead_pct         simulator, flight recorder (1 in 8) <= 3%
//   introspection_overhead_pct  pcnd, live stats + bound AdminServer <= 2%
//   timeseries_overhead_pct     pcnd, timeline every 8 slots         <= 2%
//   auto_speedup_4t             reference / auto CPU cost, 4 threads >= 1.73
//
// auto_speedup_4t prices what kAuto buys on the canonical fleet: the lane
// engine against the reference engine, which follow one draw contract and
// so do bit-identical work.  It is skipped, with the reason, when no SIMD
// kernel can run (kAuto would then be the reference engine itself).
//
// Run only the probe with --benchmark_filter='^$' (tools/run_checks.sh
// gate 4 does).
#include <benchmark/benchmark.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "gbench_report.hpp"
#include "pcn/costs/cost_model.hpp"
#include "pcn/daemon/admin_server.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "pcn/optimize/exhaustive.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace {

constexpr pcn::MobilityProfile kProfile{0.1, 0.02};
constexpr pcn::CostWeights kWeights{100.0, 10.0};
constexpr std::int64_t kSlots = 4096;

/// A fleet mixing all four policy kinds, round-robin.
void add_fleet(pcn::sim::Network& network, int terminals) {
  using namespace pcn::sim;
  for (int i = 0; i < terminals; ++i) {
    switch (i % 4) {
      case 0:
        network.add_terminal(make_distance_terminal(
            pcn::Dimension::kTwoD, kProfile, 2 + i % 3, pcn::DelayBound(2)));
        break;
      case 1:
        network.add_terminal(make_movement_terminal(
            pcn::Dimension::kTwoD, kProfile, 3 + i % 3, pcn::DelayBound(3)));
        break;
      case 2:
        network.add_terminal(
            make_time_terminal(pcn::Dimension::kTwoD, kProfile, 16 + i % 8));
        break;
      default:
        network.add_terminal(
            make_la_terminal(pcn::Dimension::kTwoD, kProfile, 2));
        break;
    }
  }
}

void BM_NetworkScale(benchmark::State& state) {
  const int terminals = static_cast<int>(state.range(0));
  const int threads = static_cast<int>(state.range(1));
  for (auto _ : state) {
    state.PauseTiming();
    pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                   pcn::sim::SlotSemantics::kChainFaithful,
                                   42};
    config.threads = threads;
    pcn::sim::Network network(config, kWeights);
    add_fleet(network, terminals);
    state.ResumeTiming();
    network.run(kSlots);
  }
  state.SetItemsProcessed(state.iterations() * kSlots * terminals);
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["terminals"] = static_cast<double>(terminals);
}
BENCHMARK(BM_NetworkScale)
    ->ArgNames({"terminals", "threads"})
    ->Args({64, 1})
    ->Args({64, 2})
    ->Args({64, 4})
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 4})
    ->Args({256, 8})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_ExhaustiveSearchColdCache(benchmark::State& state) {
  // One fresh model per iteration: every threshold in the sweep pays its
  // single chain solve — the honest cold-cache cost of a full search.
  const int max_threshold = static_cast<int>(state.range(0));
  for (auto _ : state) {
    const auto model = pcn::costs::CostModel::exact(
        pcn::Dimension::kTwoD, pcn::MobilityProfile{0.05, 0.01}, kWeights);
    benchmark::DoNotOptimize(pcn::optimize::exhaustive_search(
        model, pcn::DelayBound(3), max_threshold));
  }
}
BENCHMARK(BM_ExhaustiveSearchColdCache)->Arg(20)->Arg(80);

// --- The paired-block estimator ---------------------------------------------

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

/// Runs one unmeasured warm-up pair, then `units` ABBA units — an `a`
/// block, two `b` blocks, an `a` block — and returns
/// stat(cpu_seconds_a, cpu_seconds_b) for every unit, each leg's two
/// blocks summed.  Inside a unit each leg runs once right after a block
/// of its own and once right after a block of the other leg, so what a
/// block pays for following the other leg (caches, a parked pool worker
/// gone cold) cancels within the unit.  A statistic per a-b pair keeps
/// that cost: it splits the pairs into two modes, one per order, and
/// their median falls in the gap between them.
template <typename A, typename B, typename Stat>
std::vector<double> paired_blocks(int units, A&& a, B&& b, Stat&& stat) {
  const auto timed = [](auto& block) {
    const double start = process_cpu_seconds();
    block();
    return process_cpu_seconds() - start;
  };
  a();
  b();
  std::vector<double> values;
  values.reserve(static_cast<std::size_t>(units));
  for (int i = 0; i < units; ++i) {
    const double a_first = timed(a);
    const double b_second = timed(b);
    const double b_first = timed(b);
    const double a_second = timed(a);
    values.push_back(stat(a_first + a_second, b_second + b_first));
  }
  return values;
}

/// 100 * (on - off) / off for an (off, on) pair.
double overhead_pct(double off, double on) {
  return 100.0 * (on - off) / off;
}

/// slow / fast for a (slow, fast) pair.
double speedup(double slow, double fast) { return slow / fast; }

/// The p-quantile of sorted values, interpolating between order statistics.
double quantile(const std::vector<double>& sorted, double p) {
  const double pos = p * double(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (pos - double(lo)) * (sorted[hi] - sorted[lo]);
}

enum class Bound { kAtMost, kAtLeast };

/// Prints and records one claim (median + IQR over the unit statistics)
/// and returns whether its median honours the bound.
bool check_claim(pcn::obs::BenchReport& report, const char* key,
                 std::vector<double> values, Bound kind, double bound,
                 const char* what) {
  std::sort(values.begin(), values.end());
  const double median = quantile(values, 0.50);
  const double q25 = quantile(values, 0.25);
  const double q75 = quantile(values, 0.75);
  const bool ok = kind == Bound::kAtMost ? median <= bound : median >= bound;
  std::printf(
      "probe %-26s median %8.3f  IQR %.3f [%.3f, %.3f]  %zu units  "
      "bound %s %.2f  %s  (%s)\n",
      key, median, q75 - q25, q25, q75, values.size(),
      kind == Bound::kAtMost ? "<=" : ">=", bound, ok ? "ok" : "FAILED",
      what);
  report.set(key, median).set(std::string(key) + "_iqr", q75 - q25);
  return ok;
}

// --- Simulator legs ---------------------------------------------------------

/// The 64-terminal mixed fleet on one thread, optionally with telemetry or
/// the flight recorder (default 1-in-8 sampling) on.
std::unique_ptr<pcn::sim::Network> mixed_network(bool telemetry,
                                                 bool flight) {
  pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                 pcn::sim::SlotSemantics::kChainFaithful, 42};
  config.collect_runtime_stats = telemetry;
  config.record_flight = flight;
  auto network = std::make_unique<pcn::sim::Network>(config, kWeights);
  add_fleet(*network, 64);
  return network;
}

/// The canonical distance-update fleet under one engine.
std::unique_ptr<pcn::sim::Network> engine_network(pcn::sim::SimEngine engine,
                                                  int threads,
                                                  int terminals) {
  pcn::sim::NetworkConfig config{pcn::Dimension::kTwoD,
                                 pcn::sim::SlotSemantics::kChainFaithful, 42};
  config.threads = threads;
  config.engine = engine;
  auto network = std::make_unique<pcn::sim::Network>(config, kWeights);
  for (int i = 0; i < terminals; ++i) {
    network->add_terminal(pcn::sim::make_distance_terminal(
        pcn::Dimension::kTwoD, kProfile, 1 + i % 4, pcn::DelayBound(2)));
  }
  return network;
}

// --- pcnd legs --------------------------------------------------------------

std::string admin_socket_path() {
  const char* tmp = std::getenv("TMPDIR");
  std::string dir = (tmp != nullptr && *tmp != '\0') ? tmp : "/tmp";
  if (dir.back() == '/') dir.pop_back();
  return dir + "/pcn_perf_scale_admin." + std::to_string(getpid()) + ".sock";
}

/// One pcnd instance and its closed-loop fleet at 1x paging capacity:
/// 20000 terminals on a 16x16 torus, 2 channels, 2 worker threads.
struct DaemonLeg {
  std::unique_ptr<pcn::daemon::Pcnd> daemon;
  std::unique_ptr<pcn::daemon::ClosedLoopWorkload> workload;
  /// Declared last, so it stops serving before the daemon is destroyed.
  std::unique_ptr<pcn::daemon::AdminServer> admin;

  DaemonLeg(bool introspect, std::int64_t series_every) {
    pcn::daemon::PcndConfig config;
    config.live_stats = introspect;
    config.timeseries_every_slots = series_every;
    config.dimension = pcn::Dimension::kTwoD;
    config.threads = 2;
    config.capacity = pcn::capacity::PagingCapacityModel(2, 1.0);
    config.queue.max_pending = 64;
    config.queue.lifetime_slots = 128;
    config.queue.groups = 4;
    config.sla_delay_slots = 8;
    daemon = std::make_unique<pcn::daemon::Pcnd>(config);

    pcn::daemon::ClosedLoopConfig load;
    load.dimension = config.dimension;
    load.seed = 42;
    load.terminals = 20000;
    load.region = 16;
    load.move_prob = 0.2;
    load.threshold = 3;
    load.call_prob =
        16.0 * 16.0 * config.capacity.pages_per_slot() / 20000.0;
    workload = std::make_unique<pcn::daemon::ClosedLoopWorkload>(load);

    // The always-on production cost of --admin-socket: a listener bound
    // and accepting, and its thread sampling the metric history about
    // four times a second.  Scrape service cost is a client's, not the slot
    // loop's; hammering scrapes under fire is the admin-introspection
    // soak test's job.
    if (introspect) {
      admin = std::make_unique<pcn::daemon::AdminServer>(daemon.get(),
                                                         admin_socket_path());
      admin->start();
    }
  }

  void run(std::int64_t slots) { daemon->run_slots(slots, workload.get()); }
};

bool run_probe(pcn::obs::BenchReport& report) {
  // Each claim gets its own fresh instances, built identically but for
  // the feature under test, so both legs of every unit run the same slots
  // of the same fleet.
  bool ok = true;
  {
    constexpr int kUnits = 512;
    constexpr std::int64_t kBlock = 256;
    const char* what = "64-terminal mixed fleet, 256-slot blocks";
    {
      auto bare = mixed_network(false, false);
      auto telemetry = mixed_network(true, false);
      ok &= check_claim(
          report, "telemetry_overhead_pct",
          paired_blocks(
              kUnits, [&] { bare->run(kBlock); },
              [&] { telemetry->run(kBlock); }, overhead_pct),
          Bound::kAtMost, 3.0, what);
    }
    {
      // The recorder is cleared before each block so it never fills up
      // and stops recording.
      auto bare = mixed_network(false, false);
      auto flight = mixed_network(false, true);
      ok &= check_claim(
          report, "flight_overhead_pct",
          paired_blocks(
              kUnits, [&] { bare->run(kBlock); },
              [&] {
                flight->flight_recorder()->clear();
                flight->run(kBlock);
              },
              overhead_pct),
          Bound::kAtMost, 3.0, what);
    }
  }
  {
    // Two identically built daemons can differ by a point or more for as
    // long as they live, so each claim pools the units of several fresh
    // pairs.
    constexpr int kRounds = 16;
    constexpr int kUnitsPerRound = 64;
    constexpr std::int64_t kBlock = 16;  // two timeline samples per block
    const char* what = "pcnd 20k terminals at 1x, 16-slot blocks, 16 pairs";
    const auto daemon_units = [&](bool introspect,
                                  std::int64_t series_every) {
      std::vector<double> values;
      for (int round = 0; round < kRounds; ++round) {
        DaemonLeg off(false, 0);
        DaemonLeg on(introspect, series_every);
        const std::vector<double> more = paired_blocks(
            kUnitsPerRound, [&] { off.run(kBlock); },
            [&] { on.run(kBlock); }, overhead_pct);
        values.insert(values.end(), more.begin(), more.end());
      }
      return values;
    };
    ok &= check_claim(report, "introspection_overhead_pct",
                      daemon_units(true, 0), Bound::kAtMost, 2.0, what);
    ok &= check_claim(report, "timeseries_overhead_pct",
                      daemon_units(false, 8), Bound::kAtMost, 2.0, what);
  }
  {
    constexpr int kUnits = 64;
    constexpr int kTerminals = 8192;
    constexpr std::int64_t kBlock = 256;
    const char* what = "8192-terminal distance fleet, 256-slot blocks";
    using pcn::sim::SimEngine;
    const pcn::sim::SimdSupport simd = pcn::sim::simd_support();
    if (simd.available) {
      auto reference = engine_network(SimEngine::kReference, 4, kTerminals);
      auto lanes = engine_network(SimEngine::kAuto, 4, kTerminals);
      ok &= check_claim(
          report, "auto_speedup_4t",
          paired_blocks(
              kUnits, [&] { reference->run(kBlock); },
              [&] { lanes->run(kBlock); }, speedup),
          Bound::kAtLeast, 1.73, what);
    } else {
      std::printf("probe auto_speedup_4t skipped: %s\n", simd.reason);
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  pcn::obs::BenchReport report("perf_scale");
  const int rc = pcn::benchio::run_benchmarks(argc, argv, report);
  if (rc != 0) return rc;
  const bool ok = run_probe(report);
  report.emit();
  return ok ? 0 : 1;
}
