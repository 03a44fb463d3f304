// Performance E: microbenchmarks of the computational kernels, via
// google-benchmark.  These quantify the paper's computational claims: the
// closed form is the cheap path suitable for power-limited terminals, the
// O(d) recurrence is the exact reference, and the dense LU solve is the
// O(d^3) cross-check only.  The BM_Obs* group prices the telemetry
// primitives themselves — the per-operation costs quoted in
// docs/observability.md come from here.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "gbench_report.hpp"
#include "pcn/costs/cost_model.hpp"
#include "pcn/geometry/la_tiling.hpp"
#include "pcn/markov/closed_form.hpp"
#include "pcn/markov/steady_state.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/obs/tsc.hpp"
#include "pcn/optimize/annealing.hpp"
#include "pcn/optimize/exhaustive.hpp"
#include "pcn/optimize/near_optimal.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace {

constexpr pcn::MobilityProfile kProfile{0.05, 0.01};
constexpr pcn::CostWeights kWeights{100.0, 10.0};

void BM_SteadyStateRecurrence1D(benchmark::State& state) {
  const auto spec = pcn::markov::ChainSpec::one_dim(kProfile);
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcn::markov::solve_steady_state(spec, d));
  }
}
BENCHMARK(BM_SteadyStateRecurrence1D)->Arg(8)->Arg(64)->Arg(512);

void BM_SteadyStateDenseLu1D(benchmark::State& state) {
  const auto spec = pcn::markov::ChainSpec::one_dim(kProfile);
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcn::markov::solve_steady_state_dense(spec, d));
  }
}
BENCHMARK(BM_SteadyStateDenseLu1D)->Arg(8)->Arg(64)->Arg(256);

void BM_ClosedForm1D(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcn::markov::closed_form_1d(kProfile, d));
  }
}
BENCHMARK(BM_ClosedForm1D)->Arg(8)->Arg(64)->Arg(512);

void BM_ClosedFormBoundaryProbability(benchmark::State& state) {
  // The O(1) fast path a terminal would evaluate on-line.
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pcn::markov::closed_form_1d_boundary_probability(kProfile, d));
  }
}
BENCHMARK(BM_ClosedFormBoundaryProbability)->Arg(8)->Arg(512);

void BM_TotalCost2D(benchmark::State& state) {
  const auto model =
      pcn::costs::CostModel::exact(pcn::Dimension::kTwoD, kProfile, kWeights);
  const pcn::DelayBound bound(3);
  const int d = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.total_cost(d, bound));
  }
}
BENCHMARK(BM_TotalCost2D)->Arg(4)->Arg(16)->Arg(64);

void BM_ExhaustiveSearch(benchmark::State& state) {
  const auto model =
      pcn::costs::CostModel::exact(pcn::Dimension::kTwoD, kProfile, kWeights);
  const int max_threshold = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcn::optimize::exhaustive_search(
        model, pcn::DelayBound(3), max_threshold));
  }
}
BENCHMARK(BM_ExhaustiveSearch)->Arg(20)->Arg(80);

void BM_SimulatedAnnealing(benchmark::State& state) {
  const auto model =
      pcn::costs::CostModel::exact(pcn::Dimension::kTwoD, kProfile, kWeights);
  pcn::optimize::AnnealingConfig config;
  config.max_threshold = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        pcn::optimize::simulated_annealing(model, pcn::DelayBound(3), config));
  }
}
BENCHMARK(BM_SimulatedAnnealing)->Arg(20)->Arg(80);

void BM_NearOptimalSearch(benchmark::State& state) {
  const auto model =
      pcn::costs::CostModel::exact(pcn::Dimension::kTwoD, kProfile, kWeights);
  const int max_threshold = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcn::optimize::near_optimal_search(
        model, pcn::DelayBound(3), max_threshold));
  }
}
BENCHMARK(BM_NearOptimalSearch)->Arg(20)->Arg(80);

void BM_HexLaCenterLookup(benchmark::State& state) {
  const pcn::geometry::HexLaTiling tiling(
      static_cast<int>(state.range(0)));
  std::int64_t coordinate = 0;
  for (auto _ : state) {
    const pcn::geometry::HexCell cell{coordinate, -coordinate / 2};
    benchmark::DoNotOptimize(tiling.la_center(cell));
    coordinate = (coordinate + 97) % 100000;
  }
}
BENCHMARK(BM_HexLaCenterLookup)->Arg(1)->Arg(4);

void BM_SimulationSlots(benchmark::State& state) {
  // Cost of one simulated slot including metrics (single terminal).
  for (auto _ : state) {
    state.PauseTiming();
    pcn::sim::Network network(
        pcn::sim::NetworkConfig{pcn::Dimension::kTwoD,
                                pcn::sim::SlotSemantics::kChainFaithful, 1},
        kWeights);
    network.add_terminal(pcn::sim::make_distance_terminal(
        pcn::Dimension::kTwoD, kProfile, 3, pcn::DelayBound(2)));
    state.ResumeTiming();
    network.run(state.range(0));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulationSlots)->Arg(10000);

// --- Telemetry primitive costs (docs/observability.md quotes these) ---------

void BM_ObsCounterAdd(benchmark::State& state) {
  pcn::obs::MetricsRegistry registry;
  pcn::obs::Counter counter = registry.counter("bench.counter.add");
  for (auto _ : state) {
    counter.add(1);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAdd);

void BM_ObsCounterAddDetached(benchmark::State& state) {
  // The null-handle no-op path instrumented code pays when telemetry is
  // off (one predicted branch).
  pcn::obs::Counter counter;
  for (auto _ : state) {
    counter.add(1);
    benchmark::DoNotOptimize(counter);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsCounterAddDetached);

void BM_ObsHistogramObserve(benchmark::State& state) {
  pcn::obs::MetricsRegistry registry;
  pcn::obs::Histogram histogram = registry.histogram(
      "bench.histogram.observe", pcn::obs::exponential_buckets(1.0, 2.0, 10));
  double value = 0.0;
  for (auto _ : state) {
    histogram.observe(value);
    value = value < 1000.0 ? value + 1.0 : 0.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsHistogramObserve);

void BM_ObsScopedTimer(benchmark::State& state) {
  // Two clock reads + one counter add per scope.
  pcn::obs::MetricsRegistry registry;
  pcn::obs::Counter counter = registry.counter("bench.timer.ns");
  for (auto _ : state) {
    pcn::obs::ScopedTimer timer(counter);
    benchmark::DoNotOptimize(timer.elapsed_ns());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ObsScopedTimer);

void BM_ObsRegistrySnapshot(benchmark::State& state) {
  pcn::obs::MetricsRegistry registry;
  for (int i = 0; i < state.range(0); ++i) {
    registry.counter("bench.counter.c" + std::to_string(i)).add(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(registry.snapshot());
  }
}
BENCHMARK(BM_ObsRegistrySnapshot)->Arg(16)->Arg(64);

// --- Per-slot cost (serialized TSC) ------------------------------------------
// Prices one simulated terminal-slot under each engine over the canonical
// distance-update fleet.  google-benchmark's steady-clock loop is too coarse
// for an apples-to-apples cycles/slot figure, so this section brackets one
// long Network::run with pcn::obs::serialized_tsc() reads (rdtscp + lfence
// on x86; monotonic_ns elsewhere, in which case "cycles" are nanoseconds) —
// the same machinery the pcnd phase profiler uses.  The fleet/slot counts
// are env-overridable so CI can smoke-test it cheaply: PCN_MICRO_TERMINALS
// (default 4096) and PCN_MICRO_SLOTS (default 2048).

std::int64_t env_int64(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return std::strtoll(value, nullptr, 10);
}

using pcn::obs::serialized_tsc;

struct SlotCost {
  double ns = 0;      ///< wall nanoseconds per terminal-slot
  double cycles = 0;  ///< serialized-TSC ticks per terminal-slot
};

SlotCost per_slot_cost(pcn::sim::SimEngine engine, std::int64_t terminals,
                       std::int64_t slots) {
  pcn::sim::NetworkConfig config{
      pcn::Dimension::kTwoD, pcn::sim::SlotSemantics::kChainFaithful, 42};
  config.engine = engine;
  pcn::sim::Network network(config, kWeights);
  for (std::int64_t i = 0; i < terminals; ++i) {
    network.add_terminal(pcn::sim::make_distance_terminal(
        pcn::Dimension::kTwoD, kProfile, static_cast<int>(1 + i % 4),
        pcn::DelayBound(2)));
  }
  network.run(64);  // warm the caches and fault in the engine's arrays
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  const std::uint64_t start_tsc = serialized_tsc();
  network.run(slots);
  const std::uint64_t end_tsc = serialized_tsc();
  const std::int64_t end_ns = pcn::obs::monotonic_ns();
  const double work = static_cast<double>(terminals * slots);
  SlotCost cost;
  cost.ns = static_cast<double>(end_ns - start_ns) / work;
  cost.cycles = static_cast<double>(end_tsc - start_tsc) / work;
  return cost;
}

/// Best-of-N per-slot cost — the min discards scheduler-noise outliers.
SlotCost best_slot_cost(pcn::sim::SimEngine engine, std::int64_t terminals,
                        std::int64_t slots, int reps) {
  SlotCost best;
  for (int rep = 0; rep < reps; ++rep) {
    const SlotCost cost = per_slot_cost(engine, terminals, slots);
    if (rep == 0 || cost.ns < best.ns) best = cost;
  }
  return best;
}

void report_per_slot_costs(pcn::obs::BenchReport& report) {
  const std::int64_t terminals = env_int64("PCN_MICRO_TERMINALS", 4096);
  const std::int64_t slots = env_int64("PCN_MICRO_SLOTS", 2048);
  constexpr int kReps = 3;
  const SlotCost reference =
      best_slot_cost(pcn::sim::SimEngine::kReference, terminals, slots, kReps);
  report.set("per_slot_terminals", static_cast<double>(terminals))
      .set("per_slot_slots", static_cast<double>(slots))
      .set("per_slot_ns_reference", reference.ns)
      .set("per_slot_cycles_reference", reference.cycles);
  const pcn::sim::SimdSupport simd = pcn::sim::simd_support();
  report.set("per_slot_simd_available", simd.available ? 1.0 : 0.0);
  if (simd.available) {
    const SlotCost cost =
        best_slot_cost(pcn::sim::SimEngine::kSimd, terminals, slots, kReps);
    report.set("per_slot_ns_simd", cost.ns)
        .set("per_slot_cycles_simd", cost.cycles)
        .set("per_slot_simd_avx2",
             simd.isa == pcn::sim::SimdIsa::kAvx2 ? 1.0 : 0.0);
  }
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("perf_micro");
  const int rc = pcn::benchio::run_benchmarks(argc, argv, report);
  if (rc != 0) return rc;
  report_per_slot_costs(report);
  report.set("wall_seconds",
             static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
