// Ablation B: threshold-search strategies (paper §6-§7).
//
// Compares, across the U sweep and delay bounds:
//   * exhaustive scan (ground truth; D+1 evaluations),
//   * the paper's simulated annealing (cost evaluations counted),
//   * the near-optimal approximate-chain scan with the d' = 0 correction.
// Reported: chosen threshold, exact-model cost, cost penalty vs the scan,
// and evaluation counts.
#include <cstdio>
#include <string>

#include "pcn/costs/cost_model.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/optimize/annealing.hpp"
#include "pcn/optimize/exhaustive.hpp"
#include "pcn/optimize/near_optimal.hpp"

namespace {

constexpr pcn::MobilityProfile kProfile{0.05, 0.01};
constexpr double kPollCost = 10.0;
constexpr int kMaxThreshold = 80;

}  // namespace

int main() {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("ablation_optimizer");
  // One registry across all searches: the optimizer.* counters summed here
  // land in the report summary below.
  pcn::obs::MetricsRegistry registry;
  std::printf("Ablation B: optimizer strategies (2-D exact model)\n");
  std::printf("  c = %.3f, q = %.3f, V = %.0f, D = %d\n\n",
              kProfile.call_prob, kProfile.move_prob, kPollCost,
              kMaxThreshold);

  for (int m : {1, 3, 0}) {
    const pcn::DelayBound bound =
        m == 0 ? pcn::DelayBound::unbounded() : pcn::DelayBound(m);
    std::printf("  delay = %s\n",
                m == 0 ? "unbounded" : std::to_string(m).c_str());
    std::printf("      U | scan d*,C_T   | anneal d,C_T (pen%%, evals) | "
                "near-opt d,C_T (pen%%, evals)\n");
    std::printf("  ------+---------------+-----------------------------+"
                "------------------------------\n");
    for (double update_cost : {10.0, 50.0, 100.0, 300.0, 1000.0}) {
      const pcn::costs::CostModel model = pcn::costs::CostModel::exact(
          pcn::Dimension::kTwoD, kProfile,
          pcn::CostWeights{update_cost, kPollCost});

      const pcn::optimize::Optimum scan = pcn::optimize::exhaustive_search(
          model, bound, kMaxThreshold, &registry);

      pcn::optimize::AnnealingConfig annealing;
      annealing.max_threshold = kMaxThreshold;
      annealing.seed = 99;
      const pcn::optimize::Optimum annealed =
          pcn::optimize::simulated_annealing(model, bound, annealing,
                                             &registry);

      const pcn::optimize::Optimum near = pcn::optimize::near_optimal_search(
          model, bound, kMaxThreshold, false, &registry);

      auto penalty = [&](const pcn::optimize::Optimum& o) {
        return 100.0 * (o.total_cost - scan.total_cost) / scan.total_cost;
      };
      std::printf(
          "  %5.0f | %2d  %8.4f | %2d  %8.4f (%5.2f%%, %3d) | %2d  %8.4f "
          "(%5.2f%%, %3d)\n",
          update_cost, scan.threshold, scan.total_cost, annealed.threshold,
          annealed.total_cost, penalty(annealed), annealed.evaluations,
          near.threshold, near.total_cost, penalty(near), near.evaluations);
      report
          .add_row((m == 0 ? std::string("unbounded")
                           : std::string("m").append(std::to_string(m))) +
                   "/U=" + std::to_string(static_cast<int>(update_cost)))
          .set("scan_d", scan.threshold)
          .set("scan_cost", scan.total_cost)
          .set("anneal_d", annealed.threshold)
          .set("anneal_penalty_pct", penalty(annealed))
          .set("anneal_evals", annealed.evaluations)
          .set("near_d", near.threshold)
          .set("near_penalty_pct", penalty(near))
          .set("near_evals", near.evaluations);
    }
    std::printf("\n");
  }
  std::printf("Reading: annealing should match the scan with fewer distinct "
              "evaluations; near-opt trades <= 1 ring of accuracy for the "
              "closed-form fast path.\n");
  const pcn::obs::MetricsSnapshot snap = registry.snapshot();
  report.set("scan_evaluations", snap.counter_value("optimizer.scan.evaluations"))
      .set("anneal_iterations",
           snap.counter_value("optimizer.anneal.iterations"))
      .set("anneal_accepted", snap.counter_value("optimizer.anneal.accepted"))
      .set("near_corrections",
           snap.counter_value("optimizer.near.corrections"))
      .set("wall_seconds",
           static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
