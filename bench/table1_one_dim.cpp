// Reproduces Table 1 of the paper: optimal threshold distance d* and
// average total cost C_T for the one-dimensional mobility model as the
// location update cost U sweeps 1..1000, for maximum paging delays of
// 1, 2, 3 and unbounded polling cycles.
//
// Parameters (paper §7): c = 0.01, q = 0.05, V = 10.
//
// Published quirk: the paper's d = 0 rows were computed with a_{0,1} = q/2
// although eq. (3) prints a_{0,1} = q; we print the published-faithful
// numbers (legacy flag) followed by the equation-faithful numbers.
#include <cstdio>
#include <string>
#include <vector>

#include "pcn/costs/cost_model.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/optimize/exhaustive.hpp"

namespace {

constexpr pcn::MobilityProfile kProfile{0.05, 0.01};
constexpr double kPollCost = 10.0;
constexpr int kMaxThreshold = 80;

const std::vector<double>& update_costs() {
  static const std::vector<double> costs = {
      1,  2,  3,  4,  5,  6,  7,  8,  9,  10,  20,  30,  40,  50,
      60, 70, 80, 90, 100, 200, 300, 400, 500, 600, 700, 800, 900, 1000};
  return costs;
}

std::int64_t print_table(bool legacy, pcn::obs::BenchReport& report) {
  pcn::costs::CostModelOptions options;
  options.legacy_d0_generic_update_rate = legacy;
  std::int64_t evaluations = 0;

  std::printf("%s\n", legacy
                          ? "Table 1 (published-faithful: C_u(0) uses q/2 as "
                            "in the paper's numbers)"
                          : "Table 1 (equation-faithful: C_u(0) uses "
                            "a_{0,1} = q per eq. 3)");
  std::printf("  1-D model, c = %.3f, q = %.3f, V = %.0f\n",
              kProfile.call_prob, kProfile.move_prob, kPollCost);
  std::printf(
      "      U | m=1        | m=2        | m=3        | unbounded\n");
  std::printf(
      "        | d*   C_T   | d*   C_T   | d*   C_T   | d*   C_T\n");
  std::printf(
      "  ------+------------+------------+------------+------------\n");

  for (double update_cost : update_costs()) {
    const pcn::costs::CostModel model = pcn::costs::CostModel::exact(
        pcn::Dimension::kOneD, kProfile,
        pcn::CostWeights{update_cost, kPollCost}, options);
    pcn::obs::BenchReport::Row& row = report.add_row(
        std::string(legacy ? "published" : "equation") +
        "/U=" + std::to_string(static_cast<int>(update_cost)));
    std::printf("  %5.0f |", update_cost);
    for (int m : {1, 2, 3, 0}) {
      const pcn::DelayBound bound =
          m == 0 ? pcn::DelayBound::unbounded() : pcn::DelayBound(m);
      const pcn::optimize::Optimum optimum =
          pcn::optimize::exhaustive_search(model, bound, kMaxThreshold);
      evaluations += optimum.evaluations;
      const std::string key =
          m == 0 ? "unbounded" : std::string("m").append(std::to_string(m));
      row.set(key + "_d", optimum.threshold);
      row.set(key + "_cost", optimum.total_cost);
      std::printf(" %2d  %6.3f |", optimum.threshold, optimum.total_cost);
    }
    std::printf("\n");
  }
  std::printf("\n");
  return evaluations;
}

}  // namespace

int main() {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("table1_one_dim");
  std::int64_t evaluations = 0;
  evaluations += print_table(/*legacy=*/true, report);
  evaluations += print_table(/*legacy=*/false, report);
  report.set("update_costs", static_cast<int>(update_costs().size()))
      .set("max_threshold", kMaxThreshold)
      .set("evaluations", evaluations)
      .set("wall_seconds",
           static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
