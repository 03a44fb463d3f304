// Reproduces Figure 5 of the paper: average total cost at the optimal
// threshold versus the call arrival probability c in [0.001, 0.1]
// (log-swept), for maximum paging delays 1, 2, 3 and unbounded.
//   (a) one-dimensional model,  (b) two-dimensional model (exact chain).
// Fixed parameters (paper §7): q = 0.05, U = 100, V = 1.
//
// The paper notes "discontinuities appear in some curves due to the sudden
// changes in the optimal threshold distances" — visible here as jumps in
// the printed d* column.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "pcn/costs/cost_model.hpp"
#include "pcn/obs/bench_report.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/optimize/exhaustive.hpp"

namespace {

constexpr double kMoveProb = 0.05;
constexpr pcn::CostWeights kWeights{100.0, 1.0};
constexpr int kMaxThreshold = 100;

std::vector<double> log_sweep(double lo, double hi, int points) {
  std::vector<double> values;
  for (int i = 0; i < points; ++i) {
    const double t = static_cast<double>(i) / (points - 1);
    values.push_back(lo * std::pow(hi / lo, t));
  }
  return values;
}

void print_panel(pcn::Dimension dim, const char* title,
                 pcn::obs::BenchReport& report) {
  std::printf("Figure 5%s: optimal average total cost vs call arrival "
              "probability (%s)\n",
              dim == pcn::Dimension::kOneD ? "(a)" : "(b)", title);
  std::printf("  q = %.3f, U = %.0f, V = %.0f\n", kMoveProb,
              kWeights.update_cost, kWeights.poll_cost);
  std::printf("        c |   m=1 (d*) |   m=2 (d*) |   m=3 (d*) | "
              "unbounded (d*)\n");
  std::printf("  --------+------------+------------+------------+"
              "---------------\n");
  for (double c : log_sweep(0.001, 0.1, 25)) {
    const pcn::costs::CostModel model = pcn::costs::CostModel::exact(
        dim, pcn::MobilityProfile{kMoveProb, c}, kWeights);
    pcn::obs::BenchReport::Row& row = report.add_row(
        std::string(dim == pcn::Dimension::kOneD ? "1d" : "2d") +
        "/c=" + std::to_string(c));
    std::printf("  %7.4f |", c);
    for (int m : {1, 2, 3, 0}) {
      const pcn::DelayBound bound =
          m == 0 ? pcn::DelayBound::unbounded() : pcn::DelayBound(m);
      const pcn::optimize::Optimum optimum =
          pcn::optimize::exhaustive_search(model, bound, kMaxThreshold);
      const std::string key =
          m == 0 ? "unbounded" : std::string("m").append(std::to_string(m));
      row.set(key + "_d", optimum.threshold);
      row.set(key + "_cost", optimum.total_cost);
      std::printf(" %6.4f (%2d) |", optimum.total_cost, optimum.threshold);
    }
    std::printf("\n");
  }
  std::printf("\n");
}

}  // namespace

int main() {
  const std::int64_t start_ns = pcn::obs::monotonic_ns();
  pcn::obs::BenchReport report("fig5_cost_vs_callrate");
  print_panel(pcn::Dimension::kOneD, "one-dimensional model", report);
  print_panel(pcn::Dimension::kTwoD, "two-dimensional model, exact chain",
              report);
  report.set("points", 25)
      .set("panels", 2)
      .set("max_threshold", kMaxThreshold)
      .set("wall_seconds",
           static_cast<double>(pcn::obs::monotonic_ns() - start_ns) * 1e-9);
  report.emit();
  return 0;
}
