#include "pcn/obs/trace_analysis.hpp"

#include <algorithm>
#include <cmath>

#include "pcn/costs/cost_model.hpp"
#include "pcn/stats/histogram.hpp"

namespace pcn::obs {

namespace {

void bump(std::vector<std::int64_t>& hist, std::size_t index) {
  if (hist.size() <= index) hist.resize(index + 1, 0);
  ++hist[index];
}

}  // namespace

TraceAnalysis analyze_trace(const TraceMeta& meta,
                            const std::vector<FlightEvent>& events) {
  TraceAnalysis analysis;
  analysis.sla_bound = meta.delay_cycles;
  double clean_cost = 0.0;
  for (const FlightEvent& event : events) {
    switch (event.type) {
      case FlightEventType::kPollCycle: {
        const auto k = static_cast<std::size_t>(std::max(0, event.cycle));
        if (analysis.per_cycle.size() <= k) {
          analysis.per_cycle.resize(k + 1);
        }
        CycleBreakdown& cycle = analysis.per_cycle[k];
        ++cycle.reached;
        if (event.found) ++cycle.found;
        cycle.cells += event.cells;
        cycle.cost += event.cost;
        break;
      }
      case FlightEventType::kCallFound: {
        ++analysis.calls;
        const auto cycles = static_cast<std::size_t>(std::max(1, event.cycle));
        bump(analysis.cycles_hist, cycles);
        if (event.found) {
          ++analysis.clean_calls;
          bump(analysis.clean_cycles_hist, cycles);
          clean_cost += event.cost;
        } else {
          ++analysis.fallback_calls;
        }
        analysis.total_cells += event.cells;
        analysis.total_cost += event.cost;
        if (analysis.sla_bound > 0 && event.cycle > analysis.sla_bound) {
          analysis.violations.push_back(
              {event.slot, event.terminal, event.call, event.cycle});
        }
        break;
      }
      case FlightEventType::kLocationUpdate: ++analysis.updates; break;
      case FlightEventType::kUpdateLost: ++analysis.updates_lost; break;
      case FlightEventType::kAreaReset: ++analysis.resets; break;
      case FlightEventType::kPageQueued: ++analysis.pages_queued; break;
      case FlightEventType::kPageServed:
        ++analysis.pages_served;
        // cycle carries the queueing delay in slots for daemon events.
        if (analysis.sla_bound > 0 && event.cycle > analysis.sla_bound) {
          analysis.violations.push_back(
              {event.slot, event.terminal, event.call, event.cycle});
        }
        break;
      case FlightEventType::kPageDropped:
        // A dropped page never reaches the paging channel: the callee is
        // unreachable, which violates any delay SLA regardless of bound.
        ++analysis.pages_dropped;
        analysis.violations.push_back({event.slot, event.terminal, event.call,
                                       SlaViolation::kDroppedPage});
        break;
      case FlightEventType::kPageExpired:
        ++analysis.pages_expired;
        analysis.violations.push_back({event.slot, event.terminal, event.call,
                                       SlaViolation::kExpiredPage});
        break;
      case FlightEventType::kCallArrival:
      case FlightEventType::kPageFallback: break;
    }
  }

  if (analysis.calls > 0) {
    std::int64_t cycle_sum = 0;
    for (std::size_t k = 0; k < analysis.cycles_hist.size(); ++k) {
      cycle_sum += static_cast<std::int64_t>(k) * analysis.cycles_hist[k];
      if (analysis.cycles_hist[k] > 0) {
        analysis.max_cycles = static_cast<int>(k);
      }
    }
    analysis.mean_cycles = static_cast<double>(cycle_sum) /
                           static_cast<double>(analysis.calls);
    analysis.p50 = stats::count_percentile(analysis.cycles_hist, analysis.calls, 0.50);
    analysis.p95 = stats::count_percentile(analysis.cycles_hist, analysis.calls, 0.95);
    analysis.p99 = stats::count_percentile(analysis.cycles_hist, analysis.calls, 0.99);
    analysis.mean_cost =
        analysis.total_cost / static_cast<double>(analysis.calls);
  }
  if (analysis.clean_calls > 0) {
    analysis.clean_mean_cost =
        clean_cost / static_cast<double>(analysis.clean_calls);
  }
  return analysis;
}

namespace {

bool parse_scheme(std::string_view name, costs::PartitionScheme* out) {
  if (name == "sdf") {
    *out = costs::PartitionScheme::kSdfEqual;
  } else if (name == "optimal") {
    *out = costs::PartitionScheme::kOptimalContiguous;
  } else if (name == "hpf" || name == "highest_probability_first") {
    *out = costs::PartitionScheme::kHighestProbabilityFirst;
  } else {
    return false;
  }
  return true;
}

AlphaComparison not_applicable(std::string reason) {
  AlphaComparison comparison;
  comparison.applicable = false;
  comparison.reason = std::move(reason);
  return comparison;
}

/// Upper quantile of the chi-square distribution with `dof` degrees of
/// freedom via the Wilson–Hilferty cube approximation; `z` is the matching
/// standard-normal quantile (3.0902 for 99.9%).
double chi_square_quantile(int dof, double z) {
  const double k = static_cast<double>(dof);
  const double term = 1.0 - 2.0 / (9.0 * k) + z * std::sqrt(2.0 / (9.0 * k));
  return k * term * term * term;
}

}  // namespace

AlphaComparison compare_with_model(const TraceMeta& meta,
                                   const TraceAnalysis& analysis) {
  if (meta.policy != "distance") {
    return not_applicable("policy \"" + meta.policy +
                          "\" has no chain-model prediction (only the "
                          "distance policy does)");
  }
  if (meta.move_prob <= 0.0 || meta.call_prob <= 0.0) {
    return not_applicable("trace header lacks a mobility profile");
  }
  if (meta.param < 0) return not_applicable("negative threshold in header");
  costs::PartitionScheme scheme = costs::PartitionScheme::kSdfEqual;
  if (!parse_scheme(meta.scheme, &scheme)) {
    return not_applicable("unknown partition scheme \"" + meta.scheme + '"');
  }
  if (analysis.clean_calls <= 0) {
    return not_applicable("no clean calls recorded");
  }

  const Dimension dim =
      meta.dimension == 1 ? Dimension::kOneD : Dimension::kTwoD;
  const MobilityProfile profile{meta.move_prob, meta.call_prob};
  const CostWeights weights{meta.update_cost, meta.poll_cost};
  costs::CostModelOptions options;
  options.scheme = scheme;
  const auto model =
      costs::CostModel::exact(dim, profile, weights, options);
  const int threshold = static_cast<int>(meta.param);
  const DelayBound bound = meta.delay_cycles > 0
                               ? DelayBound(meta.delay_cycles)
                               : DelayBound::unbounded();
  const costs::Partition partition = model.partition(threshold, bound);
  const std::vector<double> probabilities = model.steady_state(threshold);

  AlphaComparison comparison;
  comparison.applicable = true;
  comparison.sample_size = analysis.clean_calls;
  comparison.observed_cost_per_call = analysis.clean_mean_cost;
  comparison.predicted_cost_per_call =
      meta.poll_cost *
      partition.expected_polled_cells(probabilities, dim);

  const int subareas = partition.subarea_count();
  comparison.predicted_alpha.resize(static_cast<std::size_t>(subareas), 0.0);
  comparison.observed_counts.resize(static_cast<std::size_t>(subareas), 0);
  comparison.observed_alpha.resize(static_cast<std::size_t>(subareas), 0.0);
  for (int j = 0; j < subareas; ++j) {
    double alpha = 0.0;
    for (const int ring : partition.rings(j)) {
      alpha += probabilities[static_cast<std::size_t>(ring)];
    }
    comparison.predicted_alpha[static_cast<std::size_t>(j)] = alpha;
    // Clean calls found in cycle j+1 correspond to subarea j.
    const auto cycle = static_cast<std::size_t>(j + 1);
    const std::int64_t observed =
        cycle < analysis.clean_cycles_hist.size()
            ? analysis.clean_cycles_hist[cycle]
            : 0;
    comparison.observed_counts[static_cast<std::size_t>(j)] = observed;
    comparison.observed_alpha[static_cast<std::size_t>(j)] =
        static_cast<double>(observed) /
        static_cast<double>(comparison.sample_size);
  }

  // Chi-square GOF with cells pooled left-to-right until each pooled cell
  // has expected count >= 5; a trailing short cell merges into the last.
  const double n = static_cast<double>(comparison.sample_size);
  std::vector<double> pooled_expected;
  std::vector<double> pooled_observed;
  double exp_acc = 0.0;
  double obs_acc = 0.0;
  for (int j = 0; j < subareas; ++j) {
    exp_acc += n * comparison.predicted_alpha[static_cast<std::size_t>(j)];
    obs_acc +=
        static_cast<double>(comparison.observed_counts[static_cast<std::size_t>(j)]);
    if (exp_acc >= 5.0) {
      pooled_expected.push_back(exp_acc);
      pooled_observed.push_back(obs_acc);
      exp_acc = obs_acc = 0.0;
    }
  }
  if (exp_acc > 0.0 || obs_acc > 0.0) {
    if (!pooled_expected.empty()) {
      pooled_expected.back() += exp_acc;
      pooled_observed.back() += obs_acc;
    } else if (exp_acc > 0.0) {
      pooled_expected.push_back(exp_acc);
      pooled_observed.push_back(obs_acc);
    }
  }

  comparison.dof = static_cast<int>(pooled_expected.size()) - 1;
  if (comparison.dof >= 1) {
    double statistic = 0.0;
    for (std::size_t i = 0; i < pooled_expected.size(); ++i) {
      const double diff = pooled_observed[i] - pooled_expected[i];
      statistic += diff * diff / pooled_expected[i];
    }
    comparison.chi_square = statistic;
    comparison.critical_999 = chi_square_quantile(comparison.dof, 3.0902);
    comparison.consistent = statistic <= comparison.critical_999;
  } else {
    // A single pooled cell (or none) carries no information to test.
    comparison.dof = std::max(comparison.dof, 0);
    comparison.consistent = true;
  }
  return comparison;
}

}  // namespace pcn::obs
