// Property suite gating the SIMD engine's *statistical* contract: over
// the randomized scenario space, a fleet run under SimEngine::kSimd must
// land inside the confidence bands of the analytical model — C_u, C_v,
// C_T per slot against the CostModel predictions, mean paging delay
// against the SDF partition, and (where the chain is the exact law: 1-D,
// chain-faithful) a chi-square GOF of the ring-distance occupancy against
// p_{i,d}.  PropSimdVsReference pins the engine to the reference engine
// bit for bit; this suite is the oracle independent of both engines —
// the draw contract's maps (16-bit event halfwords refined on a tie, the
// exact direction map, fixed-point thresholds with error < 2^-32) must
// leave the physics untouched.  The same scenarios also pin thread-count
// determinism: 1-thread and 4-thread simd runs must agree bit-for-bit
// per terminal.
#include <gtest/gtest.h>

#include <cstdio>

#include "pcn/costs/cost_model.hpp"
#include "support/fleet.hpp"
#include "support/oracles.hpp"
#include "support/property.hpp"

namespace pcn::proptest {
namespace {

constexpr int kTerminals = 8;
constexpr std::int64_t kSlotsPerTerminal = 100000;
constexpr double kZ = 4.0;
constexpr double kGofAlpha = 1e-6;

std::optional<std::string> outside(const char* what, const Band& band,
                                   double measured) {
  if (band.contains(measured)) return std::nullopt;
  char line[160];
  std::snprintf(line, sizeof line, "%s = %.6f outside band %s", what,
                measured, to_string(band).c_str());
  return std::string(line);
}

/// Same modeling slacks as test_prop_sim_vs_chain.cpp: the gaps are
/// between the simulation physics and the chain model, not between
/// engines, so the simd engine inherits them unchanged.
double modeling_slack(const Scenario& scenario) {
  return 0.05 + 3.0 * scenario.profile.move_prob * scenario.profile.call_prob;
}

double ring_approximation_slack(const Scenario& scenario) {
  if (scenario.dim == Dimension::kOneD) return 0.0;
  return 0.03 + 0.25 * scenario.profile.move_prob;
}

std::optional<std::string> check_simd_against_model(
    const Scenario& scenario, sim::SlotSemantics semantics, double slack) {
  const auto single =
      run_distance_fleet(scenario, semantics, 1, kTerminals,
                         kSlotsPerTerminal, sim::SimEngine::kSimd);
  const auto sharded =
      run_distance_fleet(scenario, semantics, 4, kTerminals,
                         kSlotsPerTerminal, sim::SimEngine::kSimd);
  for (std::size_t i = 0; i < single.size(); ++i) {
    if (!metrics_identical(single[i], sharded[i])) {
      return "terminal " + std::to_string(i) +
             " simd metrics differ between 1 and 4 threads";
    }
  }

  FleetMetrics fleet;
  for (const sim::TerminalMetrics& metrics : single) {
    fleet.accumulate(metrics);
  }
  const costs::CostModel model = costs::CostModel::exact(
      scenario.dim, scenario.profile, scenario.weights);
  const CostBands bands = predicted_cost_bands(
      model, scenario.threshold, scenario.bound, fleet.slots, kZ);
  if (auto f = outside("C_u/slot", bands.update.widened(slack),
                       fleet.update_cost_per_slot())) {
    return f;
  }
  if (auto f = outside("C_v/slot", bands.paging.widened(slack),
                       fleet.paging_cost_per_slot())) {
    return f;
  }
  if (auto f = outside("C_T/slot", bands.total.widened(slack),
                       fleet.cost_per_slot())) {
    return f;
  }
  if (fleet.calls > 200) {
    if (auto f = outside("mean paging delay", bands.delay.widened(slack),
                         fleet.paging_cycles.mean())) {
      return f;
    }
  }
  if (semantics == sim::SlotSemantics::kChainFaithful &&
      scenario.dim == Dimension::kOneD) {
    const GofResult fit = occupancy_goodness_of_fit(
        model, scenario.threshold, fleet.ring_distance, kGofAlpha);
    if (!fit.accepted) {
      return "simd ring occupancy rejects the steady state: " +
             fit.describe();
    }
  }
  return std::nullopt;
}

TEST(PropSimdStatistical, ChainFaithfulMatchesCostModelAtAnyThreadCount) {
  check_property("simd-statistical/chain-faithful",
                 [](const Scenario& scenario) {
                   return check_simd_against_model(
                       scenario, sim::SlotSemantics::kChainFaithful,
                       ring_approximation_slack(scenario));
                 });
}

TEST(PropSimdStatistical, IndependentSemanticsStaysWithinModelingGapBands) {
  check_property("simd-statistical/independent",
                 [](const Scenario& scenario) {
                   return check_simd_against_model(
                       scenario, sim::SlotSemantics::kIndependent,
                       ring_approximation_slack(scenario) +
                           modeling_slack(scenario));
                 });
}

}  // namespace
}  // namespace pcn::proptest
