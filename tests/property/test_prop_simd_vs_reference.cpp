// Property suite: engine identity over the scenario space.  Both engines
// evaluate one draw contract (stats::SlotDraws), so for any canonical
// distance-update scenario (q, c, d, m) in either geometry and under
// either slot semantics, the lane-parallel SIMD engine must reproduce the
// reference engine's per-terminal metrics *bit-identically* — integer
// counters, signalling bytes, floating-point costs and both histograms —
// at 1 thread and through the sharded path.  The tier-1 suite
// (tests/sim/test_simd_engine.cpp) pins a fixed fleet and both kernels;
// this sweep hunts the parameter corners (d = 0, m = 1, rates near the
// chain-semantics boundary) where a table-building or threshold bug would
// hide.  The fleet size (27 = a 16-lane pair, an 8-lane block and a
// 3-lane portable tail) sends every scenario through each kernel path.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/fleet.hpp"
#include "support/property.hpp"

namespace pcn::proptest {
namespace {

constexpr int kTerminals = 27;
constexpr std::int64_t kSlots = 15000;

std::optional<std::string> check_engines_agree(const Scenario& scenario) {
  for (const sim::SlotSemantics semantics :
       {sim::SlotSemantics::kChainFaithful,
        sim::SlotSemantics::kIndependent}) {
    const std::vector<sim::TerminalMetrics> reference =
        run_distance_fleet(scenario, semantics, 1, kTerminals, kSlots,
                           sim::SimEngine::kReference);
    for (const int threads : {1, 4}) {
      const std::vector<sim::TerminalMetrics> lanes =
          run_distance_fleet(scenario, semantics, threads, kTerminals,
                             kSlots, sim::SimEngine::kSimd);
      for (int i = 0; i < kTerminals; ++i) {
        const auto index = static_cast<std::size_t>(i);
        if (!metrics_identical(reference[index], lanes[index])) {
          return std::optional<std::string>(
              "terminal " + std::to_string(i) + " diverged (" +
              (semantics == sim::SlotSemantics::kChainFaithful
                   ? "chain-faithful"
                   : "independent") +
              ", " + std::to_string(threads) + " threads)");
        }
      }
    }
  }
  return std::nullopt;
}

TEST(PropSimdVsReference, BitIdenticalMetricsAcrossTheScenarioSpace) {
  check_property("simd-vs-reference/bit-identical", check_engines_agree);
}

}  // namespace
}  // namespace pcn::proptest
