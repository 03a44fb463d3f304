#include "support/fleet.hpp"

#include "pcn/common/error.hpp"

namespace pcn::proptest {
namespace {

void merge_histogram(stats::Histogram& into, const stats::Histogram& from) {
  for (int value = 0; value < from.bucket_count(); ++value) {
    if (const std::int64_t count = from.count(value); count > 0) {
      into.add(value, count);
    }
  }
}

bool histograms_identical(const stats::Histogram& a,
                          const stats::Histogram& b) {
  if (a.bucket_count() != b.bucket_count() || a.total() != b.total()) {
    return false;
  }
  for (int value = 0; value < a.bucket_count(); ++value) {
    if (a.count(value) != b.count(value)) return false;
  }
  return true;
}

}  // namespace

double FleetMetrics::update_cost_per_slot() const {
  return update_cost / static_cast<double>(slots);
}

double FleetMetrics::paging_cost_per_slot() const {
  return paging_cost / static_cast<double>(slots);
}

double FleetMetrics::cost_per_slot() const {
  return (update_cost + paging_cost) / static_cast<double>(slots);
}

void FleetMetrics::accumulate(const sim::TerminalMetrics& metrics) {
  slots += metrics.slots;
  moves += metrics.moves;
  calls += metrics.calls;
  updates += metrics.updates;
  polled_cells += metrics.polled_cells;
  update_cost += metrics.update_cost;
  paging_cost += metrics.paging_cost;
  merge_histogram(paging_cycles, metrics.paging_cycles);
  merge_histogram(ring_distance, metrics.ring_distance);
}

std::vector<sim::TerminalMetrics> run_distance_fleet(
    const Scenario& scenario, sim::SlotSemantics semantics, int threads,
    int terminals, std::int64_t slots_per_terminal, sim::SimEngine engine) {
  sim::NetworkConfig config{scenario.dim, semantics, scenario.seed};
  config.threads = threads;
  config.engine = engine;
  sim::Network network(config, scenario.weights);
  std::vector<sim::TerminalId> ids;
  ids.reserve(static_cast<std::size_t>(terminals));
  for (int i = 0; i < terminals; ++i) {
    ids.push_back(network.add_terminal(
        sim::make_distance_terminal(scenario.dim, scenario.profile,
                                    scenario.threshold, scenario.bound)));
  }
  network.run(slots_per_terminal);
  std::vector<sim::TerminalMetrics> metrics;
  metrics.reserve(ids.size());
  for (const sim::TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
}

FleetMetrics run_distance_fleet_aggregate(const Scenario& scenario,
                                          sim::SlotSemantics semantics,
                                          int threads, int terminals,
                                          std::int64_t slots_per_terminal) {
  FleetMetrics aggregate;
  for (const sim::TerminalMetrics& metrics :
       run_distance_fleet(scenario, semantics, threads, terminals,
                          slots_per_terminal)) {
    aggregate.accumulate(metrics);
  }
  return aggregate;
}

std::vector<std::vector<geometry::Cell>> record_trajectories(
    sim::Network& network, const std::vector<sim::TerminalId>& ids,
    std::int64_t slots) {
  PCN_EXPECT(network.config().engine == sim::SimEngine::kReference,
             "record_trajectories: the network must run the reference "
             "engine");
  std::vector<std::vector<geometry::Cell>> trajectories(ids.size());
  for (auto& trajectory : trajectories) {
    trajectory.reserve(static_cast<std::size_t>(slots));
  }
  for (std::int64_t slot = 0; slot < slots; ++slot) {
    network.run(1);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      trajectories[i].push_back(network.terminal(ids[i]).position());
    }
  }
  return trajectories;
}

bool metrics_identical(const sim::TerminalMetrics& a,
                       const sim::TerminalMetrics& b) {
  return a.slots == b.slots && a.moves == b.moves && a.calls == b.calls &&
         a.updates == b.updates && a.polled_cells == b.polled_cells &&
         a.update_cost == b.update_cost && a.paging_cost == b.paging_cost &&
         a.update_bytes == b.update_bytes &&
         a.paging_bytes == b.paging_bytes &&
         a.lost_updates == b.lost_updates &&
         a.paging_failures == b.paging_failures &&
         histograms_identical(a.paging_cycles, b.paging_cycles) &&
         histograms_identical(a.ring_distance, b.ring_distance);
}

}  // namespace pcn::proptest
