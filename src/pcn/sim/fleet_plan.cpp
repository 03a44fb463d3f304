#include "pcn/sim/fleet_plan.hpp"

#include <algorithm>
#include <typeinfo>
#include <utility>

#include "pcn/geometry/cell.hpp"
#include "pcn/sim/mobility.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/paging_policy.hpp"
#include "pcn/sim/terminal.hpp"
#include "pcn/sim/update_policy.hpp"
#include "pcn/stats/counter_rng.hpp"

namespace pcn::sim {

using plan_detail::signed_len;
using plan_detail::varint_len;

std::size_t FleetPlan::intern_table(const Network& net, int threshold,
                                    const costs::Partition& partition) {
  // Fleets share a handful of distinct (threshold, bound) plans, so a
  // linear scan over structurally-equal partitions suffices.
  for (std::size_t i = 0; i < tables.size(); ++i) {
    if (tables[i].partition == partition) return i;
  }
  const Dimension dim = net.config().dimension;
  PagingTable table{partition};
  table.threshold = threshold;
  table.cycles = partition.subarea_count();
  table.cycle_of.assign(static_cast<std::size_t>(threshold) + 1, 0);
  std::vector<geometry::Cell> cells;
  std::int64_t cumulative = 0;
  for (int j = 0; j < table.cycles; ++j) {
    const std::vector<int>& rings = partition.rings(j);
    cells.clear();
    int lo = rings.front();
    int hi = rings.front();
    for (int ring : rings) {
      table.cycle_of[static_cast<std::size_t>(ring)] =
          static_cast<std::int32_t>(j);
      lo = std::min(lo, ring);
      hi = std::max(hi, ring);
      // Built once at the origin: ring cells translate with the center,
      // so inter-cell deltas (and hence most frame bytes) are invariant.
      geometry::append_cell_ring(dim, geometry::Cell{}, ring, cells);
    }
    table.size.push_back(static_cast<std::int64_t>(cells.size()));
    cumulative += static_cast<std::int64_t>(cells.size());
    table.cum.push_back(cumulative);
    table.ring_lo.push_back(lo);
    table.ring_hi.push_back(hi);
    // PageRequest frame minus the per-call varints: version + type,
    // cycle, cell count, the center-independent inter-cell deltas, CRC.
    std::int64_t invariant = 2 + varint_len(static_cast<std::uint64_t>(j)) +
                             varint_len(cells.size()) + 4;
    for (std::size_t k = 1; k < cells.size(); ++k) {
      invariant += signed_len(cells[k].q - cells[k - 1].q) +
                   signed_len(cells[k].r - cells[k - 1].r);
    }
    table.inv_bytes.push_back(invariant);
    table.off_q.push_back(cells.front().q);
    table.off_r.push_back(cells.front().r);
  }
  max_cycles = std::max(max_cycles, table.cycles);
  tables.push_back(std::move(table));
  return tables.size() - 1;
}

bool FleetPlan::build(Network& net, std::string* why) {
  auto fail = [&](const std::string& reason) {
    if (why != nullptr) *why = reason;
    return false;
  };
  const NetworkConfig& config = net.config();
  if (config.update_loss_prob > 0.0) {
    return fail("update_loss_prob > 0 injects extra RNG draws");
  }
  const std::size_t n = net.attachments_.size();
  const bool chain = config.semantics == SlotSemantics::kChainFaithful;

  t_call.resize(n);
  t_move.resize(n);
  thr.resize(n);
  table.resize(n);
  id_bytes.resize(n);
  upd_const.resize(n);
  resp_const.resize(n);
  know.resize(n);
  tables.clear();
  max_threshold = 0;
  max_cycles = 0;

  // (threshold, bound) -> table index for the sdf fast path: fleets share
  // a handful of plans, and building a throwaway Partition per terminal
  // just to structurally compare it dominates the whole fleet scan.
  std::vector<std::pair<std::pair<int, DelayBound>, std::size_t>> sdf_memo;
  for (std::size_t i = 0; i < n; ++i) {
    const Network::Attachment& attachment = net.attachments_[i];
    const Terminal& terminal = *attachment.terminal;
    // Built lazily: the success path must stay allocation-free per terminal.
    const auto tag = [i] { return "terminal " + std::to_string(i) + ": "; };

    const auto* walk = dynamic_cast<const RandomWalk*>(&terminal.mobility());
    if (walk == nullptr) {
      return fail(tag() + terminal.mobility().name() +
                  " mobility (need random-walk)");
    }
    if (walk->dimension() != config.dimension) {
      return fail(tag() + "mobility dimension differs from the network's");
    }

    // Exact type: subclasses may override hooks the flat loop skips.
    const UpdatePolicy& update = terminal.update_policy();
    if (typeid(update) != typeid(DistanceUpdatePolicy)) {
      return fail(tag() + update.name() + " update policy (need distance)");
    }
    const auto& distance = static_cast<const DistanceUpdatePolicy&>(update);
    if (distance.dimension() != config.dimension) {
      return fail(tag() + "update-policy dimension differs from the network's");
    }
    const int threshold = distance.threshold();

    std::size_t table_index = 0;
    if (const auto* sdf = dynamic_cast<const SdfSequentialPaging*>(
            attachment.paging.get())) {
      if (sdf->dimension() != config.dimension) {
        return fail(tag() + "paging dimension differs from the network's");
      }
      const std::pair<int, DelayBound> key{threshold, sdf->delay_bound()};
      const auto memo = std::find_if(
          sdf_memo.begin(), sdf_memo.end(),
          [&](const auto& entry) { return entry.first == key; });
      if (memo != sdf_memo.end()) {
        table_index = memo->second;
      } else {
        table_index = intern_table(
            net, threshold, costs::Partition::sdf(threshold,
                                                  sdf->delay_bound()));
        sdf_memo.emplace_back(key, table_index);
      }
    } else if (const auto* plan = dynamic_cast<const PlanPartitionPaging*>(
                   attachment.paging.get())) {
      if (plan->dimension() != config.dimension) {
        return fail(tag() + "paging dimension differs from the network's");
      }
      if (plan->partition().threshold() != threshold) {
        return fail(tag() +
                    "plan-partition threshold differs from the update "
                    "threshold");
      }
      table_index = intern_table(net, threshold, plan->partition());
    } else {
      return fail(tag() + attachment.paging->name() +
                  " paging (need sdf-sequential or plan-partition)");
    }

    Knowledge& knowledge = net.server_.knowledge_mut(terminal.id());
    know[i] = &knowledge;
    if (knowledge.kind != KnowledgeKind::kFixedDisk) {
      return fail(tag() + "knowledge is not a fixed disk");
    }
    if (knowledge.radius != threshold) {
      return fail(tag() + "knowledge radius differs from the update threshold");
    }
    if (knowledge.center != distance.center()) {
      return fail(tag() + "knowledge center diverged from the policy center");
    }
    if (config.dimension == Dimension::kOneD &&
        terminal.position().r != knowledge.center.r) {
      return fail(tag() + "1-D terminal is off its center's line");
    }

    const double move_prob = walk->move_probability(0);
    const double call_prob = terminal.call_probability();
    if (chain && move_prob + call_prob > 1.0) {
      return fail(tag() + "q + c > 1 under chain-faithful semantics");
    }

    t_call[i] = stats::threshold32(call_prob);
    t_move[i] = stats::threshold32(chain ? call_prob + move_prob : move_prob);
    thr[i] = threshold;
    table[i] = static_cast<std::int32_t>(table_index);
    const std::int64_t id_len =
        varint_len(static_cast<std::uint64_t>(terminal.id()));
    id_bytes[i] = static_cast<std::int32_t>(id_len);
    // LocationUpdate frame minus the per-update varints (sequence number
    // and position): version + type, terminal id, containment radius, CRC.
    upd_const[i] = static_cast<std::int32_t>(
        2 + id_len + varint_len(static_cast<std::uint64_t>(threshold)) + 4);
    // PageResponse frame minus page id and position.
    resp_const[i] = static_cast<std::int32_t>(2 + id_len + 4);
    max_threshold = std::max(max_threshold, threshold);
  }
  return true;
}

}  // namespace pcn::sim
