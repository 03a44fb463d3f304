// Property suite for pcnd's terminal DB (pcn/daemon/terminal_table.hpp),
// driven through the daemon and checked against a std::unordered_map
// model of what the location server promises:
//
//   * the first update of a terminal registers it, whatever its
//     sequence; a later one replaces the stored center, sequence and
//     radius only when its sequence is strictly newer, and is counted
//     stale otherwise (INGEST sorts a slot's updates of one terminal by
//     sequence, ties in submit order);
//   * a page for a terminal with no update on file is dropped as
//     unknown_terminal;
//   * terminal_count() and terminal_info() agree with the model for every
//     id ever touched and for ids never touched;
//   * memory follows the entry count, never the ids: terminal_slots() is
//     at most 16 per shard table plus 16/7 per entry.
//
// Ids mix dense small ids with the patterns that break id-indexed or
// low-bit-hashed tables (the top of the 64-bit range, the top bit set,
// 2^32 strides, one shard residue, uniform 64-bit ids), in proportions
// drawn per scenario.  The scenario sets the scale — 1-D runs one shard
// (full 64-bit keys), 2-D sixteen; the threshold sets the slot count and
// the delay bound the requests per slot — so shrinking walks toward a
// minimal failing run; the op stream derives from the seed alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "pcn/daemon/daemon.hpp"
#include "support/property.hpp"

namespace pcn::proptest {
namespace {

using pcn::daemon::DaemonRequest;
using pcn::daemon::Pcnd;
using pcn::daemon::PcndConfig;

struct ModelTerminal {
  geometry::Cell center{};
  std::uint64_t sequence = 0;
  std::uint32_t radius = 0;
};

constexpr std::uint64_t kMax = ~std::uint64_t{0};
constexpr std::size_t kIdClasses = 6;

/// One id from class `id_class`; each class draws from a small pool so
/// ids repeat and updates, stale repeats and lookups all hit.
std::uint64_t draw_id(stats::Rng& rng, std::size_t id_class,
                      const std::vector<std::uint64_t>& random_pool) {
  switch (id_class) {
    case 0:  // dense
      return rng.next_below(1024);
    case 1:  // top of the range
      return kMax - rng.next_below(48);
    case 2:  // top bit set
      return (std::uint64_t{1} << 63) + rng.next_below(48);
    case 3:  // 2^32 strides: equal low words
      return ((rng.next_below(48) + 1) << 32) + rng.next_below(2);
    case 4:  // one residue mod 16: a single shard's table
      return kMax - 16 * rng.next_below(48);
    default:  // uniform 64-bit
      return random_pool[rng.next_below(random_pool.size())];
  }
}

std::optional<std::string> check_terminal_db(const Scenario& scenario) {
  PcndConfig config;
  config.terminal_shards = scenario.dim == Dimension::kOneD ? 1 : 16;
  Pcnd daemon(config);

  const int slots = 2 + 2 * scenario.threshold;
  const int requests_per_slot =
      8 + 64 * (scenario.bound.is_unbounded() ? 4 : scenario.bound.cycles());

  stats::Rng rng(scenario.seed);
  std::vector<std::uint64_t> random_pool(48);
  for (std::uint64_t& id : random_pool) id = rng.next();
  std::array<std::uint64_t, kIdClasses> weights{};
  std::uint64_t weight_total = 0;
  for (std::uint64_t& weight : weights) {
    weight = rng.next_below(4);
    weight_total += weight;
  }
  if (weight_total == 0) {
    weights[0] = 1;
    weight_total = 1;
  }
  const auto next_id = [&] {
    std::uint64_t pick = rng.next_below(weight_total);
    std::size_t id_class = 0;
    while (pick >= weights[id_class]) pick -= weights[id_class++];
    return draw_id(rng, id_class, random_pool);
  };

  std::unordered_map<std::uint64_t, ModelTerminal> model;
  std::unordered_set<std::uint64_t> touched;
  std::int64_t applied = 0;
  std::int64_t stale = 0;
  std::int64_t unknown = 0;
  std::uint64_t page_id = 1;

  for (int slot = 0; slot < slots; ++slot) {
    std::vector<DaemonRequest> requests;
    for (int i = 0; i < requests_per_slot; ++i) {
      DaemonRequest request;
      if (rng.next_below(4) != 0) {
        request.kind = DaemonRequest::Kind::kUpdate;
        request.update.terminal_id = next_id();
        request.update.sequence = rng.next_below(8);
        request.update.cell = {
            static_cast<std::int64_t>(rng.next_below(64)) - 32,
            static_cast<std::int64_t>(rng.next_below(64)) - 32};
        request.update.containment_radius =
            static_cast<std::uint32_t>(rng.next_below(5));
        touched.insert(request.update.terminal_id);
      } else {
        request.kind = DaemonRequest::Kind::kPage;
        request.terminal_id = next_id();
        request.page_id = page_id++;
        touched.insert(request.terminal_id);
      }
      if (!daemon.submit(request)) return "request ring rejected a submit";
      requests.push_back(request);
    }
    daemon.run_slots(1);

    // The model applies the slot as INGEST orders it: per terminal, its
    // updates by sequence (ties in submit order), then its pages.
    std::stable_sort(requests.begin(), requests.end(),
                     [](const DaemonRequest& a, const DaemonRequest& b) {
                       const auto key = [](const DaemonRequest& r) {
                         const bool update =
                             r.kind == DaemonRequest::Kind::kUpdate;
                         return std::make_tuple(
                             update ? r.update.terminal_id : r.terminal_id,
                             static_cast<int>(r.kind),
                             update ? r.update.sequence : 0);
                       };
                       return key(a) < key(b);
                     });
    for (const DaemonRequest& request : requests) {
      if (request.kind == DaemonRequest::Kind::kPage) {
        if (model.count(request.terminal_id) == 0) ++unknown;
        continue;
      }
      const auto [it, inserted] =
          model.try_emplace(request.update.terminal_id);
      if (!inserted && request.update.sequence <= it->second.sequence) {
        ++stale;
        continue;
      }
      it->second = {request.update.cell, request.update.sequence,
                    request.update.containment_radius};
      ++applied;
    }

    const obs::MetricsSnapshot snapshot =
        daemon.metrics_registry().snapshot();
    if (snapshot.counter_value("daemon.update.applied") != applied) {
      return "applied updates diverged from the model at slot " +
             std::to_string(slot);
    }
    if (snapshot.counter_value("daemon.update.stale") != stale) {
      return "stale updates diverged from the model at slot " +
             std::to_string(slot);
    }
    if (snapshot.counter_value("daemon.page.unknown_terminal") != unknown) {
      return "unknown-terminal drops diverged from the model at slot " +
             std::to_string(slot);
    }
    if (daemon.terminal_count() != model.size()) {
      return "terminal_count() " + std::to_string(daemon.terminal_count()) +
             " != model " + std::to_string(model.size());
    }
    for (const std::uint64_t id : touched) {
      const Pcnd::TerminalInfo info = daemon.terminal_info(id);
      const auto it = model.find(id);
      if (info.known != (it != model.end())) {
        return "terminal_info(" + std::to_string(id) +
               ").known disagrees with the model";
      }
      if (info.known && (info.center != it->second.center ||
                         info.sequence != it->second.sequence ||
                         info.radius != it->second.radius)) {
        return "terminal_info(" + std::to_string(id) +
               ") holds a stale or foreign record";
      }
    }
    for (int probe = 0; probe < 16; ++probe) {
      const std::uint64_t id = rng.next();
      if (model.count(id) == 0 && daemon.terminal_info(id).known) {
        return "never-registered id " + std::to_string(id) + " reported known";
      }
    }
    const std::size_t slot_bound =
        16 * static_cast<std::size_t>(config.terminal_shards) +
        model.size() * 16 / 7;
    if (daemon.terminal_slots() > slot_bound) {
      return "terminal_slots() " + std::to_string(daemon.terminal_slots()) +
             " exceeds O(entries) bound " + std::to_string(slot_bound);
    }
  }
  return std::nullopt;
}

TEST(PropTerminalTable, MatchesMapModelOverHostileIds) {
  PropertyOptions options;
  options.scenarios = 40;
  check_property("daemon/terminal-db", check_terminal_db, options);
}

}  // namespace
}  // namespace pcn::proptest
