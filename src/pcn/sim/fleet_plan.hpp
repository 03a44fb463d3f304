// The validated flat plan for the canonical distance-update scenario, the
// static half of the lane-parallel SIMD engine (simd_engine).
//
// The engine accepts only the paper's canonical configuration: every
// attached terminal has RandomWalk mobility, DistanceUpdatePolicy and SDF
// (or matching plan-partition) paging over fixed-disk knowledge, with no
// loss injection.  FleetPlan::build verifies that and flattens the
// per-terminal constants (rates, threshold, frame-byte constants) into
// plain arrays, pre-resolving each distinct paging partition into a
// lookup table indexed by polling cycle.  Every fleet it
// rejects runs on the reference engine instead, which evaluates the same
// draw contract (stats::SlotDraws) — so a rejection changes speed, never
// results.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "pcn/costs/partition.hpp"
#include "pcn/proto/wire.hpp"

namespace pcn::sim {

class Network;
struct Knowledge;

namespace plan_detail {

/// LEB128-encoded length of an unsigned varint, in bytes.
inline std::int64_t varint_len(std::uint64_t value) {
  std::int64_t length = 1;
  while (value >= 0x80) {
    value >>= 7;
    ++length;
  }
  return length;
}

/// Encoded length of a zigzag-mapped signed varint, in bytes.
inline std::int64_t signed_len(std::int64_t value) {
  return varint_len(proto::zigzag_encode(value));
}

}  // namespace plan_detail

/// One distinct paging partition, pre-resolved into flat lookup tables
/// (indexed by polling cycle).  Frame bytes split into a center- and
/// terminal-independent part computed once here, plus the per-call
/// varint terms added on the hot path.
struct PagingTable {
  costs::Partition partition;      ///< dedupe key (operator==)
  int threshold = 0;
  int cycles = 0;                  ///< subarea count
  // The {} initialisers let `PagingTable table{partition};` leave every
  // vector empty without -Wmissing-field-initializers.
  std::vector<std::int32_t> cycle_of{};  ///< ring distance -> subarea
  std::vector<std::int64_t> size{};      ///< cells polled in cycle j
  std::vector<std::int64_t> cum{};       ///< cells polled through cycle j
  std::vector<std::int32_t> ring_lo{};   ///< nearest ring in cycle j
  std::vector<std::int32_t> ring_hi{};   ///< farthest ring in cycle j
  /// PageRequest frame bytes of cycle j minus the per-call varints
  /// (page id, terminal id, absolute first-cell coordinates).
  std::vector<std::int64_t> inv_bytes{};
  /// First polled cell of cycle j, relative to the knowledge center.
  std::vector<std::int64_t> off_q{}, off_r{};
};

/// Static per-terminal plan arrays + interned paging tables, rebuilt by
/// build().  Indexed by attachment order (= terminal id).
struct FleetPlan {
  /// The draw contract's event thresholds (stats::SlotDraws):
  /// threshold32(c), and threshold32(c + q) under chain-faithful
  /// semantics or threshold32(q) under independent semantics.
  std::vector<std::uint32_t> t_call;
  std::vector<std::uint32_t> t_move;
  std::vector<std::int32_t> thr;       ///< distance threshold d
  std::vector<std::int32_t> table;     ///< index into tables
  std::vector<std::int32_t> id_bytes;  ///< varint length of the id
  std::vector<std::int32_t> upd_const; ///< fixed LocationUpdate bytes
  std::vector<std::int32_t> resp_const;///< fixed PageResponse bytes
  /// Stable directory handles (LocationServer::knowledge_mut), resolved
  /// once here so engine batch load/sync never pays a lookup per
  /// terminal.
  std::vector<Knowledge*> know;
  std::vector<PagingTable> tables;
  int max_threshold = 0;
  int max_cycles = 0;

  /// Verifies that the whole fleet matches the canonical scenario and
  /// (re)builds the arrays and tables.  Returns false — with the first
  /// offending condition in `*why` — when the fast path cannot be taken.
  /// Safe to call again after the caller mutated the fleet between run()
  /// calls (thresholds re-read, tables rebuilt).  Non-const: the knowledge handles the
  /// engines sync through are resolved here.
  bool build(Network& net, std::string* why);

 private:
  std::size_t intern_table(const Network& net, int threshold,
                           const costs::Partition& partition);
};

}  // namespace pcn::sim
