// Closed-loop daemon workload: N terminals doing the paper's random walk
// and movement-based location updating, with callers paging them through
// pcnd's bounded channel.
//
// Closed loop means a terminal has at most one page in flight: a caller
// who paged waits for the verdict (served / dropped / expired) before the
// terminal becomes pageable again.  That is both the realistic client
// behavior and the property the daemon's flight-event seq scheme and
// outcome callbacks rely on.
//
// Determinism.  Every per-(terminal, slot) decision — move? which
// direction? call arrival? — is a counter-based Philox draw keyed by the
// workload seed with stream = terminal and counter = slot, so the
// generated request sequence is a pure function of (seed, config) and is
// identical at any worker-thread count.  `generate` touches only
// terminals t with t % shard_count == shard, in increasing t, as the
// SlotWorkload contract requires.
//
// Layout.  Per-terminal state is stored per terminal shard, in flat
// arrays: terminal t lives at index t / shard_count of shard
// t % shard_count's arrays, laid out by the first `generate` call with
// the daemon's shard count.  The walk reads and writes four int32 arrays
// (the position wrapped onto the torus and the offset from the last
// report, which resets on update and never exceeds d) and the in-flight
// byte, all padded to whole 8-lane steps; the uint64 update sequence and
// page ordinal are touched only when a terminal emits.  A worker's
// shards are contiguous memory no other worker writes in APPLY.  Tallies
// are shard-local plain integers, and a verdict is parked in the
// terminal's in-flight byte and folded into its shard's tally when the
// terminal next pages (the accessors add the parked ones), so no
// per-request or per-outcome write is shared across workers.
//
// Walk.  The first `generate` call of a shard registers every terminal
// in it (one update each, no move).  After that each call runs the walk
// (load_gen_walk.hpp) over the shard in chunks: a kernel advances the
// lanes and lists the ones that update or page, and `generate` sends
// those through the RequestSink, update before page, in increasing t.
// The kernel is picked once, at construction, through
// sim::simd_support(): the AVX2 walk, eight terminals per instruction,
// where the build and the CPU have it, else the portable scalar walk
// (non-x86 builds, -DPCN_SIMD_AVX2=OFF, no AVX2, or PCN_SIMD_ISA=portable
// or none).  Both emit the same requests, word for word.
//
// Offered load.  Per slot each idle terminal pages with probability
// `call_prob`; total offered paging load is roughly
// terminals * call_prob pages/slot spread over ~region^2 cells (region^2
// queues in 2-D, region in 1-D), to be set against the per-cell
// PagingCapacityModel rate when positioning an experiment relative to
// the capacity knee.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <vector>

#include "pcn/common/divisor.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/load_gen_walk.hpp"

namespace pcn::daemon {

struct ClosedLoopConfig {
  std::uint64_t seed = 1;
  std::uint64_t terminals = 1024;
  /// Torus width: reported cells are wrapped to q, r in [0, region), so
  /// the daemon sees at most region^2 distinct cells (region in 1-D).
  int region = 16;
  /// Per-slot movement probability q (paper mobility model).
  double move_prob = 0.2;
  /// Per-slot page-arrival probability c for an idle terminal.
  double call_prob = 0.05;
  /// Movement-based update threshold d: a terminal updates when its
  /// distance from the last reported position reaches d.
  int threshold = 3;
  Dimension dimension = Dimension::kTwoD;
};

class ClosedLoopWorkload final : public SlotWorkload {
 public:
  explicit ClosedLoopWorkload(const ClosedLoopConfig& config);

  const ClosedLoopConfig& config() const { return config_; }

  void generate(int shard, int shard_count, std::int64_t slot,
                RequestSink& sink) override;
  void on_outcome(std::uint64_t terminal_id, proto::PageOutcomeKind kind,
                  std::int64_t slot) override;

  // --- workload-side tallies (exact; safe to read between run_slots) ---
  std::int64_t pages_submitted() const;
  std::int64_t updates_sent() const;
  std::int64_t outcomes_served() const {
    return outcome_count(proto::PageOutcomeKind::kServed);
  }
  std::int64_t outcomes_dropped() const {
    return outcome_count(proto::PageOutcomeKind::kDropped);
  }
  std::int64_t outcomes_expired() const {
    return outcome_count(proto::PageOutcomeKind::kExpired);
  }
  std::int64_t outcomes_rejected() const {
    return outcome_count(proto::PageOutcomeKind::kRejected);
  }
  /// Terminals with a page still in flight.
  std::int64_t outstanding_count() const;

  /// The walk this workload runs: "avx2" or "portable" (see Walk).
  const char* walk_name() const { return walk_name_; }

 private:
  /// In-flight byte of a terminal: idle, a page in flight, or
  /// kSettled + (kind - 1) for a verdict not yet folded into the tally.
  static constexpr std::uint8_t kIdle = 0;
  static constexpr std::uint8_t kInFlight = load_gen_detail::kInFlight;
  static constexpr std::uint8_t kSettled = 2;
  static constexpr std::size_t kOutcomeKinds = 4;

  /// One terminal shard's slice of the fleet, index = terminal / shard
  /// count.  The hot walk arrays (positions, offsets, in-flight bytes)
  /// are padded to whole 8-lane steps; the cold ones are touched only
  /// when a terminal emits.  Aligned so neighbouring shards' tallies
  /// share no line.
  struct alignas(64) Shard {
    std::size_t count = 0;  ///< terminals; the padding lanes never emit
    /// The first generate call registers every terminal of the shard.
    bool registered = false;
    std::vector<std::int32_t> pos_q, pos_r, off_q, off_r;
    /// Plain bytes, not atomics: for one terminal the daemon's phase
    /// joins order every access (generate in APPLY, the verdict in
    /// APPLY or a later DRAIN), and closed loop means at most one verdict
    /// per slot.
    std::vector<std::uint8_t> in_flight;
    std::vector<std::uint64_t> sequence, page_ordinal;
    std::int64_t pages_submitted = 0;
    std::int64_t updates_sent = 0;
    /// Folded verdicts, index = kind - 1.
    std::array<std::int64_t, kOutcomeKinds> settled{};
  };

  void lay_out(int shard_count);
  void register_shard(Shard& shard, std::uint64_t first, std::int64_t slot,
                      RequestSink& sink);
  /// Sends lane i's update and/or page (an event word's kinds).
  void emit(Shard& shard, std::size_t i, std::uint64_t terminal,
            std::uint32_t kinds, RequestSink& sink);
  std::int64_t outcome_count(proto::PageOutcomeKind kind) const;

  ClosedLoopConfig config_;
  load_gen_detail::WalkParams walk_params_;
  load_gen_detail::WalkFn walk_;
  const char* walk_name_;
  std::once_flag layout_once_;
  int shard_count_ = 0;  ///< fixed by the first generate call
  Divisor shard_divisor_;  ///< divides by shard_count_
  std::vector<Shard> shards_;
};

}  // namespace pcn::daemon
