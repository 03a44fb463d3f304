// The PCN network simulation: slotted evolution of terminals, location
// updates, call deliveries and delay-bounded paging.  A direct slot loop
// drives the per-terminal work; user events scheduled through the
// discrete-event kernel run at their slot, and the event-free slot ranges
// between them shard the terminal fleet across a worker pool
// (NetworkConfig::threads) with bit-identical metrics for every thread
// count — terminals share no mutable state, so shards need no locks.
//
// Slot semantics (see DESIGN.md):
//   * kChainFaithful — per slot exactly one of {call (prob c), move (prob
//     q), stay} happens, matching the paper's Markov chain where a, b and c
//     are competing transition probabilities.  Requires q + c <= 1.
//   * kIndependent — the move (prob q) and the call (prob c) are drawn
//     independently each slot (move resolved first).  This is the more
//     physical model; the gap between the two quantifies the chain's
//     modeling error.
#pragma once

#include <memory>
#include <vector>

#include "pcn/common/params.hpp"
#include "pcn/obs/flight_recorder.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/timeseries.hpp"
#include "pcn/sim/event_queue.hpp"
#include "pcn/sim/location_server.hpp"
#include "pcn/sim/metrics.hpp"
#include "pcn/sim/observer.hpp"
#include "pcn/sim/paging_policy.hpp"
#include "pcn/sim/terminal.hpp"
#include "pcn/stats/counter_rng.hpp"

namespace pcn::sim {

enum class SlotSemantics { kChainFaithful, kIndependent };

/// Which slot-loop implementation Network::run uses.  Both engines follow
/// one draw contract (stats::SlotDraws: every call, move and neighbor is a
/// function of (seed, terminal id, slot)), so they produce bit-identical
/// TerminalMetrics and signalling-byte counts at every thread count
/// (tests/sim/test_simd_engine.cpp).
///
///   * kAuto      — run the lane-parallel SIMD engine whenever FleetPlan
///     accepts the fleet (RandomWalk mobility, DistanceUpdatePolicy,
///     SDF/plan-partition paging over fixed-disk knowledge, no observer,
///     no loss injection), flight recording is off and a kernel is
///     available; otherwise run the polymorphic reference engine.
///   * kReference — always run the polymorphic engine.
///   * kSimd      — require the SIMD engine (AVX2 with a portable scalar
///     fallback, runtime-detected; see simd_engine.hpp); run() throws
///     InvalidArgument when the fleet is non-canonical, flight recording
///     is on, or PCN_SIMD_ISA=none disabled every kernel.
enum class SimEngine { kAuto, kReference, kSimd };

class SimdEngine;
struct FleetPlan;

namespace obs_detail {
struct RuntimeStats;

/// Plain per-worker event tally, flushed into the metrics registry once per
/// shard segment (and at the end of Network::run).  Batching this way keeps
/// per-event telemetry at a plain increment on the hot path; only the flush
/// pays atomic adds.
struct EventTally {
  std::int64_t terminal_slots = 0;
  std::int64_t moves = 0;
  std::int64_t updates = 0;
  std::int64_t updates_lost = 0;
  std::int64_t pages = 0;
  std::int64_t page_fallbacks = 0;
  std::int64_t polled_cells = 0;
  std::int64_t page_sampled = 0;
  /// Monotone page counter driving the 1-in-N page-detail sampling (spans
  /// and per-page histograms); never reset, so the cadence spans segments.
  std::uint64_t page_tick = 0;
};
}  // namespace obs_detail

struct NetworkConfig {
  Dimension dimension = Dimension::kTwoD;
  SlotSemantics semantics = SlotSemantics::kChainFaithful;
  std::uint64_t seed = 1;
  /// Encode every signalling message with the proto codec and account the
  /// air-interface bytes in TerminalMetrics (small per-message overhead).
  bool count_signalling_bytes = true;
  /// Probability that a location-update frame is lost on the air
  /// interface.  The terminal detects the missing acknowledgement and
  /// retries next slot (paying the update cost again); until a retry
  /// succeeds the network's containment disk is stale, and a page may have
  /// to fall back to expanding-ring recovery (see TerminalMetrics::
  /// paging_failures).
  double update_loss_prob = 0.0;
  /// Worker threads for Network::run: 1 (default) runs single-threaded,
  /// 0 uses one thread per hardware thread, N > 1 uses exactly N.
  /// Terminals are fully independent (counter-based per-terminal draws,
  /// disjoint location-server entries), so metrics are bit-identical for
  /// every thread count.  Runs with an observer attached always execute
  /// single-threaded to keep the callback order stable.
  int threads = 1;
  /// Collect runtime telemetry (counters, timers) into metrics_registry()
  /// while the simulation runs.  Purely observational: the
  /// instrumentation never touches the random draws or the event order,
  /// so every TerminalMetrics value is bit-identical with the flag on or
  /// off, at any thread count (tests/sim/test_telemetry_identity.cpp).
  /// Off by default; the slot-loop overhead when enabled is bounded at 3%
  /// by bench/perf_scale's overhead probe (tools/run_checks.sh gate 4).
  bool collect_runtime_stats = false;
  /// Record per-call flight-recorder events (see obs/flight_recorder.hpp):
  /// each sampled call's full lifecycle — arrival, every polling cycle,
  /// found — plus sampled update / lost-update / area-reset events.
  /// Independent of collect_runtime_stats, purely observational (no RNG
  /// draws), and bit-identical TerminalMetrics with it on or off.
  bool record_flight = false;
  /// 1-in-N sampling of recorded call lifecycles and update events (per
  /// terminal, by the terminal's own ordinals — deterministic at any
  /// thread count).  1 records everything; the default keeps the recording
  /// overhead inside the 3% bound of bench/perf_scale's overhead probe.
  std::uint64_t flight_sample_every = 8;
  /// Events preallocated per worker shard; 0 uses the recorder's default
  /// (FlightRecorderConfig::shard_capacity).  A full shard drops further
  /// events and counts them.
  std::size_t flight_shard_capacity = 0;
  /// Run-timeline capture: sample the metrics registry into a
  /// pcn.timeseries.v1 recording every N slots (0 = off).  Implies
  /// collect_runtime_stats.  Sampling is keyed to the slot index at
  /// points where every engine has flushed its per-shard tallies, so the
  /// capture is bit-identical at any thread count (wall-clock and
  /// scheduling-dependent series are filtered by name).
  std::int64_t timeseries_every_slots = 0;
  /// Slot-loop engine selection (see SimEngine).
  SimEngine engine = SimEngine::kAuto;
};

/// Everything needed to attach one terminal to the network.
struct TerminalSpec {
  double call_prob = 0.0;
  std::unique_ptr<MobilityModel> mobility;
  std::unique_ptr<UpdatePolicy> update_policy;
  std::unique_ptr<PagingPolicy> paging_policy;
  KnowledgeKind knowledge_kind = KnowledgeKind::kFixedDisk;
  int knowledge_radius = 0;
  geometry::Cell start{};
};

/// Spec factories wiring matched (update policy, knowledge, paging) triples.
TerminalSpec make_distance_terminal(Dimension dim, MobilityProfile profile,
                                    int threshold, DelayBound bound);
TerminalSpec make_movement_terminal(Dimension dim, MobilityProfile profile,
                                    int max_moves, DelayBound bound);
TerminalSpec make_time_terminal(Dimension dim, MobilityProfile profile,
                                SimTime period, int rings_per_cycle = 1);
TerminalSpec make_la_terminal(Dimension dim, MobilityProfile profile,
                              int la_radius);

class Network {
 public:
  Network(NetworkConfig config, CostWeights weights);
  ~Network();

  /// Attaches a terminal; returns its id.
  TerminalId add_terminal(TerminalSpec spec);

  /// Runs `slots` further slots of simulation.
  void run(std::int64_t slots);

  const TerminalMetrics& metrics(TerminalId id) const;
  const Terminal& terminal(TerminalId id) const;

  /// Attaches an observer notified of every simulation event (nullptr to
  /// detach).  Not owned; must outlive the simulation.
  void set_observer(NetworkObserver* observer) { observer_ = observer; }
  LocationServer& server() { return server_; }
  const LocationServer& server() const { return server_; }
  EventQueue& events() { return events_; }
  const NetworkConfig& config() const { return config_; }
  std::size_t terminal_count() const { return attachments_.size(); }
  /// Current simulation time (= slots simulated so far).
  SimTime now() const { return events_.now(); }

  /// The runtime-telemetry registry (always present; populated by the
  /// simulator only when NetworkConfig::collect_runtime_stats is set —
  /// callers may register their own metrics regardless).  See
  /// docs/observability.md for the metric name scheme, and
  /// obs::make_run_report for the exported JSON view.
  obs::MetricsRegistry& metrics_registry() const { return *registry_; }

  /// The per-call flight recorder, or nullptr unless
  /// NetworkConfig::record_flight is set.  Read it (merged(), exporters)
  /// only between run() calls.
  obs::FlightRecorder* flight_recorder() const { return flight_.get(); }

  /// The run-timeline recorder, or nullptr unless
  /// NetworkConfig::timeseries_every_slots > 0.  Read between run() calls.
  const obs::TimeseriesRecorder* timeseries() const {
    return timeseries_.get();
  }

  /// The paging policy attached to `id` — reports use its delay_bound()
  /// for the SLA verdicts.
  const PagingPolicy& paging_policy(TerminalId id) const;

  /// True when the last run() (or the one in progress) took the
  /// lane-parallel SIMD engine for its event-free slot ranges.
  bool simd_active() const { return simd_ != nullptr; }

  /// The instruction-set path the active SIMD engine runs ("avx2" or
  /// "portable"), or nullptr when the SIMD engine is not active.
  const char* simd_isa_name() const;

  /// Flat per-terminal footprint of the active SIMD engine in bytes, or 0
  /// when the reference engine ran.
  std::size_t simd_bytes_per_terminal() const;

  /// Old names of simd_active() and simd_bytes_per_terminal(), still
  /// called by perfbench's sim_fleet workload; the next benchmark PR
  /// renames those calls and deletes these two forwards.
  bool soa_active() const { return simd_active(); }
  std::size_t soa_bytes_per_terminal() const {
    return simd_bytes_per_terminal();
  }

 private:
  friend class SimdEngine;
  friend struct FleetPlan;
  struct Attachment {
    std::unique_ptr<Terminal> terminal;
    std::unique_ptr<PagingPolicy> paging;
    TerminalMetrics metrics;
    /// Per-terminal page correlator (shard-safe, and independent of how
    /// terminals interleave across threads).
    std::uint64_t next_page_id = 0;
  };

  /// Per-worker scratch space; one instance per shard keeps the paging hot
  /// path free of per-cycle allocations without cross-thread sharing.
  struct Scratch {
    std::vector<geometry::Cell> poll_group;
    /// Telemetry shard: workers accumulate into distinct registry cells so
    /// hot-path increments never contend (obs::kShards folds the index).
    std::size_t shard = 0;
    /// Per-worker event counts, flushed to the registry per segment.
    obs_detail::EventTally tally;
    /// This worker's flight-recorder shard (nullptr when not recording).
    obs::FlightRecorder::Shard* flight = nullptr;
    /// Event sequence within the current (terminal, slot); reset at each
    /// process_terminal entry so the (slot, terminal, seq) key is
    /// independent of sharding.
    std::uint32_t flight_seq = 0;
  };

  /// Simulates slots `first`..`last` (inclusive), a range guaranteed free
  /// of queued events; dispatches to the shard workers when profitable.
  void run_segment(SimTime first, SimTime last, Scratch& scratch);
  /// Terminal-major evolution of attachments [begin, end) over the slot
  /// range — the per-shard worker body.
  void run_shard(std::size_t begin, std::size_t end, SimTime first,
                 SimTime last, Scratch& scratch);
  void process_slot(SimTime now, Scratch& scratch);
  void process_terminal(Attachment& attachment, SimTime now,
                        Scratch& scratch);
  void deliver_call(Attachment& attachment, SimTime now, Scratch& scratch);
  void send_update(Attachment& attachment, SimTime now, Scratch& scratch);
  /// config().threads with 0 resolved to the hardware thread count.
  int resolved_threads() const;
  /// Builds (or rejects) the SIMD engine for this run, honoring
  /// NetworkConfig::engine; called at each run() entry.
  void select_engine();

  NetworkConfig config_;
  CostWeights weights_;
  EventQueue events_;
  LocationServer server_;
  /// The slot-draw contract every engine evaluates.
  stats::SlotDraws draws_;
  std::vector<Attachment> attachments_;
  NetworkObserver* observer_ = nullptr;
  /// Always constructed (cheap, and callers may want their own metrics);
  /// heap-held so handles into it survive moves of the Network.
  std::unique_ptr<obs::MetricsRegistry> registry_;
  /// Pre-resolved metric handles; null unless
  /// config_.collect_runtime_stats (the hot path then skips telemetry with
  /// one predicted branch).
  std::unique_ptr<obs_detail::RuntimeStats> stats_;
  /// Per-call flight recorder; null unless config_.record_flight.
  std::unique_ptr<obs::FlightRecorder> flight_;
  /// Run-timeline recorder; null unless config_.timeseries_every_slots > 0.
  /// Sampled only from the run() driver thread at segment boundaries.
  std::unique_ptr<obs::TimeseriesRecorder> timeseries_;
  /// Lane-parallel SIMD fast path; null when the reference engine is in
  /// force (a fallback case, or engine = kReference).
  std::unique_ptr<SimdEngine> simd_;
  /// Set when user events ran mid-run: they may have re-targeted policies
  /// (set_threshold) or attached terminals, so the next event-free segment
  /// re-verifies the fleet before taking the fast path.
  bool fastpath_revalidate_ = false;
};

}  // namespace pcn::sim
