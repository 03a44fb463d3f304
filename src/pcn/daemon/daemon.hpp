// pcnd — the location-server daemon core.
//
// A long-running server for the paper's location-management plane with the
// one thing the paper assumes away: a *capacity-bounded* paging channel.
// Clients submit LocationUpdate and PageSubmit requests (through the
// lock-free RequestRing in-process, or the Unix-socket front end in
// socket_server.hpp, which decodes proto frames into the same request
// structs); the daemon maintains the per-terminal center-cell DB and a
// bounded per-cell paging queue (paging_queue.hpp), drained each slot
// against the cell's PagingCapacityModel budget.
//
// Determinism contract.  Served/dropped/expired counters, queueing-delay
// histograms, run reports, and (sampled) flight recordings are
// bit-identical at any worker-thread count, given the same per-slot
// request sets.  The design that buys this:
//
//   * Two fixed shard counts, independent of the thread count: terminal
//     state lives in `terminal_shards` flat tables (terminal_table.hpp),
//     terminal_id mod the shard count picking the table and terminal_id
//     divided by it the key, and cell queues live in `queue_shards`
//     dense arrays, a cell hash picking the shard and a per-shard flat
//     index the queue.  Threads own shards (shard s -> worker s % T),
//     never split them.  Storage order never drives processing order:
//     APPLY walks the sorted batch, then the workload's increasing ids.
//   * A slot is four phases, each finished before the next starts.
//     INGEST (serial, on the run_slots caller): drain the ring once,
//     stable-sort the batch by (terminal, kind, sequence, page), bucket
//     per terminal shard.
//     APPLY (parallel over terminal shards): apply updates in sorted
//     order, route page submits to per-(terminal-shard, queue-shard)
//     intent lists; the attached SlotWorkload generates its shard's
//     traffic here, after the ring batch, in terminal-id order.  DRAIN
//     (parallel over queue shards): walk the intents in terminal-shard
//     order 0..S-1 — an order no thread count can perturb — group them
//     stably by queue, then visit each queue once in array order,
//     enqueueing its intents and draining it against the slot budget.
//   * Per-shard metric cells (MetricsRegistry) and per-shard flight/
//     outcome buffers, merged in FINALIZE (serial) in shard order.
//     APPLY and DRAIN count into per-shard tallies of plain integers
//     (detail::CounterTally, detail::SlotTally) that reach the registry
//     once per shard per slot, so counters are exact at slot boundaries.
//     APPLY and DRAIN each run as one fork-join on a ShardPool
//     (common/shard_pool.hpp) whose worker threads persist across slots
//     and run_slots calls.
//
// The daemon never blocks a producer: a full ring rejects the push and
// the rejection is counted (daemon.request.rejected_ring_full).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "pcn/capacity/paging_capacity.hpp"
#include "pcn/common/divisor.hpp"
#include "pcn/common/params.hpp"
#include "pcn/common/shard_pool.hpp"
#include "pcn/daemon/delay_planner.hpp"
#include "pcn/daemon/paging_queue.hpp"
#include "pcn/daemon/request_ring.hpp"
#include "pcn/daemon/terminal_table.hpp"
#include "pcn/geometry/cell.hpp"
#include "pcn/obs/flight_recorder.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/timeseries.hpp"

namespace pcn::daemon {

struct PcndConfig {
  Dimension dimension = Dimension::kTwoD;
  /// Worker threads for the slot loop (results identical at any value).
  int threads = 1;
  /// Fixed shard counts — the determinism domain, NOT the thread count.
  int terminal_shards = 16;
  int queue_shards = 16;
  /// Request ring capacity (rounded up to a power of two).
  std::size_t ring_capacity = std::size_t{1} << 16;
  /// Per-cell paging-channel capacity.
  capacity::PagingCapacityModel capacity{2, 1.0};
  /// Per-cell bounded-queue parameters (admission policy included; the
  /// queue's sla_delay_slots is overwritten with the daemon's below).
  PagingQueueConfig queue{};
  /// Queueing-delay SLA in slots; a served page waiting longer counts as
  /// a violation.  0 = no bound (drops/expiries still violate).
  int sla_delay_slots = 0;
  /// Paging-delay-bound planner (off = legacy open-loop budget).
  DelayPlanConfig plan{};
  /// Keep PageOutcome events for drain_outcomes() (the socket front end
  /// and tests want them; the closed-loop bench does not).
  bool collect_outcomes = false;
  /// Walk the queue shards in FINALIZE and publish live occupancy
  /// (total pending, cells with pending pages, top-K deepest cells) for
  /// live_queue_stats() and the admin endpoint.  Read-only over queue
  /// state, so the determinism contract is unaffected; the walk runs
  /// every LiveQueueStats::kStrideSlots-th slot plus the last slot of
  /// each run_slots call, so its cost amortizes to noise in batch runs.
  bool live_stats = false;
  /// Flight recording of page lifecycle events (sampled by page id).
  bool record_flight = false;
  std::uint64_t flight_sample_every = 8;
  std::size_t flight_shard_capacity = std::size_t{1} << 16;
  /// Run-timeline capture: sample the metrics registry into a
  /// pcn.timeseries.v1 recording every N slots (0 = off).  Sampling runs
  /// in the serial FINALIZE step at slot boundaries, so the captured
  /// history is bit-identical at any thread count.  Every run's last slot
  /// is also sampled; under serve-style run_slots(1) cadence that means
  /// one sample per slot, which is why the recording is ring-bounded.
  std::int64_t timeseries_every_slots = 0;
  /// Most recent samples retained (live tail ring); 0 = unbounded.
  std::size_t timeseries_max_samples = 4096;
};

/// Verdict for one submitted page, mirrored onto proto::PageOutcome by
/// the socket front end.
struct PageOutcomeEvent {
  std::uint64_t page_id = 0;
  std::uint64_t terminal_id = 0;
  proto::PageOutcomeKind kind = proto::PageOutcomeKind::kServed;
  std::int64_t queue_delay_slots = 0;
  std::uint32_t queue_depth = 0;
  std::int64_t slot = 0;          ///< slot the verdict was reached in
  std::uint32_t client = 0;       ///< 0 = in-process submitter
};

class Pcnd;
class SlotWorkload;

/// Point-in-time paging-queue occupancy published from the serial
/// FINALIZE step when PcndConfig::live_stats is on — every
/// kStrideSlots-th slot and always on the last slot of a run, so the
/// walk's cost amortizes to noise while staying far fresher than any
/// scrape cadence.  `deepest` holds up to kTopCells cells ordered by
/// depth descending (ties broken by cell coordinates, so the list is
/// identical at any thread count).
struct LiveQueueStats {
  static constexpr std::size_t kTopCells = 8;
  static constexpr std::int64_t kStrideSlots = 16;
  struct CellDepth {
    geometry::Cell cell{};
    std::int64_t depth = 0;
  };
  std::int64_t slot = 0;            ///< slot the walk ran after
  std::int64_t total_pending = 0;   ///< pages pending across all queues
  std::int64_t cells_pending = 0;   ///< cells with >= 1 pending page
  std::int64_t max_depth_ever = 0;  ///< lifetime high watermark
  std::vector<CellDepth> deepest;
};

namespace detail {

/// Consecutive-submit tracker: gives repeated page submits of one
/// terminal within a slot distinct flight-event seq values.
struct SeqTracker {
  std::uint64_t last_terminal = ~std::uint64_t{0};
  std::uint32_t run = 0;
  std::uint32_t next(std::uint64_t terminal_id) {
    run = (terminal_id == last_terminal) ? run + 1 : 0;
    last_terminal = terminal_id;
    return run;
  }
};

/// One slot's observations of a small non-negative integer, counted
/// densely (counts[v] = times v was seen) and folded into a registry
/// histogram once per slot with one counted observe per distinct value.
struct SlotTally {
  std::vector<std::int64_t> counts;
  std::size_t top = 0;  ///< one past the largest value seen this slot

  void add(std::int64_t value);
  /// Adds this slot's counts to `histogram` (and, when given, to the
  /// dense `cumulative` counts), then clears them for the next slot.
  void fold(obs::Histogram& histogram, std::size_t shard,
            std::vector<std::int64_t>* cumulative);
};

/// The request and verdict counters that APPLY and DRAIN count per shard
/// in a CounterTally.
enum TalliedCounter : std::size_t {
  kRequestUpdate,
  kRequestPage,
  kUpdateApplied,
  kUpdateStale,
  kPageQueued,
  kPageDuplicate,
  kPageDropped,
  kPageEvicted,
  kPageExpired,
  kPageServed,
  kPageUnknown,
  kSlaViolation,
  kTalliedCounters
};

using TalliedCounters = std::array<obs::Counter, kTalliedCounters>;

/// One shard's counts of the tallied counters over its work in one phase,
/// kept in plain integers and added to the registry with one add per
/// counter when the tally goes out of scope at the end of that work (a
/// throwing phase included), so no per-request write is atomic.
class CounterTally {
 public:
  CounterTally(TalliedCounters& counters, std::size_t shard)
      : counters_(counters), shard_(shard) {}
  ~CounterTally() {
    for (std::size_t i = 0; i < kTalliedCounters; ++i) {
      if (counts_[i] != 0) counters_[i].add(counts_[i], shard_);
    }
  }
  CounterTally(const CounterTally&) = delete;
  CounterTally& operator=(const CounterTally&) = delete;

  void add(TalliedCounter counter) { ++counts_[counter]; }

 private:
  TalliedCounters& counters_;
  std::size_t shard_;
  std::array<std::int64_t, kTalliedCounters> counts_{};
};

}  // namespace detail

/// Valid only inside an APPLY phase; routes workload-generated requests
/// through exactly the code paths ring requests take.
class RequestSink {
 public:
  void update(const proto::LocationUpdate& update);
  void page(std::uint64_t page_id, std::uint64_t terminal_id);

 private:
  friend class Pcnd;
  RequestSink(Pcnd* daemon, int shard, std::int64_t slot,
              SlotWorkload* workload, detail::SeqTracker* tracker,
              detail::CounterTally* tally)
      : daemon_(daemon), shard_(shard), slot_(slot), workload_(workload),
        tracker_(tracker), tally_(tally) {}
  Pcnd* daemon_;
  int shard_;  ///< terminal shard this sink feeds
  std::int64_t slot_;
  SlotWorkload* workload_;
  detail::SeqTracker* tracker_;  ///< the shard's APPLY tracker, shared
  detail::CounterTally* tally_;  ///< the shard's APPLY tally, shared
};

/// A closed-loop traffic source driven from inside the slot loop.
/// `generate` is called once per (terminal shard, slot) from that shard's
/// worker; it must only touch terminals t with t % shard_count == shard
/// and emit their requests in increasing terminal id.  `on_outcome` is
/// called from the phase that settles the page; with at most one page in
/// flight per terminal (which `generate` should maintain — it is what
/// closed-loop means) the calls for one terminal never race.
class SlotWorkload {
 public:
  virtual ~SlotWorkload() = default;
  virtual void generate(int shard, int shard_count, std::int64_t slot,
                        RequestSink& sink) = 0;
  virtual void on_outcome(std::uint64_t terminal_id,
                          proto::PageOutcomeKind kind, std::int64_t slot) = 0;
};

class Pcnd {
 public:
  explicit Pcnd(const PcndConfig& config);
  ~Pcnd();

  Pcnd(const Pcnd&) = delete;
  Pcnd& operator=(const Pcnd&) = delete;

  const PcndConfig& config() const { return config_; }

  /// Thread-safe, lock-free enqueue; false = ring full (request dropped
  /// and counted).  Takes effect at the next slot's INGEST.
  bool submit(const DaemonRequest& request);

  /// Runs `slots` slots of the ingest/apply/drain loop, with `workload`
  /// (may be null) generating in-loop traffic.
  void run_slots(std::int64_t slots, SlotWorkload* workload = nullptr);

  /// Next slot to be processed (slots completed so far).
  std::int64_t now() const { return slot_; }

  obs::MetricsRegistry& metrics_registry() { return registry_; }
  const obs::MetricsRegistry& metrics_registry() const { return registry_; }
  const obs::FlightRecorder* flight_recorder() const {
    return recorder_.get();
  }

  /// Moves every settled PageOutcomeEvent (requires collect_outcomes).
  void drain_outcomes(std::vector<PageOutcomeEvent>* out);

  /// Exact queueing-delay distribution of served pages: histogram[k] =
  /// pages served after waiting exactly k slots.
  std::vector<std::int64_t> delay_histogram() const;

  // --- introspection (not thread-safe against run_slots) ---
  std::size_t terminal_count() const;
  struct TerminalInfo {
    bool known = false;
    geometry::Cell center{};
    std::uint64_t sequence = 0;
    std::uint32_t radius = 0;
  };
  TerminalInfo terminal_info(std::uint64_t terminal_id) const;
  /// Slots allocated across the terminal tables; O(terminal_count()).
  std::size_t terminal_slots() const;
  /// Pending pages in `cell`'s queue (0 when the cell has no queue yet).
  std::int64_t queue_depth(geometry::Cell cell) const;
  /// Largest queue depth ever observed after an enqueue.
  std::int64_t max_queue_depth() const { return max_depth_ever_; }

  /// The delay-feedback planner (nullptr when config().plan.mode is
  /// kOff).  Not thread-safe against run_slots.
  const DelayFeedbackPlanner* planner() const { return planner_.get(); }

  /// Copy of the most recent FINALIZE occupancy walk.  Thread-safe against
  /// a concurrent run_slots; all-zero until the first slot completes with
  /// config().live_stats set.
  LiveQueueStats live_queue_stats() const;

  /// The run-timeline recorder (nullptr unless timeseries_every_slots
  /// > 0).  Not thread-safe against run_slots; use timeseries_encoded()
  /// for live access.
  const obs::TimeseriesRecorder* timeseries() const {
    return timeseries_.get();
  }
  /// Thread-safe pcn.timeseries.v1 encoding of the capture so far (the
  /// admin `series` verb streams this).  An empty-timeline encoding when
  /// capture is off.
  std::string timeseries_encoded() const;

 private:
  friend class RequestSink;

  struct PageIntent {
    geometry::Cell cell{};
    std::uint64_t terminal_id = 0;
    std::uint64_t page_id = 0;
    std::uint32_t client = 0;
  };

  struct CellHash {
    std::size_t operator()(const geometry::Cell& cell) const noexcept {
      return geometry::HexCellHash{}(cell);
    }
  };

  /// One cell's served pages for the slot, staged for the planner's
  /// serial FINALIZE fold.
  struct CellServeSample {
    geometry::Cell cell{};
    std::int64_t served = 0;
    std::int64_t delay_sum = 0;
  };

  /// An intent routed to its queue, with the flight-event run it got in
  /// the slot's fixed walk order.
  struct StagedIntent {
    const PageIntent* intent = nullptr;
    std::uint32_t queue = 0;
    std::uint32_t run = 0;
  };

  struct QueueShard {
    static constexpr std::uint32_t kNoQueue = ~std::uint32_t{0};

    /// The shard's queues in first-seen order; cells[i] owns queues[i].
    std::vector<BoundedPagingQueue> queues;
    std::vector<geometry::Cell> cells;
    std::vector<StagedIntent> walk;    ///< this slot's intents, walk order
    std::vector<StagedIntent> staged;  ///< the same, grouped by queue
    std::vector<std::uint32_t> queue_end;  ///< counting-sort offsets
    std::vector<ServedPage> served_scratch;
    std::vector<PendingPage> expired_scratch;
    std::vector<PageOutcomeEvent> outcomes;
    std::vector<CellServeSample> planner_samples;
    std::vector<std::int64_t> delay_hist;  ///< dense, index = delay slots
    detail::SlotTally delay_tally;  ///< this slot's served delays
    detail::SlotTally depth_tally;  ///< this slot's post-enqueue depths
    std::int64_t max_depth = 0;

    /// Dense index of `cell`'s queue, or kNoQueue.
    std::uint32_t find(geometry::Cell cell) const;
    /// Dense index of `cell`'s queue, appending one built from `config`
    /// when the cell has none yet.
    std::uint32_t find_or_add(geometry::Cell cell,
                              const PagingQueueConfig& config);

   private:
    /// Open-addressing cell -> queue lookup: power-of-two slots holding
    /// queue index + 1 (0 = empty), linear probing, at most half full.
    /// Consulted only to route an intent or answer queue_depth().
    std::vector<std::uint32_t> index;
    int index_bits = 0;

    /// Home slot of `cell` in an index of 2^index_bits slots.
    std::size_t home_slot(geometry::Cell cell) const;
    /// Puts queue `queue` in the first free slot from its cell's home.
    void place(std::uint32_t queue);
    void grow_index();
  };

  int terminal_shard_of(std::uint64_t terminal_id) const {
    return static_cast<int>(terminal_shard_divisor_.remainder(terminal_id));
  }
  /// Key within the terminal's shard table.
  std::uint64_t terminal_key(std::uint64_t terminal_id) const {
    return terminal_shard_divisor_.quotient(terminal_id);
  }
  int queue_shard_of(geometry::Cell cell) const {
    return static_cast<int>(queue_shard_divisor_.remainder(CellHash{}(cell)));
  }

  void ingest_phase();
  void apply_phase(int worker, int worker_count, std::int64_t slot,
                   SlotWorkload* workload);
  void drain_phase(int worker, int worker_count, std::int64_t slot,
                   SlotWorkload* workload);
  void finalize_phase();

  void apply_update(int shard, const proto::LocationUpdate& update,
                    detail::CounterTally& tally);
  void apply_page(int shard, std::int64_t slot, std::uint64_t page_id,
                  std::uint64_t terminal_id, std::uint32_t client,
                  SlotWorkload* workload, detail::SeqTracker* tracker,
                  detail::CounterTally& tally);

  /// The flight-event fields that each page-event site supplies.
  struct FlightFields {
    std::uint32_t seq = 0;
    std::int32_t cycle = -1;
    std::int64_t cells = 0;
    std::int64_t distance = -1;
  };

  /// The one path every page verdict takes: counts `verdict` in `tally`,
  /// and daemon.page.sla_violation for a failure or a late serve; records
  /// the sampled flight event, typed by outcome.kind, on shard `shard`;
  /// keeps `outcome` in `outcomes` if collect_outcomes; tells `workload`.
  void settle(detail::TalliedCounter verdict, detail::CounterTally& tally,
              int shard, const PageOutcomeEvent& outcome,
              const FlightFields& flight,
              std::vector<PageOutcomeEvent>& outcomes,
              SlotWorkload* workload);

  void record_page_event(int recorder_shard, obs::FlightEventType type,
                         std::int64_t slot, std::uint64_t terminal_id,
                         std::uint64_t page_id, const FlightFields& flight,
                         bool found);

  PcndConfig config_;
  /// Divide by config_.terminal_shards and config_.queue_shards.
  Divisor terminal_shard_divisor_;
  Divisor queue_shard_divisor_;
  RequestRing ring_;
  obs::MetricsRegistry registry_;
  std::unique_ptr<obs::FlightRecorder> recorder_;
  std::unique_ptr<DelayFeedbackPlanner> planner_;
  /// Planner adjustment totals already mirrored onto the counters.
  std::int64_t published_widens_ = 0;
  std::int64_t published_narrows_ = 0;

  std::vector<TerminalTable> terminals_;  ///< [terminal shard]
  /// intents_[terminal_shard][queue_shard]: pages routed this slot.
  std::vector<std::vector<std::vector<PageIntent>>> intents_;
  std::vector<QueueShard> queue_shards_;
  /// Unknown-terminal drop outcomes produced in APPLY, per terminal shard.
  std::vector<std::vector<PageOutcomeEvent>> apply_outcomes_;

  std::vector<DaemonRequest> batch_;                   ///< sorted ingest
  std::vector<std::vector<std::size_t>> shard_batch_;  ///< [ts] -> batch idx

  std::int64_t slot_ = 0;
  int slot_budget_ = 0;  ///< capacity budget for the slot in flight
  std::int64_t max_depth_ever_ = 0;
  /// Last slot of the run_slots call in flight; FINALIZE always
  /// publishes live stats for it, stride or not.
  std::int64_t run_last_slot_ = -1;

  std::mutex outcomes_mutex_;
  std::deque<PageOutcomeEvent> outcomes_;

  /// Run-timeline capture, written only from the serial FINALIZE step
  /// (and the run_slots prologue) under timeseries_mutex_, so the admin
  /// thread can encode a consistent copy mid-run.
  std::unique_ptr<obs::TimeseriesRecorder> timeseries_;
  mutable std::mutex timeseries_mutex_;

  mutable std::mutex live_stats_mutex_;
  LiveQueueStats live_stats_;
  /// Publish builds into these reused buffers and swaps with
  /// live_stats_, keeping the walk allocation-free in steady state.
  LiveQueueStats live_stats_publish_scratch_;
  std::vector<LiveQueueStats::CellDepth> live_stats_scratch_;

  // Metric handles (resolved once; per-shard cells keep workers apart).
  /// Indexed by detail::TalliedCounter; APPLY and DRAIN add to them
  /// through per-shard CounterTally objects, submit() directly.
  detail::TalliedCounters tallied_;
  obs::Counter requests_rejected_;
  obs::Counter slots_run_;
  obs::Counter wall_ns_;
  obs::Counter plan_widen_;
  obs::Counter plan_narrow_;
  obs::Gauge plan_m_gauge_;
  obs::Gauge max_depth_gauge_;
  obs::Gauge pending_gauge_;
  obs::Gauge cells_pending_gauge_;
  obs::Histogram delay_hist_;
  obs::Histogram depth_hist_;
  // Per-slot phase timing (serialized TSC, microseconds).  These
  // are histograms, not counters, so the determinism fingerprint over
  // counters is untouched by wall-clock jitter.
  obs::Histogram phase_ingest_;
  obs::Histogram phase_apply_;
  obs::Histogram phase_drain_;
  obs::Histogram phase_finalize_;

  /// APPLY/DRAIN workers; declared last so its threads are joined before
  /// any state they touch is destroyed.
  ShardPool pool_;
};

}  // namespace pcn::daemon
