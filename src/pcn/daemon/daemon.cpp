#include "pcn/daemon/daemon.hpp"

#include <algorithm>
#include <chrono>
#include <utility>
#include <tuple>

#include "pcn/obs/timeseries_codec.hpp"
#include "pcn/obs/tsc.hpp"

namespace pcn::daemon {

namespace {

/// The terminal a request is about — the sort/shard key.
std::uint64_t request_terminal(const DaemonRequest& request) {
  return request.kind == DaemonRequest::Kind::kUpdate
             ? request.update.terminal_id
             : request.terminal_id;
}

/// How many queues ahead of its visit DRAIN prefetches each stage of a
/// queue: the object's own lines, then its group heads and link array,
/// then its slab entries (both located through the object).
constexpr std::uint32_t kPrefetchQueueAhead = 16;
constexpr std::uint32_t kPrefetchLinksAhead = 8;
constexpr std::uint32_t kPrefetchEntriesAhead = 4;

/// Prefetches every cache line `object` spans.
template <class T>
void prefetch_object(const T& object) {
  const char* bytes = reinterpret_cast<const char*>(&object);
  for (std::size_t offset = 0; offset < sizeof(T); offset += 64) {
    __builtin_prefetch(bytes + offset);
  }
  __builtin_prefetch(bytes + sizeof(T) - 1);
}

}  // namespace

namespace detail {

void SlotTally::add(std::int64_t value) {
  const auto index = static_cast<std::size_t>(value);
  if (counts.size() <= index) counts.resize(index + 1, 0);
  ++counts[index];
  top = std::max(top, index + 1);
}

void SlotTally::fold(obs::Histogram& histogram, std::size_t shard,
                     std::vector<std::int64_t>* cumulative) {
  // The values are small integers, so one counted observe per value
  // leaves every bucket count and the running sum bit-identical to one
  // observe per occurrence.
  if (cumulative != nullptr && cumulative->size() < top) {
    cumulative->resize(top, 0);
  }
  for (std::size_t value = 0; value < top; ++value) {
    if (counts[value] == 0) continue;
    histogram.observe_n(static_cast<double>(value), counts[value], shard);
    if (cumulative != nullptr) (*cumulative)[value] += counts[value];
    counts[value] = 0;
  }
  top = 0;
}

}  // namespace detail

std::size_t Pcnd::QueueShard::home_slot(geometry::Cell cell) const {
  // Every cell in this shard shares CellHash % queue_shards, so the low
  // hash bits are not spread here: take the top bits of a Fibonacci
  // multiply instead.
  const std::uint64_t hash =
      static_cast<std::uint64_t>(CellHash{}(cell)) * 0x9e3779b97f4a7c15ull;
  return static_cast<std::size_t>(hash >> (64 - index_bits));
}

std::uint32_t Pcnd::QueueShard::find(geometry::Cell cell) const {
  if (index.empty()) return kNoQueue;
  const std::size_t mask = index.size() - 1;
  for (std::size_t i = home_slot(cell);; i = (i + 1) & mask) {
    const std::uint32_t entry = index[i];
    if (entry == 0) return kNoQueue;
    if (cells[entry - 1] == cell) return entry - 1;
  }
}

std::uint32_t Pcnd::QueueShard::find_or_add(geometry::Cell cell,
                                            const PagingQueueConfig& config) {
  const std::uint32_t found = find(cell);
  if (found != kNoQueue) return found;
  const auto added = static_cast<std::uint32_t>(queues.size());
  queues.emplace_back(config);
  cells.push_back(cell);
  if (2 * cells.size() > index.size()) {
    grow_index();  // re-places every queue, the new one included
  } else {
    place(added);
  }
  return added;
}

void Pcnd::QueueShard::place(std::uint32_t queue) {
  const std::size_t mask = index.size() - 1;
  std::size_t i = home_slot(cells[queue]);
  while (index[i] != 0) i = (i + 1) & mask;
  index[i] = queue + 1;
}

void Pcnd::QueueShard::grow_index() {
  constexpr int kMinIndexBits = 4;  // 16 slots
  index_bits = index.empty() ? kMinIndexBits : index_bits + 1;
  index.assign(std::size_t{1} << index_bits, 0);
  for (std::size_t q = 0; q < cells.size(); ++q) {
    place(static_cast<std::uint32_t>(q));
  }
}

void RequestSink::update(const proto::LocationUpdate& update) {
  tally_->add(detail::kRequestUpdate);
  daemon_->apply_update(shard_, update, *tally_);
}

void RequestSink::page(std::uint64_t page_id, std::uint64_t terminal_id) {
  tally_->add(detail::kRequestPage);
  daemon_->apply_page(shard_, slot_, page_id, terminal_id, /*client=*/0,
                      workload_, tracker_, *tally_);
}

Pcnd::Pcnd(const PcndConfig& config)
    : config_(config), ring_(config.ring_capacity) {
  PCN_EXPECT(config_.threads >= 1, "Pcnd: threads must be >= 1");
  PCN_EXPECT(config_.terminal_shards >= 1,
             "Pcnd: terminal_shards must be >= 1");
  PCN_EXPECT(config_.queue_shards >= 1, "Pcnd: queue_shards must be >= 1");
  PCN_EXPECT(config_.sla_delay_slots >= 0,
             "Pcnd: sla_delay_slots must be >= 0");
  // The queue's priority-eviction deadlines must rank by the same SLA
  // the daemon enforces, so the daemon's bound is authoritative.
  config_.queue.sla_delay_slots = config_.sla_delay_slots;
  terminal_shard_divisor_ =
      Divisor(static_cast<std::uint64_t>(config_.terminal_shards));
  queue_shard_divisor_ =
      Divisor(static_cast<std::uint64_t>(config_.queue_shards));
  if (config_.plan.mode != DelayPlanConfig::Mode::kOff) {
    planner_ = std::make_unique<DelayFeedbackPlanner>(
        config_.plan, config_.capacity, config_.sla_delay_slots);
  }
  const auto ts = static_cast<std::size_t>(config_.terminal_shards);
  const auto qs = static_cast<std::size_t>(config_.queue_shards);
  terminals_.resize(ts);
  intents_.resize(ts, std::vector<std::vector<PageIntent>>(qs));
  queue_shards_.resize(qs);
  apply_outcomes_.resize(ts);
  shard_batch_.resize(ts);
  if (config_.record_flight) {
    obs::FlightRecorderConfig recorder_config;
    recorder_config.sample_every = config_.flight_sample_every;
    recorder_config.shard_capacity = config_.flight_shard_capacity;
    recorder_ = std::make_unique<obs::FlightRecorder>(recorder_config);
    recorder_->ensure_shards(std::max(ts, qs));
  }

  if (config_.timeseries_every_slots > 0) {
    timeseries_ = std::make_unique<obs::TimeseriesRecorder>(
        config_.timeseries_every_slots, config_.timeseries_max_samples);
  }

  if (config_.live_stats) {
    // Pre-size the publish buffers so the occupancy walk never touches
    // the allocator mid-run (first publish included).
    live_stats_scratch_.reserve(1024);
    live_stats_.deepest.reserve(LiveQueueStats::kTopCells);
    live_stats_publish_scratch_.deepest.reserve(LiveQueueStats::kTopCells);
  }

  using namespace detail;
  tallied_[kRequestUpdate] = registry_.counter("daemon.request.update");
  tallied_[kRequestPage] = registry_.counter("daemon.request.page");
  requests_rejected_ = registry_.counter("daemon.request.rejected_ring_full");
  tallied_[kUpdateApplied] = registry_.counter("daemon.update.applied");
  tallied_[kUpdateStale] = registry_.counter("daemon.update.stale");
  tallied_[kPageQueued] = registry_.counter("daemon.page.queued");
  tallied_[kPageDuplicate] = registry_.counter("daemon.page.duplicate");
  tallied_[kPageDropped] = registry_.counter("daemon.page.dropped");
  tallied_[kPageEvicted] = registry_.counter("daemon.page.evicted");
  tallied_[kPageExpired] = registry_.counter("daemon.page.expired");
  tallied_[kPageServed] = registry_.counter("daemon.page.served");
  tallied_[kPageUnknown] = registry_.counter("daemon.page.unknown_terminal");
  tallied_[kSlaViolation] = registry_.counter("daemon.page.sla_violation");
  slots_run_ = registry_.counter("daemon.slot.count");
  wall_ns_ = registry_.counter("daemon.run.wall_ns");
  plan_widen_ = registry_.counter("daemon.plan.widen");
  plan_narrow_ = registry_.counter("daemon.plan.narrow");
  plan_m_gauge_ = registry_.gauge("daemon.plan.effective_m");
  if (planner_ != nullptr) {
    plan_m_gauge_.set(static_cast<double>(planner_->effective_m()));
  }
  max_depth_gauge_ = registry_.gauge("daemon.queue.max_depth");
  pending_gauge_ = registry_.gauge("daemon.queue.depth_pending");
  cells_pending_gauge_ = registry_.gauge("daemon.queue.cells_pending");
  delay_hist_ = registry_.histogram("daemon.page.queue_delay_slots",
                                    obs::exponential_buckets(1.0, 2.0, 16));
  depth_hist_ = registry_.histogram("daemon.queue.depth",
                                    obs::exponential_buckets(1.0, 2.0, 12));
  // 1 µs .. ~0.5 s upper bounds cover a phase at any scale we run.
  const std::vector<double> phase_bounds =
      obs::exponential_buckets(1.0, 2.0, 20);
  phase_ingest_ = registry_.histogram("daemon.phase.ingest_us", phase_bounds);
  phase_apply_ = registry_.histogram("daemon.phase.apply_us", phase_bounds);
  phase_drain_ = registry_.histogram("daemon.phase.drain_us", phase_bounds);
  phase_finalize_ =
      registry_.histogram("daemon.phase.finalize_us", phase_bounds);
}

Pcnd::~Pcnd() = default;

bool Pcnd::submit(const DaemonRequest& request) {
  const std::uint64_t terminal = request_terminal(request);
  if (!ring_.try_push(request)) {
    requests_rejected_.add(1, static_cast<std::size_t>(terminal));
    return false;
  }
  // Producers race here, so these two stay per-request atomic adds.
  tallied_[request.kind == DaemonRequest::Kind::kUpdate
               ? detail::kRequestUpdate
               : detail::kRequestPage]
      .add(1, static_cast<std::size_t>(terminal));
  return true;
}

void Pcnd::ingest_phase() {
  // Planner on: the budget follows the current paging delay bound m
  // (serial, accumulator-carried).  Planner off: the legacy open-loop
  // capacity schedule, bit-for-bit.
  slot_budget_ = planner_ != nullptr
                     ? planner_->budget_for_slot(slot_)
                     : config_.capacity.budget_for_slot(slot_);
  batch_.clear();
  // Bound the drain to one ring's worth so producers racing the slot loop
  // cannot stretch INGEST indefinitely; the remainder is next slot's work.
  DaemonRequest request;
  for (std::size_t n = 0; n < ring_.capacity(); ++n) {
    if (!ring_.try_pop(&request)) break;
    batch_.push_back(request);
  }
  // Producers race each other into the ring, so arrival order is not
  // reproducible — but the *set* per slot is what callers control.  The
  // sort makes processing order a pure function of that set.
  std::stable_sort(batch_.begin(), batch_.end(),
                   [](const DaemonRequest& a, const DaemonRequest& b) {
                     return std::make_tuple(request_terminal(a),
                                            static_cast<int>(a.kind),
                                            a.update.sequence, a.page_id,
                                            a.client) <
                            std::make_tuple(request_terminal(b),
                                            static_cast<int>(b.kind),
                                            b.update.sequence, b.page_id,
                                            b.client);
                   });
  for (auto& bucket : shard_batch_) bucket.clear();
  for (std::size_t i = 0; i < batch_.size(); ++i) {
    const int shard = terminal_shard_of(request_terminal(batch_[i]));
    shard_batch_[static_cast<std::size_t>(shard)].push_back(i);
  }
}

void Pcnd::apply_update(int shard, const proto::LocationUpdate& update,
                        detail::CounterTally& tally) {
  PCN_ASSERT(terminal_shard_of(update.terminal_id) == shard);
  auto [state, inserted] = terminals_[static_cast<std::size_t>(shard)]
                               .try_emplace(terminal_key(update.terminal_id));
  if (!inserted && update.sequence <= state->sequence) {
    // Duplicate or reordered frame on a lossy air interface: the stored
    // state is newer, keep it.
    tally.add(detail::kUpdateStale);
    return;
  }
  state->center = update.cell;
  state->sequence = update.sequence;
  state->radius = update.containment_radius;
  tally.add(detail::kUpdateApplied);
}

void Pcnd::apply_page(int shard, std::int64_t slot, std::uint64_t page_id,
                      std::uint64_t terminal_id, std::uint32_t client,
                      SlotWorkload* workload, detail::SeqTracker* tracker,
                      detail::CounterTally& tally) {
  PCN_ASSERT(terminal_shard_of(terminal_id) == shard);
  const std::uint32_t run = tracker->next(terminal_id);
  const TerminalTable::Entry* state =
      terminals_[static_cast<std::size_t>(shard)].find(
          terminal_key(terminal_id));
  if (state == nullptr) {
    // No center cell on file: the page has nowhere to go.  Verdict now,
    // in the apply phase, owned by the terminal shard's worker.
    settle(detail::kPageUnknown, tally, shard,
           {page_id, terminal_id, proto::PageOutcomeKind::kDropped,
            /*queue_delay_slots=*/0, /*queue_depth=*/0, slot, client},
           {/*seq=*/2 + run, /*cycle=*/-1, /*cells=*/0, /*distance=*/-1},
           apply_outcomes_[static_cast<std::size_t>(shard)], workload);
    return;
  }
  const int qs = queue_shard_of(state->center);
  intents_[static_cast<std::size_t>(shard)][static_cast<std::size_t>(qs)]
      .push_back({state->center, terminal_id, page_id, client});
}

void Pcnd::apply_phase(int worker, int worker_count, std::int64_t slot,
                       SlotWorkload* workload) {
  for (int ts = worker; ts < config_.terminal_shards; ts += worker_count) {
    // One tracker for the shard's ring pages and its generated pages, so
    // a terminal paged from both in one slot gets distinct seq values.
    detail::SeqTracker tracker;
    detail::CounterTally tally(tallied_, static_cast<std::size_t>(ts));
    for (const std::size_t index :
         shard_batch_[static_cast<std::size_t>(ts)]) {
      const DaemonRequest& request = batch_[index];
      if (request.kind == DaemonRequest::Kind::kUpdate) {
        apply_update(ts, request.update, tally);
      } else {
        apply_page(ts, slot, request.page_id, request.terminal_id,
                   request.client, workload, &tracker, tally);
      }
    }
    if (workload != nullptr) {
      RequestSink sink(this, ts, slot, workload, &tracker, &tally);
      workload->generate(ts, config_.terminal_shards, slot, sink);
    }
  }
}

void Pcnd::drain_phase(int worker, int worker_count, std::int64_t slot,
                       SlotWorkload* workload) {
  const auto max_pending =
      static_cast<std::int64_t>(config_.queue.max_pending);
  for (int qs = worker; qs < config_.queue_shards; qs += worker_count) {
    QueueShard& shard = queue_shards_[static_cast<std::size_t>(qs)];
    const auto shard_index = static_cast<std::size_t>(qs);
    detail::CounterTally tally(tallied_, shard_index);

    // Walk this slot's intents in fixed order — terminal shards 0..S-1,
    // list order within each — taking each one's flight-event run and
    // queue here.  Per-queue arrival order and seq values are therefore
    // those of an enqueue-as-you-walk pass, independent of both the
    // thread count and which worker runs this shard.
    shard.walk.clear();
    detail::SeqTracker tracker;
    for (const auto& per_terminal_shard : intents_) {
      for (const PageIntent& intent : per_terminal_shard[shard_index]) {
        const std::uint32_t run = tracker.next(intent.terminal_id);
        shard.walk.push_back(
            {&intent, shard.find_or_add(intent.cell, config_.queue), run});
      }
    }
    // Stable counting sort by queue: after the scatter, queue_end[q] is
    // one past queue q's last staged intent.
    const std::size_t queue_count = shard.queues.size();
    shard.queue_end.assign(queue_count + 1, 0);
    for (const StagedIntent& staged : shard.walk) {
      ++shard.queue_end[staged.queue + 1];
    }
    for (std::size_t q = 1; q <= queue_count; ++q) {
      shard.queue_end[q] += shard.queue_end[q - 1];
    }
    shard.staged.resize(shard.walk.size());
    for (const StagedIntent& staged : shard.walk) {
      shard.staged[shard.queue_end[staged.queue]++] = staged;
    }

    // Visit each queue once, in array order: enqueue its intents, then
    // drain it against the slot budget.  A queue's verdicts depend only
    // on its own arrivals, so the visit order decides nothing but the
    // order of this slot's outcome events.  Each visit starts from a
    // chain of dependent loads (queue object, group heads and links, slab
    // entries), so the loop prefetches them in stages ahead of the visit.
    std::size_t next = 0;
    for (std::uint32_t q = 0; q < queue_count; ++q) {
      if (q + kPrefetchQueueAhead < queue_count) {
        prefetch_object(shard.queues[q + kPrefetchQueueAhead]);
      }
      if (q + kPrefetchLinksAhead < queue_count) {
        shard.queues[q + kPrefetchLinksAhead].prefetch_links();
      }
      if (q + kPrefetchEntriesAhead < queue_count) {
        shard.queues[q + kPrefetchEntriesAhead].prefetch_entries();
      }
      BoundedPagingQueue& queue = shard.queues[q];
      for (; next < shard.queue_end[q]; ++next) {
        const PageIntent& intent = *shard.staged[next].intent;
        const std::uint32_t run = shard.staged[next].run;
        PendingPage page;
        page.terminal_id = intent.terminal_id;
        page.page_id = intent.page_id;
        page.client = intent.client;
        page.enqueued_slot = slot;
        PendingPage evicted;
        const EnqueueResult admit = queue.add(page, &evicted);
        if (admit == EnqueueResult::kEvicted) {
          // The victim lost its place to the incoming page: report it
          // dropped (its client sees a kDropped verdict) before the
          // admitted page's own queued event.  distance=-2 marks an
          // eviction drop apart from a tail drop's -1.
          const std::int64_t age = slot - evicted.enqueued_slot;
          settle(detail::kPageEvicted, tally, qs,
                 {evicted.page_id, evicted.terminal_id,
                  proto::PageOutcomeKind::kDropped, age,
                  static_cast<std::uint32_t>(queue.size()), slot,
                  evicted.client},
                 {/*seq=*/3, static_cast<std::int32_t>(age),
                  /*cells=*/max_pending, /*distance=*/-2},
                 shard.outcomes, workload);
        }
        switch (admit) {
          case EnqueueResult::kEvicted:  // the incoming page was admitted
          case EnqueueResult::kQueued: {
            const auto depth = static_cast<std::int64_t>(queue.size());
            tally.add(detail::kPageQueued);
            shard.depth_tally.add(depth);
            shard.max_depth = std::max(shard.max_depth, depth);
            record_page_event(
                qs, obs::FlightEventType::kPageQueued, slot,
                intent.terminal_id, intent.page_id,
                {/*seq=*/1, /*cycle=*/-1, /*cells=*/depth,
                 /*distance=*/static_cast<std::int64_t>(
                     queue.group_of(intent.terminal_id))},
                /*found=*/false);
            break;
          }
          case EnqueueResult::kRefreshed:
            // The terminal is already pending here; its lifetime was
            // renewed and the original submit's outcome will cover this
            // one too.
            tally.add(detail::kPageDuplicate);
            break;
          case EnqueueResult::kFull:
            settle(detail::kPageDropped, tally, qs,
                   {intent.page_id, intent.terminal_id,
                    proto::PageOutcomeKind::kDropped, /*queue_delay_slots=*/0,
                    static_cast<std::uint32_t>(queue.size()), slot,
                    intent.client},
                   {/*seq=*/2 + run, /*cycle=*/-1, /*cells=*/max_pending,
                    /*distance=*/-1},
                   shard.outcomes, workload);
            break;
        }
      }
      if (queue.empty()) continue;
      shard.served_scratch.clear();
      shard.expired_scratch.clear();
      queue.drain(slot, slot_budget_, &shard.served_scratch,
                  &shard.expired_scratch);
      std::int64_t cell_delay_sum = 0;
      for (const ServedPage& served : shard.served_scratch) {
        const std::int64_t delay = slot - served.page.enqueued_slot;
        cell_delay_sum += delay;
        shard.delay_tally.add(delay);
        settle(detail::kPageServed, tally, qs,
               {served.page.page_id, served.page.terminal_id,
                proto::PageOutcomeKind::kServed, delay,
                static_cast<std::uint32_t>(served.depth_before), slot,
                served.page.client},
               {/*seq=*/4, static_cast<std::int32_t>(delay),
                static_cast<std::int64_t>(served.depth_before),
                /*distance=*/-1},
               shard.outcomes, workload);
      }
      for (const PendingPage& expired : shard.expired_scratch) {
        const std::int64_t age = slot - expired.enqueued_slot;
        settle(detail::kPageExpired, tally, qs,
               {expired.page_id, expired.terminal_id,
                proto::PageOutcomeKind::kExpired, age,
                static_cast<std::uint32_t>(queue.size()), slot,
                expired.client},
               {/*seq=*/4, static_cast<std::int32_t>(age), /*cells=*/0,
                /*distance=*/-1},
               shard.outcomes, workload);
      }
      if (planner_ != nullptr && !shard.served_scratch.empty()) {
        // Staged for the serial FINALIZE fold; the planner's aggregate
        // is commutative, so queue visit order cannot matter.
        shard.planner_samples.push_back(
            {shard.cells[q],
             static_cast<std::int64_t>(shard.served_scratch.size()),
             cell_delay_sum});
      }
    }
    for (auto& per_terminal_shard : intents_) {
      per_terminal_shard[shard_index].clear();
    }
    shard.depth_tally.fold(depth_hist_, shard_index, nullptr);
    shard.delay_tally.fold(delay_hist_, shard_index, &shard.delay_hist);
  }
}

void Pcnd::finalize_phase() {
  if (config_.collect_outcomes) {
    const std::lock_guard<std::mutex> lock(outcomes_mutex_);
    for (auto& outcomes : apply_outcomes_) {
      outcomes_.insert(outcomes_.end(), outcomes.begin(), outcomes.end());
      outcomes.clear();
    }
    for (QueueShard& shard : queue_shards_) {
      outcomes_.insert(outcomes_.end(), shard.outcomes.begin(),
                       shard.outcomes.end());
      shard.outcomes.clear();
    }
  }
  for (const QueueShard& shard : queue_shards_) {
    max_depth_ever_ = std::max(max_depth_ever_, shard.max_depth);
  }
  max_depth_gauge_.set(static_cast<double>(max_depth_ever_));
  if (planner_ != nullptr) {
    for (QueueShard& shard : queue_shards_) {
      for (const CellServeSample& sample : shard.planner_samples) {
        planner_->observe_cell(sample.cell, sample.served, sample.delay_sum);
      }
      shard.planner_samples.clear();
    }
    planner_->end_slot(slot_);
    plan_m_gauge_.set(static_cast<double>(planner_->effective_m()));
    plan_widen_.add(planner_->widen_count() - published_widens_);
    plan_narrow_.add(planner_->narrow_count() - published_narrows_);
    published_widens_ = planner_->widen_count();
    published_narrows_ = planner_->narrow_count();
  }
  if (config_.live_stats &&
      (slot_ % LiveQueueStats::kStrideSlots == 0 || slot_ == run_last_slot_)) {
    // Read-only occupancy walk for the admin plane.  Runs in the serial
    // FINALIZE step, so no queue mutates underneath it.  Strided: the
    // walk touches every queue, so doing it each slot would cost ~1% of
    // a batch run, while every 16th slot (plus the run's last slot, so
    // a finished run always exposes its final state) is still orders of
    // magnitude fresher than any realistic scrape cadence.  Allocation-
    // free in steady state: the walk fills reused member buffers and
    // swaps them with the published copy, so enabling live stats does
    // not perturb the allocator under the hot loop.
    LiveQueueStats& stats = live_stats_publish_scratch_;
    stats.slot = slot_;
    stats.total_pending = 0;
    stats.cells_pending = 0;
    stats.max_depth_ever = max_depth_ever_;
    live_stats_scratch_.clear();
    for (const QueueShard& shard : queue_shards_) {
      for (std::size_t q = 0; q < shard.queues.size(); ++q) {
        const auto depth = static_cast<std::int64_t>(shard.queues[q].size());
        if (depth == 0) continue;
        stats.total_pending += depth;
        ++stats.cells_pending;
        live_stats_scratch_.push_back({shard.cells[q], depth});
      }
    }
    // Cells are unique, so (depth desc, q, r) is a strict total order and
    // the top-K list is the same regardless of queue array order.
    const std::size_t top = std::min(LiveQueueStats::kTopCells,
                                     live_stats_scratch_.size());
    std::partial_sort(
        live_stats_scratch_.begin(), live_stats_scratch_.begin() + top,
        live_stats_scratch_.end(),
        [](const LiveQueueStats::CellDepth& a,
           const LiveQueueStats::CellDepth& b) {
          if (a.depth != b.depth) return a.depth > b.depth;
          if (a.cell.q != b.cell.q) return a.cell.q < b.cell.q;
          return a.cell.r < b.cell.r;
        });
    stats.deepest.assign(live_stats_scratch_.begin(),
                         live_stats_scratch_.begin() + top);
    pending_gauge_.set(static_cast<double>(stats.total_pending));
    cells_pending_gauge_.set(static_cast<double>(stats.cells_pending));
    {
      const std::lock_guard<std::mutex> lock(live_stats_mutex_);
      std::swap(live_stats_, stats);  // old copy becomes the next scratch
    }
  }
  slots_run_.increment();
  ++slot_;
  if (timeseries_ != nullptr &&
      (slot_ % config_.timeseries_every_slots == 0 ||
       slot_ - 1 == run_last_slot_)) {
    // Serial step, after the DRAIN join made every worker's counters for
    // the finished slot visible: the snapshot is a pure function of the slot
    // index, so the capture is bit-identical at any thread count (the
    // recorder's name filter keeps wall-clock series out).
    const std::lock_guard<std::mutex> lock(timeseries_mutex_);
    timeseries_->sample(slot_, registry_.snapshot());
  }
}

LiveQueueStats Pcnd::live_queue_stats() const {
  const std::lock_guard<std::mutex> lock(live_stats_mutex_);
  return live_stats_;
}

std::string Pcnd::timeseries_encoded() const {
  if (timeseries_ == nullptr) {
    obs::Timeseries empty;
    return obs::encode_timeseries_string(empty);
  }
  const std::lock_guard<std::mutex> lock(timeseries_mutex_);
  return obs::encode_timeseries_string(timeseries_->data());
}

void Pcnd::settle(detail::TalliedCounter verdict, detail::CounterTally& tally,
                  int shard, const PageOutcomeEvent& outcome,
                  const FlightFields& flight,
                  std::vector<PageOutcomeEvent>& outcomes,
                  SlotWorkload* workload) {
  const bool served = outcome.kind == proto::PageOutcomeKind::kServed;
  tally.add(verdict);
  if (!served || (config_.sla_delay_slots > 0 &&
                  outcome.queue_delay_slots > config_.sla_delay_slots)) {
    tally.add(detail::kSlaViolation);
  }
  const obs::FlightEventType type =
      served ? obs::FlightEventType::kPageServed
      : outcome.kind == proto::PageOutcomeKind::kExpired
          ? obs::FlightEventType::kPageExpired
          : obs::FlightEventType::kPageDropped;
  record_page_event(shard, type, outcome.slot, outcome.terminal_id,
                    outcome.page_id, flight, /*found=*/served);
  if (config_.collect_outcomes) outcomes.push_back(outcome);
  if (workload != nullptr) {
    workload->on_outcome(outcome.terminal_id, outcome.kind, outcome.slot);
  }
}

void Pcnd::record_page_event(int recorder_shard, obs::FlightEventType type,
                             std::int64_t slot, std::uint64_t terminal_id,
                             std::uint64_t page_id, const FlightFields& flight,
                             bool found) {
  if (recorder_ == nullptr || !recorder_->sampled(page_id)) return;
  obs::FlightEvent event;
  event.slot = slot;
  event.terminal = static_cast<std::int64_t>(terminal_id);
  event.seq = flight.seq;
  event.type = type;
  event.call = page_id;
  event.cycle = flight.cycle;
  event.cells = flight.cells;
  event.distance = flight.distance;
  event.found = found;
  recorder_->shard(static_cast<std::size_t>(recorder_shard)).append(event);
}

void Pcnd::run_slots(std::int64_t slots, SlotWorkload* workload) {
  PCN_EXPECT(slots >= 0, "Pcnd: slots must be >= 0");
  if (slots == 0) return;
  run_last_slot_ = slot_ + slots - 1;
  if (timeseries_ != nullptr && timeseries_->sample_count() == 0) {
    // Baseline sample before the first slot so deltas start from zero.
    const std::lock_guard<std::mutex> lock(timeseries_mutex_);
    timeseries_->sample(slot_, registry_.snapshot());
  }
  const int worker_count = std::max(1, config_.threads);
  // Counts this call's wall time on every exit, a failed phase's too.
  struct WallTimer {
    obs::Counter& wall_ns;
    std::chrono::steady_clock::time_point start;
    ~WallTimer() {
      wall_ns.add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count());
    }
  } const wall_timer{wall_ns_, std::chrono::steady_clock::now()};

  // Calibrate the TSC once before the loop so the first slot's phase
  // timings don't absorb the ~2 ms calibration spin.
  obs::tsc_ticks_per_ns();

  // Per slot: INGEST on this thread, APPLY and DRAIN as one fork-join
  // each on the shard pool, FINALIZE on this thread.  Serialized-TSC
  // stamps between the steps time each phase.  A phase that throws ends
  // the run before FINALIZE, so slot_ does not advance past it.
  for (std::int64_t i = 0; i < slots; ++i) {
    const std::uint64_t ingest_start = obs::serialized_tsc();
    ingest_phase();
    const std::uint64_t apply_start = obs::serialized_tsc();
    phase_ingest_.observe(obs::tsc_delta_us(ingest_start, apply_start));
    const std::int64_t slot = slot_;
    pool_.run(worker_count, [&](int worker) {
      apply_phase(worker, worker_count, slot, workload);
    });
    const std::uint64_t drain_start = obs::serialized_tsc();
    phase_apply_.observe(obs::tsc_delta_us(apply_start, drain_start));
    pool_.run(worker_count, [&](int worker) {
      drain_phase(worker, worker_count, slot, workload);
    });
    const std::uint64_t finalize_start = obs::serialized_tsc();
    phase_drain_.observe(obs::tsc_delta_us(drain_start, finalize_start));
    finalize_phase();
    phase_finalize_.observe(
        obs::tsc_delta_us(finalize_start, obs::serialized_tsc()));
  }
}

void Pcnd::drain_outcomes(std::vector<PageOutcomeEvent>* out) {
  PCN_EXPECT(config_.collect_outcomes,
             "Pcnd: drain_outcomes requires collect_outcomes");
  const std::lock_guard<std::mutex> lock(outcomes_mutex_);
  out->insert(out->end(), outcomes_.begin(), outcomes_.end());
  outcomes_.clear();
}

std::vector<std::int64_t> Pcnd::delay_histogram() const {
  std::vector<std::int64_t> merged;
  for (const QueueShard& shard : queue_shards_) {
    if (merged.size() < shard.delay_hist.size()) {
      merged.resize(shard.delay_hist.size(), 0);
    }
    for (std::size_t i = 0; i < shard.delay_hist.size(); ++i) {
      merged[i] += shard.delay_hist[i];
    }
  }
  return merged;
}

std::size_t Pcnd::terminal_count() const {
  std::size_t total = 0;
  for (const TerminalTable& table : terminals_) total += table.size();
  return total;
}

std::size_t Pcnd::terminal_slots() const {
  std::size_t total = 0;
  for (const TerminalTable& table : terminals_) total += table.capacity();
  return total;
}

Pcnd::TerminalInfo Pcnd::terminal_info(std::uint64_t terminal_id) const {
  const TerminalTable::Entry* state =
      terminals_[static_cast<std::size_t>(terminal_shard_of(terminal_id))]
          .find(terminal_key(terminal_id));
  if (state == nullptr) return {};
  return {true, state->center, state->sequence, state->radius};
}

std::int64_t Pcnd::queue_depth(geometry::Cell cell) const {
  const QueueShard& shard =
      queue_shards_[static_cast<std::size_t>(queue_shard_of(cell))];
  const std::uint32_t q = shard.find(cell);
  return q == QueueShard::kNoQueue
             ? 0
             : static_cast<std::int64_t>(shard.queues[q].size());
}

}  // namespace pcn::daemon
