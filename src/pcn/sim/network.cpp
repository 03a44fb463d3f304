#include "pcn/sim/network.hpp"

#include <algorithm>
#include <exception>
#include <optional>
#include <thread>

#include "pcn/common/error.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/proto/messages.hpp"
#include "pcn/sim/runtime_stats.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace {

/// Minimum slots x terminals in an event-free range before spawning shard
/// workers pays for itself; smaller ranges run inline.
constexpr std::int64_t kParallelWorkFloor = 1 << 14;

using pcn::sim::obs_detail::kPageSampleEvery;

}  // namespace

namespace pcn::sim {

TerminalSpec make_distance_terminal(Dimension dim, MobilityProfile profile,
                                    int threshold, DelayBound bound) {
  profile.validate();
  TerminalSpec spec;
  spec.call_prob = profile.call_prob;
  spec.mobility = std::make_unique<RandomWalk>(dim, profile.move_prob);
  spec.update_policy = std::make_unique<DistanceUpdatePolicy>(dim, threshold);
  spec.paging_policy = std::make_unique<SdfSequentialPaging>(dim, bound);
  spec.knowledge_kind = KnowledgeKind::kFixedDisk;
  spec.knowledge_radius = threshold;
  return spec;
}

TerminalSpec make_movement_terminal(Dimension dim, MobilityProfile profile,
                                    int max_moves, DelayBound bound) {
  profile.validate();
  TerminalSpec spec;
  spec.call_prob = profile.call_prob;
  spec.mobility = std::make_unique<RandomWalk>(dim, profile.move_prob);
  spec.update_policy = std::make_unique<MovementUpdatePolicy>(max_moves);
  spec.paging_policy = std::make_unique<SdfSequentialPaging>(dim, bound);
  spec.knowledge_kind = KnowledgeKind::kFixedDisk;
  // The policy updates the moment the crossing count reaches max_moves, so
  // between updates the count — and hence the ring distance — is at most
  // max_moves − 1.
  spec.knowledge_radius = max_moves - 1;
  return spec;
}

TerminalSpec make_time_terminal(Dimension dim, MobilityProfile profile,
                                SimTime period, int rings_per_cycle) {
  profile.validate();
  TerminalSpec spec;
  spec.call_prob = profile.call_prob;
  spec.mobility = std::make_unique<RandomWalk>(dim, profile.move_prob);
  spec.update_policy = std::make_unique<TimeUpdatePolicy>(period);
  spec.paging_policy =
      std::make_unique<ExpandingRingPaging>(dim, rings_per_cycle);
  spec.knowledge_kind = KnowledgeKind::kGrowingDisk;
  spec.knowledge_radius = static_cast<int>(period);
  return spec;
}

TerminalSpec make_la_terminal(Dimension dim, MobilityProfile profile,
                              int la_radius) {
  profile.validate();
  TerminalSpec spec;
  spec.call_prob = profile.call_prob;
  spec.mobility = std::make_unique<RandomWalk>(dim, profile.move_prob);
  spec.update_policy = std::make_unique<LaUpdatePolicy>(dim, la_radius);
  spec.paging_policy = std::make_unique<BlanketPaging>(dim);
  spec.knowledge_kind = KnowledgeKind::kLocationArea;
  spec.knowledge_radius = la_radius;
  return spec;
}

Network::Network(NetworkConfig config, CostWeights weights)
    : config_(config),
      weights_(weights),
      server_(config.dimension),
      draws_(config.seed),
      registry_(std::make_unique<obs::MetricsRegistry>()) {
  weights_.validate();
  PCN_EXPECT(config.update_loss_prob >= 0.0 && config.update_loss_prob < 1.0,
             "Network: update_loss_prob must lie in [0, 1)");
  PCN_EXPECT(config.threads >= 0, "Network: threads must be >= 0");
  PCN_EXPECT(config.flight_sample_every >= 1,
             "Network: flight_sample_every must be >= 1");
  PCN_EXPECT(config_.timeseries_every_slots >= 0,
             "Network: timeseries_every_slots must be >= 0");
  if (config_.timeseries_every_slots > 0) {
    // A timeline of an empty registry is useless: capture implies the
    // runtime counters that populate it.
    config_.collect_runtime_stats = true;
    timeseries_ = std::make_unique<obs::TimeseriesRecorder>(
        config_.timeseries_every_slots);
  }
  if (config_.collect_runtime_stats) {
    stats_ = std::make_unique<obs_detail::RuntimeStats>(*registry_);
  }
  if (config_.record_flight) {
    obs::FlightRecorderConfig flight_config;
    flight_config.sample_every = config_.flight_sample_every;
    if (config_.flight_shard_capacity > 0) {
      flight_config.shard_capacity = config_.flight_shard_capacity;
    }
    flight_ = std::make_unique<obs::FlightRecorder>(flight_config);
  }
}

Network::~Network() = default;

TerminalId Network::add_terminal(TerminalSpec spec) {
  PCN_EXPECT(spec.mobility && spec.update_policy && spec.paging_policy,
             "Network::add_terminal: incomplete terminal spec");
  const auto id = static_cast<TerminalId>(attachments_.size());
  const SimTime now = events_.now();

  spec.update_policy->on_center_reset(spec.start, now);
  if (const auto radius = spec.update_policy->containment_radius()) {
    spec.knowledge_radius = *radius;
  }
  server_.register_terminal(id, spec.knowledge_kind, spec.knowledge_radius,
                            spec.start, now);

  Attachment attachment;
  attachment.terminal = std::make_unique<Terminal>(
      id, spec.start, spec.call_prob, std::move(spec.mobility),
      std::move(spec.update_policy));
  attachment.paging = std::move(spec.paging_policy);
  attachments_.push_back(std::move(attachment));
  return id;
}

void Network::run(std::int64_t slots) {
  PCN_EXPECT(slots >= 0, "Network::run: slot count must be >= 0");
  select_engine();
  std::optional<obs::ScopedTimer> run_timer;
  if (stats_ != nullptr) {
    stats_->run_count.increment();
    stats_->run_slots.add(slots);
    run_timer.emplace(stats_->run_wall_ns);
  }
  const SimTime end = events_.now() + slots;
  Scratch scratch;
  if (flight_ != nullptr) {
    // One shard per possible worker (shard 0 doubles as the inline shard);
    // preallocated here, before any worker thread exists.
    const std::size_t shards = std::max<std::size_t>(
        1, std::min<std::size_t>(
               static_cast<std::size_t>(resolved_threads()),
               std::max<std::size_t>(1, attachments_.size())));
    flight_->ensure_shards(shards);
    scratch.flight = &flight_->shard(0);
  }
  // Direct slot loop (no per-slot kernel event): user-scheduled events due
  // at or before a slot run first, then the slot's terminal work — the same
  // order the old self-rescheduling tick produced.  Ranges with no queued
  // events are handed to run_segment, which may fan terminals out across
  // shard workers.
  SimTime t = events_.now();
  const std::int64_t every = config_.timeseries_every_slots;
  if (timeseries_ != nullptr) {
    timeseries_->reserve(static_cast<std::size_t>(slots / every) + 2);
    if (timeseries_->sample_count() == 0) {
      // Baseline sample before the first slot so deltas start from zero.
      timeseries_->sample(t, registry_->snapshot());
    }
  }
  while (t < end) {
    SimTime range_end = end;
    if (!events_.empty()) {
      range_end = std::min(range_end, events_.next_time() - 1);
    }
    if (timeseries_ != nullptr) {
      // Stop each event-free segment at the next sampling boundary, so
      // every terminal has finished the boundary slot — and every shard
      // worker has flushed its tally — before the snapshot is taken.
      range_end = std::min(range_end, ((t / every) + 1) * every);
    }
    if (range_end > t) {
      run_segment(t + 1, range_end, scratch);
      t = range_end;
    } else {
      events_.run_until(t + 1);
      // User events may have re-targeted policies (set_threshold) or
      // attached terminals; the next event-free segment re-verifies the
      // fleet before taking the fast path.
      if (simd_ != nullptr) fastpath_revalidate_ = true;
      process_slot(t + 1, scratch);
      t = t + 1;
    }
    if (timeseries_ != nullptr && (t % every == 0 || t == end)) {
      // The inline scratch tally is the only state not yet flushed (shard
      // workers flush at segment end); fold it in so the sample at slot t
      // reflects every completed slot exactly.
      if (stats_ != nullptr) stats_->flush(scratch.tally, scratch.shard);
      timeseries_->sample(t, registry_->snapshot());
    }
  }
  events_.run_until(end);  // drains nothing; syncs the kernel clock
  if (stats_ != nullptr) stats_->flush(scratch.tally, scratch.shard);
}

int Network::resolved_threads() const {
  if (config_.threads != 0) return config_.threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

const char* Network::simd_isa_name() const {
  return simd_ != nullptr ? to_string(simd_->isa()) : nullptr;
}

std::size_t Network::simd_bytes_per_terminal() const {
  return simd_ != nullptr ? simd_->bytes_per_terminal() : 0;
}

void Network::select_engine() {
  simd_.reset();
  fastpath_revalidate_ = false;
  if (config_.engine == SimEngine::kReference) return;
  // Both engines follow the same draw contract, so kAuto may take the
  // lane engine whenever it can run and fall back silently otherwise.
  auto engine = std::make_unique<SimdEngine>(*this);
  std::string why;
  if (engine->prepare(&why)) {
    simd_ = std::move(engine);
  } else if (config_.engine == SimEngine::kSimd) {
    detail::throw_invalid_argument("Network: simd engine: " + why);
  }
}

void Network::run_segment(SimTime first, SimTime last, Scratch& scratch) {
  const int threads = resolved_threads();
  const std::int64_t work =
      (last - first + 1) * static_cast<std::int64_t>(attachments_.size());
  // An attached observer forces the slot-major order so callbacks arrive in
  // the documented (slot, terminal) sequence.
  const bool inline_run = threads <= 1 || observer_ != nullptr ||
                          attachments_.size() < 2 ||
                          work < kParallelWorkFloor;
  std::optional<obs::ScopedTimer> segment_timer;
  if (stats_ != nullptr) {
    stats_->segment_count.increment();
    if (!inline_run) stats_->segment_parallel.increment();
    segment_timer.emplace(stats_->segment_wall_ns);
  }
  if (fastpath_revalidate_ && simd_ != nullptr) {
    // Events ran since the fast path was selected; re-verify the fleet.
    fastpath_revalidate_ = false;
    std::string why;
    if (!simd_->prepare(&why)) {
      if (config_.engine == SimEngine::kSimd) {
        detail::throw_invalid_argument("Network: simd engine: " + why);
      }
      simd_.reset();
    }
  }
  if (simd_ != nullptr) {
    simd_->run_segment(first, last, scratch, !inline_run);
  } else if (inline_run) {
    for (SimTime t = first; t <= last; ++t) process_slot(t, scratch);
  } else {
    const std::size_t shards = std::min<std::size_t>(
        static_cast<std::size_t>(threads), attachments_.size());
    std::vector<std::exception_ptr> errors(shards);
    std::vector<std::thread> workers;
    workers.reserve(shards - 1);
    auto shard_begin = [&](std::size_t s) {
      return attachments_.size() * s / shards;
    };
    for (std::size_t s = 1; s < shards; ++s) {
      workers.emplace_back([this, s, first, last, &shard_begin, &errors] {
        Scratch local;
        local.shard = s;
        if (flight_ != nullptr) local.flight = &flight_->shard(s);
        try {
          run_shard(shard_begin(s), shard_begin(s + 1), first, last, local);
        } catch (...) {
          errors[s] = std::current_exception();
        }
      });
    }
    try {
      run_shard(shard_begin(0), shard_begin(1), first, last, scratch);
    } catch (...) {
      errors[0] = std::current_exception();
    }
    for (std::thread& worker : workers) worker.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
  events_.run_until(last);  // no events in the range; syncs the clock
}

void Network::run_shard(std::size_t begin, std::size_t end, SimTime first,
                        SimTime last, Scratch& scratch) {
  std::optional<obs::ScopedTimer> shard_timer;
  if (stats_ != nullptr) {
    shard_timer.emplace(stats_->shard_wall_ns, scratch.shard);
  }
  // Terminal-major: each terminal's whole slot range in one pass.  Because
  // terminals share no mutable state, this produces exactly the metrics of
  // the slot-major order, with better locality and no synchronization.
  for (std::size_t i = begin; i < end; ++i) {
    Attachment& attachment = attachments_[i];
    for (SimTime t = first; t <= last; ++t) {
      process_terminal(attachment, t, scratch);
    }
  }
  if (stats_ != nullptr) {
    scratch.tally.terminal_slots +=
        (last - first + 1) * static_cast<std::int64_t>(end - begin);
    // Flush here, not just at run() end: worker-local scratches die with
    // the segment.
    stats_->flush(scratch.tally, scratch.shard);
  }
}

void Network::process_slot(SimTime now, Scratch& scratch) {
  for (Attachment& attachment : attachments_) {
    process_terminal(attachment, now, scratch);
  }
  if (stats_ != nullptr) {
    scratch.tally.terminal_slots +=
        static_cast<std::int64_t>(attachments_.size());
  }
}

void Network::process_terminal(Attachment& attachment, SimTime now,
                               Scratch& scratch) {
  Terminal& terminal = *attachment.terminal;
  TerminalMetrics& metrics = attachment.metrics;
  // Restart the flight-recorder sequence for this (terminal, slot): events
  // a terminal emits within a slot are numbered 0.. in emission order, so
  // the (slot, terminal, seq) key is independent of sharding.
  scratch.flight_seq = 0;
  const double q = terminal.mobility().move_probability(now);
  const double c = terminal.call_probability();
  const bool chain = config_.semantics == SlotSemantics::kChainFaithful;
  // Chain-faithful: one draw resolves the competing events — call with
  // probability c, a move with probability q, otherwise the terminal
  // idles, exactly the chain's transition structure.
  PCN_EXPECT(!chain || q + c <= 1.0,
             "Network: chain-faithful semantics needs q + c <= 1");
  const stats::SlotDraws::Slot draw = draws_.draw(
      static_cast<std::uint64_t>(terminal.id()), now, chain,
      config_.dimension == Dimension::kTwoD, stats::threshold32(c),
      stats::threshold32(chain ? c + q : q));
  const bool called = draw.called;
  const bool moved = draw.moved;

  if (moved) {
    const geometry::Cell from = terminal.position();
    terminal.move_to(
        terminal.mobility().move_target(from, now, draw.neighbor));
    ++metrics.moves;
    if (stats_ != nullptr) ++scratch.tally.moves;
    if (observer_ != nullptr) {
      observer_->on_move(terminal.id(), now, from, terminal.position());
    }
  }
  terminal.update_policy().on_slot(terminal.position(), moved, now);
  if (terminal.update_policy().update_due(terminal.position(), now)) {
    send_update(attachment, now, scratch);
  }
  if (called) deliver_call(attachment, now, scratch);

  ++metrics.slots;
  metrics.ring_distance.add(static_cast<int>(geometry::cell_distance(
      config_.dimension, terminal.position(),
      server_.knowledge(terminal.id()).center)));
  if (observer_ != nullptr) {
    observer_->on_slot_end(terminal.id(), now, terminal.position());
  }
}

void Network::send_update(Attachment& attachment, SimTime now,
                          Scratch& scratch) {
  Terminal& terminal = *attachment.terminal;
  // Sampled by the update ordinal (the pre-increment count), so the
  // decision is deterministic and thread-count independent.
  const bool record = scratch.flight != nullptr &&
                      flight_->sampled(attachment.metrics.updates);
  std::int64_t prior_distance = -1;
  if (record) {
    prior_distance = geometry::cell_distance(
        config_.dimension, terminal.position(),
        server_.knowledge(terminal.id()).center);
  }
  ++attachment.metrics.updates;
  // Costs are weight x count, never running sums, so every engine and
  // every run segmentation lands on the same bits.
  attachment.metrics.update_cost =
      weights_.update_cost * static_cast<double>(attachment.metrics.updates);
  if (stats_ != nullptr) ++scratch.tally.updates;
  const bool lost =
      config_.update_loss_prob > 0.0 &&
      draws_.update_lost(static_cast<std::uint64_t>(terminal.id()), now,
                         stats::threshold32(config_.update_loss_prob));
  if (lost) {
    // No acknowledgement: the network never saw the frame; the policy's
    // trigger condition stays unsatisfied, so the terminal retries on the
    // next slot.  The transmission cost is already paid.
    ++attachment.metrics.lost_updates;
    if (stats_ != nullptr) ++scratch.tally.updates_lost;
    if (record) {
      obs::FlightEvent event;
      event.slot = now;
      event.terminal = terminal.id();
      event.seq = scratch.flight_seq++;
      event.type = obs::FlightEventType::kUpdateLost;
      event.cost = weights_.update_cost;
      event.distance = prior_distance;
      scratch.flight->append(event);
    }
    return;
  }
  server_.on_update(terminal.id(), terminal.position(), now);
  terminal.update_policy().on_center_reset(terminal.position(), now);
  if (const auto radius = terminal.update_policy().containment_radius()) {
    server_.set_radius(terminal.id(), *radius);
  }
  if (record) {
    obs::FlightEvent update_event;
    update_event.slot = now;
    update_event.terminal = terminal.id();
    update_event.seq = scratch.flight_seq++;
    update_event.type = obs::FlightEventType::kLocationUpdate;
    update_event.cost = weights_.update_cost;
    update_event.distance = prior_distance;
    scratch.flight->append(update_event);
    obs::FlightEvent reset_event;
    reset_event.slot = now;
    reset_event.terminal = terminal.id();
    reset_event.seq = scratch.flight_seq++;
    reset_event.type = obs::FlightEventType::kAreaReset;
    reset_event.cells = server_.knowledge(terminal.id()).radius;
    scratch.flight->append(reset_event);
  }
  if (config_.count_signalling_bytes) {
    proto::LocationUpdate message;
    message.terminal_id = static_cast<std::uint64_t>(terminal.id());
    message.sequence =
        static_cast<std::uint64_t>(attachment.metrics.updates);
    message.cell = terminal.position();
    message.containment_radius = static_cast<std::uint32_t>(
        server_.knowledge(terminal.id()).radius);
    attachment.metrics.update_bytes +=
        static_cast<std::int64_t>(proto::encoded_size(message));
  }
  if (observer_ != nullptr) {
    observer_->on_update(terminal.id(), now, terminal.position());
  }
}

void Network::deliver_call(Attachment& attachment, SimTime now,
                           Scratch& scratch) {
  Terminal& terminal = *attachment.terminal;
  TerminalMetrics& metrics = attachment.metrics;
  const Knowledge& knowledge = server_.knowledge(terminal.id());

  const std::uint64_t page_id = attachment.next_page_id++;
  const std::int64_t polled_before = metrics.polled_cells;
  // Flight recording samples whole call lifecycles by the per-terminal
  // call ordinal (page_id): all events of a sampled call are recorded, so
  // the recording is an unbiased 1-in-N sample of complete lifecycles.
  const bool record =
      scratch.flight != nullptr && flight_->sampled(page_id);
  std::int64_t arrival_distance = -1;
  if (record) {
    arrival_distance = geometry::cell_distance(
        config_.dimension, terminal.position(), knowledge.center);
    obs::FlightEvent event;
    event.slot = now;
    event.terminal = terminal.id();
    event.seq = scratch.flight_seq++;
    event.type = obs::FlightEventType::kCallArrival;
    event.call = page_id;
    event.cells = knowledge.radius_at(now);
    event.distance = arrival_distance;
    scratch.flight->append(event);
  }
  // The paging fan-out is the expensive rare path: time every Nth page so
  // the clock reads stay off the common path (counts stay exact via the
  // tally; sim.page.sampled records the sampling denominator).
  const bool sampled =
      stats_ != nullptr &&
      scratch.tally.page_tick++ % kPageSampleEvery == 0;
  std::optional<obs::ScopedTimer> page_timer;
  if (sampled) {
    ++scratch.tally.page_sampled;
    page_timer.emplace(stats_->page_wall_ns, scratch.shard);
  }
  // One scratch buffer holds every polling group of the page; clear+refill
  // reuses its capacity, so steady-state paging performs no allocations.
  std::vector<geometry::Cell>& group = scratch.poll_group;
  auto poll_group = [&](int cycle) {
    metrics.polled_cells += static_cast<std::int64_t>(group.size());
    metrics.paging_cost =
        weights_.poll_cost * static_cast<double>(metrics.polled_cells);
    if (stats_ != nullptr) {
      scratch.tally.polled_cells += static_cast<std::int64_t>(group.size());
    }
    if (config_.count_signalling_bytes) {
      proto::PageRequest request;
      request.page_id = page_id;
      request.terminal_id = static_cast<std::uint64_t>(terminal.id());
      request.cycle = static_cast<std::uint32_t>(cycle);
      request.cells = std::move(group);
      metrics.paging_bytes +=
          static_cast<std::int64_t>(proto::encoded_size(request));
      group = std::move(request.cells);  // reclaim the buffer
    }
    return std::find(group.begin(), group.end(), terminal.position()) !=
           group.end();
  };
  // Per-cycle flight event; the ring scan touches only sampled calls.
  // (poll_group moves the buffer out and back, so `group` is intact here.)
  auto record_cycle = [&](int cycle, bool hit) {
    obs::FlightEvent event;
    event.slot = now;
    event.terminal = terminal.id();
    event.seq = scratch.flight_seq++;
    event.type = obs::FlightEventType::kPollCycle;
    event.call = page_id;
    event.cycle = cycle;
    event.cells = static_cast<std::int64_t>(group.size());
    event.cost = weights_.poll_cost * static_cast<double>(group.size());
    for (const geometry::Cell& cell : group) {
      const auto ring = static_cast<std::int32_t>(geometry::cell_distance(
          config_.dimension, knowledge.center, cell));
      if (event.ring_lo == -1 || ring < event.ring_lo) event.ring_lo = ring;
      if (ring > event.ring_hi) event.ring_hi = ring;
    }
    event.found = hit;
    scratch.flight->append(event);
  };

  int cycles_used = 0;
  bool located = false;
  bool fell_back = false;
  for (int cycle = 0;; ++cycle) {
    group.clear();
    attachment.paging->append_polling_group(knowledge, now, cycle, group);
    if (group.empty()) break;  // schedule exhausted
    const bool hit = poll_group(cycle);
    if (record) record_cycle(cycle, hit);
    if (hit) {
      cycles_used = cycle + 1;
      located = true;
      break;
    }
  }
  if (!located) {
    fell_back = true;
    // Without loss injection the containment invariant makes this
    // unreachable; with lost updates the knowledge can be stale, and the
    // network recovers by expanding-ring paging outward from the stale
    // center until the terminal answers.
    PCN_ASSERT(config_.update_loss_prob > 0.0);
    ++metrics.paging_failures;
    if (stats_ != nullptr) ++scratch.tally.page_fallbacks;
    int cycle = attachment.paging->delay_bound().is_unbounded()
                    ? 0
                    : attachment.paging->delay_bound().cycles();
    const int stale_radius = knowledge.radius_at(now);
    if (record) {
      obs::FlightEvent event;
      event.slot = now;
      event.terminal = terminal.id();
      event.seq = scratch.flight_seq++;
      event.type = obs::FlightEventType::kPageFallback;
      event.call = page_id;
      event.cycle = cycle;
      event.distance = stale_radius;
      scratch.flight->append(event);
    }
    for (int ring = stale_radius + 1;; ++ring, ++cycle) {
      group.clear();
      geometry::append_cell_ring(config_.dimension, knowledge.center, ring,
                                 group);
      const bool hit = poll_group(cycle);
      if (record) record_cycle(cycle, hit);
      if (hit) {
        cycles_used = cycle + 1;
        located = true;
        break;
      }
    }
  }
  if (record) {
    obs::FlightEvent event;
    event.slot = now;
    event.terminal = terminal.id();
    event.seq = scratch.flight_seq++;
    event.type = obs::FlightEventType::kCallFound;
    event.call = page_id;
    event.cycle = cycles_used;
    event.cells = metrics.polled_cells - polled_before;
    event.cost = weights_.poll_cost *
                 static_cast<double>(metrics.polled_cells - polled_before);
    event.distance = arrival_distance;
    event.found = !fell_back;
    scratch.flight->append(event);
  }
  if (config_.count_signalling_bytes) {
    proto::PageResponse response;
    response.page_id = page_id;
    response.terminal_id = static_cast<std::uint64_t>(terminal.id());
    response.cell = terminal.position();
    metrics.paging_bytes +=
        static_cast<std::int64_t>(proto::encoded_size(response));
  }

  const DelayBound bound = attachment.paging->delay_bound();
  PCN_ASSERT(config_.update_loss_prob > 0.0 || bound.is_unbounded() ||
             cycles_used <= bound.cycles());
  metrics.paging_cycles.add(cycles_used);
  ++metrics.calls;
  if (stats_ != nullptr) {
    ++scratch.tally.pages;
    if (sampled) {
      stats_->page_cycles.observe(static_cast<double>(cycles_used),
                                  scratch.shard);
      stats_->page_polled.observe(
          static_cast<double>(metrics.polled_cells - polled_before),
          scratch.shard);
    }
  }

  server_.on_located(terminal.id(), terminal.position(), now);
  terminal.update_policy().on_call(now);
  terminal.update_policy().on_center_reset(terminal.position(), now);
  if (const auto radius = terminal.update_policy().containment_radius()) {
    server_.set_radius(terminal.id(), *radius);
  }
  if (observer_ != nullptr) {
    observer_->on_call(terminal.id(), now, terminal.position(), cycles_used,
                       metrics.polled_cells - polled_before);
  }
}

const TerminalMetrics& Network::metrics(TerminalId id) const {
  PCN_EXPECT(id >= 0 && static_cast<std::size_t>(id) < attachments_.size(),
             "Network::metrics: unknown terminal");
  return attachments_[static_cast<std::size_t>(id)].metrics;
}

const Terminal& Network::terminal(TerminalId id) const {
  PCN_EXPECT(id >= 0 && static_cast<std::size_t>(id) < attachments_.size(),
             "Network::terminal: unknown terminal");
  return *attachments_[static_cast<std::size_t>(id)].terminal;
}

const PagingPolicy& Network::paging_policy(TerminalId id) const {
  PCN_EXPECT(id >= 0 && static_cast<std::size_t>(id) < attachments_.size(),
             "Network::paging_policy: unknown terminal");
  return *attachments_[static_cast<std::size_t>(id)].paging;
}

}  // namespace pcn::sim
