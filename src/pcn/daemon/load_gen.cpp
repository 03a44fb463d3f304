#include "pcn/daemon/load_gen.hpp"

#include "pcn/common/error.hpp"
#include "pcn/geometry/hex.hpp"

namespace pcn::daemon {

namespace {

std::int64_t mod_floor(std::int64_t value, std::int64_t modulus) {
  const std::int64_t m = value % modulus;
  return m < 0 ? m + modulus : m;
}

}  // namespace

ClosedLoopWorkload::ClosedLoopWorkload(const ClosedLoopConfig& config)
    : config_(config),
      rng_(stats::CounterRng::keyed(config.seed, /*salt=*/0x70636e64u)),
      move_threshold_(stats::threshold32(config.move_prob)),
      call_threshold_(stats::threshold32(config.call_prob)) {
  PCN_EXPECT(config_.terminals >= 1,
             "ClosedLoopWorkload: terminals must be >= 1");
  PCN_EXPECT(config_.region >= 1, "ClosedLoopWorkload: region must be >= 1");
  PCN_EXPECT(config_.move_prob >= 0.0 && config_.move_prob <= 1.0,
             "ClosedLoopWorkload: move_prob must be in [0, 1]");
  PCN_EXPECT(config_.call_prob >= 0.0 && config_.call_prob <= 1.0,
             "ClosedLoopWorkload: call_prob must be in [0, 1]");
  PCN_EXPECT(config_.threshold >= 1,
             "ClosedLoopWorkload: threshold must be >= 1");
}

void ClosedLoopWorkload::lay_out(int shard_count) {
  shard_count_ = shard_count;
  const auto stride = static_cast<std::uint64_t>(shard_count);
  const auto region = static_cast<std::int64_t>(config_.region);
  shards_.resize(static_cast<std::size_t>(shard_count));
  for (std::uint64_t s = 0; s < stride; ++s) {
    Shard& shard = shards_[s];
    const std::uint64_t count =
        s < config_.terminals ? (config_.terminals - s + stride - 1) / stride
                              : 0;
    shard.states.resize(count);
    shard.in_flight.assign(count, kIdle);
    // Deterministic initial scatter across the torus.
    for (std::uint64_t i = 0; i < count; ++i) {
      TerminalState& state = shard.states[i];
      const auto id = static_cast<std::int64_t>(s + i * stride);
      state.position.q = id % region;
      state.position.r = config_.dimension == Dimension::kOneD
                             ? 0
                             : (id / region) % region;
      state.reported = state.position;
    }
  }
}

geometry::Cell ClosedLoopWorkload::wrapped(geometry::Cell cell) const {
  const auto region = static_cast<std::int64_t>(config_.region);
  geometry::Cell out;
  out.q = mod_floor(cell.q, region);
  out.r = config_.dimension == Dimension::kOneD ? 0 : mod_floor(cell.r, region);
  return out;
}

void ClosedLoopWorkload::generate(int shard, int shard_count,
                                  std::int64_t slot, RequestSink& sink) {
  std::call_once(layout_once_, [&] { lay_out(shard_count); });
  PCN_EXPECT(shard_count == shard_count_,
             "ClosedLoopWorkload: shard_count must not change between "
             "generate calls");
  Shard& local = shards_[static_cast<std::size_t>(shard)];
  const auto n = config_.terminals;
  const bool one_d = config_.dimension == Dimension::kOneD;
  std::int64_t updates = 0;
  std::int64_t pages = 0;
  auto t = static_cast<std::uint64_t>(shard);
  for (std::size_t i = 0; i < local.states.size();
       ++i, t += static_cast<std::uint64_t>(shard_count)) {
    TerminalState& state = local.states[i];
    const stats::PhiloxWords draw =
        rng_.block(t, static_cast<std::uint64_t>(slot));

    bool moved = false;
    if (state.registered && draw[0] < move_threshold_) {
      if (one_d) {
        state.position.q += (draw[1] & 1u) != 0 ? 1 : -1;
      } else {
        state.position = geometry::hex_add(
            state.position, geometry::hex_directions()[draw[1] % 6]);
      }
      moved = true;
    }

    // A terminal that did not move kept its distance from the reported
    // position, which was already below d.
    const bool must_update =
        !state.registered ||
        (moved && geometry::cell_distance(config_.dimension, state.position,
                                          state.reported) >=
                      static_cast<std::int64_t>(config_.threshold));
    if (must_update) {
      proto::LocationUpdate update;
      update.terminal_id = t;
      update.sequence = ++state.sequence;
      update.cell = wrapped(state.position);
      update.containment_radius =
          static_cast<std::uint32_t>(config_.threshold);
      sink.update(update);
      state.reported = state.position;
      state.registered = true;
      ++updates;
    }

    std::uint8_t& flight = local.in_flight[i];
    if (flight != kInFlight && draw[2] < call_threshold_) {
      if (flight != kIdle) ++local.settled[flight - kSettled];
      flight = kInFlight;
      ++state.page_ordinal;
      const std::uint64_t page_id = state.page_ordinal * n + t + 1;
      sink.page(page_id, t);
      ++pages;
    }
  }
  local.updates_sent += updates;
  local.pages_submitted += pages;
}

void ClosedLoopWorkload::on_outcome(std::uint64_t terminal_id,
                                    proto::PageOutcomeKind kind,
                                    std::int64_t /*slot*/) {
  PCN_ASSERT(terminal_id < config_.terminals && shard_count_ > 0);
  const auto stride = static_cast<std::uint64_t>(shard_count_);
  std::uint8_t& flight =
      shards_[terminal_id % stride].in_flight[terminal_id / stride];
  PCN_ASSERT(flight == kInFlight);
  // kRejected only reaches socket-fed loops (a full request ring answers
  // the submit immediately); like any verdict it frees the terminal.
  const auto kind_index = static_cast<std::uint8_t>(kind) - 1u;
  PCN_ASSERT(kind_index < kOutcomeKinds);
  flight = static_cast<std::uint8_t>(kSettled + kind_index);
}

std::int64_t ClosedLoopWorkload::pages_submitted() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.pages_submitted;
  return total;
}

std::int64_t ClosedLoopWorkload::updates_sent() const {
  std::int64_t total = 0;
  for (const Shard& shard : shards_) total += shard.updates_sent;
  return total;
}

std::int64_t ClosedLoopWorkload::outcome_count(
    proto::PageOutcomeKind kind) const {
  const auto kind_index = static_cast<std::size_t>(kind) - 1;
  const auto parked = static_cast<std::uint8_t>(kSettled + kind_index);
  std::int64_t count = 0;
  for (const Shard& shard : shards_) {
    count += shard.settled[kind_index];
    for (const std::uint8_t flight : shard.in_flight) {
      count += flight == parked ? 1 : 0;
    }
  }
  return count;
}

std::int64_t ClosedLoopWorkload::outstanding_count() const {
  std::int64_t count = 0;
  for (const Shard& shard : shards_) {
    for (const std::uint8_t flight : shard.in_flight) {
      count += flight == kInFlight ? 1 : 0;
    }
  }
  return count;
}

}  // namespace pcn::daemon
