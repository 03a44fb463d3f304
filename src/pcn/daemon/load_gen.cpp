#include "pcn/daemon/load_gen.hpp"

#include <algorithm>
#include <cstdlib>

#include "pcn/common/error.hpp"
#include "pcn/geometry/hex.hpp"
#include "pcn/sim/simd_engine.hpp"

namespace pcn::daemon {

namespace load_gen_detail {

std::size_t walk_portable(const WalkParams& p, const WalkLanes& s,
                          std::int64_t slot, std::size_t begin,
                          std::size_t end, std::uint32_t* events) {
  const auto wrap = [&p](std::int32_t x) {
    return x < 0 ? x + p.region : x >= p.region ? x - p.region : x;
  };
  std::size_t n = 0;
  end = std::min(end, s.count);
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t t = s.first + i * s.stride;
    const stats::PhiloxWords draw =
        p.rng.block(t, static_cast<std::uint64_t>(slot));
    std::int32_t dq = 0;
    std::int32_t dr = 0;
    if (draw[0] < p.t_move) {
      if (p.two_d) {
        dq = p.dir_q[draw[1] % 6];
        dr = p.dir_r[draw[1] % 6];
      } else {
        dq = (draw[1] & 1u) != 0 ? 1 : -1;
      }
    }
    s.pos_q[i] = wrap(s.pos_q[i] + dq);
    s.pos_r[i] = wrap(s.pos_r[i] + dr);
    const std::int32_t oq = s.off_q[i] + dq;
    const std::int32_t orr = s.off_r[i] + dr;
    const std::int32_t dist =
        p.two_d ? std::max({std::abs(oq), std::abs(orr), std::abs(oq + orr)})
                : std::abs(oq);
    const bool update = dist >= p.threshold;
    s.off_q[i] = update ? 0 : oq;
    s.off_r[i] = update ? 0 : orr;
    const bool call = s.in_flight[i] != kInFlight && draw[2] < p.t_call;
    if (update || call) {
      events[n++] = static_cast<std::uint32_t>(i - begin) << 2 |
                    (update ? kEmitUpdate : 0u) | (call ? kEmitPage : 0u);
    }
  }
  return n;
}

}  // namespace load_gen_detail

namespace {

using load_gen_detail::kEmitPage;
using load_gen_detail::kEmitUpdate;

/// Terminals per walk call: the event words of one chunk fit in L1.
constexpr std::size_t kWalkChunk = 512;

}  // namespace

ClosedLoopWorkload::ClosedLoopWorkload(const ClosedLoopConfig& config)
    : config_(config) {
  PCN_EXPECT(config_.terminals >= 1,
             "ClosedLoopWorkload: terminals must be >= 1");
  PCN_EXPECT(config_.region >= 1, "ClosedLoopWorkload: region must be >= 1");
  PCN_EXPECT(config_.move_prob >= 0.0 && config_.move_prob <= 1.0,
             "ClosedLoopWorkload: move_prob must be in [0, 1]");
  PCN_EXPECT(config_.call_prob >= 0.0 && config_.call_prob <= 1.0,
             "ClosedLoopWorkload: call_prob must be in [0, 1]");
  PCN_EXPECT(config_.threshold >= 1,
             "ClosedLoopWorkload: threshold must be >= 1");
  load_gen_detail::WalkParams& p = walk_params_;
  p.rng = stats::CounterRng::keyed(config.seed, /*salt=*/0x70636e64u);
  p.t_move = stats::threshold32(config.move_prob);
  p.t_call = stats::threshold32(config.call_prob);
  p.threshold = config.threshold;
  p.region = config.region;
  p.two_d = config.dimension == Dimension::kTwoD;
  p.wide_ids = config.terminals > (std::uint64_t{1} << 32);
  const auto& dirs = geometry::hex_directions();
  for (std::size_t k = 0; k < dirs.size(); ++k) {
    p.dir_q[k] = static_cast<std::int32_t>(dirs[k].q);
    p.dir_r[k] = static_cast<std::int32_t>(dirs[k].r);
  }

  walk_ = &load_gen_detail::walk_portable;
  walk_name_ = sim::to_string(sim::SimdIsa::kPortable);
#if PCN_HAVE_AVX2_KERNEL
  const sim::SimdSupport support = sim::simd_support();
  if (support.available && support.isa == sim::SimdIsa::kAvx2) {
    walk_ = &load_gen_detail::walk_avx2;
    walk_name_ = sim::to_string(sim::SimdIsa::kAvx2);
  }
#endif
}

void ClosedLoopWorkload::lay_out(int shard_count) {
  shard_count_ = shard_count;
  shard_divisor_ = Divisor(static_cast<std::uint64_t>(shard_count));
  const auto stride = static_cast<std::uint64_t>(shard_count);
  const auto region = static_cast<std::uint64_t>(config_.region);
  shards_.resize(static_cast<std::size_t>(shard_count));
  for (std::uint64_t s = 0; s < stride; ++s) {
    Shard& shard = shards_[s];
    shard.count = s < config_.terminals
                      ? (config_.terminals - s + stride - 1) / stride
                      : 0;
    const std::size_t lanes = load_gen_detail::padded_lanes(shard.count);
    shard.pos_q.assign(lanes, 0);
    shard.pos_r.assign(lanes, 0);
    shard.off_q.assign(lanes, 0);
    shard.off_r.assign(lanes, 0);
    shard.in_flight.assign(lanes, kIdle);
    shard.sequence.assign(shard.count, 0);
    shard.page_ordinal.assign(shard.count, 0);
    // Deterministic initial scatter across the torus.
    for (std::size_t i = 0; i < shard.count; ++i) {
      const std::uint64_t id = s + i * stride;
      shard.pos_q[i] = static_cast<std::int32_t>(id % region);
      if (walk_params_.two_d) {
        shard.pos_r[i] = static_cast<std::int32_t>(id / region % region);
      }
    }
  }
}

void ClosedLoopWorkload::emit(Shard& shard, std::size_t i,
                              std::uint64_t terminal, std::uint32_t kinds,
                              RequestSink& sink) {
  if ((kinds & kEmitUpdate) != 0) {
    proto::LocationUpdate update;
    update.terminal_id = terminal;
    update.sequence = ++shard.sequence[i];
    update.cell = {shard.pos_q[i], shard.pos_r[i]};
    update.containment_radius = static_cast<std::uint32_t>(config_.threshold);
    sink.update(update);
    ++shard.updates_sent;
  }
  if ((kinds & kEmitPage) != 0) {
    std::uint8_t& flight = shard.in_flight[i];
    if (flight != kIdle) ++shard.settled[flight - kSettled];
    flight = kInFlight;
    const std::uint64_t page_id =
        ++shard.page_ordinal[i] * config_.terminals + terminal + 1;
    sink.page(page_id, terminal);
    ++shard.pages_submitted;
  }
}

void ClosedLoopWorkload::register_shard(Shard& shard, std::uint64_t first,
                                        std::int64_t slot,
                                        RequestSink& sink) {
  // Registration slot: nobody moves, everybody reports its position, and
  // calls arrive as in any other slot.
  const auto stride = static_cast<std::uint64_t>(shard_count_);
  for (std::size_t i = 0; i < shard.count; ++i) {
    const std::uint64_t t = first + i * stride;
    const bool call =
        walk_params_.rng.block(t, static_cast<std::uint64_t>(slot))[2] <
        walk_params_.t_call;
    emit(shard, i, t, kEmitUpdate | (call ? kEmitPage : 0u), sink);
  }
  shard.registered = true;
}

void ClosedLoopWorkload::generate(int shard, int shard_count,
                                  std::int64_t slot, RequestSink& sink) {
  std::call_once(layout_once_, [&] { lay_out(shard_count); });
  PCN_EXPECT(shard_count == shard_count_,
             "ClosedLoopWorkload: shard_count must not change between "
             "generate calls");
  Shard& local = shards_[static_cast<std::size_t>(shard)];
  const auto first = static_cast<std::uint64_t>(shard);
  if (!local.registered) {
    register_shard(local, first, slot, sink);
    return;
  }
  const auto stride = static_cast<std::uint64_t>(shard_count);
  const load_gen_detail::WalkLanes lanes{
      local.pos_q.data(), local.pos_r.data(),     local.off_q.data(),
      local.off_r.data(), local.in_flight.data(), local.count,
      first,              stride};
  const std::size_t padded = local.pos_q.size();
  std::array<std::uint32_t, kWalkChunk> events;
  for (std::size_t begin = 0; begin < local.count; begin += kWalkChunk) {
    const std::size_t end = std::min(begin + kWalkChunk, padded);
    const std::size_t emitted =
        walk_(walk_params_, lanes, slot, begin, end, events.data());
    for (std::size_t k = 0; k < emitted; ++k) {
      const std::size_t i = begin + (events[k] >> 2);
      emit(local, i, first + i * stride, events[k] & (kEmitUpdate | kEmitPage),
           sink);
    }
  }
}

void ClosedLoopWorkload::on_outcome(std::uint64_t terminal_id,
                                    proto::PageOutcomeKind kind,
                                    std::int64_t /*slot*/) {
  PCN_ASSERT(terminal_id < config_.terminals && shard_count_ > 0);
  std::uint8_t& flight =
      shards_[shard_divisor_.remainder(terminal_id)]
          .in_flight[shard_divisor_.quotient(terminal_id)];
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
    for (std::size_t i = 0; i < shard.count; ++i) {
      count += shard.in_flight[i] == parked ? 1 : 0;
    }
  }
  return count;
}

std::int64_t ClosedLoopWorkload::outstanding_count() const {
  std::int64_t count = 0;
  for (const Shard& shard : shards_) {
    for (std::size_t i = 0; i < shard.count; ++i) {
      count += shard.in_flight[i] == kInFlight ? 1 : 0;
    }
  }
  return count;
}

}  // namespace pcn::daemon
