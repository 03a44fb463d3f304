#include "pcn/sim/simd_engine.hpp"

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <optional>
#include <string_view>
#include <thread>

#include "pcn/geometry/cell.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/sim/runtime_stats.hpp"
#include "pcn/sim/simd_kernel.hpp"
#include "pcn/sim/terminal.hpp"
#include "pcn/sim/update_policy.hpp"

namespace pcn::sim {

namespace {

using simd_detail::kLanes;
using simd_detail::KernelParams;
using simd_detail::LaneBlock;

/// Terminals per cache-blocked batch (a multiple of kLanes).  The batch's
/// dynamic lane state plus its slice of the static plan arrays stay well
/// inside a per-core L2 while the kernels stream over the slot range.
constexpr std::size_t kBatchLanes = 512;

/// Per-shard reusable lane scratch: the dynamic state, accumulators and
/// per-terminal histogram rows of one batch.
struct BatchScratch {
  std::vector<std::int32_t> rel_q, rel_r;
  std::vector<std::int64_t> cen_q, cen_r;
  std::vector<std::int64_t> since;
  std::vector<std::uint64_t> page_id;
  std::vector<std::uint8_t> dirty;
  std::vector<std::int64_t> moves, updates, calls, polled;
  std::vector<std::int64_t> upd_bytes, page_bytes;
  /// metrics.updates at batch load (updates runs as an absolute ordinal
  /// so the frame sequence numbers continue across segments).
  std::vector<std::int64_t> upd_base;
  std::vector<std::int64_t> rd_rows, pc_rows;

  BatchScratch(std::size_t lanes, std::size_t rd_stride,
               std::size_t pc_stride)
      : rel_q(lanes),
        rel_r(lanes),
        cen_q(lanes),
        cen_r(lanes),
        since(lanes),
        page_id(lanes),
        dirty(lanes),
        moves(lanes),
        updates(lanes),
        calls(lanes),
        polled(lanes),
        upd_bytes(lanes),
        page_bytes(lanes),
        upd_base(lanes),
        rd_rows(lanes * rd_stride),
        pc_rows(lanes * pc_stride) {}
};

}  // namespace

const char* to_string(SimdIsa isa) {
  switch (isa) {
    case SimdIsa::kAvx2:
      return "avx2";
    case SimdIsa::kPortable:
      return "portable";
  }
  return "unknown";
}

SimdSupport simd_support() {
  bool have_avx2 = false;
#if PCN_HAVE_AVX2_KERNEL
#if defined(__x86_64__) || defined(__i386__)
  have_avx2 = __builtin_cpu_supports("avx2") != 0;
#endif
#endif
  const char* env = std::getenv("PCN_SIMD_ISA");
  const std::string_view mode = env != nullptr ? env : "auto";
  if (mode == "none") {
    return SimdSupport{false, SimdIsa::kPortable,
                       "PCN_SIMD_ISA=none disables every simd kernel"};
  }
  if (mode == "avx2") {
    if (!have_avx2) {
      return SimdSupport{false, SimdIsa::kAvx2,
                         "PCN_SIMD_ISA=avx2 but the AVX2 kernel is "
                         "unavailable (not compiled in, or the CPU lacks "
                         "AVX2)"};
    }
    return SimdSupport{true, SimdIsa::kAvx2, ""};
  }
  if (mode == "portable") {
    return SimdSupport{true, SimdIsa::kPortable, ""};
  }
  // "auto" (also unset or unrecognized): prefer the widest kernel.
  return SimdSupport{true,
                     have_avx2 ? SimdIsa::kAvx2 : SimdIsa::kPortable, ""};
}

SimdEngine::SimdEngine(Network& net) : net_(net) {}

bool SimdEngine::prepare(std::string* why) {
  const SimdSupport support = simd_support();
  if (!support.available) {
    if (why != nullptr) *why = support.reason;
    return false;
  }
  if (net_.flight_ != nullptr) {
    if (why != nullptr) {
      *why =
          "flight recording runs on the reference engine: the simd "
          "engine has no per-event hot path to record";
    }
    return false;
  }
  if (!plan_.build(net_, why)) return false;
  isa_ = support.isa;

  const std::size_t n = net_.attachments_.size();
  tid_lo_.resize(n);
  tid_hi_.resize(n);
  table_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    tid_lo_[i] = static_cast<std::uint32_t>(i);
    tid_hi_[i] =
        static_cast<std::uint32_t>(static_cast<std::uint64_t>(i) >> 32);
    table_[i] = &plan_.tables[static_cast<std::size_t>(plan_.table[i])];
  }
  return true;
}

void SimdEngine::run_segment(SimTime first, SimTime last,
                             Network::Scratch& scratch, bool use_workers) {
  const std::size_t n = net_.attachments_.size();
  if (n == 0 || last < first) return;
  std::size_t shards = 1;
  if (use_workers) {
    shards = std::min<std::size_t>(
        static_cast<std::size_t>(net_.resolved_threads()), n);
  }
  if (shards <= 1) {
    run_shard(0, n, first, last, scratch);
    return;
  }
  // Same fan-out shape as the reference engine: worker s owns telemetry
  // shard s, shard 0 runs on the caller.  The shard boundaries don't
  // affect results — every lane draws from its own counter stream.
  std::vector<std::exception_ptr> errors(shards);
  std::vector<std::thread> workers;
  workers.reserve(shards - 1);
  auto shard_begin = [&](std::size_t s) { return n * s / shards; };
  for (std::size_t s = 1; s < shards; ++s) {
    workers.emplace_back([this, s, first, last, &shard_begin, &errors] {
      Network::Scratch local;
      local.shard = s;
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

void SimdEngine::run_shard(std::size_t begin, std::size_t end,
                           SimTime first, SimTime last,
                           Network::Scratch& scratch) {
  std::optional<obs::ScopedTimer> shard_timer;
  if (net_.stats_ != nullptr) {
    shard_timer.emplace(net_.stats_->shard_wall_ns, scratch.shard);
  }
  for (std::size_t b = begin; b < end; b += kBatchLanes) {
    run_batch(b, std::min(end, b + kBatchLanes), first, last, scratch);
  }
  if (net_.stats_ != nullptr) {
    scratch.tally.terminal_slots +=
        (last - first + 1) * static_cast<std::int64_t>(end - begin);
    net_.stats_->flush(scratch.tally, scratch.shard);
  }
}

void SimdEngine::run_batch(std::size_t begin, std::size_t end,
                           SimTime first, SimTime last,
                           Network::Scratch& scratch) {
  const std::size_t count = end - begin;
  const auto rd_stride = static_cast<std::size_t>(plan_.max_threshold) + 1;
  const auto pc_stride = static_cast<std::size_t>(plan_.max_cycles) + 1;
  // Per-call construction keeps the engine stateless between segments;
  // the allocation amortizes over kBatchLanes * range lane-slots.
  BatchScratch s(count, rd_stride, pc_stride);

  // Load: objects -> lane state.  The position is carried relative to the
  // knowledge center (|components| <= threshold + 1 by the containment
  // invariant, so int32 lanes are exact).
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = begin + k;
#if defined(__GNUC__) || defined(__clang__)
    if (k + 8 < count) {
      __builtin_prefetch(net_.attachments_[i + 8].terminal.get(), 0);
      __builtin_prefetch(plan_.know[i + 8], 0);
    }
#endif
    Terminal& terminal = *net_.attachments_[i].terminal;
    const Knowledge& knowledge = *plan_.know[i];
    s.cen_q[k] = knowledge.center.q;
    s.cen_r[k] = knowledge.center.r;
    s.rel_q[k] =
        static_cast<std::int32_t>(terminal.position().q - knowledge.center.q);
    s.rel_r[k] =
        static_cast<std::int32_t>(terminal.position().r - knowledge.center.r);
    s.since[k] = knowledge.since;
    s.page_id[k] = net_.attachments_[i].next_page_id;
    s.dirty[k] = 0;
    s.moves[k] = 0;
    s.updates[k] = net_.attachments_[i].metrics.updates;
    s.upd_base[k] = s.updates[k];
    s.calls[k] = 0;
    s.polled[k] = 0;
    s.upd_bytes[k] = 0;
    s.page_bytes[k] = 0;
  }

  KernelParams kp;
  kp.draws = net_.draws_;
  kp.count_bytes = net_.config_.count_signalling_bytes;
  const bool twod = net_.config_.dimension == Dimension::kTwoD;
  const bool chain =
      net_.config_.semantics == SlotSemantics::kChainFaithful;

  const auto make_block = [&](std::size_t k) {
    LaneBlock block;
    block.rel_q = s.rel_q.data() + k;
    block.rel_r = s.rel_r.data() + k;
    block.t_call = plan_.t_call.data() + begin + k;
    block.t_move = plan_.t_move.data() + begin + k;
    block.thr = plan_.thr.data() + begin + k;
    block.tid_lo = tid_lo_.data() + begin + k;
    block.tid_hi = tid_hi_.data() + begin + k;
    block.cen_q = s.cen_q.data() + k;
    block.cen_r = s.cen_r.data() + k;
    block.since = s.since.data() + k;
    block.page_id = s.page_id.data() + k;
    block.dirty = s.dirty.data() + k;
    block.moves = s.moves.data() + k;
    block.updates = s.updates.data() + k;
    block.calls = s.calls.data() + k;
    block.polled = s.polled.data() + k;
    block.upd_bytes = s.upd_bytes.data() + k;
    block.page_bytes = s.page_bytes.data() + k;
    block.table = table_.data() + begin + k;
    block.id_bytes = plan_.id_bytes.data() + begin + k;
    block.upd_const = plan_.upd_const.data() + begin + k;
    block.resp_const = plan_.resp_const.data() + begin + k;
    block.rd_rows = s.rd_rows.data() + k * rd_stride;
    block.pc_rows = s.pc_rows.data() + k * pc_stride;
    block.rd_stride = static_cast<std::int32_t>(rd_stride);
    block.pc_stride = static_cast<std::int32_t>(pc_stride);
    return block;
  };

#if PCN_HAVE_AVX2_KERNEL
  // Chain-faithful fleets whose walk state fits int16 lanes take the
  // 16-lane paired kernel (bit-identical, half the vector work per slot).
  const bool pair16 =
      isa_ == SimdIsa::kAvx2 && chain &&
      plan_.max_threshold <= simd_detail::kPairMaxThreshold;
#endif
  std::size_t kb = 0;
  while (kb < count) {
    const int lanes =
        static_cast<int>(std::min<std::size_t>(kLanes, count - kb));
#if PCN_HAVE_AVX2_KERNEL
    if (pair16 && kb + 2 * kLanes <= count) {
      const LaneBlock a = make_block(kb);
      const LaneBlock b = make_block(kb + kLanes);
      simd_detail::run_block_pair_avx2(kp, a, b, twod, first, last);
      kb += 2 * kLanes;
      continue;
    }
    if (lanes == kLanes && isa_ == SimdIsa::kAvx2) {
      const LaneBlock block = make_block(kb);
      simd_detail::run_block_avx2(kp, block, twod, chain, first, last);
      kb += kLanes;
      continue;
    }
#endif
    const LaneBlock block = make_block(kb);
    simd_detail::run_block_portable(kp, block, lanes, twod, chain, first,
                                    last);
    kb += kLanes;
  }

  // Sync: lane state -> objects + metrics, including the per-terminal
  // histogram rows (one metrics pass per batch).  Costs are weight *
  // count, exactly as the reference engine computes them.
  const double update_weight = net_.weights_.update_cost;
  const double poll_weight = net_.weights_.poll_cost;
  const std::int64_t range = last - first + 1;
  const bool stats = net_.stats_ != nullptr;
  for (std::size_t k = 0; k < count; ++k) {
    const std::size_t i = begin + k;
    // The attachment array is sequential (hardware-prefetched), but each
    // terminal object and histogram bucket array is a dependent heap load
    // that would otherwise miss — hint them in a few terminals ahead.
    if (k + 8 < count) {
      const Network::Attachment& ahead = net_.attachments_[i + 8];
      ahead.metrics.ring_distance.prefetch();
      ahead.metrics.paging_cycles.prefetch();
#if defined(__GNUC__) || defined(__clang__)
      __builtin_prefetch(ahead.terminal.get(), 1);
#endif
    }
    Network::Attachment& attachment = net_.attachments_[i];
    Terminal& terminal = *attachment.terminal;
    terminal.move_to(geometry::Cell{s.cen_q[k] + s.rel_q[k],
                                    s.cen_r[k] + s.rel_r[k]});
    attachment.next_page_id = s.page_id[k];
    TerminalMetrics& m = attachment.metrics;
    const std::int64_t new_updates = s.updates[k] - s.upd_base[k];
    m.slots += range;
    m.moves += s.moves[k];
    m.updates = s.updates[k];
    m.calls += s.calls[k];
    m.polled_cells += s.polled[k];
    m.update_cost = update_weight * static_cast<double>(m.updates);
    m.paging_cost = poll_weight * static_cast<double>(m.polled_cells);
    m.update_bytes += s.upd_bytes[k];
    m.paging_bytes += s.page_bytes[k];
    m.ring_distance.add_counts(s.rd_rows.data() + k * rd_stride,
                               static_cast<std::size_t>(plan_.thr[i]) + 1);
    m.paging_cycles.add_counts(
        s.pc_rows.data() + k * pc_stride,
        static_cast<std::size_t>(table_[i]->cycles) + 1);
    if (s.dirty[k] != 0) {
      const geometry::Cell center{s.cen_q[k], s.cen_r[k]};
      terminal.update_policy().on_center_reset(center, s.since[k]);
      net_.server_.refresh(*plan_.know[i], center, s.since[k]);
    }
    if (stats) {
      scratch.tally.moves += s.moves[k];
      scratch.tally.updates += new_updates;
      scratch.tally.pages += s.calls[k];
      scratch.tally.polled_cells += s.polled[k];
    }
  }
}

std::size_t SimdEngine::bytes_per_terminal() const {
  return 5 * sizeof(std::int32_t) +  // thr, table, id/upd/resp byte consts
         4 * sizeof(std::uint32_t) + // t_call, t_move, tid_lo, tid_hi
         sizeof(const PagingTable*) +
         2 * sizeof(std::int32_t) +  // rel_q, rel_r
         2 * sizeof(std::int64_t) +  // center
         sizeof(SimTime) +           // since
         sizeof(std::uint64_t) +     // page id
         sizeof(std::uint8_t) +      // dirty flag
         8 * sizeof(std::int64_t);   // batch accumulators
}

}  // namespace pcn::sim
