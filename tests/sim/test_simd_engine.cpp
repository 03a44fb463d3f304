// Engine identity (sim/simd_engine.cpp vs the reference slot loop in
// sim/network.cpp).  Both engines evaluate one draw contract
// (stats::SlotDraws), so the lane-parallel engine must reproduce the
// reference engine bit for bit — every TerminalMetrics field including
// floating-point costs and histograms, and the signalling byte counts —
// across dimensions, slot semantics, thresholds and delay bounds, at 1
// and 4 threads, on the portable and AVX2 kernels, and with runs split
// into separate run() calls.  The lane engine also agrees
// with itself across reruns, thread counts, run splits and kernels.  Also covers engine selection:
// kAuto takes the SIMD engine for canonical fleets and falls back to the
// reference engine for everything else; forced kSimd rejects the same
// cases with a diagnostic.
#include "pcn/sim/simd_engine.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/sim/network.hpp"
#include "pcn/sim/simd_kernel.hpp"
#include "support/slot_draw_kats.hpp"

namespace pcn::sim {
namespace {

constexpr CostWeights kWeights{50.0, 2.0};
/// A 16-lane pair, an 8-lane block and a 5-lane portable tail per batch:
/// every kernel path runs.
constexpr int kTerminals = 61;
constexpr std::int64_t kSlots = 6000;

/// Scoped PCN_SIMD_ISA override (tests in this binary run sequentially).
class ScopedIsaEnv {
 public:
  explicit ScopedIsaEnv(const char* value) {
    const char* old = std::getenv("PCN_SIMD_ISA");
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    if (value != nullptr) {
      ::setenv("PCN_SIMD_ISA", value, 1);
    } else {
      ::unsetenv("PCN_SIMD_ISA");
    }
  }
  ~ScopedIsaEnv() {
    if (had_old_) {
      ::setenv("PCN_SIMD_ISA", old_.c_str(), 1);
    } else {
      ::unsetenv("PCN_SIMD_ISA");
    }
  }
  ScopedIsaEnv(const ScopedIsaEnv&) = delete;
  ScopedIsaEnv& operator=(const ScopedIsaEnv&) = delete;

 private:
  bool had_old_ = false;
  std::string old_;
};

NetworkConfig make_config(Dimension dim, SlotSemantics semantics,
                          SimEngine engine, int threads) {
  NetworkConfig config{dim, semantics, 4242};
  config.threads = threads;
  config.engine = engine;
  return config;
}

/// A canonical fleet sweeping (q, c, d, m) so every paging table shape
/// and threshold gets coverage.
std::vector<TerminalId> add_canonical_fleet(Network& network, Dimension dim,
                                            int terminals = kTerminals) {
  std::vector<TerminalId> ids;
  for (int i = 0; i < terminals; ++i) {
    const MobilityProfile profile{0.05 + 0.07 * (i % 5),
                                  0.01 + 0.02 * (i % 3)};
    ids.push_back(network.add_terminal(make_distance_terminal(
        dim, profile, 1 + i % 4, DelayBound(1 + i % 3))));
  }
  return ids;
}

void expect_histograms_equal(const stats::Histogram& a,
                             const stats::Histogram& b) {
  ASSERT_EQ(a.bucket_count(), b.bucket_count());
  EXPECT_EQ(a.total(), b.total());
  for (int v = 0; v < a.bucket_count(); ++v) {
    EXPECT_EQ(a.count(v), b.count(v)) << "bucket " << v;
  }
}

void expect_metrics_identical(const TerminalMetrics& a,
                              const TerminalMetrics& b, TerminalId id) {
  SCOPED_TRACE(::testing::Message() << "terminal " << id);
  EXPECT_EQ(a.slots, b.slots);
  EXPECT_EQ(a.moves, b.moves);
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.polled_cells, b.polled_cells);
  EXPECT_EQ(a.update_bytes, b.update_bytes);
  EXPECT_EQ(a.paging_bytes, b.paging_bytes);
  EXPECT_EQ(a.lost_updates, b.lost_updates);
  EXPECT_EQ(a.paging_failures, b.paging_failures);
  // Bit-exact, not approximate: both engines price weight x count.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

void expect_all_identical(const std::vector<TerminalMetrics>& a,
                          const std::vector<TerminalMetrics>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    expect_metrics_identical(a[i], b[i], static_cast<TerminalId>(i));
  }
}

std::vector<TerminalMetrics> collect(const Network& network,
                                     const std::vector<TerminalId>& ids) {
  std::vector<TerminalMetrics> metrics;
  for (TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
}

std::vector<TerminalMetrics> run_canonical(Dimension dim,
                                           SlotSemantics semantics,
                                           SimEngine engine, int threads,
                                           bool* simd_active = nullptr) {
  Network network(make_config(dim, semantics, engine, threads), kWeights);
  const std::vector<TerminalId> ids = add_canonical_fleet(network, dim);
  network.run(kSlots);
  if (simd_active != nullptr) *simd_active = network.simd_active();
  return collect(network, ids);
}

std::vector<TerminalMetrics> reference_2d_chain() {
  return run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                       SimEngine::kReference, 1);
}

TEST(SimdEngine, BitIdenticalToReferenceAcrossDimsSemanticsAndThreads) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      const std::vector<TerminalMetrics> reference =
          run_canonical(dim, semantics, SimEngine::kReference, 1);
      for (int threads : {1, 4}) {
        SCOPED_TRACE(::testing::Message() << "threads=" << threads);
        bool active = false;
        expect_all_identical(
            reference,
            run_canonical(dim, semantics, SimEngine::kSimd, threads,
                          &active));
        EXPECT_TRUE(active);
      }
    }
  }
}

TEST(SimdEngine, BitIdenticalToItselfAcrossThreadCountsAndRuns) {
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      const std::vector<TerminalMetrics> base =
          run_canonical(dim, semantics, SimEngine::kSimd, 1);
      expect_all_identical(base,
                           run_canonical(dim, semantics, SimEngine::kSimd, 1));
      expect_all_identical(base,
                           run_canonical(dim, semantics, SimEngine::kSimd, 4));
    }
  }
}

TEST(SimdEngine, SegmentationPointsDoNotChangeResults) {
  // Draws are keyed on the absolute slot, so splitting a run into
  // segments (the state sync/reload path between run() calls) is
  // invisible to the lane engine itself: run(a); run(b) == run(a + b).
  Network split(make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kSimd, 1),
                kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(split, Dimension::kTwoD);
  split.run(kSlots / 3);
  split.run(kSlots - kSlots / 3);
  EXPECT_TRUE(split.simd_active());
  expect_all_identical(
      run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                    SimEngine::kSimd, 1),
      collect(split, ids));
}

TEST(SimdEngine, PortableKernelMatchesAvx2BitForBit) {
  {
    ScopedIsaEnv detect(nullptr);
    if (simd_support().isa != SimdIsa::kAvx2) {
      GTEST_SKIP() << "AVX2 kernel not available on this machine";
    }
  }
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      std::vector<TerminalMetrics> avx2;
      {
        ScopedIsaEnv env("avx2");
        avx2 = run_canonical(dim, semantics, SimEngine::kSimd, 1);
      }
      ScopedIsaEnv env("portable");
      expect_all_identical(
          avx2, run_canonical(dim, semantics, SimEngine::kSimd, 1));
    }
  }
}

TEST(SimdEngine, PortableAndAvx2KernelsMatchTheReference) {
  std::vector<const char*> isas = {"portable"};
  {
    ScopedIsaEnv detect(nullptr);
    if (simd_support().isa == SimdIsa::kAvx2) isas.push_back("avx2");
  }
  for (Dimension dim : {Dimension::kOneD, Dimension::kTwoD}) {
    for (SlotSemantics semantics :
         {SlotSemantics::kChainFaithful, SlotSemantics::kIndependent}) {
      SCOPED_TRACE(::testing::Message()
                   << "dim=" << (dim == Dimension::kOneD ? 1 : 2)
                   << " chain="
                   << (semantics == SlotSemantics::kChainFaithful));
      const std::vector<TerminalMetrics> reference =
          run_canonical(dim, semantics, SimEngine::kReference, 1);
      for (const char* isa : isas) {
        SCOPED_TRACE(::testing::Message() << "isa=" << isa);
        ScopedIsaEnv env(isa);
        expect_all_identical(
            reference, run_canonical(dim, semantics, SimEngine::kSimd, 1));
      }
    }
  }
}

/// Sixteen lanes (two 8-lane blocks) all keyed to one known-answer row,
/// at the origin with threshold 2 (one move never triggers an update) and
/// a one-cycle paging table, so a kernel run over the row's slot shows the
/// row's decisions in the lane state.
struct KatLanes {
  explicit KatLanes(const proptest::SlotDrawKat& kat)
      : table{costs::Partition::sdf(kThreshold, DelayBound(1)),
              /*threshold=*/0,
              /*cycles=*/1,
              /*cycle_of=*/std::vector<std::int32_t>(kThreshold + 1, 0),
              /*size=*/{},
              /*cum=*/{1},
              {}, {}, {}, {}, {}} {
    table_ptr.fill(&table);
    t_call.fill(kat.t_call());
    t_move.fill(kat.t_move());
    thr.fill(kThreshold);
    tid_lo.fill(static_cast<std::uint32_t>(kat.terminal));
    tid_hi.fill(static_cast<std::uint32_t>(kat.terminal >> 32));
  }

  simd_detail::LaneBlock block(int half) {
    const int k = half * simd_detail::kLanes;
    simd_detail::LaneBlock b;
    b.rel_q = rel_q.data() + k;
    b.rel_r = rel_r.data() + k;
    b.t_call = t_call.data() + k;
    b.t_move = t_move.data() + k;
    b.thr = thr.data() + k;
    b.tid_lo = tid_lo.data() + k;
    b.tid_hi = tid_hi.data() + k;
    b.cen_q = cen_q.data() + k;
    b.cen_r = cen_r.data() + k;
    b.since = since.data() + k;
    b.page_id = page_id.data() + k;
    b.dirty = dirty.data() + k;
    b.moves = moves.data() + k;
    b.updates = updates.data() + k;
    b.calls = calls.data() + k;
    b.polled = polled.data() + k;
    b.upd_bytes = upd_bytes.data() + k;
    b.page_bytes = page_bytes.data() + k;
    b.table = table_ptr.data() + k;
    b.id_bytes = zero32.data() + k;
    b.upd_const = zero32.data() + k;
    b.resp_const = zero32.data() + k;
    b.rd_rows = rd_rows.data() + k * (kThreshold + 1);
    b.pc_rows = pc_rows.data() + k * 2;
    b.rd_stride = kThreshold + 1;
    b.pc_stride = 2;
    return b;
  }

  static constexpr int kThreshold = 2;
  static constexpr std::size_t kN = 2 * simd_detail::kLanes;
  PagingTable table;
  std::array<const PagingTable*, kN> table_ptr{};
  std::array<std::int32_t, kN> rel_q{}, rel_r{}, thr{}, zero32{};
  std::array<std::uint32_t, kN> t_call{}, t_move{}, tid_lo{}, tid_hi{};
  std::array<std::int64_t, kN> cen_q{}, cen_r{}, since{}, moves{}, updates{},
      calls{}, polled{}, upd_bytes{}, page_bytes{};
  std::array<std::uint64_t, kN> page_id{};
  std::array<std::uint8_t, kN> dirty{};
  std::array<std::int64_t, kN * (kThreshold + 1)> rd_rows{};
  std::array<std::int64_t, kN * 2> pc_rows{};
};

TEST(SimdKernels, ReproduceTheContractKnownAnswers) {
  simd_detail::KernelParams kp;
  kp.draws = stats::SlotDraws(proptest::kKatSeed);
  kp.count_bytes = false;
  // Each kernel runs the row's slot over both blocks and reports whether
  // it serves the row's semantics.
  using Kernel =
      std::function<bool(KatLanes&, const proptest::SlotDrawKat&)>;
  std::vector<std::pair<const char*, Kernel>> kernels = {
      {"portable",
       [&](KatLanes& lanes, const proptest::SlotDrawKat& kat) {
         for (int half = 0; half < 2; ++half) {
           simd_detail::run_block_portable(kp, lanes.block(half),
                                           simd_detail::kLanes, kat.two_d,
                                           kat.chain, kat.slot, kat.slot);
         }
         return true;
       }},
  };
#if PCN_HAVE_AVX2_KERNEL
  bool avx2 = false;
  {
    ScopedIsaEnv detect(nullptr);
    avx2 = simd_support().isa == SimdIsa::kAvx2;
  }
  if (avx2) {
    kernels.push_back(
        {"avx2", [&](KatLanes& lanes, const proptest::SlotDrawKat& kat) {
           for (int half = 0; half < 2; ++half) {
             simd_detail::run_block_avx2(kp, lanes.block(half), kat.two_d,
                                         kat.chain, kat.slot, kat.slot);
           }
           return true;
         }});
    kernels.push_back(
        {"avx2 pair", [&](KatLanes& lanes, const proptest::SlotDrawKat& kat) {
           if (!kat.chain) return false;
           simd_detail::run_block_pair_avx2(kp, lanes.block(0),
                                            lanes.block(1), kat.two_d,
                                            kat.slot, kat.slot);
           return true;
         }});
  }
#endif
  for (const proptest::SlotDrawKat& kat : proptest::kSlotDrawKats) {
    for (const auto& [name, kernel] : kernels) {
      SCOPED_TRACE(::testing::Message() << kat.what << ", " << name);
      KatLanes lanes(kat);
      if (!kernel(lanes, kat)) continue;
      for (std::size_t lane = 0; lane < KatLanes::kN; ++lane) {
        ASSERT_EQ(lanes.calls[lane], kat.called ? 1 : 0) << "lane " << lane;
        ASSERT_EQ(lanes.moves[lane], kat.moved ? 1 : 0) << "lane " << lane;
        // A call re-centres the terminal; otherwise a move leaves it on
        // the drawn neighbour of the origin.
        std::int32_t q = 0;
        std::int32_t r = 0;
        if (kat.moved && !kat.called) {
          const geometry::Cell to = geometry::cell_neighbor(
              kat.two_d ? Dimension::kTwoD : Dimension::kOneD,
              geometry::Cell{}, kat.neighbor);
          q = static_cast<std::int32_t>(to.q);
          r = static_cast<std::int32_t>(to.r);
        }
        ASSERT_EQ(lanes.rel_q[lane], q) << "lane " << lane;
        ASSERT_EQ(lanes.rel_r[lane], r) << "lane " << lane;
      }
    }
  }
}

TEST(SimdEngine, UserEventsSplittingTheRunPreserveIdentity) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 4),
                  kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(network, Dimension::kTwoD);
  // run(k) calls ending at these slots; each call re-prepares the engine
  // at entry, as it would after a caller retargeted a policy.
  SimTime done = 0;
  for (SimTime at : {SimTime{1}, SimTime{1500}, SimTime{1501},
                     SimTime{kSlots - 1}, SimTime{kSlots}}) {
    network.run(at - done);
    done = at;
  }
  EXPECT_TRUE(network.simd_active());
  expect_all_identical(reference_2d_chain(), collect(network, ids));
}

TEST(SimdEngine, SplitRunsMatchOneShotRuns) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 4),
                  kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(network, Dimension::kTwoD);
  // Unaligned with the four-slot draw groups on purpose.
  network.run(kSlots / 4 + 1);
  network.run(kSlots / 4 - 2);
  network.run(kSlots / 2 + 1);
  expect_all_identical(reference_2d_chain(), collect(network, ids));
}

TEST(SimdEngine, AutoSelectsSimdForCanonicalFleets) {
  bool active = false;
  const std::vector<TerminalMetrics> auto_run =
      run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                    SimEngine::kAuto, 4, &active);
  EXPECT_TRUE(active);
  expect_all_identical(reference_2d_chain(), auto_run);
  bool reference_active = true;
  run_canonical(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                SimEngine::kReference, 4, &reference_active);
  EXPECT_FALSE(reference_active);
}

/// One reason a canonical fleet cannot take the lane engine.
struct Fallback {
  const char* name;
  void (*tweak)(NetworkConfig&);
};

const Fallback kLoss{"loss injection",
                     [](NetworkConfig& c) { c.update_loss_prob = 0.1; }};
const Fallback kFlight{"flight recording",
                       [](NetworkConfig& c) { c.record_flight = true; }};
const Fallback kNoChange{"none", [](NetworkConfig&) {}};

/// Whether the SIMD engine ran, and the metrics, of a 20-terminal
/// canonical 2-D fleet under `engine` with `fallback` applied.
std::pair<bool, std::vector<TerminalMetrics>> run_fallback(
    SimEngine engine, const Fallback& fallback) {
  NetworkConfig config = make_config(
      Dimension::kTwoD, SlotSemantics::kChainFaithful, engine, 2);
  fallback.tweak(config);
  Network network(config, kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(network, Dimension::kTwoD, 20);
  network.run(2000);
  return {network.simd_active(), collect(network, ids)};
}

TEST(SimdEngine, AutoFallsBackToTheIdenticalReferenceEngine) {
  // Each fallback case runs on the reference engine, whose results the
  // lane engine would have matched — so falling back changes nothing.
  for (const Fallback& fallback : {kLoss, kFlight}) {
    SCOPED_TRACE(fallback.name);
    const auto [active, auto_run] = run_fallback(SimEngine::kAuto, fallback);
    EXPECT_FALSE(active);
    expect_all_identical(
        run_fallback(SimEngine::kReference, fallback).second, auto_run);
    EXPECT_THROW(run_fallback(SimEngine::kSimd, fallback), InvalidArgument);
  }
}

TEST(SimdEngine, AutoFallsBackWhenEveryKernelIsDisabled) {
  const std::vector<TerminalMetrics> reference =
      run_fallback(SimEngine::kReference, kNoChange).second;
  ScopedIsaEnv env("none");
  EXPECT_FALSE(simd_support().available);
  const auto [active, auto_run] = run_fallback(SimEngine::kAuto, kNoChange);
  EXPECT_FALSE(active);
  expect_all_identical(reference, auto_run);
}

TEST(SimdEngine, IsaNoneDisablesTheEngine) {
  ScopedIsaEnv env("none");
  EXPECT_FALSE(simd_support().available);
  try {
    run_fallback(SimEngine::kSimd, kNoChange);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("PCN_SIMD_ISA=none"),
              std::string::npos)
        << error.what();
  }
}

TEST(SimdEngine, AutoFallsBackWhenFleetIsNotCanonical) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kAuto, 2),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 4);
  network.add_terminal(make_movement_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 3, DelayBound(2)));
  network.run(2000);  // must not throw
  EXPECT_FALSE(network.simd_active());
}

TEST(SimdEngine, ForcedSimdRejectsNonCanonicalFleet) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  network.add_terminal(make_time_terminal(
      Dimension::kTwoD, MobilityProfile{0.1, 0.01}, 50));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

TEST(SimdEngine, ForcedSimdNamesFlightRecordingAsTheReason) {
  NetworkConfig config = make_config(
      Dimension::kTwoD, SlotSemantics::kChainFaithful, SimEngine::kSimd, 1);
  config.record_flight = true;
  Network network(config, kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  try {
    network.run(100);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("flight"), std::string::npos)
        << error.what();
  }
}

TEST(SimdEngine, ForcedAvx2UnavailableIsAnError) {
  // Simulate unsupported hardware by forcing avx2 where it is missing:
  // prepare must fail with a diagnostic rather than fall back.
#if PCN_HAVE_AVX2_KERNEL
  ScopedIsaEnv detect(nullptr);
  if (simd_support().isa == SimdIsa::kAvx2) {
    GTEST_SKIP() << "AVX2 available here; the unavailable path needs a "
                    "machine or build without it (portable CI leg)";
  }
#endif
  ScopedIsaEnv env("avx2");
  const SimdSupport support = simd_support();
  EXPECT_FALSE(support.available);
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  EXPECT_THROW(network.run(100), InvalidArgument);
}

TEST(SimdEngine, ReportsActiveIsaName) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  network.run(100);
  ASSERT_TRUE(network.simd_active());
  const std::string isa = network.simd_isa_name();
  EXPECT_TRUE(isa == "avx2" || isa == "portable") << isa;
}

// The flat per-terminal state the lane kernel keeps (plan, thresholds,
// relative position, batch accumulators): pinned so a layout change is a
// visible decision.  soa_bytes_per_terminal() is its old name.
TEST(SimdEngine, FlatFootprintIs149BytesPerTerminal) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kAuto, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  network.run(100);
  ASSERT_TRUE(network.simd_active());
  EXPECT_TRUE(network.soa_active());
  EXPECT_EQ(network.simd_bytes_per_terminal(), 149u);
  EXPECT_EQ(network.soa_bytes_per_terminal(), 149u);
}

TEST(SimdEngine, ChainSemanticsStillRejectImpossibleProfiles) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kAuto, 1),
                  kWeights);
  TerminalSpec bad = make_distance_terminal(
      Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 2, DelayBound(2));
  bad.call_prob = 0.85;  // q + c > 1
  network.add_terminal(std::move(bad));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

}  // namespace
}  // namespace pcn::sim
