// SIMD engine (sim/simd_engine.cpp): self-consistency and policy.  The
// engine's contract is weaker than SoA's — *statistical* equivalence to
// the reference pair (gated by tests/property/test_prop_simd_statistical)
// — but it must be bit-identical to ITSELF across thread counts, runs,
// segmentation points and ISA paths (AVX2 vs portable), and its selection
// rules are strict: kAuto never picks it, forced kSimd throws on
// non-canonical fleets, flight recording, and PCN_SIMD_ISA=none.
#include "pcn/sim/simd_engine.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::sim {
namespace {

constexpr CostWeights kWeights{50.0, 2.0};
constexpr int kTerminals = 48;
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
  // Bit-exact within the engine: per-terminal costs fold in at batch sync
  // in a thread-independent order.
  EXPECT_EQ(a.update_cost, b.update_cost);
  EXPECT_EQ(a.paging_cost, b.paging_cost);
  expect_histograms_equal(a.paging_cycles, b.paging_cycles);
  expect_histograms_equal(a.ring_distance, b.ring_distance);
}

std::vector<TerminalMetrics> run_simd(Dimension dim, SlotSemantics semantics,
                                      int threads,
                                      std::int64_t slots = kSlots) {
  Network network(make_config(dim, semantics, SimEngine::kSimd, threads),
                  kWeights);
  const std::vector<TerminalId> ids = add_canonical_fleet(network, dim);
  network.run(slots);
  EXPECT_TRUE(network.simd_active());
  std::vector<TerminalMetrics> metrics;
  for (TerminalId id : ids) metrics.push_back(network.metrics(id));
  return metrics;
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
          run_simd(dim, semantics, 1);
      const std::vector<TerminalMetrics> rerun =
          run_simd(dim, semantics, 1);
      const std::vector<TerminalMetrics> sharded =
          run_simd(dim, semantics, 4);
      ASSERT_EQ(base.size(), sharded.size());
      for (std::size_t i = 0; i < base.size(); ++i) {
        expect_metrics_identical(base[i], rerun[i],
                                 static_cast<TerminalId>(i));
        expect_metrics_identical(base[i], sharded[i],
                                 static_cast<TerminalId>(i));
      }
    }
  }
}

TEST(SimdEngine, SegmentationPointsDoNotChangeResults) {
  // Draws are keyed on the absolute slot, so splitting a run into
  // segments (the state sync/reload path between user events) is
  // invisible: run(a); run(b) == run(a + b).
  Network whole(make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kSimd, 1),
                kWeights);
  Network split(make_config(Dimension::kTwoD, SlotSemantics::kChainFaithful,
                            SimEngine::kSimd, 1),
                kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(whole, Dimension::kTwoD);
  add_canonical_fleet(split, Dimension::kTwoD);
  whole.run(kSlots);
  split.run(kSlots / 3);
  split.run(kSlots - kSlots / 3);
  for (TerminalId id : ids) {
    expect_metrics_identical(whole.metrics(id), split.metrics(id), id);
  }
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
      std::vector<TerminalMetrics> portable;
      {
        ScopedIsaEnv env("avx2");
        avx2 = run_simd(dim, semantics, 1);
      }
      {
        ScopedIsaEnv env("portable");
        portable = run_simd(dim, semantics, 1);
      }
      ASSERT_EQ(avx2.size(), portable.size());
      for (std::size_t i = 0; i < avx2.size(); ++i) {
        expect_metrics_identical(avx2[i], portable[i],
                                 static_cast<TerminalId>(i));
      }
    }
  }
}

TEST(SimdEngine, AutoNeverSelectsSimd) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kAuto, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD);
  network.run(1000);
  EXPECT_FALSE(network.simd_active());
  EXPECT_TRUE(network.soa_active());
  EXPECT_EQ(network.simd_isa_name(), nullptr);
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
// visible decision.
TEST(SimdEngine, FlatFootprintIs173BytesPerTerminal) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  network.run(100);
  ASSERT_TRUE(network.simd_active());
  EXPECT_EQ(network.simd_bytes_per_terminal(), 173u);
}

TEST(SimdEngine, RejectsNonCanonicalFleet) {
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  network.add_terminal(make_time_terminal(
      Dimension::kTwoD, MobilityProfile{0.1, 0.01}, 50));
  EXPECT_THROW(network.run(100), InvalidArgument);
}

TEST(SimdEngine, RejectsFlightRecording) {
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

TEST(SimdEngine, IsaNoneDisablesTheEngine) {
  ScopedIsaEnv env("none");
  const SimdSupport support = simd_support();
  EXPECT_FALSE(support.available);
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  add_canonical_fleet(network, Dimension::kTwoD, 8);
  try {
    network.run(100);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& error) {
    EXPECT_NE(std::string(error.what()).find("PCN_SIMD_ISA=none"),
              std::string::npos)
        << error.what();
  }
}

TEST(SimdEngine, ForcedAvx2UnavailableIsAnError) {
  // Simulate unsupported hardware by disabling the kernels, then forcing
  // avx2: prepare must fail with a diagnostic rather than fall back.
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

TEST(SimdEngine, SequentialStreamsStayUntouched) {
  // The counter-keyed engine must not consume the terminals' sequential
  // RNG streams: a reference run after a simd run matches a reference run
  // that never ran simd slots... which cannot be compared directly (the
  // simd slots move terminals).  What CAN be pinned: the walk/event Rng
  // state is byte-identical before and after a simd-only run.
  Network network(make_config(Dimension::kTwoD,
                              SlotSemantics::kChainFaithful,
                              SimEngine::kSimd, 1),
                  kWeights);
  const std::vector<TerminalId> ids =
      add_canonical_fleet(network, Dimension::kTwoD, 8);
  const stats::Rng before_ev = network.terminal(ids[0]).event_rng();
  network.run(2000);
  const stats::Rng after_ev = network.terminal(ids[0]).event_rng();
  stats::Rng a = before_ev;
  stats::Rng b = after_ev;
  for (int i = 0; i < 8; ++i) EXPECT_EQ(a.next(), b.next());
}

}  // namespace
}  // namespace pcn::sim
