// MetricsRegistry: get-or-create semantics, name/bounds validation,
// histogram le-bucket boundaries, counted observes matching repeated
// ones, and the concurrency contract (8-thread
// increments sum exactly; snapshots taken mid-write are well-formed).
// tools/run_checks.sh runs this binary under TSan to certify the lock-free
// hot path data-race-free.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <thread>
#include <vector>

#include "pcn/common/error.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/report.hpp"

namespace {

using pcn::InvalidArgument;
using pcn::obs::Counter;
using pcn::obs::Gauge;
using pcn::obs::Histogram;
using pcn::obs::MetricsRegistry;
using pcn::obs::MetricsSnapshot;

TEST(MetricsRegistry, CounterStartsAtZeroAndAccumulates) {
  MetricsRegistry registry;
  Counter counter = registry.counter("test.counter.basic");
  EXPECT_TRUE(counter.valid());
  EXPECT_EQ(counter.value(), 0);
  counter.add(5);
  counter.increment();
  counter.add(-2);
  EXPECT_EQ(counter.value(), 4);
}

TEST(MetricsRegistry, DefaultHandlesAreNoOps) {
  Counter counter;
  Gauge gauge;
  Histogram histogram;
  EXPECT_FALSE(counter.valid());
  EXPECT_FALSE(gauge.valid());
  EXPECT_FALSE(histogram.valid());
  counter.add(7);
  gauge.set(1.5);
  histogram.observe(3.0);
  EXPECT_EQ(counter.value(), 0);
  EXPECT_EQ(gauge.value(), 0.0);
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.sum(), 0.0);
}

TEST(MetricsRegistry, GetOrCreateReturnsSameMetric) {
  MetricsRegistry registry;
  Counter a = registry.counter("test.counter.shared");
  Counter b = registry.counter("test.counter.shared");
  a.add(3);
  b.add(4);
  EXPECT_EQ(a.value(), 7);
  EXPECT_EQ(b.value(), 7);
  EXPECT_EQ(registry.size(), 1u);

  Gauge g1 = registry.gauge("test.gauge.shared");
  Gauge g2 = registry.gauge("test.gauge.shared");
  g1.set(2.5);
  EXPECT_EQ(g2.value(), 2.5);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(MetricsRegistry, DistinctShardsSumTogether) {
  MetricsRegistry registry;
  Counter counter = registry.counter("test.counter.sharded");
  for (std::size_t shard = 0; shard < 2 * pcn::obs::kShards; ++shard) {
    counter.add(1, shard);  // shard indices fold with & kShardMask
  }
  EXPECT_EQ(counter.value(), static_cast<std::int64_t>(2 * pcn::obs::kShards));
}

TEST(MetricsRegistry, NameValidation) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.counter(""), InvalidArgument);
  EXPECT_THROW(registry.counter("Bad.Name"), InvalidArgument);
  EXPECT_THROW(registry.counter("has space"), InvalidArgument);
  EXPECT_THROW(registry.counter(".leading.dot"), InvalidArgument);
  EXPECT_THROW(registry.counter("trailing.dot."), InvalidArgument);
  EXPECT_THROW(registry.gauge("hy-phen"), InvalidArgument);
  EXPECT_THROW(registry.histogram("Bad", {1.0}), InvalidArgument);
  // The documented scheme itself is accepted.
  EXPECT_TRUE(registry.counter("sim.page.polled_cells").valid());
  EXPECT_TRUE(registry.counter("costmodel.solve.ns").valid());
}

TEST(MetricsRegistry, HistogramBoundsValidation) {
  MetricsRegistry registry;
  EXPECT_THROW(registry.histogram("test.histogram.empty", {}),
               InvalidArgument);
  EXPECT_THROW(registry.histogram("test.histogram.flat", {1.0, 1.0}),
               InvalidArgument);
  EXPECT_THROW(registry.histogram("test.histogram.unsorted", {2.0, 1.0}),
               InvalidArgument);
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(registry.histogram("test.histogram.inf", {1.0, inf}),
               InvalidArgument);

  registry.histogram("test.histogram.ok", {1.0, 2.0});
  // Re-registration with the same bounds is the get-or-create path...
  Histogram again = registry.histogram("test.histogram.ok", {1.0, 2.0});
  EXPECT_TRUE(again.valid());
  // ...but differing bounds are a caller bug.
  EXPECT_THROW(registry.histogram("test.histogram.ok", {1.0, 3.0}),
               InvalidArgument);
}

TEST(MetricsRegistry, HistogramLeBucketBoundaries) {
  MetricsRegistry registry;
  Histogram histogram =
      registry.histogram("test.histogram.le", {1.0, 2.0, 4.0});
  // Prometheus le semantics: x lands in the first bucket with x <= bound.
  histogram.observe(0.5);  // <= 1.0
  histogram.observe(1.0);  // exactly on a bound stays in that bucket
  histogram.observe(1.5);  // <= 2.0
  histogram.observe(4.0);  // last finite bucket
  histogram.observe(4.5);  // overflow
  histogram.observe(100.0);

  const MetricsSnapshot snapshot = registry.snapshot();
  const auto* sample = snapshot.find_histogram("test.histogram.le");
  ASSERT_NE(sample, nullptr);
  ASSERT_EQ(sample->counts.size(), 4u);  // 3 bounds + overflow
  EXPECT_EQ(sample->counts[0], 2);       // 0.5, 1.0
  EXPECT_EQ(sample->counts[1], 1);       // 1.5
  EXPECT_EQ(sample->counts[2], 1);       // 4.0
  EXPECT_EQ(sample->counts[3], 2);       // 4.5, 100.0
  EXPECT_EQ(sample->count, 6);
  EXPECT_DOUBLE_EQ(sample->sum, 0.5 + 1.0 + 1.5 + 4.0 + 4.5 + 100.0);
  EXPECT_DOUBLE_EQ(sample->mean(), sample->sum / 6.0);
  EXPECT_EQ(histogram.count(), 6);
}

TEST(MetricsRegistry, CountedObserveMatchesRepeatedObserves) {
  // (value, count, shard): bucket edges, the overflow bucket far past the
  // last bound, count 0, and shards that fold onto one cell.
  struct Step {
    double value;
    std::int64_t count;
    std::size_t shard;
  };
  const std::vector<Step> steps = {
      {0.0, 3, 0},   {1.0, 5, 1},  {2.0, 0, 2},   {3.0, 7, 2},
      {8.0, 2, 3},   {9.0, 4, 3},  {1e6, 3, 17},  {4096.0, 0, 5},
      {5.0, 11, 16}, {1e12, 1, 0}, {2.0, 64, 15}, {100.0, 9, 4},
  };
  MetricsRegistry repeated_registry;
  MetricsRegistry counted_registry;
  const std::vector<double> bounds =
      pcn::obs::exponential_buckets(1.0, 2.0, 4);  // 1, 2, 4, 8
  Histogram repeated =
      repeated_registry.histogram("test.hist.counted", bounds);
  Histogram counted = counted_registry.histogram("test.hist.counted", bounds);
  for (const Step& step : steps) {
    for (std::int64_t i = 0; i < step.count; ++i) {
      repeated.observe(step.value, step.shard);
    }
    counted.observe_n(step.value, step.count, step.shard);
  }
  counted.observe_n(7.0, -3);  // a negative count is a no-op too

  const MetricsSnapshot a = repeated_registry.snapshot();
  const MetricsSnapshot b = counted_registry.snapshot();
  const auto* sa = a.find_histogram("test.hist.counted");
  const auto* sb = b.find_histogram("test.hist.counted");
  ASSERT_NE(sa, nullptr);
  ASSERT_NE(sb, nullptr);
  EXPECT_EQ(sa->counts, sb->counts);
  EXPECT_EQ(sa->count, sb->count);
  EXPECT_EQ(sa->sum, sb->sum);  // exact: integer partial sums
  EXPECT_EQ(repeated.count(), counted.count());
  EXPECT_EQ(repeated.sum(), counted.sum());
  EXPECT_EQ(sa->counts.back(), 4 + 3 + 1 + 9);  // 9, 1e6, 1e12, 100
  EXPECT_EQ(pcn::obs::to_prometheus(a), pcn::obs::to_prometheus(b));
  EXPECT_EQ(pcn::obs::to_json(a), pcn::obs::to_json(b));

  // Count 0 alone leaves a fresh histogram untouched.
  MetricsRegistry empty_registry;
  Histogram empty = empty_registry.histogram("test.hist.counted", bounds);
  empty.observe_n(3.0, 0);
  EXPECT_EQ(empty.count(), 0);
  EXPECT_EQ(empty.sum(), 0.0);
  Histogram detached;
  detached.observe_n(1.0, 4);  // null handle: no-op
  EXPECT_EQ(detached.count(), 0);
}

TEST(MetricsRegistry, BucketHelpers) {
  const std::vector<double> exp = pcn::obs::exponential_buckets(1.0, 2.0, 4);
  ASSERT_EQ(exp.size(), 4u);
  EXPECT_DOUBLE_EQ(exp[0], 1.0);
  EXPECT_DOUBLE_EQ(exp[1], 2.0);
  EXPECT_DOUBLE_EQ(exp[2], 4.0);
  EXPECT_DOUBLE_EQ(exp[3], 8.0);

  const std::vector<double> lin = pcn::obs::linear_buckets(0.5, 0.25, 3);
  ASSERT_EQ(lin.size(), 3u);
  EXPECT_DOUBLE_EQ(lin[0], 0.5);
  EXPECT_DOUBLE_EQ(lin[1], 0.75);
  EXPECT_DOUBLE_EQ(lin[2], 1.0);

  EXPECT_THROW(pcn::obs::exponential_buckets(0.0, 2.0, 4), InvalidArgument);
  EXPECT_THROW(pcn::obs::exponential_buckets(1.0, 1.0, 4), InvalidArgument);
  EXPECT_THROW(pcn::obs::exponential_buckets(1.0, 2.0, 0), InvalidArgument);
  EXPECT_THROW(pcn::obs::linear_buckets(1.0, 0.0, 4), InvalidArgument);
}

TEST(MetricsRegistry, SnapshotSortedByName) {
  MetricsRegistry registry;
  registry.counter("zeta.last.count");
  registry.counter("alpha.first.count");
  registry.counter("mid.dle.count");
  const MetricsSnapshot snapshot = registry.snapshot();
  ASSERT_EQ(snapshot.counters.size(), 3u);
  EXPECT_EQ(snapshot.counters[0].name, "alpha.first.count");
  EXPECT_EQ(snapshot.counters[1].name, "mid.dle.count");
  EXPECT_EQ(snapshot.counters[2].name, "zeta.last.count");
  EXPECT_EQ(snapshot.counter_value("missing.counter"), 0);
  EXPECT_EQ(snapshot.find_counter("missing.counter"), nullptr);
}

// --- Concurrency contract (run under TSan by tools/run_checks.sh) ------------

TEST(MetricsRegistryConcurrency, EightThreadIncrementsSumExactly) {
  MetricsRegistry registry;
  Counter counter = registry.counter("test.concurrent.count");
  Histogram histogram =
      registry.histogram("test.concurrent.hist", {1.0, 2.0, 4.0, 8.0});
  constexpr int kThreads = 8;
  constexpr std::int64_t kPerThread = 20000;

  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::int64_t i = 0; i < kPerThread; ++i) {
        counter.add(1, static_cast<std::size_t>(t));
        histogram.observe(static_cast<double>(i % 10),
                          static_cast<std::size_t>(t));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  EXPECT_EQ(counter.value(), kThreads * kPerThread);
  EXPECT_EQ(histogram.count(), kThreads * kPerThread);
  // Sum of i % 10 over kPerThread consecutive i, per thread.
  const double per_thread_sum = 45.0 * (kPerThread / 10.0);
  EXPECT_DOUBLE_EQ(histogram.sum(), kThreads * per_thread_sum);
}

TEST(MetricsRegistryConcurrency, ConcurrentGetOrCreateIsSafe) {
  MetricsRegistry registry;
  constexpr int kThreads = 8;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < 50; ++i) {
        registry.counter("test.race.c" + std::to_string(i)).increment();
        registry.gauge("test.race.g" + std::to_string(i)).set(1.0);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  EXPECT_EQ(registry.size(), 100u);
  EXPECT_EQ(registry.snapshot().counter_value("test.race.c0"), kThreads);
}

TEST(MetricsRegistryConcurrency, SnapshotWhileWriting) {
  MetricsRegistry registry;
  Counter counter = registry.counter("test.live.count");
  Histogram histogram = registry.histogram("test.live.hist", {1.0, 2.0});
  std::atomic<bool> stop{false};

  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&, t] {
      std::int64_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        counter.add(1, static_cast<std::size_t>(t));
        histogram.observe(static_cast<double>(i++ % 3),
                          static_cast<std::size_t>(t));
      }
    });
  }

  // Snapshots under live writers: totals must be monotone (no torn or
  // double-counted cells) and internally consistent.
  std::int64_t last_count = 0;
  for (int round = 0; round < 200; ++round) {
    const MetricsSnapshot snapshot = registry.snapshot();
    const std::int64_t count = snapshot.counter_value("test.live.count");
    EXPECT_GE(count, last_count);
    last_count = count;
    const auto* sample = snapshot.find_histogram("test.live.hist");
    ASSERT_NE(sample, nullptr);
    std::int64_t bucket_total = 0;
    for (const std::int64_t bucket : sample->counts) {
      EXPECT_GE(bucket, 0);
      bucket_total += bucket;
    }
    EXPECT_EQ(bucket_total, sample->count);
  }
  stop.store(true);
  for (std::thread& writer : writers) writer.join();
  EXPECT_GE(counter.value(), last_count);
}

}  // namespace
