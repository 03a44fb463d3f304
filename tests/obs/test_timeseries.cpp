// The run-timeline layer: TimeseriesRecorder sampling semantics, the
// determinism filter, window reads over the columns (deltas and bucket-
// delta quantiles, exact on synthetic keys), the pcn.timeseries.v1 codec
// (lossless byte-exact round-trips, qualified decode errors on
// corruption), CUSUM changepoint detection, and — the contract the whole
// layer hangs on — bit-identical capture at 1 vs 4 threads for both the
// Network engine and the pcnd slot loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "pcn/obs/metrics.hpp"
#include "pcn/obs/timeseries.hpp"
#include "pcn/obs/timeseries_codec.hpp"
#include "pcn/proto/wire.hpp"
#include "pcn/sim/network.hpp"

namespace pcn::obs {
namespace {

TEST(TimeseriesFilter, ExcludesTimingAndSampledSeries) {
  // Thread-invariant names pass.
  EXPECT_TRUE(timeseries_series_is_deterministic("daemon.page.served"));
  EXPECT_TRUE(timeseries_series_is_deterministic("sim.update.count"));
  EXPECT_TRUE(
      timeseries_series_is_deterministic("daemon.page.queue_delay_slots"));
  // Wall-clock series are not deterministic.
  EXPECT_FALSE(timeseries_series_is_deterministic("daemon.run.wall_ns"));
  EXPECT_FALSE(timeseries_series_is_deterministic("daemon.phase.ingest_us"));
  EXPECT_FALSE(timeseries_series_is_deterministic("x.y.ns"));
  EXPECT_FALSE(timeseries_series_is_deterministic("x.y.us"));
  // The 1-in-32 sampled paging probes depend on flush interleaving.
  EXPECT_FALSE(timeseries_series_is_deterministic("sim.page.sampled"));
  EXPECT_FALSE(timeseries_series_is_deterministic("sim.page.cycles"));
  EXPECT_FALSE(
      timeseries_series_is_deterministic("sim.page.polled_per_call"));
  // Segment parallelism depends on the thread count itself.
  EXPECT_FALSE(timeseries_series_is_deterministic("sim.segment.parallel"));
}

TEST(TimeseriesRecorder, SamplesColumnsAndRejectsStaleSlots) {
  MetricsRegistry registry;
  Counter pages = registry.counter("pages");
  Gauge depth = registry.gauge("depth");
  Histogram delay = registry.histogram("delay", {1.0, 2.0});
  registry.counter("noise.wall_ns").add(123);  // filtered out

  TimeseriesRecorder recorder(/*every_slots=*/4);
  pages.add(10);
  depth.set(3);
  delay.observe(1.5);
  EXPECT_TRUE(recorder.sample(0, registry.snapshot()));
  pages.add(5);
  EXPECT_TRUE(recorder.sample(4, registry.snapshot()));
  // Same or older slot: overlapping triggers are idempotent.
  EXPECT_FALSE(recorder.sample(4, registry.snapshot()));
  EXPECT_FALSE(recorder.sample(2, registry.snapshot()));
  ASSERT_EQ(recorder.sample_count(), 2u);

  const Timeseries& data = recorder.data();
  EXPECT_EQ(data.every_slots, 4);
  ASSERT_EQ(data.slots, (std::vector<std::int64_t>{0, 4}));
  EXPECT_EQ(data.find("noise.wall_ns"), nullptr);
  const Timeseries::Series* counter = data.find("pages");
  ASSERT_NE(counter, nullptr);
  EXPECT_EQ(counter->kind, SeriesKind::kCounter);
  EXPECT_EQ(counter->values, (std::vector<std::int64_t>{10, 15}));
  const Timeseries::Series* gauge = data.find("depth");
  ASSERT_NE(gauge, nullptr);
  EXPECT_EQ(gauge->kind, SeriesKind::kGauge);
  ASSERT_EQ(gauge->dvalues.size(), 2u);
  EXPECT_DOUBLE_EQ(gauge->dvalues[0], 3.0);
  const Timeseries::Series* histogram = data.find("delay");
  ASSERT_NE(histogram, nullptr);
  EXPECT_EQ(histogram->kind, SeriesKind::kHistogram);
  EXPECT_EQ(histogram->counts, (std::vector<std::int64_t>{1, 1}));
  ASSERT_EQ(histogram->bucket_columns.size(), 3u);  // 2 bounds + overflow
  EXPECT_EQ(histogram->bucket_columns[1],
            (std::vector<std::int64_t>{1, 1}));  // 1.5 lands in (1,2]
}

TEST(TimeseriesRecorder, MaxSamplesKeepsNewestRing) {
  MetricsRegistry registry;
  Counter ticks = registry.counter("ticks");
  TimeseriesRecorder recorder(/*every_slots=*/1, /*max_samples=*/3);
  for (std::int64_t slot = 0; slot < 10; ++slot) {
    ticks.add(1);
    recorder.sample(slot, registry.snapshot());
  }
  ASSERT_EQ(recorder.sample_count(), 3u);
  EXPECT_EQ(recorder.data().slots, (std::vector<std::int64_t>{7, 8, 9}));
  EXPECT_EQ(recorder.data().find("ticks")->values,
            (std::vector<std::int64_t>{8, 9, 10}));
}

/// `all` cut to its newest `cap` samples, column by column.
Timeseries keep_newest(Timeseries all, std::size_t cap) {
  if (all.slots.size() <= cap) return all;
  const auto drop = static_cast<std::ptrdiff_t>(all.slots.size() - cap);
  const auto cut = [drop](auto& column) {
    if (!column.empty()) column.erase(column.begin(), column.begin() + drop);
  };
  cut(all.slots);
  for (Timeseries::Series& series : all.series) {
    cut(series.values);
    cut(series.dvalues);
    cut(series.counts);
    for (std::vector<std::int64_t>& column : series.bucket_columns) {
      cut(column);
    }
  }
  return all;
}

TEST(TimeseriesRecorder, CappedEncodingEqualsKeepNewestAtEveryLength) {
  for (const std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{64}}) {
    MetricsRegistry registry;
    Counter pages = registry.counter("pages");
    Gauge depth = registry.gauge("depth");
    Histogram delay = registry.histogram("delay", {1.0, 2.0, 4.0});
    std::vector<MetricsSnapshot> snapshots;
    for (std::int64_t slot = 0; slot < static_cast<std::int64_t>(5 * cap);
         ++slot) {
      pages.add(slot % 5 + 1);
      depth.set(slot % 7);
      delay.observe(double(slot % 6) * 0.9);
      snapshots.push_back(registry.snapshot());
    }
    // `stepped` is read after every sample; a fresh `once` per length is
    // read only at the end, holding up to twice the cap before that.
    TimeseriesRecorder all(/*every_slots=*/1);
    TimeseriesRecorder stepped(/*every_slots=*/1, cap);
    for (std::size_t n = 1; n <= snapshots.size(); ++n) {
      SCOPED_TRACE(testing::Message() << "cap " << cap << ", " << n
                                      << " samples");
      const auto slot = static_cast<std::int64_t>(n - 1);
      all.sample(slot, snapshots[n - 1]);
      stepped.sample(slot, snapshots[n - 1]);
      TimeseriesRecorder once(/*every_slots=*/1, cap);
      for (std::size_t i = 0; i < n; ++i) {
        once.sample(static_cast<std::int64_t>(i), snapshots[i]);
      }
      const std::vector<std::uint8_t> expected =
          encode_timeseries(keep_newest(all.data(), cap));
      EXPECT_EQ(once.sample_count(), std::min(n, cap));
      EXPECT_EQ(encode_timeseries(once.data()), expected);
      EXPECT_EQ(stepped.sample_count(), std::min(n, cap));
      EXPECT_EQ(encode_timeseries(stepped.data()), expected);
    }
  }
}

// --- window reads ------------------------------------------------------------
//
// Keys here are synthetic nanoseconds, as in the admin plane's history.

constexpr std::int64_t kSecond = 1'000'000'000;

TEST(TimeseriesWindow, DeltaCoversTheActualSpan) {
  MetricsRegistry registry;
  Counter pages = registry.counter("pages");
  TimeseriesRecorder recorder(kSecond);
  recorder.sample(0, registry.snapshot());
  pages.add(100);
  recorder.sample(1 * kSecond, registry.snapshot());
  pages.add(300);
  recorder.sample(2 * kSecond, registry.snapshot());
  const Timeseries& data = recorder.data();

  // 10 s window: the base is the oldest sample, both increments count.
  const auto wide = window_delta(data, "pages", 10 * kSecond);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->delta, 400);
  EXPECT_EQ(wide->span, 2 * kSecond);

  // 1 s window: the base is the middle sample, only the last increment.
  const auto narrow = window_delta(data, "pages", 1 * kSecond);
  ASSERT_TRUE(narrow.has_value());
  EXPECT_EQ(narrow->delta, 300);
  EXPECT_EQ(narrow->span, 1 * kSecond);

  // A window may end at an earlier sample: `newest` picks it.
  const auto first_step = window_delta(data, "pages", kSecond, 1);
  ASSERT_TRUE(first_step.has_value());
  EXPECT_EQ(first_step->delta, 100);
  EXPECT_EQ(first_step->span, kSecond);
}

TEST(TimeseriesWindow, NeedsTwoSamplesAndARecordedSeries) {
  MetricsRegistry registry;
  registry.counter("pages").add(5);
  registry.histogram("delay", {1.0});
  TimeseriesRecorder recorder(kSecond);
  EXPECT_FALSE(window_delta(recorder.data(), "pages", kSecond).has_value());
  recorder.sample(0, registry.snapshot());
  EXPECT_FALSE(window_delta(recorder.data(), "pages", kSecond).has_value());
  recorder.sample(kSecond, registry.snapshot());
  EXPECT_TRUE(window_delta(recorder.data(), "pages", kSecond).has_value());
  // Names outside the dictionary, and a histogram read as a counter (or
  // the reverse), have no window.
  EXPECT_FALSE(
      window_delta(recorder.data(), "no.such.counter", kSecond).has_value());
  EXPECT_FALSE(window_delta(recorder.data(), "delay", kSecond).has_value());
  EXPECT_FALSE(
      window_quantiles(recorder.data(), "pages", kSecond).has_value());
}

TEST(TimeseriesWindow, CapacityCutKeepsNewestSamples) {
  MetricsRegistry registry;
  Counter ticks = registry.counter("ticks");
  TimeseriesRecorder recorder(kSecond, /*max_samples=*/4);
  for (int i = 0; i < 10; ++i) {
    ticks.add(1);
    recorder.sample(i * kSecond, registry.snapshot());
  }
  const Timeseries& data = recorder.data();
  ASSERT_EQ(data.sample_count(), 4u);
  EXPECT_EQ(data.slots.back(), 9 * kSecond);
  // A huge window only reaches back to the oldest retained sample (t=6s,
  // counter=7), so the delta is 10 - 7 = 3 over 3 seconds.
  const auto window = window_delta(data, "ticks", 100 * kSecond);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->delta, 3);
  EXPECT_EQ(window->span, 3 * kSecond);
  // A span past the key range (`pcnctl timeline --window-slots` is
  // outside input) saturates to the oldest sample instead of overflowing.
  const auto everything =
      window_delta(data, "ticks", std::numeric_limits<std::int64_t>::max());
  ASSERT_TRUE(everything.has_value());
  EXPECT_EQ(everything->delta, 3);
  // A negative span has no base.
  EXPECT_FALSE(window_delta(data, "ticks", -kSecond).has_value());
}

TEST(TimeseriesWindow, QuantilesComeFromBucketDeltas) {
  MetricsRegistry registry;
  Histogram delay = registry.histogram("delay", {1.0, 2.0, 4.0, 8.0});
  TimeseriesRecorder recorder(kSecond);
  // The base sample carries earlier observations the window subtracts.
  delay.observe(8.0);
  delay.observe(8.0);
  recorder.sample(0, registry.snapshot());
  // Inside the window: 90 observations in (1,2], 10 in (4,8].
  for (int i = 0; i < 90; ++i) delay.observe(2.0);
  for (int i = 0; i < 10; ++i) delay.observe(8.0);
  recorder.sample(kSecond, registry.snapshot());

  const auto q = window_quantiles(recorder.data(), "delay", kSecond);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->count, 100);
  EXPECT_DOUBLE_EQ(q->mean, (90 * 2.0 + 10 * 8.0) / 100.0);
  // Each quantile is the upper bound of the bucket count_percentile picks
  // over the deltas: p50 lands in (1,2], p95 and p99 in (4,8].
  ASSERT_EQ(q->values.size(), 3u);  // default p50/p95/p99
  EXPECT_DOUBLE_EQ(q->at(0), 2.0);
  EXPECT_DOUBLE_EQ(q->at(1), 8.0);
  EXPECT_DOUBLE_EQ(q->at(2), 8.0);
  // max is the upper bound of the highest non-empty bucket delta.
  EXPECT_DOUBLE_EQ(q->max, 8.0);
  // Out-of-range quantile index reads as 0 rather than UB.
  EXPECT_DOUBLE_EQ(q->at(99), 0.0);
}

TEST(TimeseriesWindow, QuantilesHonourCallerSuppliedList) {
  MetricsRegistry registry;
  Histogram delay = registry.histogram("delay", {1.0, 2.0, 4.0});
  TimeseriesRecorder recorder(kSecond);
  recorder.sample(0, registry.snapshot());
  for (int i = 0; i < 100; ++i) delay.observe(2.0);
  recorder.sample(kSecond, registry.snapshot());

  const double wanted[] = {0.0, 0.25, 1.0};
  const auto q = window_quantiles(recorder.data(), "delay", kSecond, wanted);
  ASSERT_TRUE(q.has_value());
  // Every observation is in (1,2], so 0.25 and 1.0 report its upper
  // bound.  q = 0 reaches its target (zero observations) at the first
  // bucket, count_percentile's rule for every exact-count quantile.
  EXPECT_EQ(q->values, (std::vector<double>{1.0, 2.0, 2.0}));
  EXPECT_DOUBLE_EQ(q->max, 2.0);
  // An empty list still gives count, mean and max.
  const auto none = window_quantiles(recorder.data(), "delay", kSecond, {});
  ASSERT_TRUE(none.has_value());
  EXPECT_TRUE(none->values.empty());
  EXPECT_EQ(none->count, 100);
}

TEST(TimeseriesWindow, OverflowBucketReportsLastFiniteBound) {
  MetricsRegistry registry;
  Histogram delay = registry.histogram("delay", {1.0, 2.0});
  TimeseriesRecorder recorder(kSecond);
  recorder.sample(0, registry.snapshot());
  delay.observe(1.0);
  for (int i = 0; i < 9; ++i) delay.observe(50.0);  // past every bound
  recorder.sample(kSecond, registry.snapshot());
  const auto q = window_quantiles(recorder.data(), "delay", kSecond);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->values, (std::vector<double>{2.0, 2.0, 2.0}));
  EXPECT_DOUBLE_EQ(q->max, 2.0);
}

TEST(TimeseriesWindow, IrregularSpacingWithWrapAround) {
  // Irregular keys pushed well past the cap.  Duplicate keys cannot
  // occur: the recorder (and decode_timeseries) reject a key that is not
  // newer than the last one.
  MetricsRegistry registry;
  Counter ticks = registry.counter("ticks");
  TimeseriesRecorder recorder(kSecond, /*max_samples=*/4);
  const std::int64_t keys[] = {0,          kSecond,      3 * kSecond,
                               3 * kSecond + 1, 10 * kSecond, 11 * kSecond,
                               25 * kSecond};
  for (const std::int64_t key : keys) {
    ticks.add(1);
    EXPECT_TRUE(recorder.sample(key, registry.snapshot()));
  }
  const Timeseries& data = recorder.data();
  // Retained: t=3s+1ns (c=4), 10s (5), 11s (6), 25s (7).
  ASSERT_EQ(data.sample_count(), 4u);
  const auto wide = window_delta(data, "ticks", 100 * kSecond);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->delta, 3);
  EXPECT_EQ(wide->span, 22 * kSecond - 1);
  // A window smaller than the gap back to any earlier sample has no base
  // (the newest sample is never its own base): no delta, not garbage.
  EXPECT_FALSE(window_delta(data, "ticks", 2 * kSecond).has_value());
  // The base is the oldest retained sample inside the window.
  const auto mid = window_delta(data, "ticks", 15 * kSecond);
  ASSERT_TRUE(mid.has_value());
  EXPECT_EQ(mid->delta, 2);
  EXPECT_EQ(mid->span, 15 * kSecond);
  const auto short_window = window_delta(data, "ticks", 14 * kSecond);
  ASSERT_TRUE(short_window.has_value());
  EXPECT_EQ(short_window->delta, 1);
  EXPECT_EQ(short_window->span, 14 * kSecond);
}

TEST(TimeseriesWindow, CounterResetReadsAsNewestValue) {
  // A decoded capture is outside input: its newest cumulative value may be
  // *smaller* than the base (a restarted process).  The delta never goes
  // negative; it reads as the newest value, the activity since the reset.
  MetricsRegistry before;
  before.counter("pages").add(1000);
  MetricsRegistry after;
  after.counter("pages").add(40);
  TimeseriesRecorder recorder(kSecond);
  recorder.sample(0, before.snapshot());
  recorder.sample(kSecond, after.snapshot());
  const auto window = window_delta(recorder.data(), "pages", kSecond);
  ASSERT_TRUE(window.has_value());
  EXPECT_EQ(window->delta, 40);
}

TEST(TimeseriesWindow, HistogramResetFallsBackToRawCounts) {
  // The same reset for histograms: every bucket delta would be negative,
  // so the window reads the newest sample's cumulative state.
  MetricsRegistry before;
  Histogram old_delay = before.histogram("delay", {1.0, 2.0, 4.0});
  for (int i = 0; i < 50; ++i) old_delay.observe(4.0);
  MetricsRegistry after;
  Histogram delay = after.histogram("delay", {1.0, 2.0, 4.0});
  for (int i = 0; i < 10; ++i) delay.observe(2.0);
  TimeseriesRecorder recorder(kSecond);
  recorder.sample(0, before.snapshot());
  recorder.sample(kSecond, after.snapshot());
  const auto q = window_quantiles(recorder.data(), "delay", kSecond);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->count, 10);
  EXPECT_DOUBLE_EQ(q->mean, 2.0);
  EXPECT_EQ(q->values, (std::vector<double>{2.0, 2.0, 2.0}));
  EXPECT_DOUBLE_EQ(q->max, 2.0);
}

TEST(TimeseriesWindow, EmptyWindowYieldsZeroCount) {
  MetricsRegistry registry;
  Histogram delay = registry.histogram("delay", {1.0, 2.0});
  delay.observe(1.0);
  TimeseriesRecorder recorder(kSecond);
  recorder.sample(0, registry.snapshot());
  recorder.sample(kSecond, registry.snapshot());  // no new observations
  const auto q = window_quantiles(recorder.data(), "delay", kSecond);
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->count, 0);
  EXPECT_DOUBLE_EQ(q->mean, 0.0);
  EXPECT_DOUBLE_EQ(q->max, 0.0);
  EXPECT_EQ(q->values, (std::vector<double>{0.0, 0.0, 0.0}));
  EXPECT_FALSE(
      window_quantiles(recorder.data(), "no.such.histogram", kSecond)
          .has_value());
}

TEST(TimeseriesWindow, WholeSpanDropRateMatchesTheRunReport) {
  // drop_oldest at 2x: the failures are evictions.  The capture's
  // baseline sample precedes the first slot, so the whole-span window
  // is the whole run and reads the report's page accounting exactly.
  daemon::PcndConfig config;
  config.threads = 2;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 16;
  config.queue.groups = 4;
  config.queue.admission = daemon::AdmissionPolicy::kDropOldest;
  config.sla_delay_slots = 8;
  config.timeseries_every_slots = 8;
  daemon::Pcnd pcnd(config);
  daemon::ClosedLoopConfig workload_config;
  workload_config.seed = 2026;
  workload_config.terminals = 2000;
  workload_config.region = 16;
  workload_config.move_prob = 0.2;
  workload_config.call_prob = 2.0 * 16 * 16 / 2000.0;
  workload_config.threshold = 3;
  daemon::ClosedLoopWorkload workload(workload_config);
  pcnd.run_slots(100, &workload);

  const daemon::DaemonRunReport report = daemon::make_daemon_report(pcnd, 0, 0);
  ASSERT_GT(report.pages_evicted, 0);
  const Timeseries data = decode_timeseries_string(pcnd.timeseries_encoded());
  const std::int64_t whole = data.slots.back() - data.slots.front();
  const auto delta_of = [&](std::string_view name) {
    const auto window = window_delta(data, name, whole);
    EXPECT_TRUE(window.has_value()) << name;
    return window ? window->delta : std::int64_t{0};
  };
  EXPECT_EQ(daemon::sum_counters(daemon::kOfferedPageCounters, delta_of),
            report.pages_offered);
  EXPECT_EQ(daemon::drop_rate(delta_of), report.drop_rate);
}

Timeseries sample_timeline() {
  MetricsRegistry registry;
  Counter pages = registry.counter("pages");
  Gauge depth = registry.gauge("depth");
  Histogram delay = registry.histogram("delay", {1.0, 2.0, 4.0});
  TimeseriesRecorder recorder(/*every_slots=*/8);
  for (std::int64_t slot = 0; slot <= 64; slot += 8) {
    pages.add(slot % 5 + 1);
    depth.set(static_cast<std::int64_t>(slot % 7));
    delay.observe(double(slot % 4) + 0.5);
    recorder.sample(slot, registry.snapshot());
  }
  return recorder.data();
}

TEST(TimeseriesCodec, RoundTripIsLosslessAndByteExact) {
  const Timeseries original = sample_timeline();
  const std::vector<std::uint8_t> encoded = encode_timeseries(original);
  const Timeseries decoded = decode_timeseries(encoded);

  EXPECT_EQ(decoded.every_slots, original.every_slots);
  EXPECT_EQ(decoded.slots, original.slots);
  ASSERT_EQ(decoded.series.size(), original.series.size());
  for (std::size_t i = 0; i < original.series.size(); ++i) {
    const Timeseries::Series& a = original.series[i];
    const Timeseries::Series& b = decoded.series[i];
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.kind, b.kind);
    EXPECT_EQ(a.bounds, b.bounds);
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.dvalues, b.dvalues);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.bucket_columns, b.bucket_columns);
  }
  // decode is a right inverse of encode at the byte level: re-encoding
  // the decoded timeline reproduces the exact file (the `--reencode`
  // contract gate 11 checks with cmp).
  EXPECT_EQ(encode_timeseries(decoded), encoded);
}

TEST(TimeseriesCodec, EmptyTimelineRoundTrips) {
  const Timeseries empty;
  const std::vector<std::uint8_t> encoded = encode_timeseries(empty);
  const Timeseries decoded = decode_timeseries(encoded);
  EXPECT_EQ(decoded.sample_count(), 0u);
  EXPECT_TRUE(decoded.series.empty());
  EXPECT_EQ(encode_timeseries(decoded), encoded);
}

TEST(TimeseriesCodec, TruncationAndBitFlipsAreQualifiedErrors) {
  const std::vector<std::uint8_t> encoded =
      encode_timeseries(sample_timeline());
  // Every proper prefix must throw, never crash or return garbage.
  for (std::size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_THROW(
        decode_timeseries(std::span(encoded.data(), len)),
        proto::DecodeError)
        << "prefix length " << len;
  }
  // Any single bit flip breaks the CRC trailer check.
  for (std::size_t pos = 0; pos < encoded.size(); pos += 7) {
    std::vector<std::uint8_t> corrupt = encoded;
    corrupt[pos] ^= 0x10;
    EXPECT_THROW(decode_timeseries(corrupt), proto::DecodeError)
        << "flip at " << pos;
  }
}

/// Appends the CRC-32 trailer the decoder demands, so the corruption
/// under test is reached instead of being masked by the checksum gate.
std::vector<std::uint8_t> with_crc(const proto::WireWriter& writer) {
  std::vector<std::uint8_t> bytes(writer.buffer().begin(),
                                  writer.buffer().end());
  const std::uint32_t crc = proto::crc32(bytes);
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<std::uint8_t>(crc >> (8 * i)));
  }
  return bytes;
}

TEST(TimeseriesCodec, ColumnBlockIndexOutOfRangeIsQualifiedError) {
  // A structurally valid file (correct CRC) whose single column block
  // names series index 5 when the dictionary has one entry.
  const auto bytes_of = [](std::string_view text) {
    return std::span(reinterpret_cast<const std::uint8_t*>(text.data()),
                     text.size());
  };
  proto::WireWriter writer;
  writer.put_bytes(bytes_of("pcn.timeseries.v1"));  // schema
  writer.put_varint(4);                             // every_slots
  writer.put_varint(1);                             // sample_count
  writer.put_signed(0);                             // slot column: slot 0
  writer.put_varint(1);                             // series_count
  writer.put_bytes(bytes_of("pages"));              // dictionary entry
  writer.put_u8(0);                                 // kind: counter
  writer.put_varint(5);  // column block index — out of range
  writer.put_signed(7);
  EXPECT_THROW(
      {
        try {
          decode_timeseries(with_crc(writer));
        } catch (const proto::DecodeError& error) {
          EXPECT_NE(std::string(error.what()).find("out of range"),
                    std::string::npos)
              << error.what();
          throw;
        }
      },
      proto::DecodeError);
}

TEST(TimeseriesChangepoint, DetectsStepShiftAtItsOnset) {
  std::vector<std::int64_t> slots;
  std::vector<double> values;
  for (int i = 0; i < 40; ++i) {
    slots.push_back(i * 4);
    // Quiet baseline with mild noise, then a sustained 10x shift.
    values.push_back(i < 20 ? 1.0 + 0.1 * double(i % 3) : 12.0);
  }
  const Changepoint shift = detect_upward_shift(slots, values);
  ASSERT_TRUE(shift.detected);
  EXPECT_EQ(shift.onset_slot, 80);  // first shifted sample, slot 20*4
  EXPECT_GT(shift.peak_score, 8.0);
  EXPECT_NEAR(shift.baseline_mean, 1.1, 0.2);
}

TEST(TimeseriesChangepoint, FlatOrNoisySeriesDoesNotFire) {
  std::vector<std::int64_t> slots;
  std::vector<double> flat;
  std::vector<double> noisy;
  for (int i = 0; i < 40; ++i) {
    slots.push_back(i);
    flat.push_back(5.0);
    noisy.push_back(5.0 + (i % 2 == 0 ? 0.5 : -0.5));
  }
  EXPECT_FALSE(detect_upward_shift(slots, flat).detected);
  EXPECT_FALSE(detect_upward_shift(slots, noisy).detected);
  // Too short for a baseline plus a detection region: never fires.
  EXPECT_FALSE(detect_upward_shift({}, {}).detected);
  EXPECT_FALSE(
      detect_upward_shift(std::vector<std::int64_t>{1},
                          std::vector<double>{3.0})
          .detected);
}

TEST(TimeseriesChangepoint, ZeroVarianceBaselineUsesScaleFloor) {
  // All-constant baseline (zero variance) followed by a jump: the scale
  // floor keeps the z-scores finite and the shift still detected.
  std::vector<std::int64_t> slots;
  std::vector<double> values;
  for (int i = 0; i < 30; ++i) {
    slots.push_back(i);
    values.push_back(i < 15 ? 2.0 : 40.0);
  }
  const Changepoint shift = detect_upward_shift(slots, values);
  ASSERT_TRUE(shift.detected);
  EXPECT_EQ(shift.onset_slot, 15);
  EXPECT_GT(shift.scale, 0.0);
}

// --- capture determinism across thread counts -------------------------------

std::string network_timeline(int threads) {
  sim::NetworkConfig config{Dimension::kTwoD,
                            sim::SlotSemantics::kChainFaithful, 99};
  config.threads = threads;
  config.timeseries_every_slots = 64;
  sim::Network network(config, CostWeights{50.0, 2.0});
  constexpr MobilityProfile kProfile{0.2, 0.05};
  for (int i = 0; i < 64; ++i) {
    switch (i % 3) {
      case 0:
        network.add_terminal(sim::make_distance_terminal(
            Dimension::kTwoD, kProfile, 1 + i % 4, DelayBound(2)));
        break;
      case 1:
        network.add_terminal(sim::make_movement_terminal(
            Dimension::kTwoD, kProfile, 2 + i % 4, DelayBound(3)));
        break;
      default:
        network.add_terminal(
            sim::make_time_terminal(Dimension::kTwoD, kProfile, 10 + i % 7));
        break;
    }
  }
  network.run(512);
  return encode_timeseries_string(network.timeseries()->data());
}

TEST(TimeseriesDeterminism, NetworkCaptureIsBitIdenticalAcrossThreads) {
  const std::string serial = network_timeline(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, network_timeline(4));
}

std::string daemon_timeline(int threads) {
  daemon::PcndConfig config;
  config.threads = threads;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 16;
  config.queue.groups = 4;
  config.sla_delay_slots = 8;
  config.timeseries_every_slots = 8;
  daemon::Pcnd pcnd(config);

  daemon::ClosedLoopConfig workload_config;
  workload_config.seed = 2026;
  workload_config.terminals = 2000;
  workload_config.region = 16;
  workload_config.move_prob = 0.2;
  workload_config.call_prob = 2.0 * 16 * 16 / 2000.0;  // 2x overload
  workload_config.threshold = 3;
  daemon::ClosedLoopWorkload workload(workload_config);
  pcnd.run_slots(64, &workload);
  return pcnd.timeseries_encoded();
}

TEST(TimeseriesDeterminism, DaemonCaptureIsBitIdenticalAcrossThreads) {
  const std::string serial = daemon_timeline(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, daemon_timeline(4));
}

}  // namespace
}  // namespace pcn::obs
