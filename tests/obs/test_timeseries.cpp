// The run-timeline layer: TimeseriesRecorder sampling semantics, the
// determinism filter, the pcn.timeseries.v1 codec (lossless byte-exact
// round-trips, qualified decode errors on corruption), CUSUM changepoint
// detection, and — the contract the whole layer hangs on — bit-identical
// capture at 1 vs 4 threads for both the Network engine and the pcnd
// slot loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pcn/daemon/daemon.hpp"
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

  // snapshot_at reconstructs the registry view at a sample.
  const MetricsSnapshot at0 = data.snapshot_at(0);
  EXPECT_EQ(at0.counter_value("pages"), 10);
  const MetricsSnapshot at1 = data.snapshot_at(1);
  EXPECT_EQ(at1.counter_value("pages"), 15);
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
