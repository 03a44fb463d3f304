// Run timelines: a metric history recorder over the metrics registry,
// window reads over the captured columns, and changepoint analytics.
//
// A TimeseriesRecorder samples a MetricsSnapshot into preallocated
// per-series columns, keyed by a strictly increasing integer the caller
// picks.  The run capture keys by simulated *slot*, never wall clock:
// because samples are taken at points where every engine has flushed its
// per-shard scratch state, the captured history is bit-identical at any
// thread count.  Series whose values are inherently thread- or
// wall-clock-dependent (duration counters, sampled cycle tallies, the
// parallel-segment count) are filtered out of the recording by name, so
// the determinism contract holds for every retained column.  The admin
// plane keeps a capped recorder keyed by monotonic nanoseconds instead;
// the columns and the reads are the same.
//
// The in-memory model (`Timeseries`) is columnar: one key column plus one
// value column per series (histograms carry one column per bucket, in
// parallel).  timeseries_codec.hpp serialises it as the compact
// `pcn.timeseries.v1` binary format.  window_delta() and
// window_quantiles() answer "what happened over the last W key units"
// from column deltas: the admin server's 1s/10s/60s windows and
// `pcnctl timeline`'s per-step series read them, and `pcnctl timeline`
// feeds the latter to the CUSUM detector below.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "pcn/obs/metrics.hpp"

namespace pcn::obs {

/// Which registry kind a recorded series mirrors.  Values are part of the
/// pcn.timeseries.v1 wire format — do not renumber.
enum class SeriesKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kHistogram = 2,
};

/// A captured metric history: one key column and a fixed dictionary of
/// series, each holding one value per sample.  All per-sample vectors are
/// parallel to `slots`.
struct Timeseries {
  struct Series {
    std::string name;
    SeriesKind kind = SeriesKind::kCounter;
    /// Histogram bucket upper bounds (empty for counters and gauges).
    std::vector<double> bounds;
    /// Counter values, one per sample (kCounter only).
    std::vector<std::int64_t> values;
    /// Gauge values (kGauge) or histogram sums (kHistogram), per sample.
    std::vector<double> dvalues;
    /// Histogram total counts per sample (kHistogram only).
    std::vector<std::int64_t> counts;
    /// Histogram buckets: bounds.size() + 1 columns, each one value per
    /// sample (kHistogram only).
    std::vector<std::vector<std::int64_t>> bucket_columns;
  };

  /// Sampling cadence the recorder was configured with (key units between
  /// samples); informational, preserved by the codec.
  std::int64_t every_slots = 0;
  /// Key of each sample, strictly increasing: the slot index for a run
  /// capture, monotonic nanoseconds for the admin plane's history.
  std::vector<std::int64_t> slots;
  /// Fixed dictionary, ordered as first captured (registry snapshot order:
  /// counters, then gauges, then histograms, each sorted by name).
  std::vector<Series> series;

  std::size_t sample_count() const { return slots.size(); }
  /// Linear scan by name (series counts are small); nullptr when absent.
  const Series* find(std::string_view name) const;
};

/// True when `name` is stable across thread counts and may be recorded.
/// Filters duration counters (`*_ns`, `*_us`) and the known sampled /
/// scheduling-dependent simulator series.
bool timeseries_series_is_deterministic(std::string_view name);

/// Samples a registry into a Timeseries.  The series dictionary is fixed
/// by the first sample: metrics registered after that are ignored, so
/// every column stays parallel to the key column.
class TimeseriesRecorder {
 public:
  /// `every_slots` is the intended cadence (recorded into the output;
  /// callers drive the actual sampling).  `max_samples` > 0 bounds the
  /// recording to the most recent samples (a live tail ring for serve
  /// mode); 0 keeps everything.
  explicit TimeseriesRecorder(std::int64_t every_slots,
                              std::size_t max_samples = 0);

  /// Preallocate columns for `expected_samples` (cheap insurance against
  /// mid-run reallocation; safe to skip).
  void reserve(std::size_t expected_samples);

  /// Record `snapshot` at key `slot`.  Returns false (and records nothing)
  /// when `slot` is not newer than the last recorded sample, so callers
  /// with overlapping sample triggers stay idempotent.
  bool sample(std::int64_t slot, const MetricsSnapshot& snapshot);

  std::size_t sample_count() const {
    const std::size_t held = data_.sample_count();
    return max_samples_ == 0 ? held : std::min(held, max_samples_);
  }
  std::int64_t every_slots() const { return data_.every_slots; }
  /// The recording; with a cap, exactly the newest `max_samples` samples.
  /// Trims in place, so it must not race another call on this recorder.
  const Timeseries& data() const {
    trim_to_max();
    return data_;
  }

 private:
  void fix_dictionary(const MetricsSnapshot& snapshot);
  /// Drops all but the newest `max_samples` samples.  sample() calls it
  /// only once the columns hold twice the cap, so a capped recording
  /// costs amortised O(series) per sample; data() calls it before a read.
  void trim_to_max() const;

  std::size_t max_samples_;
  /// Mutable so data() can drop the slack sample() leaves past the cap.
  mutable Timeseries data_;
};

// --- Window reads -----------------------------------------------------------
//
// A window ends at sample `newest` (default: the last one) and starts at
// its base: the oldest earlier sample whose key lies within `span` key
// units of the newest key.  The newest sample is never its own base, so a
// read needs two samples; without a base it is empty.  Counters and
// histogram buckets are cumulative, so the column delta between base and
// newest is exactly the window's activity.  A delta that goes negative
// (a counter reset, which only outside input such as a decoded capture
// can hold) reads as the newest value instead: the activity since the
// reset.

/// Counter activity over a window.
struct WindowDelta {
  std::int64_t delta = 0;
  /// Key distance from the base to the newest sample (<= the requested
  /// span): slots for a run capture, ns for the admin history.
  std::int64_t span = 0;
};

/// The default quantile list: median plus the tail pair every scrape shows.
inline constexpr double kDefaultQuantiles[] = {0.50, 0.95, 0.99};

/// Histogram summary over a window, from bucket-column deltas.
/// `values[i]` answers the i-th requested quantile with the upper bound of
/// the bucket stats::count_percentile picks over the deltas; `max` is the
/// upper bound of the highest non-empty bucket.  The overflow bucket
/// reports the last finite bound in both.
struct WindowQuantiles {
  std::int64_t count = 0;  ///< observations inside the window
  double mean = 0.0;
  double max = 0.0;
  std::vector<double> values;  ///< parallel to the requested quantile list

  /// The index-th requested quantile; 0.0 past the end of the list.
  double at(std::size_t index) const {
    return index < values.size() ? values[index] : 0.0;
  }
};

/// Reads the window ending at the last sample.
inline constexpr std::size_t kLastSample = static_cast<std::size_t>(-1);

/// Delta of counter `name` over the window.  Empty without a base, or
/// when `name` is not a recorded counter.
std::optional<WindowDelta> window_delta(const Timeseries& data,
                                        std::string_view name,
                                        std::int64_t span,
                                        std::size_t newest = kLastSample);

/// Count, mean, max and the `wanted` quantiles of histogram `name` over
/// the window.  Empty without a base, or when `name` is not a recorded
/// histogram.  A negative count or bucket delta falls back to the newest
/// sample's cumulative state.
std::optional<WindowQuantiles> window_quantiles(
    const Timeseries& data, std::string_view name, std::int64_t span,
    std::span<const double> wanted = kDefaultQuantiles,
    std::size_t newest = kLastSample);

// --- Changepoint detection ---------------------------------------------------

/// CUSUM configuration for detect_upward_shift().
struct ChangepointConfig {
  /// Samples that define the pre-change baseline (clamped to
  /// [1, n/2] for an n-sample series).
  std::size_t baseline_samples = 8;
  /// Slack subtracted per step, in baseline scales: shifts smaller than
  /// this drift never accumulate.
  double drift_sigmas = 0.5;
  /// Cumulative score, in baseline scales, at which a shift is declared.
  double threshold_sigmas = 8.0;
};

/// Result of a one-sided (upward) CUSUM scan.
struct Changepoint {
  bool detected = false;
  std::int64_t onset_slot = -1;   ///< slot of the first sample at/after onset
  std::size_t onset_index = 0;    ///< index into the scanned series
  double baseline_mean = 0.0;
  double scale = 0.0;             ///< sigma estimate the scores are scaled by
  double peak_score = 0.0;        ///< maximum cumulative score reached
};

/// One-sided CUSUM over `values` (parallel to `slots`): accumulates
/// positive deviations from the baseline mean in units of the baseline
/// scale and reports the first sample where the cumulative score crosses
/// the threshold.  The scale is floored relative to the series magnitude
/// so a zero-variance baseline (the usual pre-overload case: a flat zero
/// drop rate) still detects a later step, while an all-zero series never
/// fires.
Changepoint detect_upward_shift(std::span<const std::int64_t> slots,
                                std::span<const double> values,
                                const ChangepointConfig& config = {});

}  // namespace pcn::obs
