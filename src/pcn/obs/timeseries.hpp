// Run timelines: a deterministic in-run time-series recorder over the
// metrics registry, plus changepoint analytics on the captured series.
//
// A TimeseriesRecorder samples a MetricsSnapshot every N *slots* — never
// wall-clock — into preallocated per-series columns.  Because samples are
// keyed by simulated slot and taken at points where every engine has
// flushed its per-shard scratch state, the captured history is
// bit-identical at any thread count.  Series whose values are inherently
// thread- or wall-clock-dependent (duration counters, sampled cycle
// tallies, the parallel-segment count) are filtered out of the recording
// by name, so the determinism contract holds for every retained column.
//
// The in-memory model (`Timeseries`) is columnar: one slot column plus one
// value column per series (histograms carry one column per bucket, in
// parallel).  timeseries_codec.hpp serialises it as the compact
// `pcn.timeseries.v1` binary format; `pcnctl timeline` replays it through
// RollingWindow delta math and the CUSUM detector below.
#pragma once

#include <algorithm>
#include <cstdint>
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

/// A captured run timeline: one slot column and a fixed dictionary of
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

  /// Sampling cadence the recorder was configured with (slots between
  /// samples); informational, preserved by the codec.
  std::int64_t every_slots = 0;
  /// Slot index of each sample, strictly increasing.
  std::vector<std::int64_t> slots;
  /// Fixed dictionary, ordered as first captured (registry snapshot order:
  /// counters, then gauges, then histograms, each sorted by name).
  std::vector<Series> series;

  std::size_t sample_count() const { return slots.size(); }
  /// Linear scan by name (series counts are small); nullptr when absent.
  const Series* find(std::string_view name) const;
  /// Reconstruct the MetricsSnapshot recorded at sample `index` (sorted by
  /// name per kind, like MetricsRegistry::snapshot()).  Out-of-range
  /// indices return an empty snapshot.
  MetricsSnapshot snapshot_at(std::size_t index) const;
};

/// True when `name` is stable across thread counts and may be recorded.
/// Filters duration counters (`*_ns`, `*_us`) and the known sampled /
/// scheduling-dependent simulator series.
bool timeseries_series_is_deterministic(std::string_view name);

/// Samples a registry into a Timeseries.  The series dictionary is fixed
/// by the first sample: metrics registered after that are ignored, so
/// every column stays parallel to the slot column.
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

  /// Record `snapshot` at `slot`.  Returns false (and records nothing)
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
