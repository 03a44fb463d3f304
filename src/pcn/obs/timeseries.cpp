#include "pcn/obs/timeseries.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "pcn/stats/histogram.hpp"

namespace pcn::obs {

namespace {

bool ends_with(std::string_view name, std::string_view suffix) {
  return name.size() >= suffix.size() &&
         name.substr(name.size() - suffix.size()) == suffix;
}

/// The window's base and newest sample indices; empty when no earlier
/// sample lies within `span` of the newest one.
struct WindowBounds {
  std::size_t base = 0;
  std::size_t newest = 0;
};

std::optional<WindowBounds> window_bounds(const Timeseries& data,
                                          std::int64_t span,
                                          std::size_t newest) {
  const std::vector<std::int64_t>& keys = data.slots;
  if (newest == kLastSample) newest = keys.empty() ? 0 : keys.size() - 1;
  if (span < 0 || newest == 0 || newest >= keys.size()) return std::nullopt;
  // Keys are strictly increasing: the oldest key >= newest - span, with
  // the newest sample itself excluded.  A span past the key range (say a
  // caller's "everything") saturates instead of overflowing.
  std::int64_t floor_key = 0;
  if (__builtin_sub_overflow(keys[newest], span, &floor_key)) {
    floor_key = std::numeric_limits<std::int64_t>::min();
  }
  const auto earlier_end = keys.begin() + static_cast<std::ptrdiff_t>(newest);
  const auto base = std::lower_bound(keys.begin(), earlier_end, floor_key);
  if (base == earlier_end) return std::nullopt;
  return WindowBounds{static_cast<std::size_t>(base - keys.begin()), newest};
}

/// Upper bound of bucket `index`; the overflow bucket reports the last
/// finite bound.
double bucket_upper(const std::vector<double>& bounds, std::size_t index) {
  if (bounds.empty()) return 0.0;
  return bounds[std::min(index, bounds.size() - 1)];
}

/// Upper bound of the highest non-empty bucket (the window's observed
/// maximum, to bucket resolution).
double max_from_deltas(const std::vector<double>& bounds,
                       const std::vector<std::int64_t>& deltas) {
  for (std::size_t i = deltas.size(); i-- > 0;) {
    if (deltas[i] > 0) return bucket_upper(bounds, i);
  }
  return 0.0;
}

}  // namespace

bool timeseries_series_is_deterministic(std::string_view name) {
  // Duration counters measure wall clock / TSC, never slot-indexed state.
  if (ends_with(name, "_ns") || ends_with(name, "_us")) return false;
  if (ends_with(name, ".ns") || ends_with(name, ".us")) return false;
  // Known scheduling- or sampling-dependent simulator series:
  //   sim.page.sampled / sim.page.cycles / sim.page.polled_per_call —
  //     1-in-32 cycle sampling keyed to a per-scratch tick, so the set of
  //     sampled polls depends on how terminals were sharded;
  //   sim.segment.parallel — counts segments that took the worker-pool
  //     path, which is precisely the thread-count decision.
  return name != "sim.page.sampled" && name != "sim.page.cycles" &&
         name != "sim.page.polled_per_call" && name != "sim.segment.parallel";
}

const Timeseries::Series* Timeseries::find(std::string_view name) const {
  for (const Series& s : series) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

TimeseriesRecorder::TimeseriesRecorder(std::int64_t every_slots,
                                       std::size_t max_samples)
    : max_samples_(max_samples) {
  data_.every_slots = every_slots;
}

void TimeseriesRecorder::reserve(std::size_t expected_samples) {
  if (max_samples_ > 0) {
    expected_samples = std::min(expected_samples, max_samples_);
  }
  data_.slots.reserve(expected_samples);
  for (Timeseries::Series& s : data_.series) {
    s.values.reserve(expected_samples);
    s.dvalues.reserve(expected_samples);
    s.counts.reserve(expected_samples);
    for (std::vector<std::int64_t>& column : s.bucket_columns) {
      column.reserve(expected_samples);
    }
  }
}

void TimeseriesRecorder::fix_dictionary(const MetricsSnapshot& snapshot) {
  for (const CounterSample& c : snapshot.counters) {
    if (!timeseries_series_is_deterministic(c.name)) continue;
    Timeseries::Series s;
    s.name = c.name;
    s.kind = SeriesKind::kCounter;
    data_.series.push_back(std::move(s));
  }
  for (const GaugeSample& g : snapshot.gauges) {
    if (!timeseries_series_is_deterministic(g.name)) continue;
    Timeseries::Series s;
    s.name = g.name;
    s.kind = SeriesKind::kGauge;
    data_.series.push_back(std::move(s));
  }
  for (const HistogramSample& h : snapshot.histograms) {
    if (!timeseries_series_is_deterministic(h.name)) continue;
    Timeseries::Series s;
    s.name = h.name;
    s.kind = SeriesKind::kHistogram;
    s.bounds = h.bounds;
    s.bucket_columns.resize(h.bounds.size() + 1);
    data_.series.push_back(std::move(s));
  }
}

bool TimeseriesRecorder::sample(std::int64_t slot,
                                const MetricsSnapshot& snapshot) {
  if (!data_.slots.empty() && slot <= data_.slots.back()) return false;
  if (data_.series.empty() && data_.slots.empty()) fix_dictionary(snapshot);
  data_.slots.push_back(slot);
  for (Timeseries::Series& s : data_.series) {
    switch (s.kind) {
      case SeriesKind::kCounter: {
        const CounterSample* c = snapshot.find_counter(s.name);
        s.values.push_back(c == nullptr ? 0 : c->value);
        break;
      }
      case SeriesKind::kGauge: {
        const GaugeSample* g = snapshot.find_gauge(s.name);
        s.dvalues.push_back(g == nullptr ? 0.0 : g->value);
        break;
      }
      case SeriesKind::kHistogram: {
        const HistogramSample* h = snapshot.find_histogram(s.name);
        for (std::size_t i = 0; i < s.bucket_columns.size(); ++i) {
          const bool have = h != nullptr && h->counts.size() ==
                                                s.bucket_columns.size();
          s.bucket_columns[i].push_back(have ? h->counts[i] : 0);
        }
        s.counts.push_back(h == nullptr ? 0 : h->count);
        s.dvalues.push_back(h == nullptr ? 0.0 : h->sum);
        break;
      }
    }
  }
  if (max_samples_ != 0 && data_.slots.size() >= 2 * max_samples_) {
    trim_to_max();
  }
  return true;
}

void TimeseriesRecorder::trim_to_max() const {
  if (max_samples_ == 0 || data_.slots.size() <= max_samples_) return;
  const std::size_t drop = data_.slots.size() - max_samples_;
  data_.slots.erase(data_.slots.begin(),
                    data_.slots.begin() + static_cast<std::ptrdiff_t>(drop));
  for (Timeseries::Series& s : data_.series) {
    const auto trim = [drop](auto& column) {
      if (column.size() >= drop) {
        column.erase(column.begin(),
                     column.begin() + static_cast<std::ptrdiff_t>(drop));
      }
    };
    trim(s.values);
    trim(s.dvalues);
    trim(s.counts);
    for (std::vector<std::int64_t>& column : s.bucket_columns) trim(column);
  }
}

std::optional<WindowDelta> window_delta(const Timeseries& data,
                                        std::string_view name,
                                        std::int64_t span,
                                        std::size_t newest) {
  const Timeseries::Series* s = data.find(name);
  if (s == nullptr || s->kind != SeriesKind::kCounter) return std::nullopt;
  const std::optional<WindowBounds> window = window_bounds(data, span, newest);
  if (!window) return std::nullopt;
  WindowDelta out;
  out.span = data.slots[window->newest] - data.slots[window->base];
  const std::int64_t newest_value = s->values[window->newest];
  out.delta = newest_value - s->values[window->base];
  if (out.delta < 0) out.delta = newest_value;
  return out;
}

std::optional<WindowQuantiles> window_quantiles(
    const Timeseries& data, std::string_view name, std::int64_t span,
    std::span<const double> wanted, std::size_t newest) {
  const Timeseries::Series* s = data.find(name);
  if (s == nullptr || s->kind != SeriesKind::kHistogram) return std::nullopt;
  const std::optional<WindowBounds> window = window_bounds(data, span, newest);
  if (!window) return std::nullopt;
  const std::size_t now = window->newest;
  const std::size_t then = window->base;

  // A shrinking count or bucket means a reset: read the newest sample's
  // cumulative state instead of a delta.
  bool reset = s->counts[now] < s->counts[then];
  for (const std::vector<std::int64_t>& column : s->bucket_columns) {
    reset = reset || column[now] < column[then];
  }
  const auto since_base = [&](const auto& column) {
    return reset ? column[now] : column[now] - column[then];
  };
  std::vector<std::int64_t> deltas;
  deltas.reserve(s->bucket_columns.size());
  for (const std::vector<std::int64_t>& column : s->bucket_columns) {
    deltas.push_back(since_base(column));
  }
  const std::int64_t count = since_base(s->counts);
  const double sum = since_base(s->dvalues);

  WindowQuantiles out;
  out.count = count;
  if (count > 0) {
    out.mean = sum / static_cast<double>(count);
    out.max = max_from_deltas(s->bounds, deltas);
    out.values.reserve(wanted.size());
    for (const double q : wanted) {
      // The exact-count rule of the run reports, over bucket deltas.
      const int bucket = stats::count_percentile(deltas, count, q);
      out.values.push_back(
          bucket_upper(s->bounds, static_cast<std::size_t>(bucket)));
    }
  } else {
    out.values.assign(wanted.size(), 0.0);
  }
  return out;
}

Changepoint detect_upward_shift(std::span<const std::int64_t> slots,
                                std::span<const double> values,
                                const ChangepointConfig& config) {
  Changepoint out;
  const std::size_t n = std::min(slots.size(), values.size());
  if (n < 2) return out;

  std::size_t baseline = std::max<std::size_t>(config.baseline_samples, 1);
  baseline = std::min(baseline, n / 2);
  baseline = std::max<std::size_t>(baseline, 1);

  double mean = 0.0;
  for (std::size_t i = 0; i < baseline; ++i) mean += values[i];
  mean /= static_cast<double>(baseline);
  double variance = 0.0;
  for (std::size_t i = 0; i < baseline; ++i) {
    const double d = values[i] - mean;
    variance += d * d;
  }
  variance /= static_cast<double>(baseline);

  // Scale floor: a perfectly flat baseline (sigma 0) is the common
  // pre-overload case, so floor sigma at a small fraction of the series
  // magnitude.  An all-zero series then has scale ~0 bounded away from 0
  // by the absolute epsilon, and no step ever accumulates.
  double magnitude = std::abs(mean);
  for (std::size_t i = 0; i < n; ++i) {
    magnitude = std::max(magnitude, std::abs(values[i]));
  }
  out.baseline_mean = mean;
  out.scale = std::max(std::sqrt(variance),
                       std::max(1e-3 * magnitude, 1e-12));

  double score = 0.0;
  for (std::size_t i = baseline; i < n; ++i) {
    const double z = (values[i] - mean) / out.scale;
    score = std::max(0.0, score + z - config.drift_sigmas);
    out.peak_score = std::max(out.peak_score, score);
    if (!out.detected && score >= config.threshold_sigmas) {
      out.detected = true;
      out.onset_index = i;
      out.onset_slot = slots[i];
    }
  }
  return out;
}

}  // namespace pcn::obs
