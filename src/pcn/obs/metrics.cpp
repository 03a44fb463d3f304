#include "pcn/obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <mutex>
#include <unordered_map>

#include "pcn/common/error.hpp"

namespace pcn::obs {
namespace {

bool valid_metric_name(std::string_view name) {
  if (name.empty()) return false;
  for (const char ch : name) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= '0' && ch <= '9') ||
                    ch == '_' || ch == '.';
    if (!ok) return false;
  }
  return name.front() != '.' && name.back() != '.';
}

/// Relaxed-sum over a metric's shard cells.
std::int64_t sum_cells(const detail::Cell* cells) {
  std::int64_t total = 0;
  for (std::size_t s = 0; s < kShards; ++s) {
    total += cells[s].value.load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace

std::int64_t Counter::value() const noexcept {
  return impl_ == nullptr ? 0 : sum_cells(impl_->cells);
}

void Histogram::observe(double value, std::size_t shard) noexcept {
  observe_n(value, 1, shard);
}

void Histogram::observe_n(double value, std::int64_t count,
                          std::size_t shard) noexcept {
  if (impl_ == nullptr || count <= 0) return;
  // First bucket with value <= bound (le semantics); overflow otherwise.
  const auto it = std::lower_bound(impl_->bounds.begin(), impl_->bounds.end(),
                                   value);
  const auto bucket =
      static_cast<std::size_t>(it - impl_->bounds.begin());
  const std::size_t cell = shard & kShardMask;
  impl_->cells[bucket * kShards + cell].value.fetch_add(
      count, std::memory_order_relaxed);
  // GCC/libstdc++ implement the C++20 floating-point fetch_add with a CAS
  // loop; contention is already avoided by the per-shard cell.
  impl_->sums[cell].value.fetch_add(value * static_cast<double>(count),
                                    std::memory_order_relaxed);
}

std::int64_t Histogram::count() const noexcept {
  if (impl_ == nullptr) return 0;
  std::int64_t total = 0;
  for (const detail::Cell& cell : impl_->cells) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

double Histogram::sum() const noexcept {
  if (impl_ == nullptr) return 0.0;
  double total = 0.0;
  for (const detail::HistogramImpl::SumCell& cell : impl_->sums) {
    total += cell.value.load(std::memory_order_relaxed);
  }
  return total;
}

namespace {

template <typename Sample>
const Sample* find_by_name(const std::vector<Sample>& samples,
                           std::string_view name) {
  for (const Sample& sample : samples) {
    if (sample.name == name) return &sample;
  }
  return nullptr;
}

}  // namespace

const CounterSample* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSample* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSample* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

std::int64_t MetricsSnapshot::counter_value(std::string_view name) const {
  const CounterSample* sample = find_counter(name);
  return sample == nullptr ? 0 : sample->value;
}

double MetricsSnapshot::histogram_mean(std::string_view name) const {
  const HistogramSample* sample = find_histogram(name);
  return sample == nullptr ? 0.0 : sample->mean();
}

/// Node-stable storage: deques never relocate existing metrics, so handles
/// and in-flight writers stay valid while new metrics register.
struct MetricsRegistry::Impl {
  mutable std::mutex mutex;  ///< guards registration and enumeration only
  std::deque<detail::CounterImpl> counters;
  std::deque<detail::GaugeImpl> gauges;
  std::deque<detail::HistogramImpl> histograms;
  std::unordered_map<std::string, detail::CounterImpl*> counter_index;
  std::unordered_map<std::string, detail::GaugeImpl*> gauge_index;
  std::unordered_map<std::string, detail::HistogramImpl*> histogram_index;
};

MetricsRegistry::MetricsRegistry() : impl_(std::make_unique<Impl>()) {}
MetricsRegistry::~MetricsRegistry() = default;

Counter MetricsRegistry::counter(std::string_view name) {
  PCN_EXPECT(valid_metric_name(name),
             "MetricsRegistry::counter: names are non-empty dotted "
             "lowercase paths over [a-z0-9_.]");
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->counter_index.find(std::string(name));
  if (it != impl_->counter_index.end()) return Counter(it->second);
  detail::CounterImpl& impl = impl_->counters.emplace_back();
  impl.name = std::string(name);
  impl_->counter_index.emplace(impl.name, &impl);
  return Counter(&impl);
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  PCN_EXPECT(valid_metric_name(name),
             "MetricsRegistry::gauge: names are non-empty dotted "
             "lowercase paths over [a-z0-9_.]");
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->gauge_index.find(std::string(name));
  if (it != impl_->gauge_index.end()) return Gauge(it->second);
  detail::GaugeImpl& impl = impl_->gauges.emplace_back();
  impl.name = std::string(name);
  impl_->gauge_index.emplace(impl.name, &impl);
  return Gauge(&impl);
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::vector<double> bounds) {
  PCN_EXPECT(valid_metric_name(name),
             "MetricsRegistry::histogram: names are non-empty dotted "
             "lowercase paths over [a-z0-9_.]");
  PCN_EXPECT(!bounds.empty(),
             "MetricsRegistry::histogram: need at least one bucket bound");
  for (std::size_t i = 0; i < bounds.size(); ++i) {
    PCN_EXPECT(std::isfinite(bounds[i]),
               "MetricsRegistry::histogram: bounds must be finite");
    PCN_EXPECT(i == 0 || bounds[i - 1] < bounds[i],
               "MetricsRegistry::histogram: bounds must be strictly "
               "increasing");
  }
  std::lock_guard<std::mutex> lock(impl_->mutex);
  const auto it = impl_->histogram_index.find(std::string(name));
  if (it != impl_->histogram_index.end()) {
    PCN_EXPECT(it->second->bounds == bounds,
               "MetricsRegistry::histogram: re-registration with different "
               "bucket bounds");
    return Histogram(it->second);
  }
  detail::HistogramImpl& impl = impl_->histograms.emplace_back();
  impl.name = std::string(name);
  impl.bounds = std::move(bounds);
  // Constructed once at registration and never resized: the cell arrays
  // must stay put for lock-free writers.
  impl.cells = std::vector<detail::Cell>((impl.bounds.size() + 1) * kShards);
  impl.sums = std::vector<detail::HistogramImpl::SumCell>(kShards);
  impl_->histogram_index.emplace(impl.name, &impl);
  return Histogram(&impl);
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  MetricsSnapshot out;
  std::lock_guard<std::mutex> lock(impl_->mutex);
  out.counters.reserve(impl_->counters.size());
  for (const detail::CounterImpl& counter : impl_->counters) {
    out.counters.push_back({counter.name, sum_cells(counter.cells)});
  }
  out.gauges.reserve(impl_->gauges.size());
  for (const detail::GaugeImpl& gauge : impl_->gauges) {
    out.gauges.push_back(
        {gauge.name, gauge.value.load(std::memory_order_relaxed)});
  }
  out.histograms.reserve(impl_->histograms.size());
  for (const detail::HistogramImpl& histogram : impl_->histograms) {
    HistogramSample sample;
    sample.name = histogram.name;
    sample.bounds = histogram.bounds;
    sample.counts.resize(histogram.bounds.size() + 1);
    for (std::size_t bucket = 0; bucket < sample.counts.size(); ++bucket) {
      sample.counts[bucket] = sum_cells(&histogram.cells[bucket * kShards]);
      sample.count += sample.counts[bucket];
    }
    for (const detail::HistogramImpl::SumCell& cell : histogram.sums) {
      sample.sum += cell.value.load(std::memory_order_relaxed);
    }
    out.histograms.push_back(std::move(sample));
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.gauges.begin(), out.gauges.end(), by_name);
  std::sort(out.histograms.begin(), out.histograms.end(), by_name);
  return out;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(impl_->mutex);
  return impl_->counters.size() + impl_->gauges.size() +
         impl_->histograms.size();
}

std::vector<double> exponential_buckets(double start, double factor,
                                        int count) {
  PCN_EXPECT(start > 0.0 && factor > 1.0 && count >= 1,
             "exponential_buckets: need start > 0, factor > 1, count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double bound = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

std::vector<double> linear_buckets(double start, double width, int count) {
  PCN_EXPECT(width > 0.0 && count >= 1,
             "linear_buckets: need width > 0 and count >= 1");
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    bounds.push_back(start + width * i);
  }
  return bounds;
}

}  // namespace pcn::obs
