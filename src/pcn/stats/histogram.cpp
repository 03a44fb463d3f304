#include "pcn/stats/histogram.hpp"

#include "pcn/common/error.hpp"

namespace pcn::stats {

void Histogram::add(int value, std::int64_t count) {
  PCN_EXPECT(value >= 0, "Histogram::add: values must be non-negative");
  PCN_EXPECT(count >= 0, "Histogram::add: count must be non-negative");
  if (static_cast<std::size_t>(value) >= buckets_.size()) {
    buckets_.resize(static_cast<std::size_t>(value) + 1, 0);
  }
  buckets_[static_cast<std::size_t>(value)] += count;
  total_ += count;
}

void Histogram::add_counts(const std::int64_t* counts, std::size_t n) {
  while (n > 0 && counts[n - 1] == 0) --n;  // keep bucket_count() tight
  if (n == 0) return;
  if (n > buckets_.size()) buckets_.resize(n, 0);
  for (std::size_t v = 0; v < n; ++v) {
    PCN_EXPECT(counts[v] >= 0, "Histogram::add_counts: counts must be >= 0");
    buckets_[v] += counts[v];
    total_ += counts[v];
  }
}

std::int64_t Histogram::count(int value) const {
  PCN_EXPECT(value >= 0, "Histogram::count: values are non-negative");
  if (static_cast<std::size_t>(value) >= buckets_.size()) return 0;
  return buckets_[static_cast<std::size_t>(value)];
}

double Histogram::fraction(int value) const {
  PCN_EXPECT(total_ > 0, "Histogram::fraction: empty histogram");
  return static_cast<double>(count(value)) / static_cast<double>(total_);
}

double Histogram::mean() const {
  PCN_EXPECT(total_ > 0, "Histogram::mean: empty histogram");
  double weighted = 0.0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    weighted += static_cast<double>(i) * static_cast<double>(buckets_[i]);
  }
  return weighted / static_cast<double>(total_);
}

int Histogram::max_value() const {
  PCN_EXPECT(total_ > 0, "Histogram::max_value: empty histogram");
  for (std::size_t i = buckets_.size(); i-- > 0;) {
    if (buckets_[i] > 0) return static_cast<int>(i);
  }
  PCN_ASSERT(false);
  return 0;
}

std::vector<double> Histogram::distribution() const {
  PCN_EXPECT(total_ > 0, "Histogram::distribution: empty histogram");
  std::vector<double> dist(buckets_.size(), 0.0);
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    dist[i] = static_cast<double>(buckets_[i]) / static_cast<double>(total_);
  }
  return dist;
}

int count_percentile(const std::vector<std::int64_t>& counts,
                     std::int64_t total, double quantile) {
  if (total <= 0) return 0;
  const double target = quantile * static_cast<double>(total);
  std::int64_t cumulative = 0;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    cumulative += counts[k];
    // The first crossing necessarily lands on a non-empty bucket.
    if (static_cast<double>(cumulative) >= target) return static_cast<int>(k);
  }
  return static_cast<int>(counts.size()) - 1;
}

}  // namespace pcn::stats
