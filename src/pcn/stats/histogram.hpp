// Integer-valued histogram — used for paging-delay distributions (cycles
// per call) and terminal ring-distance occupancy in the simulator.
#pragma once

#include <cstdint>
#include <vector>

namespace pcn::stats {

/// Counts occurrences of small non-negative integers, growing on demand.
class Histogram {
 public:
  void add(int value, std::int64_t count = 1);

  /// Adds `counts[v]` to bucket v for v in [0, n) with a single resize —
  /// the bulk form engines use to fold dense per-terminal rows.
  void add_counts(const std::int64_t* counts, std::size_t n);

  /// Hints the bucket storage into cache — engines folding one histogram
  /// per terminal issue this a few terminals ahead so the (heap-allocated,
  /// otherwise cold) bucket line is resident when add_counts runs.
  void prefetch() const {
#if defined(__GNUC__) || defined(__clang__)
    __builtin_prefetch(buckets_.data(), 1);
#endif
  }

  std::int64_t total() const { return total_; }

  /// Count in bucket `value` (0 if never seen).
  std::int64_t count(int value) const;

  /// Largest value observed + 1 (0 when empty).
  int bucket_count() const { return static_cast<int>(buckets_.size()); }

  /// Empirical probability of `value`; requires total() > 0.
  double fraction(int value) const;

  /// Mean of the distribution; requires total() > 0.
  double mean() const;

  /// Largest observed value; requires total() > 0.
  int max_value() const;

  /// Empirical distribution as a dense vector over [0, bucket_count()).
  std::vector<double> distribution() const;

 private:
  std::vector<std::int64_t> buckets_;
  std::int64_t total_ = 0;
};

/// Exact-count percentile of a dense integer histogram: the smallest
/// value k whose cumulative count reaches `quantile * total`.  Returns 0
/// when `total <= 0`, and the last index if the counts never reach the
/// target (counts summing below `total`).
int count_percentile(const std::vector<std::int64_t>& counts,
                     std::int64_t total, double quantile);

}  // namespace pcn::stats
