// What one workload run reports: named metrics with units, correctness
// checks, and the human-readable lines printed above the JSON result.
//
// Failure accounting lives here so every workload applies the same rule:
// a page that was refused, dropped, expired, evicted or never answered
// counts as not served, as missing the SLA, and as infinitely late in
// every percentile, and each percentile is printed with its sample count.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A percentile taken over `samples` values, `failures` of which are
/// infinitely late.
struct Percentile {
  double value = 0.0;  ///< +inf when the rank lands among the failures
  std::int64_t samples = 0;
  std::int64_t failures = 0;
};

/// Nearest-rank `p`-quantile (p in (0, 1]) of `finite` (any order) plus
/// `failures` infinitely-late entries.
Percentile percentile(std::vector<double> finite, std::int64_t failures,
                      double p);

/// The same over an exact integer histogram: hist[k] = samples of value
/// k + offset.
Percentile percentile(const std::vector<std::int64_t>& hist,
                      std::int64_t offset, std::int64_t failures, double p);

/// The median over intervals of each interval's `p`-quantile, for
/// latencies on a shared machine: a host stall of a few milliseconds
/// then moves the few intervals it falls in, not the whole window's tail.
/// `finite[i]` and `failures[i]` belong to interval i; the result counts
/// every interval's samples and failures.
Percentile interval_percentile(const std::vector<std::vector<double>>& finite,
                               const std::vector<std::int64_t>& failures,
                               double p);

double median(std::vector<double> values);

/// Tracing overhead in percent: the median cost of traced samples over
/// the median of untraced ones, minus one.
double overhead_pct(std::vector<double> traced, std::vector<double> untraced);

/// Process peak resident set size in MiB.
double peak_rss_mib();
/// CPU seconds used by the whole process / by the calling thread.
double process_cpu_s();
double thread_cpu_s();

class Report {
 public:
  /// JSON stand-in for an infinite percentile (JSON has no infinity).
  static constexpr double kInfinite = 1e300;

  explicit Report(std::string workload) : workload_(std::move(workload)) {}

  void metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  /// A percentile metric; the note carries its sample and failure counts.
  void metric(const std::string& name, const Percentile& p,
              const std::string& unit, const std::string& note = "");
  void check(const std::string& name, bool ok, const std::string& detail);
  void line(const std::string& text) { lines_.push_back(text); }

  void set_work(std::int64_t attempted, std::int64_t failed) {
    attempted_ = attempted;
    failed_ = failed;
  }

  /// Human-readable lines, then one JSON document on the last line.
  void print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };

  std::string workload_;
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::string> lines_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

}  // namespace perfbench
