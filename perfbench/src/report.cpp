#include "report.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <limits>

#include "pcn/obs/json.hpp"

namespace perfbench {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// 1-based nearest rank of the p-quantile among n samples.
std::int64_t nearest_rank(std::int64_t n, double p) {
  const auto rank = static_cast<std::int64_t>(std::ceil(p * double(n)));
  return std::clamp<std::int64_t>(rank, 1, n);
}

double cpu_seconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

std::string format_value(double value) {
  if (std::isinf(value)) return "inf";
  char buffer[64];
  std::snprintf(buffer, sizeof buffer, "%.6g", value);
  return buffer;
}

}  // namespace

Percentile percentile(std::vector<double> finite, std::int64_t failures,
                      double p) {
  Percentile out;
  out.failures = failures;
  out.samples = static_cast<std::int64_t>(finite.size()) + failures;
  if (out.samples == 0) return out;
  const std::int64_t rank = nearest_rank(out.samples, p);
  if (rank > static_cast<std::int64_t>(finite.size())) {
    out.value = kInf;
    return out;
  }
  auto nth = finite.begin() + (rank - 1);
  std::nth_element(finite.begin(), nth, finite.end());
  out.value = *nth;
  return out;
}

Percentile percentile(const std::vector<std::int64_t>& hist,
                      std::int64_t offset, std::int64_t failures, double p) {
  Percentile out;
  out.failures = failures;
  std::int64_t finite = 0;
  for (const std::int64_t count : hist) finite += count;
  out.samples = finite + failures;
  if (out.samples == 0) return out;
  const std::int64_t rank = nearest_rank(out.samples, p);
  out.value = kInf;
  std::int64_t seen = 0;
  for (std::size_t k = 0; k < hist.size(); ++k) {
    seen += hist[k];
    if (seen >= rank) {
      out.value = double(static_cast<std::int64_t>(k) + offset);
      break;
    }
  }
  return out;
}

Percentile interval_percentile(const std::vector<std::vector<double>>& finite,
                               const std::vector<std::int64_t>& failures,
                               double p) {
  Percentile out;
  std::vector<double> per_interval;
  for (std::size_t i = 0; i < finite.size(); ++i) {
    const Percentile q = percentile(finite[i], failures[i], p);
    if (q.samples == 0) continue;
    per_interval.push_back(q.value);
    out.samples += q.samples;
    out.failures += q.failures;
  }
  out.value = median(std::move(per_interval));
  return out;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : 0.5 * (values[mid - 1] + values[mid]);
}

double overhead_pct(std::vector<double> traced, std::vector<double> untraced) {
  return 100.0 * (median(std::move(traced)) / median(std::move(untraced)) - 1.0);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return double(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double process_cpu_s() { return cpu_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return cpu_seconds(CLOCK_THREAD_CPUTIME_ID); }

void Report::metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  metrics_.push_back({name, value, unit, note});
}

void Report::metric(const std::string& name, const Percentile& p,
                    const std::string& unit, const std::string& note) {
  metric(name, p.value, unit,
         "n=" + std::to_string(p.samples) + ", " +
             std::to_string(p.failures) + " failed counted as +inf" +
             (note.empty() ? "" : ", " + note));
}

void Report::check(const std::string& name, bool ok,
                   const std::string& detail) {
  checks_.push_back({name, ok, detail});
}

void Report::print() const {
  for (const std::string& text : lines_) {
    std::printf("%s: %s\n", workload_.c_str(), text.c_str());
  }
  for (const Metric& m : metrics_) {
    std::printf("%s: %-36s %14s %-6s%s%s\n", workload_.c_str(),
                m.name.c_str(), format_value(m.value).c_str(),
                m.unit.c_str(), m.note.empty() ? "" : "  ",
                m.note.c_str());
  }
  bool correct = true;
  for (const Check& c : checks_) {
    std::printf("%s: check %-28s %s  %s\n", workload_.c_str(),
                c.name.c_str(), c.ok ? "ok  " : "FAIL", c.detail.c_str());
    correct = correct && c.ok;
  }

  pcn::obs::JsonWriter json;
  json.begin_object()
      .member("workload", workload_)
      .member("correct", correct && !checks_.empty())
      .member("attempted", attempted_)
      .member("failed", failed_);
  json.key("metrics").begin_object();
  for (const Metric& m : metrics_) {
    json.key(m.name)
        .begin_object()
        .member("value", std::isinf(m.value) ? kInfinite : m.value)
        .member("unit", m.unit)
        .member("note", m.note)
        .end_object();
  }
  json.end_object();
  json.key("checks").begin_array();
  for (const Check& c : checks_) {
    json.begin_object()
        .member("name", c.name)
        .member("ok", c.ok)
        .member("detail", c.detail)
        .end_object();
  }
  json.end_array().end_object();
  std::printf("%s\n", json.take().c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
