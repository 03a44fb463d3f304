// Per-layer readings both daemon workloads take from the daemon's own
// metrics registry, as differences over the timed window.
#pragma once

#include <string>

#include "pcn/obs/metrics.hpp"
#include "report.hpp"

namespace perfbench {

/// Mean microseconds per slot of each barrier phase (the daemon's
/// daemon.phase.*_us histograms), and the paging-queue verdict counts.
inline void report_daemon_layers(Report& report,
                                 const pcn::obs::MetricsSnapshot& before,
                                 const pcn::obs::MetricsSnapshot& after) {
  for (const char* phase : {"ingest", "apply", "drain", "finalize"}) {
    const std::string name = std::string("daemon.phase.") + phase + "_us";
    const pcn::obs::HistogramSample* a = after.find_histogram(name);
    const pcn::obs::HistogramSample* b = before.find_histogram(name);
    const double count = double(a->count - b->count);
    report.metric(name + "_mean", count > 0 ? (a->sum - b->sum) / count : 0.0,
                  "us");
  }
  for (const char* verdict : {"served", "dropped", "expired", "evicted"}) {
    const std::string name = std::string("daemon.page.") + verdict;
    report.metric(std::string("paging_queue.") + verdict,
                  double(after.counter_value(name) - before.counter_value(name)),
                  "count");
  }
}

}  // namespace perfbench
