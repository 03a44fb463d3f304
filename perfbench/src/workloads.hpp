// The benchmark's three workloads.  Each runs in its own process, takes
// its inputs only from the seed, and fills a Report with every
// end-to-end metric (untraced run) or every per-layer metric (traced
// run), plus its correctness checks.
#pragma once

#include <cstdint>
#include <string>

#include "report.hpp"

namespace perfbench {

struct Options {
  std::uint64_t seed = 1;
  double seconds = 20.0;  ///< length of the timed window
  bool trace = false;     ///< traced run: per-layer metrics
  bool tiny = false;      ///< self-test scale
  /// Existing directory for the socket file and the trace output.
  std::string work_dir = ".";
};

/// Cost weights (U, V) every workload prices updates and polls with —
/// the weights bench/perf_scale uses.
inline constexpr double kUpdateCost = 100.0;
inline constexpr double kPollCost = 10.0;

/// Set-up repetitions; setup_s is their median.
inline constexpr int kSetupRepeats = 5;

void run_socket_paging(const Options& options, Report& report);
void run_daemon_overload(const Options& options, Report& report);
void run_sim_fleet(const Options& options, Report& report);

}  // namespace perfbench
