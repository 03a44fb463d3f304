// pcn_perfbench: runs one benchmark workload in this process and prints
// its metrics, checks, and a JSON result on the last line.
//
//   pcn_perfbench --workload {socket_paging|daemon_overload|sim_fleet}
//                 --seed N --seconds S --trace {0|1} [--tiny]
//                 [--work-dir DIR]
//
// perfbench/run.py builds this binary and is the benchmark's entry
// point; see perfbench/README.md.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "trace.hpp"
#include "workloads.hpp"

namespace {

int usage(const char* message) {
  std::fprintf(stderr,
               "pcn_perfbench: %s\nusage: pcn_perfbench --workload NAME "
               "--seed N --seconds S --trace {0|1} [--tiny] "
               "[--work-dir DIR]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  std::string workload;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      options.tiny = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!(options.seconds > 0.0)) return usage("--seconds must be > 0");

  perfbench::Report report(workload);
  try {
    if (workload == "socket_paging") {
      perfbench::run_socket_paging(options, report);
    } else if (workload == "daemon_overload") {
      perfbench::run_daemon_overload(options, report);
    } else if (workload == "sim_fleet") {
      perfbench::run_sim_fleet(options, report);
    } else {
      return usage(("unknown workload '" + workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pcn_perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }
  if (options.trace) {
    for (const auto& [name, stats] : perfbench::trace::summarize()) {
      report.line("span " + name + ": " + std::to_string(stats.count) +
                  " calls, mean " +
                  std::to_string(stats.total_ns / double(stats.count)) +
                  " ns, self " +
                  std::to_string(stats.self_ns / double(stats.count)) + " ns");
    }
    const std::string path = options.work_dir + "/" + workload + "-seed" +
                             std::to_string(options.seed) + ".trace.json";
    if (!perfbench::trace::write_chrome_trace(path, 200'000)) {
      std::fprintf(stderr, "pcn_perfbench: cannot write %s\n", path.c_str());
      return 1;
    }
    report.line("spans written to " + path);
  }
  report.print();
  return 0;
}
