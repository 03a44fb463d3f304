// Machine-readable benchmark reports.
//
// Every bench/* binary builds one BenchReport and calls emit(), which
//   * prints exactly one parseable summary line to stdout:
//       PCN_BENCH <name> key=value key=value ...
//     (keys in insertion order, doubles in shortest round-trip form), and
//   * writes BENCH_<name>.json (schema pcn.bench_report.v1) into
//     $PCN_BENCH_DIR (default: bench/out/, created on demand and
//     git-ignored).  A report with deterministic keys can be diffed
//     against a blessed baseline in bench/baselines/ with
//     tools/bench_compare.py (Table 1's is, in tools/run_checks.sh).
//
// Summary values go on the line and into JSON "summary"; per-case detail
// rows (one per scenario / benchmark arg combination) go into JSON "rows"
// only, keeping the line grep-friendly.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

namespace pcn::obs {

class BenchReport {
 public:
  using Value = std::variant<std::int64_t, double, std::string>;

  /// One per-case detail record, e.g. one (terminals, threads) point.
  struct Row {
    std::string label;
    std::vector<std::pair<std::string, Value>> values;

    Row& set(std::string key, double value);
    Row& set(std::string key, std::int64_t value);
    Row& set(std::string key, int value) {
      return set(std::move(key), std::int64_t{value});
    }
    Row& set(std::string key, std::string value);
  };

  /// `name` must match the bench binary ([a-z0-9_]+): the JSON file is
  /// BENCH_<name>.json.
  explicit BenchReport(std::string name);

  BenchReport& set(std::string key, double value);
  BenchReport& set(std::string key, std::int64_t value);
  BenchReport& set(std::string key, int value) {
    return set(std::move(key), std::int64_t{value});
  }
  BenchReport& set(std::string key, std::string value);

  Row& add_row(std::string label);

  const std::string& name() const { return name_; }
  /// "PCN_BENCH <name> key=value ..." (no trailing newline).
  std::string parse_line() const;
  std::string json() const;
  /// $PCN_BENCH_DIR/BENCH_<name>.json (default bench/out/BENCH_<name>.json).
  std::string output_path() const;

  /// Prints the parse line to stdout and writes the JSON file.  A write
  /// failure warns on stderr but does not fail the bench (the human output
  /// already happened); returns whether the file was written.
  bool emit() const;

 private:
  std::string name_;
  std::vector<std::pair<std::string, Value>> summary_;
  std::vector<Row> rows_;
};

}  // namespace pcn::obs
