// In-memory span recorder for the traced benchmark run.
//
// Spans wrap the benchmark's own calls into each library layer (never
// code inside the library).  Each thread appends to its own buffer, so
// recording takes no lock after a thread's first span; the parent of a
// span is the span open on the same thread when it began, which makes
// self time (duration minus the children's durations) exact because
// same-thread children never overlap.  Nothing is written until
// `write_chrome_trace`, called once the workload has finished.
//
// Recording is off unless `enable(true)` ran before the first span; an
// off recorder costs one predicted branch per span.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench::trace {

void enable(bool on);
bool enabled();

/// RAII span.  `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  std::int64_t index_ = -1;
};

struct SpanStats {
  std::int64_t count = 0;
  double total_ns = 0.0;
  double self_ns = 0.0;
  std::vector<double> durations_ns;
};

/// Per-name totals over every recorded span.  Call after the spanning
/// threads have finished.
std::map<std::string, SpanStats> summarize();

/// Writes up to `max_spans` spans in Chrome trace-event JSON (load it in
/// Perfetto or chrome://tracing).  Returns false when the file cannot be
/// written.
bool write_chrome_trace(const std::string& path, std::size_t max_spans);

}  // namespace perfbench::trace
