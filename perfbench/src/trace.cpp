#include "trace.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <mutex>

#include "pcn/obs/json.hpp"
#include "pcn/obs/timer.hpp"

namespace perfbench::trace {

namespace {

struct Record {
  const char* name;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int64_t parent;  ///< index in the same buffer, -1 for a root
};

struct ThreadBuffer {
  std::uint32_t thread = 0;
  std::vector<Record> records;
  std::vector<std::int64_t> open;  ///< indices of unfinished spans
};

std::atomic<bool> g_enabled{false};
std::mutex g_buffers_mutex;
std::vector<std::unique_ptr<ThreadBuffer>> g_buffers;  // guarded

ThreadBuffer& local_buffer() {
  // Buffers outlive their threads: the library's slot loop starts fresh
  // worker threads per run_slots call, and their spans are read at exit.
  thread_local ThreadBuffer* buffer = nullptr;
  if (buffer == nullptr) {
    const std::lock_guard<std::mutex> lock(g_buffers_mutex);
    g_buffers.push_back(std::make_unique<ThreadBuffer>());
    buffer = g_buffers.back().get();
    buffer->thread = static_cast<std::uint32_t>(g_buffers.size());
  }
  return *buffer;
}

}  // namespace

void enable(bool on) { g_enabled.store(on, std::memory_order_relaxed); }
bool enabled() { return g_enabled.load(std::memory_order_relaxed); }

Span::Span(const char* name) {
  if (!enabled()) return;
  ThreadBuffer& buffer = local_buffer();
  index_ = static_cast<std::int64_t>(buffer.records.size());
  const std::int64_t parent = buffer.open.empty() ? -1 : buffer.open.back();
  buffer.records.push_back({name, pcn::obs::monotonic_ns(), 0, parent});
  buffer.open.push_back(index_);
}

Span::~Span() {
  if (index_ < 0) return;
  ThreadBuffer& buffer = local_buffer();
  buffer.records[static_cast<std::size_t>(index_)].end_ns =
      pcn::obs::monotonic_ns();
  buffer.open.pop_back();
}

std::map<std::string, SpanStats> summarize() {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::map<std::string, SpanStats> out;
  for (const auto& buffer : g_buffers) {
    std::vector<double> child_ns(buffer->records.size(), 0.0);
    for (const Record& r : buffer->records) {
      if (r.parent >= 0) {
        child_ns[static_cast<std::size_t>(r.parent)] +=
            double(r.end_ns - r.start_ns);
      }
    }
    for (std::size_t i = 0; i < buffer->records.size(); ++i) {
      const Record& r = buffer->records[i];
      const double duration = double(r.end_ns - r.start_ns);
      SpanStats& stats = out[r.name];
      ++stats.count;
      stats.total_ns += duration;
      stats.self_ns += duration - child_ns[i];
      stats.durations_ns.push_back(duration);
    }
  }
  return out;
}

bool write_chrome_trace(const std::string& path, std::size_t max_spans) {
  const std::lock_guard<std::mutex> lock(g_buffers_mutex);
  std::int64_t origin = INT64_MAX;
  for (const auto& buffer : g_buffers) {
    if (!buffer->records.empty()) {
      origin = std::min(origin, buffer->records.front().start_ns);
    }
  }
  pcn::obs::JsonWriter json;
  json.begin_object().key("traceEvents").begin_array();
  std::size_t written = 0;
  for (const auto& buffer : g_buffers) {
    for (const Record& r : buffer->records) {
      if (written == max_spans) break;
      ++written;
      json.begin_object()
          .member("name", r.name)
          .member("ph", "X")
          .member("pid", 1)
          .member("tid", std::int64_t{buffer->thread})
          .member("ts", double(r.start_ns - origin) * 1e-3)
          .member("dur", double(r.end_ns - r.start_ns) * 1e-3)
          .end_object();
    }
  }
  json.end_array().end_object();
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  const std::string text = json.take();
  const bool ok = std::fwrite(text.data(), 1, text.size(), file) == text.size();
  return std::fclose(file) == 0 && ok;
}

}  // namespace perfbench::trace
