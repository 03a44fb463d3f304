#include "pcn/daemon/admin_server.hpp"

#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "pcn/common/error.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/obs/json.hpp"
#include "pcn/obs/report.hpp"
#include "pcn/obs/timer.hpp"

namespace pcn::daemon {

namespace {

/// Per-connection socket timeout: a scraper that stalls longer than this
/// mid-request or mid-reply is dropped (the server thread serves one
/// connection at a time, so this bounds how long any scraper can hold it).
constexpr int kIoTimeoutSec = 2;

/// History shape: samples at least this far apart, newest kept.  Four
/// samples a second give the 1 s window a base inside its span, and
/// 256 × 250 ms covers the 60 s window.
constexpr std::int64_t kSampleIntervalNs = 250'000'000;
constexpr std::size_t kHistorySamples = 256;

/// Longest request line we accept ("prom\n" / "json\n" plus slack).
constexpr std::size_t kMaxRequestBytes = 16;

void set_io_timeouts(int fd) {
  timeval tv{};
  tv.tv_sec = kIoTimeoutSec;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

/// Reads up to a newline; empty string on timeout, overlong line, or EOF.
std::string read_request_line(int fd) {
  std::string line;
  char ch = 0;
  while (line.size() < kMaxRequestBytes) {
    const ssize_t n = ::read(fd, &ch, 1);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::string();
    }
    if (ch == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    line += ch;
  }
  return std::string();
}

void send_all(int fd, std::string_view payload) {
  std::size_t sent = 0;
  while (sent < payload.size()) {
    const ssize_t n = ::send(fd, payload.data() + sent,
                             payload.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // scraper gone or stalled past the timeout; drop the rest
    }
    sent += static_cast<std::size_t>(n);
  }
}

/// One window section: counter rates, the windowed drop rate, and
/// windowed delay quantiles.  Zero-filled when no earlier sample lies
/// within the span (rates need two samples).
void write_window(obs::JsonWriter& json, const obs::Timeseries& history,
                  std::int64_t span_ns) {
  const auto delta_of = [&](std::string_view name) {
    const auto window = obs::window_delta(history, name, span_ns);
    return window ? window->delta : std::int64_t{0};
  };
  const auto slots = obs::window_delta(history, "daemon.slot.count", span_ns);
  const std::int64_t covered_ns = slots ? slots->span : 0;
  const auto rate_of = [&](std::string_view name) {
    return covered_ns > 0 ? static_cast<double>(delta_of(name)) * 1e9 /
                                static_cast<double>(covered_ns)
                          : 0.0;
  };
  json.begin_object();
  json.member("span_ns", covered_ns);
  json.member("slots_per_sec", rate_of("daemon.slot.count"));
  json.member("updates_per_sec", rate_of("daemon.request.update"));
  json.member("pages_per_sec", rate_of("daemon.request.page"));
  json.member("served_per_sec", rate_of("daemon.page.served"));
  json.member("dropped_per_sec", rate_of("daemon.page.dropped"));
  json.member("expired_per_sec", rate_of("daemon.page.expired"));
  json.member("drop_rate", drop_rate(delta_of));
  const auto delay =
      obs::window_quantiles(history, "daemon.page.queue_delay_slots", span_ns);
  json.key("delay").begin_object();
  json.member("count", delay ? delay->count : std::int64_t{0});
  json.member("mean", delay ? delay->mean : 0.0);
  json.member("p50", delay ? delay->at(0) : 0.0);
  json.member("p95", delay ? delay->at(1) : 0.0);
  json.member("p99", delay ? delay->at(2) : 0.0);
  json.member("max", delay ? delay->max : 0.0);
  json.end_object();
  json.end_object();
}

}  // namespace

AdminServer::AdminServer(Pcnd* daemon, std::string path)
    : daemon_(daemon),
      path_(std::move(path)),
      history_(kSampleIntervalNs, kHistorySamples) {
  PCN_EXPECT(daemon_ != nullptr, "AdminServer: daemon must not be null");
  sockaddr_un address{};
  PCN_EXPECT(path_.size() < sizeof(address.sun_path),
             "AdminServer: socket path too long");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  PCN_EXPECT(listen_fd_ >= 0, "AdminServer: cannot create socket");
  ::unlink(path_.c_str());
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path_.c_str(), path_.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string what = "AdminServer: cannot listen on '" + path_ +
                             "': " + std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    PCN_EXPECT(false, what.c_str());
  }
}

AdminServer::~AdminServer() {
  stop();
  if (listen_fd_ >= 0) ::close(listen_fd_);
  ::unlink(path_.c_str());
}

void AdminServer::start() {
  bool expected = false;
  if (!running_.compare_exchange_strong(expected, true)) return;
  serve_thread_ = std::thread([this] { serve_loop(); });
}

void AdminServer::stop() {
  bool expected = true;
  if (!running_.compare_exchange_strong(expected, false)) return;
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (serve_thread_.joinable()) serve_thread_.join();
}

void AdminServer::serve_loop() {
  pollfd listener{listen_fd_, POLLIN, 0};
  while (running_.load(std::memory_order_acquire)) {
    // Wait for a scraper until the next history sample is due, then take
    // that sample whether or not anyone connected.
    std::int64_t due_ns = 0;
    {
      const std::lock_guard<std::mutex> lock(history_mutex_);
      due_ns = next_sample_due_ns();
    }
    const std::int64_t wait_ns = due_ns - obs::monotonic_ns();
    if (wait_ns <= 0) {
      (void)observe(nullptr);
      continue;
    }
    const int wait_ms = static_cast<int>((wait_ns + 999'999) / 1'000'000);
    if (::poll(&listener, 1, wait_ms) <= 0) continue;  // timeout or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down
    }
    if (!running_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    handle_connection(fd);
    ::close(fd);
  }
}

void AdminServer::handle_connection(int fd) {
  set_io_timeouts(fd);
  const std::string request = read_request_line(fd);
  if (request == "prom") {
    send_all(fd, render_prometheus());
  } else if (request == "json") {
    send_all(fd, render_live_snapshot());
  } else if (request == "series") {
    // Binary pcn.timeseries.v1 tail (send_all is length-driven, so the
    // payload may contain any byte); empty encoding when capture is off.
    send_all(fd, daemon_->timeseries_encoded());
  }
  // Anything else (timeout, EOF, unknown verb): close without a reply.
}

std::int64_t AdminServer::next_sample_due_ns() const {
  const std::vector<std::int64_t>& keys = history_.data().slots;
  return keys.empty() ? 0 : keys.back() + kSampleIntervalNs;
}

obs::MetricsSnapshot AdminServer::observe(std::int64_t* now_ns_out) {
  const std::int64_t now_ns = obs::monotonic_ns();
  obs::MetricsSnapshot snapshot = daemon_->metrics_registry().snapshot();
  {
    const std::lock_guard<std::mutex> lock(history_mutex_);
    if (now_ns >= next_sample_due_ns()) history_.sample(now_ns, snapshot);
  }
  if (now_ns_out != nullptr) *now_ns_out = now_ns;
  return snapshot;
}

std::string AdminServer::render_prometheus() {
  scrapes_.fetch_add(1, std::memory_order_relaxed);
  return obs::to_prometheus(observe(nullptr));
}

std::string AdminServer::render_live_snapshot() {
  const std::uint64_t seq =
      scrapes_.fetch_add(1, std::memory_order_relaxed) + 1;
  std::int64_t now_ns = 0;
  const obs::MetricsSnapshot snapshot = observe(&now_ns);
  const LiveQueueStats queues = daemon_->live_queue_stats();

  obs::JsonWriter json;
  json.begin_object();
  json.member("schema", "pcn.live_snapshot.v1");
  json.member("now_ns", now_ns);
  // The slot counter, not Pcnd::now(): the counter is safe to read while
  // the slot loop runs; the raw slot_ field is not.
  json.member("slot", snapshot.counter_value("daemon.slot.count"));
  json.member("scrape_seq", seq);

  json.key("phase_us").begin_object();
  json.member("ingest", snapshot.histogram_mean("daemon.phase.ingest_us"));
  json.member("apply", snapshot.histogram_mean("daemon.phase.apply_us"));
  json.member("drain", snapshot.histogram_mean("daemon.phase.drain_us"));
  json.member("finalize",
              snapshot.histogram_mean("daemon.phase.finalize_us"));
  json.end_object();

  json.key("queues").begin_object();
  json.member("live_stats_enabled", daemon_->config().live_stats);
  json.member("slot", queues.slot);
  json.member("total_pending", queues.total_pending);
  json.member("cells_pending", queues.cells_pending);
  json.member("max_depth", queues.max_depth_ever);
  json.key("deepest").begin_array();
  for (const LiveQueueStats::CellDepth& cell : queues.deepest) {
    json.begin_object();
    json.member("q", cell.cell.q);
    json.member("r", cell.cell.r);
    json.member("depth", cell.depth);
    json.end_object();
  }
  json.end_array();
  json.end_object();

  json.key("socket").begin_object();
  json.member("frames_in", snapshot.counter_value("daemon.socket.frames_in"));
  json.member("frames_out",
              snapshot.counter_value("daemon.socket.frames_out"));
  json.member("decode_errors",
              snapshot.counter_value("daemon.socket.decode_errors"));
  json.member("rejected_ring_full",
              snapshot.counter_value("daemon.socket.rejected_ring_full"));
  json.member("disconnects",
              snapshot.counter_value("daemon.socket.disconnects"));
  const obs::GaugeSample* outbox =
      snapshot.find_gauge("daemon.socket.outbox_bytes");
  json.member("outbox_bytes", outbox == nullptr ? 0.0 : outbox->value);
  json.end_object();

  {
    const std::lock_guard<std::mutex> lock(history_mutex_);
    const obs::Timeseries& history = history_.data();
    json.key("windows").begin_object();
    json.key("1s");
    write_window(json, history, 1'000'000'000);
    json.key("10s");
    write_window(json, history, 10'000'000'000);
    json.key("60s");
    write_window(json, history, 60'000'000'000);
    json.end_object();
  }

  json.key("metrics");
  obs::snapshot_to_json(json, snapshot);
  json.end_object();
  return json.take();
}

}  // namespace pcn::daemon
