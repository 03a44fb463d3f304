// Admin scrape endpoint for pcnd — the live introspection plane.
//
// A second Unix-domain listener (`pcnd --admin-socket PATH`), separate
// from the request front end so operators can scrape a daemon that has no
// socket clients at all (it does not require collect_outcomes).  The
// protocol is one request per connection, newline-terminated:
//
//   "prom\n"  ->  Prometheus text exposition of the live MetricsRegistry
//   "json\n"  ->  a `pcn.live_snapshot.v1` JSON document
//
// The server replies with the full payload and closes the connection.
//
// Snapshots are taken with MetricsRegistry::snapshot() — relaxed loads
// against concurrently-writing shard cells, so a scrape never blocks the
// slot loop, and because every cell is monotone, successive scrapes see
// monotone non-decreasing counter totals.
//
// The server keeps a short metric history: a capped obs::TimeseriesRecorder
// (256 samples at least 250 ms apart, keyed by monotonic ns).  Its own
// thread samples about four times a second, so the history fills whether
// or not anyone scrapes and the 1s window always has an earlier sample
// inside its span; a scrape samples too when one is due.  The JSON snapshot's
// 1s/10s/60s windows are obs::window_delta / obs::window_quantiles reads
// over that history — current load, not lifetime averages.  They read
// only daemon.* counters and the delay histogram, which Pcnd registers in
// its constructor, before the first sample fixes the recorder's
// dictionary.
//
// A dead or stalling scraper cannot wedge the daemon: connections are
// handled one at a time on the server thread with short socket timeouts,
// and the worst case is one delayed scrape (or history sample), never a
// delayed slot.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>

#include "pcn/daemon/daemon.hpp"
#include "pcn/obs/timeseries.hpp"

namespace pcn::daemon {

class AdminServer {
 public:
  /// Binds and listens on `path` (an existing socket file is replaced).
  /// Throws InvalidArgument when binding fails.
  AdminServer(Pcnd* daemon, std::string path);
  ~AdminServer();

  AdminServer(const AdminServer&) = delete;
  AdminServer& operator=(const AdminServer&) = delete;

  const std::string& path() const { return path_; }

  /// Starts the server thread: it serves scrapes and samples the history.
  void start();

  /// Stops accepting and joins the server thread.  Idempotent; also run by
  /// the destructor.
  void stop();

  /// Scrape requests answered so far (monotone; for tests).
  std::uint64_t scrapes() const {
    return scrapes_.load(std::memory_order_relaxed);
  }

  /// The two scrape payloads, also callable directly (tests, --once
  /// paths).  Both sample the history like a socket scrape does.
  std::string render_prometheus();
  std::string render_live_snapshot();

 private:
  void serve_loop();
  void handle_connection(int fd);
  /// Monotonic ns at which the next history sample is due; the caller
  /// holds history_mutex_.
  std::int64_t next_sample_due_ns() const;
  /// Snapshot now and record it in the history when a sample is due;
  /// returns the snapshot.
  obs::MetricsSnapshot observe(std::int64_t* now_ns_out);

  Pcnd* daemon_;
  std::string path_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<std::uint64_t> scrapes_{0};

  std::mutex history_mutex_;
  obs::TimeseriesRecorder history_;

  /// Declared last: it uses every member above.
  std::thread serve_thread_;
};

}  // namespace pcn::daemon
