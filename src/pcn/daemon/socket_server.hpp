// Unix-domain socket front end for pcnd.
//
// A deliberately thin layer: the wire surface is the existing proto frame
// codec, length-prefixed for stream transport —
//
//   u32 (LE, raw)  frame length
//   ...            one proto frame (messages.hpp: version, type, payload,
//                  CRC trailer)
//
// Inbound frames must be LocationUpdate or PageSubmit; each decodes into
// the same DaemonRequest struct in-process producers build and goes
// through Pcnd::submit — the socket path exercises exactly the ring the
// tests and load generators exercise, with `client` set to the
// connection id so verdicts route back.  Outbound, `flush_outcomes`
// drains the daemon's settled PageOutcomeEvents, stages a PageOutcome
// frame into the submitting connection's bounded outbox, and pushes
// outbox bytes with non-blocking MSG_NOSIGNAL sends.
//
// Threading: the front end runs one I/O thread however many clients
// connect.  It waits in a level-triggered epoll loop over the
// non-blocking listener, every connection, and an eventfd that stop()
// signals.  Each readiness event on a connection makes one read() into
// that connection's reused input buffer (64 KiB, grown only for a longer
// frame); every complete frame in it is decoded in place and the partial
// tail waits for the next read.  flush_outcomes runs on its caller's
// thread, the slot loop.
//
// A bad client cannot stall or kill the daemon:
//
// * Frames that fail to decode, frames of an unexpected type, and pushes
//   rejected by a full ring are counted (daemon.socket.*) and the
//   connection stays up.  A length prefix of 0 or above 1 MiB loses the
//   framing: it is counted as a decode error and the connection dropped.
// * Socket writes never block and never raise SIGPIPE.  A client that
//   stops reading accumulates at most kMaxOutboxBytes of staged
//   verdicts, then its connection is failed; a client that disconnects
//   turns the next send into a counted EPIPE, not a signal.  A slow
//   writer holds only its own partial frame; other clients' frames are
//   read as they arrive.
// * Dead connections are reaped on every flush_outcomes call, so a
//   long-running daemon with client churn does not accumulate fds.  Only
//   the I/O thread takes a connection out of the epoll set: on EOF, a
//   read error, a bad length prefix, or after flush_outcomes has shut a
//   write-failed socket down.  flush_outcomes closes and erases a
//   connection only once the I/O thread has released it and its staged
//   verdicts have drained (or its write side failed), so no connection
//   is freed while an event for it can still arrive.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "pcn/daemon/daemon.hpp"

namespace pcn::daemon {

class SocketServer {
 public:
  /// Binds and listens on `path` (an existing socket file is replaced).
  /// The daemon must have collect_outcomes enabled so verdicts can be
  /// routed back.  Throws InvalidArgument when binding fails.
  SocketServer(Pcnd* daemon, std::string path);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  const std::string& path() const { return path_; }

  /// Starts the I/O thread from the calling thread, so it inherits that
  /// thread's CPU mask.  Connections start no further thread.  No-op once
  /// started or stopped.
  void start();

  /// Stops the I/O thread, delivers staged verdicts (bounded), closes
  /// every connection.  Idempotent; also run by the destructor.
  void stop();

  /// Drains settled outcomes from the daemon, stages a PageOutcome frame
  /// into each submitting connection's outbox (outcomes with client 0 —
  /// in-process submitters — are discarded), pushes outbox bytes with
  /// non-blocking sends, and reaps dead connections.  Returns frames
  /// staged.  Call between run_slots calls, from one thread at a time
  /// (also serialized against stop()).
  std::size_t flush_outcomes();

  /// Connections accepted so far (monotone; for tests).
  std::uint64_t connections_accepted() const {
    return connections_accepted_.load(std::memory_order_relaxed);
  }

  /// Connections currently registered (accepted, not yet reaped).
  std::size_t open_connections();

 private:
  struct Connection {
    int fd = -1;
    std::uint32_t client = 0;
    /// Inbound bytes not yet decoded are input[0, buffered).  Only the
    /// I/O thread touches these two.
    std::vector<std::uint8_t> input;
    std::size_t buffered = 0;
    std::mutex write_mutex;
    /// Length-prefixed frames the socket has not accepted yet; bounded
    /// by kMaxOutboxBytes (stage_outcome fails the connection beyond it).
    std::vector<std::uint8_t> outbox;
    /// Set by the I/O thread once the fd has left the epoll set; from
    /// then on the I/O thread never touches this connection again.
    std::atomic<bool> released{false};
    std::atomic<bool> write_failed{false};
    /// flush_outcomes has shut the failed socket down (its thread only).
    bool shut_down = false;
  };

  void io_loop();
  /// Accepts every pending connection; false when accept() failed and
  /// the listener should pause before the next try.
  bool accept_ready();
  /// One read() into the connection's buffer, then every complete frame.
  void read_ready(Connection& connection);
  /// Takes the connection out of the epoll set and hands it to the reaper.
  void release(Connection& connection);
  void handle_frame(Connection& connection,
                    std::span<const std::uint8_t> frame);
  /// Final non-blocking drain of one connection's outbox, bounded to
  /// ~100 ms; used by stop() so staged verdicts reach a live reader.
  void drain_outbox_bounded(Connection& connection);
  /// Encodes one length-prefixed PageOutcome frame straight into the
  /// outbox (write_mutex held by caller); fails the connection instead of
  /// exceeding the bound.
  bool stage_outcome(Connection& connection,
                     const proto::PageOutcome& outcome);
  /// Sends outbox bytes without blocking (write_mutex held by caller);
  /// EAGAIN leaves the remainder staged, a fatal error (EPIPE — client
  /// gone) fails the connection.
  void pump_outbox(Connection& connection);
  /// Shuts failed sockets down for the I/O thread to release; closes
  /// and erases released connections (connections_mutex_ held).
  void reap_connections();
  void close_fds();

  enum class State { kIdle, kRunning, kStopped };

  Pcnd* daemon_;
  std::string path_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd that stop() signals
  State state_ = State::kIdle;
  std::thread io_thread_;

  /// Guards connections_: the I/O thread inserts, flush_outcomes and
  /// stop() erase.  The I/O thread reaches a connection through its epoll
  /// event, without the lock.
  std::mutex connections_mutex_;
  std::unordered_map<std::uint32_t, std::unique_ptr<Connection>> connections_;
  std::uint32_t next_client_ = 1;  ///< 0 is reserved for in-process
  std::atomic<std::uint64_t> connections_accepted_{0};

  obs::Counter frames_in_;
  obs::Counter frames_out_;
  obs::Counter decode_errors_;
  obs::Counter rejected_;
  obs::Counter accept_errors_;
  obs::Counter disconnects_;
  obs::Gauge outbox_bytes_gauge_;
  /// High watermark of total staged outbox bytes, sampled at each flush
  /// before the pump (only flush_outcomes touches it, single caller).
  std::size_t outbox_bytes_hwm_ = 0;
};

}  // namespace pcn::daemon
