#include "pcn/daemon/socket_server.hpp"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "pcn/common/error.hpp"
#include "pcn/proto/wire.hpp"

namespace pcn::daemon {

namespace {

/// Largest frame a client may send; far above any real proto frame, low
/// enough that a corrupt length prefix cannot make us allocate gigabytes.
constexpr std::uint32_t kMaxFrameBytes = 1u << 20;

/// Largest backlog of staged outcome bytes per connection.  A PageOutcome
/// frame is ~50 bytes, so this buffers tens of thousands of verdicts for
/// a briefly-slow reader before the connection is declared dead.
constexpr std::size_t kMaxOutboxBytes = 4u << 20;

/// Initial size of a connection's input buffer: one read() takes up to
/// this many bytes, hundreds of frames.
constexpr std::size_t kInputBytes = 64u << 10;

/// How long the listener pauses after accept() fails.
constexpr auto kAcceptBackoff = std::chrono::milliseconds(10);

std::uint32_t load_u32_le(const std::uint8_t* bytes) {
  return std::uint32_t{bytes[0]} | std::uint32_t{bytes[1]} << 8 |
         std::uint32_t{bytes[2]} << 16 | std::uint32_t{bytes[3]} << 24;
}

}  // namespace

SocketServer::SocketServer(Pcnd* daemon, std::string path)
    : daemon_(daemon), path_(std::move(path)) {
  PCN_EXPECT(daemon_ != nullptr, "SocketServer: daemon must not be null");
  PCN_EXPECT(daemon_->config().collect_outcomes,
             "SocketServer: daemon must collect outcomes");
  sockaddr_un address{};
  PCN_EXPECT(path_.size() < sizeof(address.sun_path),
             "SocketServer: socket path too long");
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  PCN_EXPECT(listen_fd_ >= 0, "SocketServer: cannot create socket");
  ::unlink(path_.c_str());
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path_.c_str(), path_.size() + 1);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 64) != 0) {
    const std::string what = "SocketServer: cannot listen on '" + path_ +
                             "': " + std::strerror(errno);
    close_fds();
    PCN_EXPECT(false, what.c_str());
  }
  // The listener and the wake-up eventfd are told apart from connections
  // by their tags: the addresses of the members holding their fds.
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  epoll_event listen_event{};
  listen_event.events = EPOLLIN;
  listen_event.data.ptr = &listen_fd_;
  epoll_event wake_event{};
  wake_event.events = EPOLLIN;
  wake_event.data.ptr = &wake_fd_;
  if (epoll_fd_ < 0 || wake_fd_ < 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &listen_event) != 0 ||
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &wake_event) != 0) {
    const std::string what =
        std::string("SocketServer: cannot set up epoll: ") +
        std::strerror(errno);
    close_fds();
    ::unlink(path_.c_str());
    PCN_EXPECT(false, what.c_str());
  }
  obs::MetricsRegistry& registry = daemon_->metrics_registry();
  frames_in_ = registry.counter("daemon.socket.frames_in");
  frames_out_ = registry.counter("daemon.socket.frames_out");
  decode_errors_ = registry.counter("daemon.socket.decode_errors");
  rejected_ = registry.counter("daemon.socket.rejected_ring_full");
  accept_errors_ = registry.counter("daemon.socket.accept_errors");
  disconnects_ = registry.counter("daemon.socket.disconnects");
  outbox_bytes_gauge_ = registry.gauge("daemon.socket.outbox_bytes");
}

SocketServer::~SocketServer() {
  stop();
  close_fds();
  ::unlink(path_.c_str());
}

void SocketServer::close_fds() {
  for (int* fd : {&listen_fd_, &epoll_fd_, &wake_fd_}) {
    if (*fd >= 0) ::close(*fd);
    *fd = -1;
  }
}

void SocketServer::start() {
  if (state_ != State::kIdle) return;
  state_ = State::kRunning;
  io_thread_ = std::thread([this] { io_loop(); });
}

void SocketServer::stop() {
  if (state_ != State::kRunning) return;
  state_ = State::kStopped;
  const std::uint64_t one = 1;
  while (::write(wake_fd_, &one, sizeof(one)) < 0 && errno == EINTR) {
  }
  io_thread_.join();
  // Refuse clients still connecting; the I/O thread no longer accepts.
  ::shutdown(listen_fd_, SHUT_RDWR);
  // Verdicts settled since the last flush would otherwise vanish with
  // the connections: stage them now, then give every outbox a bounded
  // final drain before tearing the socket down.
  flush_outcomes();
  std::unordered_map<std::uint32_t, std::unique_ptr<Connection>> connections;
  {
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (auto& [client, connection] : connections) {
    drain_outbox_bounded(*connection);
    ::close(connection->fd);
  }
}

void SocketServer::drain_outbox_bounded(Connection& connection) {
  // Non-blocking pumps with short sleeps in between, ~100 ms worst case:
  // a reader keeping up receives everything staged for it, while a dead
  // or stalled one can only delay shutdown by the bound, never hang it.
  for (int attempt = 0; attempt < 100; ++attempt) {
    {
      const std::lock_guard<std::mutex> write_lock(connection.write_mutex);
      if (connection.write_failed.load(std::memory_order_acquire)) return;
      if (connection.outbox.empty()) return;
      pump_outbox(connection);
      if (connection.outbox.empty()) return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

std::size_t SocketServer::open_connections() {
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void SocketServer::io_loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  const auto watch_listener = [this](std::uint32_t listen_events) {
    epoll_event event{};
    event.events = listen_events;
    event.data.ptr = &listen_fd_;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, listen_fd_, &event);
  };
  bool accept_paused = false;
  std::chrono::steady_clock::time_point resume_accept{};
  for (;;) {
    int timeout_ms = -1;
    if (accept_paused) {
      const auto now = std::chrono::steady_clock::now();
      if (now >= resume_accept) {
        watch_listener(EPOLLIN);
        accept_paused = false;
      } else {
        timeout_ms = static_cast<int>(
            std::chrono::ceil<std::chrono::milliseconds>(resume_accept - now)
                .count());
      }
    }
    const int ready = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (ready < 0 && errno != EINTR) return;  // epoll fd broken
    for (int i = 0; i < ready; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == &wake_fd_) return;  // stop()
      if (tag != &listen_fd_) {
        read_ready(*static_cast<Connection*>(tag));
      } else if (!accept_ready()) {
        // Transient resource pressure (fd table full, aborted handshake,
        // kernel buffers exhausted).  Stop watching the listener for a
        // short backoff instead of spinning on it, and keep serving the
        // open connections meanwhile; under EMFILE the pause also gives
        // flush_outcomes' reaper a chance to return fds first.
        watch_listener(0);
        accept_paused = true;
        resume_accept = std::chrono::steady_clock::now() + kAcceptBackoff;
      }
    }
  }
}

bool SocketServer::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      accept_errors_.increment();
      return false;
    }
    auto connection = std::make_unique<Connection>();
    connection->fd = fd;
    connection->input.resize(kInputBytes);
    epoll_event event{};
    event.events = EPOLLIN;
    event.data.ptr = connection.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &event) != 0) {
      accept_errors_.increment();
      ::close(fd);
      return false;
    }
    const std::lock_guard<std::mutex> lock(connections_mutex_);
    connection->client = next_client_++;
    connections_.emplace(connection->client, std::move(connection));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
  }
}

void SocketServer::read_ready(Connection& connection) {
  std::vector<std::uint8_t>& input = connection.input;
  const ssize_t n = ::read(connection.fd, input.data() + connection.buffered,
                           input.size() - connection.buffered);
  if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK)) {
    return;  // level-triggered: the next wait reports the fd again
  }
  if (n <= 0) {
    // Peer closed, read error, or flush_outcomes shut a failed socket
    // down.  A partial frame in the buffer is dropped unsubmitted.
    release(connection);
    return;
  }
  const std::size_t end = connection.buffered + static_cast<std::size_t>(n);
  std::size_t at = 0;
  while (end - at >= sizeof(std::uint32_t)) {
    const std::uint32_t length = load_u32_le(input.data() + at);
    if (length == 0 || length > kMaxFrameBytes) {
      decode_errors_.increment(connection.client);
      release(connection);  // framing is lost; drop the connection
      return;
    }
    if (end - at - sizeof(std::uint32_t) < length) break;
    at += sizeof(std::uint32_t);
    handle_frame(connection, {input.data() + at, length});
    at += length;
  }
  // Keep the partial tail for the next read, at the front of the buffer,
  // which grows only when that frame does not fit.
  connection.buffered = end - at;
  if (at > 0 && connection.buffered > 0) {
    std::memmove(input.data(), input.data() + at, connection.buffered);
  }
  if (connection.buffered >= sizeof(std::uint32_t)) {
    const std::size_t needed =
        sizeof(std::uint32_t) + load_u32_le(input.data());
    if (needed > input.size()) input.resize(needed);
  }
}

void SocketServer::release(Connection& connection) {
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection.fd, nullptr);
  connection.released.store(true, std::memory_order_release);
}

void SocketServer::handle_frame(Connection& connection,
                                std::span<const std::uint8_t> frame) {
  const std::uint32_t client = connection.client;
  frames_in_.increment(client);
  DaemonRequest request;
  request.client = client;
  try {
    switch (proto::peek_type(frame)) {
      case proto::MessageType::kLocationUpdate:
        request.kind = DaemonRequest::Kind::kUpdate;
        request.update = proto::decode_location_update(frame);
        break;
      case proto::MessageType::kPageSubmit: {
        const proto::PageSubmit submit = proto::decode_page_submit(frame);
        request.kind = DaemonRequest::Kind::kPage;
        request.page_id = submit.page_id;
        request.terminal_id = submit.terminal_id;
        break;
      }
      default:
        decode_errors_.increment(client);
        return;
    }
  } catch (const proto::DecodeError&) {
    decode_errors_.increment(client);
    return;
  }
  if (!daemon_->submit(request)) {
    rejected_.increment(client);
    if (request.kind == DaemonRequest::Kind::kPage) {
      // A page that never entered the ring will never settle, so the
      // daemon will never emit a verdict for it — a closed-loop client
      // would wait forever.  Answer right here with an explicit
      // kRejected outcome so backpressure is visible end to end.
      proto::PageOutcome outcome;
      outcome.page_id = request.page_id;
      outcome.terminal_id = request.terminal_id;
      outcome.outcome = proto::PageOutcomeKind::kRejected;
      const std::lock_guard<std::mutex> write_lock(connection.write_mutex);
      if (stage_outcome(connection, outcome)) {
        frames_out_.increment(client);
        pump_outbox(connection);
      }
    }
  }
}

bool SocketServer::stage_outcome(Connection& connection,
                                 const proto::PageOutcome& outcome) {
  std::vector<std::uint8_t>& outbox = connection.outbox;
  const std::size_t start = outbox.size();
  outbox.resize(start + sizeof(std::uint32_t));  // length, patched below
  proto::encode_into(outcome, outbox);
  if (outbox.size() > kMaxOutboxBytes) {
    // The client stopped reading a long time ago; failing the connection
    // beats unbounded buffering (and beats blocking the slot loop).
    outbox.resize(start);
    connection.write_failed.store(true, std::memory_order_release);
    return false;
  }
  const auto length =
      static_cast<std::uint32_t>(outbox.size() - start - sizeof(std::uint32_t));
  outbox[start] = static_cast<std::uint8_t>(length);
  outbox[start + 1] = static_cast<std::uint8_t>(length >> 8);
  outbox[start + 2] = static_cast<std::uint8_t>(length >> 16);
  outbox[start + 3] = static_cast<std::uint8_t>(length >> 24);
  return true;
}

void SocketServer::pump_outbox(Connection& connection) {
  std::size_t sent = 0;
  while (sent < connection.outbox.size()) {
    // MSG_NOSIGNAL: a disconnected client yields EPIPE, not a SIGPIPE
    // that would kill the daemon.  MSG_DONTWAIT: a client that is not
    // reading yields EAGAIN, not a blocked slot loop.
    const ssize_t n =
        ::send(connection.fd, connection.outbox.data() + sent,
               connection.outbox.size() - sent, MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      connection.write_failed.store(true, std::memory_order_release);
      break;
    }
    sent += static_cast<std::size_t>(n);
  }
  connection.outbox.erase(
      connection.outbox.begin(),
      connection.outbox.begin() + static_cast<std::ptrdiff_t>(sent));
}

void SocketServer::reap_connections() {
  for (auto it = connections_.begin(); it != connections_.end();) {
    Connection& connection = *it->second;
    const bool failed = connection.write_failed.load(std::memory_order_acquire);
    if (failed && !connection.shut_down) {
      // The I/O thread's next read of this socket sees EOF and releases it.
      ::shutdown(connection.fd, SHUT_RDWR);
      connection.shut_down = true;
    }
    // A released connection is this thread's alone, so its outbox needs
    // no lock.  One whose client hung up (or lost framing) stays until
    // its staged verdicts have drained.
    if (connection.released.load(std::memory_order_acquire) &&
        (failed || connection.outbox.empty())) {
      ::close(connection.fd);
      disconnects_.increment();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

std::size_t SocketServer::flush_outcomes() {
  std::vector<PageOutcomeEvent> outcomes;
  daemon_->drain_outcomes(&outcomes);

  // The registry lock is held throughout: the I/O thread takes it only
  // to add an accepted connection, and reads without it.
  const std::lock_guard<std::mutex> lock(connections_mutex_);
  std::size_t staged = 0;
  for (const PageOutcomeEvent& event : outcomes) {
    if (event.client == 0) continue;  // in-process submitter, no frame
    const auto it = connections_.find(event.client);
    if (it == connections_.end()) continue;  // client went away
    Connection& connection = *it->second;
    if (connection.write_failed.load(std::memory_order_acquire)) continue;
    proto::PageOutcome outcome;
    outcome.page_id = event.page_id;
    outcome.terminal_id = event.terminal_id;
    outcome.outcome = event.kind;
    outcome.queue_delay_slots =
        static_cast<std::uint64_t>(event.queue_delay_slots);
    outcome.queue_depth = event.queue_depth;
    const std::lock_guard<std::mutex> write_lock(connection.write_mutex);
    if (stage_outcome(connection, outcome)) {
      frames_out_.increment(event.client);
      ++staged;
    }
  }

  // Push this call's frames plus anything a full kernel buffer deferred.
  // The pre-pump occupancy sum is the peak backlog for this flush; its
  // high watermark is the daemon.socket.outbox_bytes gauge.
  std::size_t staged_bytes = 0;
  for (auto& [client, connection] : connections_) {
    const std::lock_guard<std::mutex> write_lock(connection->write_mutex);
    staged_bytes += connection->outbox.size();
    pump_outbox(*connection);
  }
  if (staged_bytes > outbox_bytes_hwm_) {
    outbox_bytes_hwm_ = staged_bytes;
    outbox_bytes_gauge_.set(static_cast<double>(outbox_bytes_hwm_));
  }

  reap_connections();
  return staged;
}

}  // namespace pcn::daemon
