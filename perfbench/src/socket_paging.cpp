// socket_paging: an in-process pcnd behind its Unix-socket front end,
// driven open loop by one client over two connections.
//
// The daemon runs the loop `pcnd serve` runs (run_slots(1), then
// flush_outcomes(), then wait for a 1000 us deadline, serve's default
// --slot-us; serve_while says why the wait spins).  The client registers the fleet, then replays a request
// tape made from the seed before timing starts: about four location
// updates to one page submit, sent in batches 100 us apart on average
// (Poisson, so batches fall at every phase of the slot cycle) at a fixed
// mean rate far below what the socket can carry.  It is the only workload
// through proto, the per-connection readers, the request ring and the
// outbox.  The paging queues stay almost empty, so a page's latency is
// front end plus one slot, and terminal-DB writes dominate the daemon's
// work.
//
// Latency is timed from each request's scheduled send time, so a stalled
// generator adds its lateness to every request behind it instead of
// hiding it; the generator's own lateness is reported as send lag.
#include <fcntl.h>
#include <pthread.h>
#include <poll.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <chrono>
#include <cstring>
#include <exception>
#include <memory>
#include <stdexcept>
#include <thread>

#include "daemon_layers.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/socket_server.hpp"
#include "pcn/geometry/hex.hpp"
#include "pcn/obs/timer.hpp"
#include "pcn/proto/messages.hpp"
#include "pcn/stats/rng.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

struct Scale {
  std::uint64_t terminals;
  int region;
  double requests_per_s;
  double warmup_s;
};

constexpr Scale kFull{50'000, 32, 100'000.0, 0.25};
constexpr Scale kTiny{4'000, 8, 20'000.0, 0.05};
constexpr std::int64_t kSlotUs = 1000;
constexpr std::int64_t kTickNs = 100'000;
constexpr double kPageShare = 0.2;
constexpr int kSlaSlots = 8;
/// How long the client waits for verdicts after its last send before it
/// counts the rest as unanswered.
constexpr std::int64_t kGraceNs = 2'000'000'000;
/// Slots per block of a traced run's alternating traced and untraced
/// blocks.
constexpr std::int64_t kTraceBlockSlots = 100;
/// Latency percentiles are medians over intervals of this length.
constexpr std::int64_t kIntervalNs = 100'000'000;
/// The tape's first timed batch is due this long after the window opens.
constexpr std::int64_t kWindowLeadNs = 1'000'000;
/// Timeout for fleet registration to be applied.
constexpr std::int64_t kRegisterTimeoutNs = 60'000'000'000;

// --- Request tape ------------------------------------------------------------

struct Request {
  std::uint32_t terminal;
  bool page;
  std::uint32_t sequence;  ///< update: the terminal's sequence number
  std::uint32_t ordinal;   ///< page: page id - 1
  std::int32_t q, r;       ///< update: the reported cell
};

struct Tape {
  std::vector<pcn::geometry::Cell> home;  ///< registration cell per terminal
  std::vector<Request> requests;
  std::size_t per_tick = 0;    ///< requests per batch
  /// Send time of each batch from the tape's start: a Poisson process of
  /// mean gap kTickNs, so batches take every phase of the slot cycle.
  std::vector<std::int64_t> batch_at;
  std::size_t warmup_end = 0;  ///< index of the first timed request
  std::uint32_t pages = 0;

  std::int64_t due_ns(std::size_t index, std::size_t begin,
                      std::int64_t t0) const {
    return t0 + batch_at[index / per_tick] - batch_at[begin / per_tick];
  }
};

/// Terminals move one cell per update on a region x region torus; a
/// terminal is paged again only after `spacing` ticks — longer than the
/// queue lifetime, so no page can be merged into a pending one (a merged
/// page gets no verdict of its own).
Tape make_tape(const Scale& scale, std::uint64_t seed, double seconds) {
  Tape tape;
  pcn::stats::Rng rng(pcn::stats::rng_detail::seed_from(seed, 0x736f636bu));
  const auto region = static_cast<std::int64_t>(scale.region);
  const auto wrap = [region](std::int64_t v) {
    return ((v % region) + region) % region;
  };
  tape.home.resize(scale.terminals);
  for (auto& cell : tape.home) {
    cell.q = static_cast<std::int64_t>(rng.next_below(scale.region));
    cell.r = static_cast<std::int64_t>(rng.next_below(scale.region));
  }
  tape.per_tick = static_cast<std::size_t>(
      std::llround(scale.requests_per_s * double(kTickNs) * 1e-9));
  const auto ticks = [](double s) {
    return static_cast<std::size_t>(std::llround(s * 1e9 / double(kTickNs)));
  };
  const std::size_t warmup_ticks = ticks(scale.warmup_s);
  const std::size_t total_ticks = warmup_ticks + ticks(seconds);
  tape.warmup_end = warmup_ticks * tape.per_tick;
  const double page_rate = scale.requests_per_s * kPageShare;
  const auto spacing = static_cast<std::int64_t>(
      0.5 * double(scale.terminals) / page_rate * 1e9 / double(kTickNs));
  if (spacing * kTickNs < 2 * 128 * kSlotUs * 1000) {
    throw std::logic_error("socket_paging: too few terminals for page rate");
  }

  std::vector<pcn::geometry::Cell> position = tape.home;
  std::vector<std::uint32_t> sequence(scale.terminals, 1);
  std::vector<std::int64_t> last_paged(scale.terminals, -spacing);
  tape.requests.reserve(total_ticks * tape.per_tick);
  tape.batch_at.reserve(total_ticks);
  double at = 0.0;
  for (std::size_t tick = 0; tick < total_ticks; ++tick) {
    tape.batch_at.push_back(static_cast<std::int64_t>(at));
    at -= double(kTickNs) * std::log(1.0 - rng.next_unit());
    for (std::size_t k = 0; k < tape.per_tick; ++k) {
      Request request{};
      request.page = rng.next_unit() < kPageShare;
      std::uint64_t t = rng.next_below(scale.terminals);
      if (request.page) {
        while (static_cast<std::int64_t>(tick) - last_paged[t] < spacing) {
          t = rng.next_below(scale.terminals);
        }
        last_paged[t] = static_cast<std::int64_t>(tick);
        request.ordinal = tape.pages++;
      } else {
        const auto step =
            pcn::geometry::hex_directions()[rng.next_below(6)];
        position[t] = {wrap(position[t].q + step.q),
                       wrap(position[t].r + step.r)};
        request.sequence = ++sequence[t];
        request.q = static_cast<std::int32_t>(position[t].q);
        request.r = static_cast<std::int32_t>(position[t].r);
      }
      request.terminal = static_cast<std::uint32_t>(t);
      tape.requests.push_back(request);
    }
  }
  return tape;
}

// --- Client ------------------------------------------------------------------

std::int64_t now_ns() { return pcn::obs::monotonic_ns(); }

int connect_unix(const std::string& path) {
  sockaddr_un address{};
  if (path.size() >= sizeof(address.sun_path)) {
    throw std::runtime_error("socket path too long: " + path);
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect(" + path + ") failed: " +
                             std::strerror(errno));
  }
  return fd;
}

/// What the client saw for one page.
struct PageRecord {
  std::int64_t due_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint64_t delay_slots = 0;
  pcn::proto::PageOutcomeKind kind = pcn::proto::PageOutcomeKind::kServed;
  std::uint32_t outcomes = 0;  ///< PageOutcome frames received
  bool wrong_terminal = false;
};

/// One client thread, two connections: location updates on one, page
/// submits (and their verdicts) on the other.
class Client {
 public:
  Client(const std::string& path, const Tape& tape)
      : tape_(tape), pages_(tape.pages), page_terminals_(tape.pages) {
    for (const Request& r : tape.requests) {
      if (r.page) page_terminals_[r.ordinal] = r.terminal;
    }
    update_fd_ = connect_unix(path);
    try {
      page_fd_ = connect_unix(path);
    } catch (...) {
      ::close(update_fd_);
      throw;
    }
    ::fcntl(page_fd_, F_SETFL, ::fcntl(page_fd_, F_GETFL) | O_NONBLOCK);
  }
  ~Client() {
    ::close(update_fd_);
    ::close(page_fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  void send_registration() {
    std::vector<std::uint8_t> batch;
    for (std::uint64_t t = 0; t < tape_.home.size(); ++t) {
      pcn::proto::LocationUpdate update;
      update.terminal_id = t;
      update.sequence = 1;
      update.cell = tape_.home[t];
      append(batch, update);
      if (batch.size() >= (1u << 16)) write_all(update_fd_, batch);
    }
    write_all(update_fd_, batch);
    updates_sent_ += static_cast<std::int64_t>(tape_.home.size());
  }

  /// Replays requests [begin, end) on schedule from `t0`, then waits until
  /// every page sent has a verdict and `applied` covers every update, or
  /// the grace period ends.
  void run(std::size_t begin, std::size_t end, std::int64_t t0,
           const pcn::obs::Counter& applied) {
    std::vector<std::uint8_t> updates, pages;
    std::size_t next = begin;
    while (next < end) {
      const std::int64_t due = tape_.due_ns(next, begin, t0);
      const std::int64_t now = now_ns();
      if (now < due) {
        receive_until(due);
        continue;
      }
      std::size_t last = next;
      while (last < end && tape_.due_ns(last, begin, t0) <= now) {
        const Request& request = tape_.requests[last];
        if (request.page) {
          pcn::proto::PageSubmit submit;
          submit.page_id = std::uint64_t{request.ordinal} + 1;
          submit.terminal_id = request.terminal;
          append(pages, submit);
          pages_[request.ordinal].due_ns = tape_.due_ns(last, begin, t0);
          ++pages_sent_;
        } else {
          pcn::proto::LocationUpdate update;
          update.terminal_id = request.terminal;
          update.sequence = request.sequence;
          update.cell = {request.q, request.r};
          append(updates, update);
          ++updates_sent_;
        }
        ++last;
      }
      write_all(update_fd_, updates);
      write_all(page_fd_, pages);
      const std::int64_t written = now_ns();
      for (std::size_t i = next; i < last; i += tape_.per_tick) {
        lag_us_.push_back(double(written - tape_.due_ns(i, begin, t0)) * 1e-3);
      }
      next = last;
      receive_until(0);
    }
    const std::int64_t deadline = now_ns() + kGraceNs;
    while ((answered_ < pages_sent_ || applied.value() < updates_sent_) &&
           now_ns() < deadline) {
      receive_until(std::min(deadline, now_ns() + 1'000'000));
    }
  }

  std::int64_t frames_sent() const { return updates_sent_ + pages_sent_; }
  std::int64_t updates_sent() const { return updates_sent_; }
  std::int64_t pages_sent() const { return pages_sent_; }
  std::int64_t stray_outcomes() const { return stray_; }
  const std::vector<PageRecord>& pages() const { return pages_; }
  std::vector<double>& lag_us() { return lag_us_; }

 private:
  template <typename Message>
  void append(std::vector<std::uint8_t>& out, const Message& message) {
    std::vector<std::uint8_t> frame;
    {
      const trace::Span span("proto.encode");
      frame = pcn::proto::encode(message);
    }
    const auto length = static_cast<std::uint32_t>(frame.size());
    for (int shift = 0; shift < 32; shift += 8) {
      out.push_back(static_cast<std::uint8_t>(length >> shift));
    }
    out.insert(out.end(), frame.begin(), frame.end());
  }

  /// Writes all of `bytes` (also on the non-blocking page socket), reading
  /// verdicts while the socket is full so neither side can stall the other.
  void write_all(int fd, std::vector<std::uint8_t>& bytes) {
    std::size_t done = 0;
    while (done < bytes.size()) {
      const ssize_t n = ::send(fd, bytes.data() + done, bytes.size() - done,
                               MSG_NOSIGNAL);
      if (n >= 0) {
        done += static_cast<std::size_t>(n);
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        pollfd fds[2] = {{fd, POLLOUT, 0}, {page_fd_, POLLIN, 0}};
        ::poll(fds, 2, 10);
        receive_until(0);
      } else if (errno != EINTR) {
        throw std::runtime_error(std::string("send failed: ") +
                                 std::strerror(errno));
      }
    }
    bytes.clear();
  }

  /// Reads and matches verdicts until `until_ns` (0: only what is ready).
  /// Busy-polls, yielding between reads: a sleeping client would add its
  /// own wake-up latency, which on a virtual machine reaches milliseconds,
  /// to every verdict, and a bare spin would hold off a socket reader
  /// woken on the same CPU.
  void receive_until(std::int64_t until_ns) {
    while (true) {
      std::uint8_t chunk[1 << 16];
      const ssize_t n = ::read(page_fd_, chunk, sizeof chunk);
      if (n > 0) {
        const std::int64_t at = now_ns();
        rx_.insert(rx_.end(), chunk, chunk + n);
        parse(at);
        continue;
      }
      if (n == 0) throw std::runtime_error("daemon closed the page socket");
      if (errno == EINTR) continue;
      if (errno != EAGAIN && errno != EWOULDBLOCK) {
        throw std::runtime_error(std::string("read failed: ") +
                                 std::strerror(errno));
      }
      if (now_ns() >= until_ns) return;
      sched_yield();
    }
  }

  void parse(std::int64_t at) {
    std::size_t offset = 0;
    while (rx_.size() - offset >= 4) {
      const std::uint32_t length =
          std::uint32_t{rx_[offset]} | std::uint32_t{rx_[offset + 1]} << 8 |
          std::uint32_t{rx_[offset + 2]} << 16 |
          std::uint32_t{rx_[offset + 3]} << 24;
      if (rx_.size() - offset - 4 < length) break;
      const std::span<const std::uint8_t> frame(rx_.data() + offset + 4,
                                                length);
      pcn::proto::PageOutcome outcome;
      {
        const trace::Span span("proto.decode");
        outcome = pcn::proto::decode_page_outcome(frame);
      }
      offset += 4 + length;
      if (outcome.page_id == 0 || outcome.page_id > pages_.size()) {
        ++stray_;
        continue;
      }
      PageRecord& record = pages_[outcome.page_id - 1];
      if (record.outcomes++ == 0) {
        ++answered_;
        record.recv_ns = at;
        record.kind = outcome.outcome;
        record.delay_slots = outcome.queue_delay_slots;
      }
      if (outcome.terminal_id != page_terminals_[outcome.page_id - 1]) {
        record.wrong_terminal = true;
      }
    }
    rx_.erase(rx_.begin(), rx_.begin() + static_cast<std::ptrdiff_t>(offset));
  }

  const Tape& tape_;
  int update_fd_ = -1;
  int page_fd_ = -1;
  std::vector<PageRecord> pages_;
  std::vector<std::uint32_t> page_terminals_;
  std::vector<std::uint8_t> rx_;
  std::vector<double> lag_us_;
  std::int64_t updates_sent_ = 0;
  std::int64_t pages_sent_ = 0;
  std::int64_t answered_ = 0;
  std::int64_t stray_ = 0;
};

// --- Daemon side -------------------------------------------------------------

pcn::daemon::PcndConfig daemon_config() {
  pcn::daemon::PcndConfig config;
  config.threads = 1;
  config.collect_outcomes = true;
  config.live_stats = true;
  config.capacity = pcn::capacity::PagingCapacityModel(2, 1.0);
  config.sla_delay_slots = kSlaSlots;
  return config;
}

/// Where the workload's threads run, when at least two CPUs are allowed:
/// the slot loop alone on one CPU; the client and the server's accept and
/// reader threads together on another.  A frame the client writes then
/// wakes its reader on the client's own CPU, where the client's next yield
/// runs it, and no request waits for the host to wake an idle virtual CPU.
/// The slot loop never waits on a wake-up either: it spins, and the client
/// polls for verdicts.
struct Placement {
  bool pinned = false;
  cpu_set_t loop{}, front{};

  static Placement choose() {
    Placement placement;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return placement;
    int found = 0;
    for (int cpu = 0; cpu < CPU_SETSIZE && found < 2; ++cpu) {
      if (!CPU_ISSET(cpu, &allowed)) continue;
      cpu_set_t& set = found++ == 0 ? placement.loop : placement.front;
      CPU_ZERO(&set);
      CPU_SET(cpu, &set);
    }
    placement.pinned = found == 2;
    return placement;
  }
  /// Moves the calling thread to `set` (threads it starts inherit it).
  void pin(const cpu_set_t& set) const {
    if (pinned) pthread_setaffinity_np(pthread_self(), sizeof set, &set);
  }
};

/// Members are destroyed client first, daemon last: the server's reader
/// threads call into the daemon until the server has stopped.
struct Instance {
  Placement cpus;
  std::unique_ptr<pcn::daemon::Pcnd> daemon;
  std::unique_ptr<pcn::daemon::SocketServer> server;
  std::unique_ptr<Client> client;
  pcn::obs::Counter applied;
  pcn::obs::Counter frames_in;
};

/// Per-slot readings of the serve loop.
struct ServeStats {
  std::int64_t slots = 0;
  double pending_sum = 0.0;
  double wait_cpu_s = 0.0;  ///< CPU spent waiting for slot deadlines
  /// Traced loops: daemon CPU per frame of each block, by tracing state.
  std::vector<double> traced_cpu_us, untraced_cpu_us;
};

/// Daemon-side CPU so far: the process less the client thread and the
/// deadline waits.  Returns false once the client thread has exited.
bool daemon_cpu_s(clockid_t client_clock, const ServeStats& stats,
                  double* out) {
  timespec ts{};
  if (clock_gettime(client_clock, &ts) != 0) return false;
  *out = process_cpu_s() - (double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9) -
         stats.wait_cpu_s;
  return true;
}

/// Runs `client_work` on its own thread while this thread runs the serve
/// loop; returns when the client is done.  A traced loop records spans in
/// alternate blocks of kTraceBlockSlots slots and compares the daemon's
/// CPU per frame between the two kinds of block.
template <typename Work>
ServeStats serve_while(Instance& instance, bool traced, Work&& client_work) {
  std::atomic<bool> done{false};
  std::exception_ptr error;
  std::thread client([&] {
    instance.cpus.pin(instance.cpus.front);
    try {
      client_work();
    } catch (...) {
      error = std::current_exception();
    }
    done.store(true, std::memory_order_release);
  });
  clockid_t client_clock{};
  const bool measure_blocks =
      traced &&
      pthread_getcpuclockid(client.native_handle(), &client_clock) == 0;
  ServeStats stats;
  double block_cpu = 0.0;
  std::int64_t block_frames = instance.frames_in.value();
  bool block_ok =
      measure_blocks && daemon_cpu_s(client_clock, stats, &block_cpu);
  while (!done.load(std::memory_order_acquire)) {
    if (traced && stats.slots % kTraceBlockSlots == 0) {
      double cpu = 0.0;
      const std::int64_t frames = instance.frames_in.value();
      const bool ok =
          measure_blocks && daemon_cpu_s(client_clock, stats, &cpu);
      if (block_ok && ok && stats.slots > 0 && frames > block_frames) {
        const bool was_traced = trace::enabled();
        (was_traced ? stats.traced_cpu_us : stats.untraced_cpu_us)
            .push_back((cpu - block_cpu) * 1e6 / double(frames - block_frames));
      }
      block_cpu = cpu;
      block_frames = frames;
      block_ok = ok;
      trace::enable((stats.slots / kTraceBlockSlots) % 2 == 0);
    }
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::microseconds(kSlotUs);
    {
      const trace::Span span("daemon.run_slots");
      instance.daemon->run_slots(1);
    }
    {
      const trace::Span span("socket_server.flush_outcomes");
      instance.server->flush_outcomes();
    }
    ++stats.slots;
    if (traced) {
      stats.pending_sum +=
          double(instance.daemon->live_queue_stats().total_pending);
    }
    // pcnd serve sleeps here.  The benchmark spins instead: on a shared
    // virtual machine a sleeping thread's wake-up is delayed by the host,
    // by up to ~10 ms, which would set the slot cadence and every latency
    // figure.  The spin yields, so the threads that share this CPU when
    // they cannot be pinned apart still run.  The spin's CPU is measured
    // so it can be left out of the daemon's CPU per request.
    const double wait_start = thread_cpu_s();
    while (std::chrono::steady_clock::now() < deadline) {
      sched_yield();
    }
    stats.wait_cpu_s += thread_cpu_s() - wait_start;
  }
  client.join();
  if (error != nullptr) std::rethrow_exception(error);
  return stats;
}

/// Construction, socket start-up, fleet registration through the socket,
/// and a warm-up stretch of the tape.
std::unique_ptr<Instance> set_up(const Tape& tape, const std::string& path,
                                 const Placement& cpus) {
  auto owner = std::make_unique<Instance>();
  Instance& instance = *owner;
  instance.cpus = cpus;
  instance.daemon = std::make_unique<pcn::daemon::Pcnd>(daemon_config());
  instance.applied =
      instance.daemon->metrics_registry().counter("daemon.update.applied");
  instance.frames_in =
      instance.daemon->metrics_registry().counter("daemon.socket.frames_in");
  instance.server =
      std::make_unique<pcn::daemon::SocketServer>(instance.daemon.get(), path);
  cpus.pin(cpus.front);  // the accept thread, and the readers it starts
  instance.server->start();
  cpus.pin(cpus.loop);
  instance.client = std::make_unique<Client>(path, tape);
  serve_while(instance, false, [&] {
    Client& client = *instance.client;
    client.send_registration();
    const std::int64_t deadline = now_ns() + kRegisterTimeoutNs;
    while (instance.applied.value() < client.updates_sent()) {
      if (now_ns() > deadline) {
        throw std::runtime_error("fleet registration was not applied");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    client.run(0, tape.warmup_end, now_ns(), instance.applied);
  });
  return owner;
}

}  // namespace

void run_socket_paging(const Options& options, Report& report) {
  const Scale& scale = options.tiny ? kTiny : kFull;
  const Tape tape = make_tape(scale, options.seed, options.seconds);

  const Placement cpus = Placement::choose();
  cpus.pin(cpus.loop);
  if (!cpus.pinned) {
    report.line("fewer than two CPUs allowed; threads left unpinned");
  }

  std::vector<double> setup_s;
  std::unique_ptr<Instance> owner;
  for (int i = 0; i < kSetupRepeats; ++i) {
    owner.reset();  // stop the previous daemon before timing the next
    const std::string path = options.work_dir + "/pcnd-" +
                             std::to_string(::getpid()) + "-" +
                             std::to_string(i) + ".sock";
    const std::int64_t start = now_ns();
    owner = set_up(tape, path, cpus);
    setup_s.push_back(double(now_ns() - start) * 1e-9);
  }
  Instance& instance = *owner;
  pcn::daemon::Pcnd& daemon = *instance.daemon;
  Client& client = *instance.client;

  // Timed window.
  client.lag_us().clear();  // the set-up's warm-up lags are not the window's
  const pcn::obs::MetricsSnapshot before = daemon.metrics_registry().snapshot();
  double client_cpu_s = 0.0;
  const double cpu_start = process_cpu_s();
  const std::int64_t window_start = now_ns();
  const ServeStats serve = serve_while(instance, options.trace, [&] {
    const double cpu = thread_cpu_s();
    client.run(tape.warmup_end, tape.requests.size(),
               window_start + kWindowLeadNs, instance.applied);
    client_cpu_s = thread_cpu_s() - cpu;
  });
  const double window_s = double(now_ns() - window_start) * 1e-9;
  const double cpu_s =
      process_cpu_s() - cpu_start - client_cpu_s - serve.wait_cpu_s;
  const pcn::obs::MetricsSnapshot after = daemon.metrics_registry().snapshot();
  const auto delta = [&](const char* name) {
    return after.counter_value(name) - before.counter_value(name);
  };

  // Verdicts for the window's pages, with failures counted as +inf, by
  // 100 ms interval of their scheduled send time.
  const std::size_t intervals = static_cast<std::size_t>(
      std::ceil(options.seconds * 1e9 / double(kIntervalNs)));
  std::vector<std::vector<double>> latency_us(intervals);
  std::vector<std::int64_t> interval_failures(intervals, 0);
  std::vector<std::int64_t> delay_hist;
  std::int64_t window_pages = 0, answered = 0, served = 0, within_sla = 0;
  const std::int64_t first_due = tape.due_ns(tape.warmup_end, tape.warmup_end,
                                             window_start + kWindowLeadNs);
  for (const Request& r : std::span(tape.requests).subspan(tape.warmup_end)) {
    if (!r.page) continue;
    ++window_pages;
    const PageRecord& p = client.pages()[r.ordinal];
    const auto interval = std::min<std::size_t>(
        intervals - 1,
        static_cast<std::size_t>((p.due_ns - first_due) / kIntervalNs));
    ++interval_failures[interval];  // undone below once served
    if (p.outcomes == 0) continue;
    ++answered;
    if (p.kind != pcn::proto::PageOutcomeKind::kServed) continue;
    ++served;
    --interval_failures[interval];
    latency_us[interval].push_back(double(p.recv_ns - p.due_ns) * 1e-3);
    // Slots to verdict counting the slot that settled it (1-based).
    const auto slots = static_cast<std::size_t>(p.delay_slots);
    if (delay_hist.size() <= slots) delay_hist.resize(slots + 1, 0);
    ++delay_hist[slots];
    if (p.delay_slots <= kSlaSlots) ++within_sla;
  }
  const std::int64_t failed = window_pages - served;
  const std::int64_t updates_applied = delta("daemon.update.applied");
  const std::int64_t settled = updates_applied + answered;
  const std::int64_t requests =
      static_cast<std::int64_t>(tape.requests.size() - tape.warmup_end);
  std::vector<double>& lag = client.lag_us();
  const Percentile lag_p50 = percentile(lag, 0, 0.50);
  const Percentile lag_p99 = percentile(lag, 0, 0.99);
  if (lag_p99.value > double(kSlotUs)) {
    report.line("WARNING: generator fell behind (send lag p99 " +
                std::to_string(lag_p99.value) +
                " us > one slot); the offered rate was not held");
  }
  report.line("open loop, " + std::to_string(scale.terminals) +
              " terminals, " + std::to_string(scale.region) + "x" +
              std::to_string(scale.region) + " torus, " +
              std::to_string(std::llround(scale.requests_per_s)) +
              " requests/s, 1 worker thread, " + std::to_string(serve.slots) +
              " slots in " + std::to_string(window_s) + " s");
  {
    std::vector<double> all;
    for (const auto& interval : latency_us) {
      all.insert(all.end(), interval.begin(), interval.end());
    }
    const Percentile p99 = percentile(all, failed, 0.99);
    report.line("whole-window page latency p99 " + std::to_string(p99.value) +
                " us (n=" + std::to_string(p99.samples) +
                "), host wake-up stalls included");
  }
  report.line("client send lag p50 " + std::to_string(lag_p50.value) +
              " us, p99 " + std::to_string(lag_p99.value) +
              " us (n=" + std::to_string(lag_p99.samples) + " batches)");

  if (!options.trace) {
    report.metric("setup_s", median(setup_s), "s",
                  "median of " + std::to_string(setup_s.size()));
    report.metric("peak_rss_mb", peak_rss_mib(), "MiB");
    report.metric("requests_per_s", double(settled) / window_s, "1/s",
                  std::to_string(settled) + " of " + std::to_string(requests) +
                      " requests settled");
    report.metric("terminal_slots_per_s",
                  double(scale.terminals) * double(serve.slots) / window_s,
                  "1/s");
    report.metric("cpu_us_per_request", cpu_s * 1e6 / double(requests), "us",
                  "client and deadline wait excluded");
    const std::string over = "median of " + std::to_string(intervals) +
                             " 100 ms intervals";
    report.metric("page_latency_p50_us",
                  interval_percentile(latency_us, interval_failures, 0.50),
                  "us", over);
    report.metric("page_latency_p99_us",
                  interval_percentile(latency_us, interval_failures, 0.99),
                  "us", over);
    report.metric("page_served_share",
                  double(served) / double(window_pages), "share",
                  std::to_string(window_pages) + " pages");
    report.metric("sla_met_share", double(within_sla) / double(window_pages),
                  "share");
    report.metric("page_delay_p99_slots",
                  percentile(delay_hist, 1, failed, 0.99), "slots");
    report.metric("mean_cost_per_slot",
                  (double(updates_applied) * kUpdateCost +
                   double(served) * kPollCost) /
                      (double(scale.terminals) * double(serve.slots)),
                  "cost");
  } else {
    const auto spans = trace::summarize();
    const auto mean_ns = [&](const char* name) {
      const trace::SpanStats& s = spans.at(name);
      return s.total_ns / double(s.count);
    };
    report.metric("proto.encode_ns_per_frame", mean_ns("proto.encode"), "ns");
    report.metric("proto.decode_ns_per_frame", mean_ns("proto.decode"), "ns");
    report.metric("socket_server.flush_us_per_slot",
                  mean_ns("socket_server.flush_outcomes") * 1e-3, "us");
    report.metric("socket_server.frames_in",
                  double(delta("daemon.socket.frames_in")), "count");
    report.metric("socket_server.frames_out",
                  double(delta("daemon.socket.frames_out")), "count");
    report.metric("socket_server.decode_errors",
                  double(delta("daemon.socket.decode_errors")), "count");
    const pcn::obs::GaugeSample* hwm =
        after.find_gauge("daemon.socket.outbox_bytes");
    report.metric("socket_server.outbox_bytes_hwm",
                  hwm != nullptr ? hwm->value : 0.0, "bytes");
    report.metric("request_ring.rejected_share",
                  double(delta("daemon.socket.rejected_ring_full")) /
                      double(delta("daemon.socket.frames_in")),
                  "share");
    const trace::SpanStats& slots = spans.at("daemon.run_slots");
    report.metric("daemon.run_slots_us_p50",
                  percentile(slots.durations_ns, 0, 0.50).value * 1e-3, "us");
    report.metric("daemon.run_slots_us_p99",
                  percentile(slots.durations_ns, 0, 0.99).value * 1e-3, "us");
    report_daemon_layers(report, before, after);
    report.metric("paging_queue.max_depth", double(daemon.max_queue_depth()),
                  "count");
    report.metric("paging_queue.pending_mean",
                  serve.pending_sum / double(serve.slots), "count");
    report.metric("client.send_lag_p50_us", lag_p50.value, "us");
    report.metric("client.send_lag_p99_us", lag_p99.value, "us");
    report.metric("client.outcomes_missing",
                  double(window_pages - answered), "count");
    report.metric("trace_overhead_pct",
                  overhead_pct(serve.traced_cpu_us, serve.untraced_cpu_us), "%",
                  "daemon CPU per frame, traced vs untraced blocks");
  }

  // Correctness: one verdict per page, for the right terminal; every
  // frame decoded and counted; every update applied.
  std::int64_t missing = 0, duplicated = 0, misrouted = 0;
  for (const PageRecord& p : client.pages()) {
    missing += p.outcomes == 0 ? 1 : 0;
    duplicated += p.outcomes > 1 ? 1 : 0;
    misrouted += p.wrong_terminal ? 1 : 0;
  }
  report.check("one_outcome_per_page",
               missing == 0 && duplicated == 0 && misrouted == 0 &&
                   client.stray_outcomes() == 0,
               std::to_string(client.pages_sent()) + " pages: " +
                   std::to_string(missing) + " missing, " +
                   std::to_string(duplicated) + " duplicated, " +
                   std::to_string(misrouted) + " wrong terminal, " +
                   std::to_string(client.stray_outcomes()) + " stray");
  const std::int64_t decode_errors =
      after.counter_value("daemon.socket.decode_errors");
  report.check("no_decode_errors", decode_errors == 0,
               std::to_string(decode_errors) + " decode errors");
  const std::int64_t frames_in = after.counter_value("daemon.socket.frames_in");
  report.check("frames_in_match", frames_in == client.frames_sent(),
               std::to_string(frames_in) + " frames in, " +
                   std::to_string(client.frames_sent()) + " sent");
  const std::int64_t applied = after.counter_value("daemon.update.applied");
  report.check("updates_applied", applied == client.updates_sent(),
               std::to_string(applied) + " applied, " +
                   std::to_string(client.updates_sent()) + " sent");
  report.set_work(requests, failed + (requests - window_pages - updates_applied));
}

}  // namespace perfbench
