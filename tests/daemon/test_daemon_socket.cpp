// The Unix-socket front end: length-prefixed proto frames in, the same
// DaemonRequest ring as in-process producers, PageOutcome frames routed
// back to the submitting connection; malformed frames are counted and
// the connection survives them.  Hostile clients (frames split anywhere,
// bad length prefixes, mid-frame disconnects, slow writers) cost only
// their own connection, and connections start no thread.
#include "pcn/daemon/socket_server.hpp"

#include <gtest/gtest.h>
#include <fcntl.h>
#include <linux/sockios.h>
#include <poll.h>
#include <sys/ioctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "pcn/proto/messages.hpp"

namespace pcn::daemon {
namespace {

std::string socket_path(const char* name) {
  return testing::TempDir() + name;
}

int connect_client(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  EXPECT_LT(path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0)
      << "connect(" << path << "): " << std::strerror(errno);
  // A frame that never comes, or a server that stops reading, fails the
  // test instead of hanging it.
  const timeval timeout{5, 0};
  for (const int option : {SO_RCVTIMEO, SO_SNDTIMEO}) {
    EXPECT_EQ(
        ::setsockopt(fd, SOL_SOCKET, option, &timeout, sizeof(timeout)), 0);
  }
  return fd;
}

void send_frame(int fd, const std::vector<std::uint8_t>& frame) {
  const auto length = static_cast<std::uint32_t>(frame.size());
  std::uint8_t prefix[4] = {
      static_cast<std::uint8_t>(length & 0xff),
      static_cast<std::uint8_t>((length >> 8) & 0xff),
      static_cast<std::uint8_t>((length >> 16) & 0xff),
      static_cast<std::uint8_t>((length >> 24) & 0xff),
  };
  ASSERT_EQ(::write(fd, prefix, 4), 4);
  ASSERT_EQ(::write(fd, frame.data(), frame.size()),
            static_cast<ssize_t>(frame.size()));
}

bool read_exactly(int fd, std::uint8_t* buffer, std::size_t length) {
  std::size_t done = 0;
  while (done < length) {
    const ssize_t n = ::read(fd, buffer + done, length - done);
    if (n <= 0) return false;
    done += static_cast<std::size_t>(n);
  }
  return true;
}

std::vector<std::uint8_t> recv_frame(int fd) {
  std::uint8_t prefix[4];
  if (!read_exactly(fd, prefix, 4)) return {};
  const std::uint32_t length =
      static_cast<std::uint32_t>(prefix[0]) |
      (static_cast<std::uint32_t>(prefix[1]) << 8) |
      (static_cast<std::uint32_t>(prefix[2]) << 16) |
      (static_cast<std::uint32_t>(prefix[3]) << 24);
  std::vector<std::uint8_t> frame(length);
  if (!read_exactly(fd, frame.data(), frame.size())) return {};
  return frame;
}

/// The server's I/O thread reads asynchronously; wait until `counter`
/// reaches `expected` before advancing the slot loop.
void await_counter(const Pcnd& daemon, const char* counter,
                   std::int64_t expected) {
  for (int i = 0; i < 5000; ++i) {
    if (daemon.metrics_registry().snapshot().counter_value(counter) >=
        expected) {
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  FAIL() << counter << " never reached " << expected;
}

std::int64_t counter_value(const Pcnd& daemon, const char* counter) {
  return daemon.metrics_registry().snapshot().counter_value(counter);
}

/// The u32 little-endian length prefix.
std::vector<std::uint8_t> length_prefix(std::uint32_t length) {
  return {static_cast<std::uint8_t>(length),
          static_cast<std::uint8_t>(length >> 8),
          static_cast<std::uint8_t>(length >> 16),
          static_cast<std::uint8_t>(length >> 24)};
}

/// `frame` behind its length prefix.
std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& frame) {
  std::vector<std::uint8_t> bytes =
      length_prefix(static_cast<std::uint32_t>(frame.size()));
  bytes.insert(bytes.end(), frame.begin(), frame.end());
  return bytes;
}

/// A length-prefixed PageSubmit; an unknown terminal's page settles as
/// kDropped in the next slot.
std::vector<std::uint8_t> page_bytes(std::uint64_t page_id,
                                     std::uint64_t terminal_id) {
  proto::PageSubmit submit;
  submit.page_id = page_id;
  submit.terminal_id = terminal_id;
  return framed(proto::encode(submit));
}

void write_all(int fd, const std::uint8_t* bytes, std::size_t count) {
  while (count > 0) {
    const ssize_t n = ::write(fd, bytes, count);
    ASSERT_GT(n, 0) << "write: " << std::strerror(errno);
    bytes += n;
    count -= static_cast<std::size_t>(n);
  }
}

/// Waits until the server has read every byte this client wrote (an
/// AF_UNIX socket's SIOCOUTQ counts bytes its peer has not consumed), so
/// the next write arrives in a later read().
void await_consumed(int fd) {
  for (int i = 0; i < 5000; ++i) {
    int unread = 0;
    ASSERT_EQ(::ioctl(fd, SIOCOUTQ, &unread), 0);
    if (unread == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  FAIL() << "the server never read the bytes written";
}

/// Runs one slot, flushes, and reads `count` outcomes from `fd`; returns
/// their page ids, sorted.
std::vector<std::uint64_t> settle_pages(Pcnd& daemon, SocketServer& server,
                                        int fd, std::size_t count) {
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), count);
  std::vector<std::uint64_t> page_ids;
  for (std::size_t i = 0; i < count; ++i) {
    const std::vector<std::uint8_t> frame = recv_frame(fd);
    if (frame.empty()) break;
    page_ids.push_back(proto::decode_page_outcome(frame).page_id);
  }
  std::sort(page_ids.begin(), page_ids.end());
  return page_ids;
}

std::vector<std::uint64_t> ids_from(std::uint64_t first, std::uint64_t last) {
  std::vector<std::uint64_t> ids;
  for (std::uint64_t id = first; id <= last; ++id) ids.push_back(id);
  return ids;
}

/// Flushes until only `open` connections remain registered.
void await_reaped(SocketServer& server, std::size_t open) {
  for (int i = 0; i < 5000 && server.open_connections() > open; ++i) {
    server.flush_outcomes();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.open_connections(), open);
}

/// The thread ids listed in /proc/self/task (empty when it is absent).
std::set<std::string> task_ids() {
  std::set<std::string> ids;
  std::error_code error;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", error)) {
    ids.insert(entry.path().filename().string());
  }
  return ids;
}

PcndConfig socket_config() {
  PcndConfig config;
  config.collect_outcomes = true;
  return config;
}

TEST(SocketServer, RequiresOutcomeCollection) {
  PcndConfig config;  // collect_outcomes = false
  Pcnd daemon(config);
  EXPECT_THROW(SocketServer(&daemon, socket_path("pcnd_no_outcomes.sock")),
               InvalidArgument);
}

TEST(SocketServer, RoutesRequestsInAndOutcomesBack) {
  PcndConfig config;
  config.collect_outcomes = true;
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_roundtrip.sock"));
  server.start();

  const int fd = connect_client(server.path());
  proto::LocationUpdate update;
  update.terminal_id = 7;
  update.sequence = 1;
  update.cell = {2, -1};
  update.containment_radius = 3;
  send_frame(fd, proto::encode(update));
  proto::PageSubmit submit;
  submit.page_id = 100;
  submit.terminal_id = 7;
  send_frame(fd, proto::encode(submit));

  await_counter(daemon, "daemon.socket.frames_in", 2);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 1u);

  const std::vector<std::uint8_t> frame = recv_frame(fd);
  ASSERT_FALSE(frame.empty());
  const proto::PageOutcome outcome = proto::decode_page_outcome(frame);
  EXPECT_EQ(outcome.page_id, 100u);
  EXPECT_EQ(outcome.terminal_id, 7u);
  EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kServed);
  EXPECT_EQ(outcome.queue_delay_slots, 0u);

  const Pcnd::TerminalInfo info = daemon.terminal_info(7);
  EXPECT_TRUE(info.known);
  EXPECT_EQ(info.center, (geometry::Cell{2, -1}));

  ::close(fd);
  server.stop();
  EXPECT_EQ(server.connections_accepted(), 1u);
}

TEST(SocketServer, BadFramesAreCountedAndTheConnectionSurvives) {
  PcndConfig config;
  config.collect_outcomes = true;
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_badframe.sock"));
  server.start();

  const int fd = connect_client(server.path());
  // Well-framed garbage: a length prefix followed by junk bytes.
  send_frame(fd, {0xde, 0xad, 0xbe, 0xef, 0x00});
  await_counter(daemon, "daemon.socket.decode_errors", 1);

  // A PageResponse is a valid proto frame of an un-servable type.
  proto::PageResponse response;
  response.page_id = 1;
  response.terminal_id = 2;
  response.cell = {0, 0};
  send_frame(fd, proto::encode(response));
  await_counter(daemon, "daemon.socket.decode_errors", 2);

  // The connection still works: an unknown-terminal page round-trips to
  // a kDropped outcome.
  proto::PageSubmit submit;
  submit.page_id = 9;
  submit.terminal_id = 555;
  send_frame(fd, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 3);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 1u);

  const std::vector<std::uint8_t> frame = recv_frame(fd);
  ASSERT_FALSE(frame.empty());
  const proto::PageOutcome outcome = proto::decode_page_outcome(frame);
  EXPECT_EQ(outcome.page_id, 9u);
  EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kDropped);

  ::close(fd);
  server.stop();
}

TEST(SocketServer, CorruptCrcFramesAreCountedAndSubmitNothing) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_badcrc.sock"));
  server.start();

  const int fd = connect_client(server.path());
  // peek_type reads only the header, so each frame reaches its decoder,
  // which must reject the flipped CRC byte.
  proto::LocationUpdate update;
  update.terminal_id = 7;
  update.sequence = 1;
  update.cell = {2, -1};
  std::vector<std::uint8_t> bad_update = proto::encode(update);
  bad_update.back() ^= 0x01;
  send_frame(fd, bad_update);
  await_counter(daemon, "daemon.socket.decode_errors", 1);
  proto::PageSubmit submit;
  submit.page_id = 8;
  submit.terminal_id = 7;
  std::vector<std::uint8_t> bad_submit = proto::encode(submit);
  bad_submit[bad_submit.size() - 4] ^= 0x80;
  send_frame(fd, bad_submit);
  await_counter(daemon, "daemon.socket.decode_errors", 2);
  EXPECT_EQ(counter_value(daemon, "daemon.request.update"), 0);
  EXPECT_EQ(counter_value(daemon, "daemon.request.page"), 0);

  // The connection still serves the next valid frame: an unknown
  // terminal's page settles as kDropped.
  submit.page_id = 9;
  send_frame(fd, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 3);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 1u);
  const std::vector<std::uint8_t> frame = recv_frame(fd);
  ASSERT_FALSE(frame.empty());
  const proto::PageOutcome outcome = proto::decode_page_outcome(frame);
  EXPECT_EQ(outcome.page_id, 9u);
  EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kDropped);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.decode_errors"), 2);
  EXPECT_EQ(counter_value(daemon, "daemon.request.update"), 0);
  EXPECT_EQ(counter_value(daemon, "daemon.request.page"), 1);

  ::close(fd);
  server.stop();
}

TEST(SocketServer, DisconnectedClientIsReapedAndCannotKillTheDaemon) {
  PcndConfig config;
  config.collect_outcomes = true;
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_disconnect.sock"));
  server.start();

  // Submit a page, then disconnect before the verdict flushes.  The
  // flush used to raise SIGPIPE on the peer-closed socket (killing the
  // process); now the send fails with EPIPE and the connection is
  // reaped: out of the epoll set, fd closed, registry entry gone.
  const int fd = connect_client(server.path());
  proto::PageSubmit submit;
  submit.page_id = 5;
  submit.terminal_id = 77;
  send_frame(fd, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 1);
  ::close(fd);

  daemon.run_slots(1);
  for (int i = 0; i < 5000 && server.open_connections() > 0; ++i) {
    server.flush_outcomes();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(server.open_connections(), 0u);
  EXPECT_GE(daemon.metrics_registry().snapshot().counter_value(
                "daemon.socket.disconnects"),
            1);

  // The daemon is still alive and serves a fresh client end to end.
  const int fd2 = connect_client(server.path());
  proto::LocationUpdate update;
  update.terminal_id = 1;
  update.sequence = 1;
  update.cell = {0, 0};
  update.containment_radius = 3;
  send_frame(fd2, proto::encode(update));
  submit.page_id = 6;
  submit.terminal_id = 1;
  send_frame(fd2, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 3);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 1u);
  const proto::PageOutcome outcome =
      proto::decode_page_outcome(recv_frame(fd2));
  EXPECT_EQ(outcome.page_id, 6u);
  EXPECT_EQ(outcome.terminal_id, 1u);

  ::close(fd2);
  server.stop();
  EXPECT_EQ(server.connections_accepted(), 2u);
}

TEST(SocketServer, TwoClientsGetTheirOwnOutcomes) {
  PcndConfig config;
  config.collect_outcomes = true;
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_two_clients.sock"));
  server.start();

  const int fd_a = connect_client(server.path());
  const int fd_b = connect_client(server.path());

  proto::LocationUpdate update;
  update.terminal_id = 1;
  update.sequence = 1;
  update.cell = {0, 0};
  send_frame(fd_a, proto::encode(update));
  update.terminal_id = 2;
  send_frame(fd_b, proto::encode(update));
  await_counter(daemon, "daemon.socket.frames_in", 2);
  daemon.run_slots(1);

  proto::PageSubmit submit;
  submit.page_id = 11;
  submit.terminal_id = 1;
  send_frame(fd_a, proto::encode(submit));
  submit.page_id = 22;
  submit.terminal_id = 2;
  send_frame(fd_b, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 4);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 2u);

  const proto::PageOutcome outcome_a =
      proto::decode_page_outcome(recv_frame(fd_a));
  const proto::PageOutcome outcome_b =
      proto::decode_page_outcome(recv_frame(fd_b));
  EXPECT_EQ(outcome_a.page_id, 11u);
  EXPECT_EQ(outcome_a.terminal_id, 1u);
  EXPECT_EQ(outcome_b.page_id, 22u);
  EXPECT_EQ(outcome_b.terminal_id, 2u);

  ::close(fd_a);
  ::close(fd_b);
  server.stop();
}

TEST(SocketServer, RingFullPageIsAnsweredWithRejectedOutcome) {
  PcndConfig config;
  config.collect_outcomes = true;
  config.ring_capacity = 1;  // rounds up to the 2-slot minimum ring
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_ring_full.sock"));
  server.start();

  // Four submits against a 2-slot ring with no slot running: the first
  // two fill the ring, the last two must come straight back as kRejected
  // instead of being counted and then never answered.
  const int fd = connect_client(server.path());
  proto::PageSubmit submit;
  submit.terminal_id = 42;
  for (std::uint64_t page_id = 1; page_id <= 4; ++page_id) {
    submit.page_id = page_id;
    send_frame(fd, proto::encode(submit));
  }
  await_counter(daemon, "daemon.socket.rejected_ring_full", 2);

  // The rejections are pumped from the I/O thread immediately, before
  // any slot runs.
  for (const std::uint64_t page_id : {std::uint64_t{3}, std::uint64_t{4}}) {
    const std::vector<std::uint8_t> frame = recv_frame(fd);
    ASSERT_FALSE(frame.empty());
    const proto::PageOutcome outcome = proto::decode_page_outcome(frame);
    EXPECT_EQ(outcome.page_id, page_id);
    EXPECT_EQ(outcome.terminal_id, 42u);
    EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kRejected);
  }

  // The two admitted pages still settle normally (unknown terminal ->
  // kDropped) once a slot runs.
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 2u);
  for (const std::uint64_t page_id : {std::uint64_t{1}, std::uint64_t{2}}) {
    const proto::PageOutcome outcome =
        proto::decode_page_outcome(recv_frame(fd));
    EXPECT_EQ(outcome.page_id, page_id);
    EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kDropped);
  }

  ::close(fd);
  server.stop();
}

TEST(SocketServer, AcceptLoopSurvivesFdExhaustionAndRecovers) {
  PcndConfig config;
  config.collect_outcomes = true;
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_emfile.sock"));
  server.start();

  // Reserve the client's fd before exhausting the table: connect() needs
  // no new descriptor on an already-created socket, but accept() does.
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);

  rlimit old_limit{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &old_limit), 0);
  rlimit tight = old_limit;
  tight.rlim_cur = 128;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
  std::vector<int> fillers;
  for (;;) {
    const int filler = ::open("/dev/null", O_RDONLY);
    if (filler < 0) break;
    fillers.push_back(filler);
  }

  // The connection parks in the listen backlog; accept() fails with
  // EMFILE.  The listener pauses and retries instead of giving up.
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  const std::string path = server.path();
  ASSERT_LT(path.size(), sizeof(address.sun_path));
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0)
      << "connect: " << std::strerror(errno);
  await_counter(daemon, "daemon.socket.accept_errors", 1);

  // Free the table; the retrying loop must pick the parked client up.
  for (const int filler : fillers) ::close(filler);
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &old_limit), 0);
  for (int i = 0; i < 5000 && server.connections_accepted() < 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(server.connections_accepted(), 1u);

  // And the recovered connection serves end to end.
  proto::PageSubmit submit;
  submit.page_id = 77;
  submit.terminal_id = 9;
  send_frame(fd, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 1);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), 1u);
  const proto::PageOutcome outcome =
      proto::decode_page_outcome(recv_frame(fd));
  EXPECT_EQ(outcome.page_id, 77u);
  EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kDropped);

  ::close(fd);
  server.stop();
}

TEST(SocketServer, StopDeliversSettledVerdictsBeforeClosing) {
  PcndConfig config;
  config.collect_outcomes = true;
  Pcnd daemon(config);
  SocketServer server(&daemon, socket_path("pcnd_stop_drain.sock"));
  server.start();

  const int fd = connect_client(server.path());
  proto::LocationUpdate update;
  update.terminal_id = 3;
  update.sequence = 1;
  update.cell = {1, 1};
  update.containment_radius = 3;
  send_frame(fd, proto::encode(update));
  proto::PageSubmit submit;
  submit.page_id = 31;
  submit.terminal_id = 3;
  send_frame(fd, proto::encode(submit));
  await_counter(daemon, "daemon.socket.frames_in", 2);
  daemon.run_slots(1);

  // The verdict has settled but was never flushed.  stop() used to close
  // the connection with the frame still unstaged; now it performs a
  // final flush plus a bounded outbox drain, so the client reads its
  // verdict even after the server is gone.
  server.stop();

  const std::vector<std::uint8_t> frame = recv_frame(fd);
  ASSERT_FALSE(frame.empty());
  const proto::PageOutcome outcome = proto::decode_page_outcome(frame);
  EXPECT_EQ(outcome.page_id, 31u);
  EXPECT_EQ(outcome.terminal_id, 3u);
  EXPECT_EQ(outcome.outcome, proto::PageOutcomeKind::kServed);
  ::close(fd);
}

TEST(SocketServer, TwoFramesSplitAtEveryByteOffsetAreDecodedOnce) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_split.sock"));
  server.start();
  const int fd = connect_client(server.path());

  // Page ids stay below 128 and terminal ids in [1000, 16384), so every
  // pair of frames has the same length and one split covers every offset.
  const std::size_t pair_bytes =
      page_bytes(1, 1001).size() + page_bytes(2, 1002).size();
  std::uint64_t page_id = 0;
  for (std::size_t split = 1; split < pair_bytes; ++split) {
    std::vector<std::uint8_t> bytes = page_bytes(page_id + 1, 1001 + page_id);
    const std::vector<std::uint8_t> second =
        page_bytes(page_id + 2, 1002 + page_id);
    bytes.insert(bytes.end(), second.begin(), second.end());
    page_id += 2;
    ASSERT_EQ(bytes.size(), pair_bytes);
    ASSERT_NO_FATAL_FAILURE(write_all(fd, bytes.data(), split));
    ASSERT_NO_FATAL_FAILURE(await_consumed(fd));
    ASSERT_NO_FATAL_FAILURE(
        write_all(fd, bytes.data() + split, bytes.size() - split));
    ASSERT_NO_FATAL_FAILURE(await_counter(
        daemon, "daemon.socket.frames_in", static_cast<std::int64_t>(page_id)))
        << "split at byte " << split;
  }
  EXPECT_EQ(counter_value(daemon, "daemon.socket.frames_in"),
            static_cast<std::int64_t>(page_id));
  EXPECT_EQ(counter_value(daemon, "daemon.socket.decode_errors"), 0);
  EXPECT_EQ(settle_pages(daemon, server, fd, page_id), ids_from(1, page_id));

  ::close(fd);
  server.stop();
}

TEST(SocketServer, OneBytePerWriteStreamDecodesEachFrameOnce) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_byte_stream.sock"));
  server.start();
  const int fd = connect_client(server.path());

  constexpr std::uint64_t kPages = 8;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t page_id = 1; page_id <= kPages; ++page_id) {
    const std::vector<std::uint8_t> frame = page_bytes(page_id, 500 + page_id);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  for (const std::uint8_t byte : bytes) {
    ASSERT_NO_FATAL_FAILURE(write_all(fd, &byte, 1));
    ASSERT_NO_FATAL_FAILURE(await_consumed(fd));
  }
  await_counter(daemon, "daemon.socket.frames_in", kPages);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.frames_in"),
            static_cast<std::int64_t>(kPages));
  EXPECT_EQ(counter_value(daemon, "daemon.socket.decode_errors"), 0);
  EXPECT_EQ(settle_pages(daemon, server, fd, kPages), ids_from(1, kPages));

  ::close(fd);
  server.stop();
}

TEST(SocketServer, HundredFramesInOneWriteAreEachDecoded) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_burst.sock"));
  server.start();
  const int fd = connect_client(server.path());

  constexpr std::uint64_t kPages = 100;
  std::vector<std::uint8_t> bytes;
  for (std::uint64_t page_id = 1; page_id <= kPages; ++page_id) {
    const std::vector<std::uint8_t> frame = page_bytes(page_id, 2000 + page_id);
    bytes.insert(bytes.end(), frame.begin(), frame.end());
  }
  ASSERT_EQ(::write(fd, bytes.data(), bytes.size()),
            static_cast<ssize_t>(bytes.size()));
  await_counter(daemon, "daemon.socket.frames_in", kPages);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.frames_in"),
            static_cast<std::int64_t>(kPages));
  EXPECT_EQ(settle_pages(daemon, server, fd, kPages), ids_from(1, kPages));

  ::close(fd);
  server.stop();
}

TEST(SocketServer, BadLengthPrefixDropsOnlyThatConnection) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_bad_length.sock"));
  server.start();
  const int good = connect_client(server.path());
  std::uint64_t page_id = 0;
  const auto expect_served = [&] {
    ++page_id;
    const std::vector<std::uint8_t> bytes = page_bytes(page_id, 3000 + page_id);
    write_all(good, bytes.data(), bytes.size());
    await_counter(daemon, "daemon.socket.frames_in",
                  static_cast<std::int64_t>(page_id));
    EXPECT_EQ(settle_pages(daemon, server, good, 1),
              std::vector<std::uint64_t>{page_id});
  };
  expect_served();

  std::int64_t errors = 0;
  for (const std::uint32_t length : {0u, (1u << 20) + 1}) {
    SCOPED_TRACE(length);
    const int bad = connect_client(server.path());
    const std::vector<std::uint8_t> prefix = length_prefix(length);
    write_all(bad, prefix.data(), prefix.size());
    await_counter(daemon, "daemon.socket.decode_errors", ++errors);
    // The connection is dropped: reaped, and its client reads EOF.
    await_reaped(server, 1);
    std::uint8_t byte = 0;
    EXPECT_EQ(::read(bad, &byte, 1), 0);
    ::close(bad);
    expect_served();
  }
  EXPECT_EQ(counter_value(daemon, "daemon.socket.decode_errors"), errors);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.disconnects"), 2);

  ::close(good);
  server.stop();
}

TEST(SocketServer, FrameAtTheSizeLimitIsReadWholeAndTheConnectionSurvives) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_max_frame.sock"));
  server.start();
  const int fd = connect_client(server.path());

  // 1 MiB of zeros is well framed but no proto message: one decode error,
  // read through a buffer that grows past its 64 KiB.
  const std::vector<std::uint8_t> big =
      framed(std::vector<std::uint8_t>(std::size_t{1} << 20, 0));
  write_all(fd, big.data(), big.size());
  await_counter(daemon, "daemon.socket.decode_errors", 1);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.frames_in"), 1);

  const std::vector<std::uint8_t> bytes = page_bytes(7, 4007);
  write_all(fd, bytes.data(), bytes.size());
  await_counter(daemon, "daemon.socket.frames_in", 2);
  EXPECT_EQ(settle_pages(daemon, server, fd, 1), std::vector<std::uint64_t>{7});
  EXPECT_EQ(server.open_connections(), 1u);

  ::close(fd);
  server.stop();
}

TEST(SocketServer, MidFrameDisconnectSubmitsNothingAndIsReaped) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_mid_frame.sock"));
  server.start();
  const int fd = connect_client(server.path());

  const std::vector<std::uint8_t> bytes = page_bytes(9, 9);
  write_all(fd, bytes.data(), bytes.size() - 3);
  await_consumed(fd);
  ::close(fd);

  await_reaped(server, 0);
  EXPECT_EQ(server.connections_accepted(), 1u);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.disconnects"), 1);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.frames_in"), 0);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.decode_errors"), 0);
  daemon.run_slots(1);
  std::vector<PageOutcomeEvent> outcomes;
  daemon.drain_outcomes(&outcomes);
  EXPECT_TRUE(outcomes.empty());
  server.stop();
}

TEST(SocketServer, SlowWriterDoesNotDelayAnotherClient) {
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_slowloris.sock"));
  server.start();
  const int slow = connect_client(server.path());
  const int fast = connect_client(server.path());

  // The slow client trickles 24 frames at one byte per millisecond, so it
  // is mid-frame for at least a third of a second.
  constexpr std::uint64_t kSlowPages = 24;
  std::vector<std::uint8_t> trickle;
  for (std::uint64_t page_id = 1; page_id <= kSlowPages; ++page_id) {
    const std::vector<std::uint8_t> frame = page_bytes(page_id, 5000 + page_id);
    trickle.insert(trickle.end(), frame.begin(), frame.end());
  }
  std::atomic<bool> slow_done{false};
  std::thread writer([&] {
    for (const std::uint8_t byte : trickle) {
      if (::write(slow, &byte, 1) != 1) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    slow_done.store(true);
  });
  await_counter(daemon, "daemon.socket.frames_in", 1);

  const std::vector<std::uint8_t> bytes = page_bytes(1000, 6000);
  write_all(fast, bytes.data(), bytes.size());
  pollfd readable{fast, POLLIN, 0};
  for (int i = 0; i < 1000 && ::poll(&readable, 1, 0) == 0; ++i) {
    daemon.run_slots(1);
    server.flush_outcomes();
    ::poll(&readable, 1, 1);
  }
  const bool slow_was_done = slow_done.load();
  const std::vector<std::uint8_t> frame = recv_frame(fast);
  ASSERT_FALSE(frame.empty());
  EXPECT_EQ(proto::decode_page_outcome(frame).page_id, 1000u);
  EXPECT_FALSE(slow_was_done) << "the fast client waited for the slow one";

  writer.join();
  await_counter(daemon, "daemon.socket.frames_in", kSlowPages + 1);
  EXPECT_EQ(counter_value(daemon, "daemon.socket.decode_errors"), 0);
  ::close(slow);
  ::close(fast);
  server.stop();
}

TEST(SocketServer, ConnectionsStartNoThreads) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  Pcnd daemon(socket_config());
  SocketServer server(&daemon, socket_path("pcnd_no_threads.sock"));
  server.start();
  const std::set<std::string> before = task_ids();

  constexpr int kClients = 16;
  std::vector<int> fds;
  for (int i = 0; i < kClients; ++i) {
    fds.push_back(connect_client(server.path()));
    const std::vector<std::uint8_t> bytes =
        page_bytes(static_cast<std::uint64_t>(i + 1), 7000 + i);
    write_all(fds.back(), bytes.data(), bytes.size());
  }
  await_counter(daemon, "daemon.socket.frames_in", kClients);
  daemon.run_slots(1);
  EXPECT_EQ(server.flush_outcomes(), static_cast<std::size_t>(kClients));
  for (int i = 0; i < kClients; ++i) {
    const std::vector<std::uint8_t> frame = recv_frame(fds[i]);
    ASSERT_FALSE(frame.empty());
    EXPECT_EQ(proto::decode_page_outcome(frame).page_id,
              static_cast<std::uint64_t>(i + 1));
  }
  EXPECT_EQ(server.connections_accepted(), static_cast<std::uint64_t>(kClients));
  EXPECT_EQ(task_ids(), before) << "a connection started or ended a thread";

  for (const int fd : fds) ::close(fd);
  server.stop();
}

}  // namespace
}  // namespace pcn::daemon
