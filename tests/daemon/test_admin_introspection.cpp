// Live introspection under fire (tier 2, TSan'd by run_checks gate 2):
// an AdminServer scraping a 4-thread pcnd mid-soak must
//   * produce parseable payloads (pcn.live_snapshot.v1 JSON, Prometheus
//     text with # HELP/# TYPE lines) on both the in-process render path
//     and the Unix-socket protocol;
//   * see monotone non-decreasing counter totals across successive
//     scrapes (every registry cell only grows);
//   * leave the run bit-identical: the counter fingerprint with live
//     scraping at 4 threads equals an unscraped 1-thread run, and the
//     final scrape agrees exactly with make_daemon_report's counters;
//   * read the report's page accounting: a window spanning a whole
//     drop_oldest run shows the report's drop rate, evictions included;
//   * fill the windows from the server's own thread, with no scrape.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "pcn/daemon/admin_server.hpp"
#include "pcn/daemon/daemon.hpp"
#include "pcn/daemon/daemon_report.hpp"
#include "pcn/daemon/load_gen.hpp"
#include "pcn/obs/json.hpp"

namespace pcn::daemon {
namespace {

std::int64_t env_or(const char* name, std::int64_t fallback) {
  const char* value = std::getenv(name);
  return (value != nullptr && *value != '\0') ? std::atoll(value) : fallback;
}

// Reuses the soak suite's scale knobs so the TSan run_checks gate can
// shrink the scenario the same way it shrinks the soak.
const std::int64_t kTerminals = env_or("PCN_SOAK_TERMINALS", 4000);
const std::int64_t kSlots = env_or("PCN_SOAK_SLOTS", 300);
constexpr int kRegion = 16;

PcndConfig make_config(int threads, bool live_stats) {
  PcndConfig config;
  config.threads = threads;
  config.live_stats = live_stats;
  config.capacity = capacity::PagingCapacityModel(1, 1.0);
  config.queue.max_pending = 8;
  config.queue.lifetime_slots = 16;
  config.queue.groups = 4;
  config.sla_delay_slots = 8;
  return config;
}

ClosedLoopConfig make_workload_config() {
  ClosedLoopConfig workload_config;
  workload_config.seed = 2026;
  workload_config.terminals = static_cast<std::uint64_t>(kTerminals);
  workload_config.region = kRegion;
  workload_config.move_prob = 0.2;
  // 2x the channel capacity of region^2 cells x 1 page/slot.
  workload_config.call_prob =
      2.0 * kRegion * kRegion / static_cast<double>(kTerminals);
  workload_config.threshold = 3;
  return workload_config;
}

std::string test_socket_path() {
  return "/tmp/pcn_test_admin." + std::to_string(::getpid()) + ".sock";
}

/// Counter name -> value from a parsed live snapshot's "metrics" section.
std::map<std::string, std::int64_t> snapshot_counters(
    const obs::JsonValue& doc) {
  std::map<std::string, std::int64_t> out;
  const obs::JsonValue* metrics = doc.find("metrics");
  if (metrics == nullptr) return out;
  const obs::JsonValue* counters = metrics->find("counters");
  if (counters == nullptr) return out;
  for (const auto& [name, value] : counters->object) {
    out[name] = static_cast<std::int64_t>(value.number);
  }
  return out;
}

/// Every deterministic counter (wall time excluded), as one string.
std::string counter_fingerprint(const DaemonRunReport& report) {
  std::string fingerprint;
  for (const auto& counter : report.metrics.counters) {
    if (counter.name == "daemon.run.wall_ns") continue;
    fingerprint +=
        counter.name + "=" + std::to_string(counter.value) + "\n";
  }
  return fingerprint;
}

/// One admin request over the real socket protocol; empty on failure.
std::string socket_scrape(const std::string& path, const std::string& verb) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return std::string();
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd);
    return std::string();
  }
  const std::string request = verb + "\n";
  (void)::send(fd, request.data(), request.size(), MSG_NOSIGNAL);
  std::string reply;
  char buffer[4096];
  ssize_t n = 0;
  while ((n = ::read(fd, buffer, sizeof(buffer))) > 0) {
    reply.append(buffer, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return reply;
}

TEST(AdminIntrospection, ScrapesUnderFireAreMonotoneAndNonPerturbing) {
  // Reference run: 1 thread, no live stats, no admin plane.
  Pcnd reference(make_config(1, false));
  {
    ClosedLoopWorkload workload(make_workload_config());
    reference.run_slots(kSlots, &workload);
  }
  const DaemonRunReport reference_report =
      make_daemon_report(reference, 2026, kTerminals);

  // Scraped run: 4 worker threads, live stats on, AdminServer up, and a
  // scraper hammering both render paths plus the socket protocol while
  // the slot loop runs.
  Pcnd daemon(make_config(4, true));
  AdminServer admin(&daemon, test_socket_path());
  admin.start();

  std::atomic<bool> done{false};
  std::vector<std::string> json_scrapes;
  std::vector<std::string> prom_scrapes;
  std::vector<std::string> socket_replies;
  std::thread scraper([&] {
    while (!done.load(std::memory_order_relaxed)) {
      json_scrapes.push_back(admin.render_live_snapshot());
      prom_scrapes.push_back(admin.render_prometheus());
      socket_replies.push_back(socket_scrape(admin.path(), "prom"));
    }
  });

  {
    ClosedLoopWorkload workload(make_workload_config());
    daemon.run_slots(kSlots, &workload);
  }
  done.store(true, std::memory_order_relaxed);
  scraper.join();

  // One more of each after the run settles: the final snapshot must agree
  // exactly with the end-of-run report.
  json_scrapes.push_back(admin.render_live_snapshot());
  socket_replies.push_back(socket_scrape(admin.path(), "json"));
  admin.stop();
  const DaemonRunReport report = make_daemon_report(daemon, 2026, kTerminals);

  ASSERT_GE(json_scrapes.size(), 2u);
  EXPECT_EQ(admin.scrapes(),
            json_scrapes.size() + prom_scrapes.size() + socket_replies.size());

  // Every JSON scrape parses, declares the schema, and its counters are
  // monotone non-decreasing relative to the previous scrape.
  std::map<std::string, std::int64_t> previous;
  for (const std::string& payload : json_scrapes) {
    obs::JsonValue doc;
    std::string error;
    ASSERT_TRUE(obs::parse_json(payload, &doc, &error)) << error;
    EXPECT_EQ(doc.string_or("schema", ""), "pcn.live_snapshot.v1");
    const std::map<std::string, std::int64_t> counters =
        snapshot_counters(doc);
    EXPECT_FALSE(counters.empty());
    for (const auto& [name, value] : previous) {
      const auto it = counters.find(name);
      ASSERT_NE(it, counters.end()) << name << " disappeared";
      EXPECT_GE(it->second, value) << name << " went backwards";
    }
    previous = counters;
  }

  // Prometheus scrapes are well-formed expositions.
  for (const std::string& payload : prom_scrapes) {
    EXPECT_NE(payload.find("# TYPE "), std::string::npos);
    EXPECT_NE(payload.find("# HELP "), std::string::npos);
    EXPECT_NE(payload.find("pcn_daemon_slot_count "), std::string::npos);
  }

  // The socket protocol serves the same payloads as the render path.
  for (const std::string& payload : socket_replies) {
    ASSERT_FALSE(payload.empty());
  }
  EXPECT_NE(socket_replies.back().find("\"schema\":\"pcn.live_snapshot.v1\""),
            std::string::npos);

  // The final scrape equals the end-of-run report, counter for counter.
  obs::JsonValue final_doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(json_scrapes.back(), &final_doc, &error))
      << error;
  const std::map<std::string, std::int64_t> final_counters =
      snapshot_counters(final_doc);
  for (const auto& counter : report.metrics.counters) {
    const auto it = final_counters.find(counter.name);
    ASSERT_NE(it, final_counters.end()) << counter.name;
    EXPECT_EQ(it->second, counter.value) << counter.name;
  }

  // Scraping observed the run without perturbing it: counters match the
  // unscraped single-thread reference bit for bit.
  EXPECT_EQ(counter_fingerprint(report),
            counter_fingerprint(reference_report));

  // Live queue stats were populated by the finalize-phase walk (which
  // stamps the slot being finalized, i.e. the last zero-based slot).
  const LiveQueueStats stats = daemon.live_queue_stats();
  EXPECT_EQ(stats.slot, kSlots - 1);
  EXPECT_GE(stats.max_depth_ever, 0);
  EXPECT_LE(static_cast<std::int64_t>(stats.deepest.size()),
            static_cast<std::int64_t>(LiveQueueStats::kTopCells));
}

TEST(AdminIntrospection, WindowDropRateCountsEvictions) {
  // drop_oldest at 2x fails its pages as evictions, not tail drops, so a
  // window that leaves evictions out of the failed set reads 0.
  PcndConfig config = make_config(2, true);
  config.queue.admission = AdmissionPolicy::kDropOldest;
  Pcnd daemon(config);
  AdminServer admin(&daemon, test_socket_path() + ".window");

  // The first scrape samples the all-zero registry.  A scrape within
  // 250 ms of it samples nothing, so its windows have no base yet; the
  // last scrape, past 1 s, samples the finished run.
  const auto first_scrape = std::chrono::steady_clock::now();
  (void)admin.render_live_snapshot();
  {
    obs::JsonValue early;
    std::string error;
    ASSERT_TRUE(obs::parse_json(admin.render_live_snapshot(), &early, &error))
        << error;
    const obs::JsonValue* windows = early.find("windows");
    ASSERT_NE(windows, nullptr);
    const obs::JsonValue* ten_seconds = windows->find("10s");
    ASSERT_NE(ten_seconds, nullptr);
    EXPECT_EQ(ten_seconds->number_or("span_ns", -1.0), 0.0);
  }
  {
    ClosedLoopWorkload workload(make_workload_config());
    daemon.run_slots(kSlots, &workload);
  }
  std::this_thread::sleep_until(first_scrape +
                                std::chrono::milliseconds(1100));
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(admin.render_live_snapshot(), &doc, &error))
      << error;
  const DaemonRunReport report = make_daemon_report(daemon, 2026, kTerminals);
  ASSERT_GT(report.pages_evicted, 0);
  ASSERT_EQ(report.pages_dropped, 0);

  const obs::JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  const obs::JsonValue* ten_seconds = windows->find("10s");
  ASSERT_NE(ten_seconds, nullptr);
  EXPECT_GT(ten_seconds->number_or("span_ns", 0.0), 0.0);
  EXPECT_EQ(ten_seconds->number_or("drop_rate", -1.0), report.drop_rate);
}

TEST(AdminIntrospection, WindowsFillWithoutScrapes) {
  // The server thread samples the history on its own, so a run with no
  // scrape until its end still has a window to read.
  Pcnd daemon(make_config(2, true));
  AdminServer admin(&daemon, test_socket_path() + ".unscraped");
  admin.start();
  const auto start = std::chrono::steady_clock::now();
  {
    ClosedLoopWorkload workload(make_workload_config());
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(1500)) {
      daemon.run_slots(1, &workload);
    }
  }
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(admin.render_live_snapshot(), &doc, &error))
      << error;
  admin.stop();

  const obs::JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  const obs::JsonValue* ten_seconds = windows->find("10s");
  ASSERT_NE(ten_seconds, nullptr);
  EXPECT_GT(ten_seconds->number_or("span_ns", 0.0), 0.0);
  EXPECT_GT(ten_seconds->number_or("pages_per_sec", 0.0), 0.0);
}

TEST(AdminIntrospection, OneSecondWindowHasABase) {
  // The history samples more often than once a second, so a one-shot
  // scrape a few seconds into a run finds an earlier sample within 1 s
  // of the newest and the 1s window covers a real span.
  Pcnd daemon(make_config(2, true));
  AdminServer admin(&daemon, test_socket_path() + ".one_second");
  admin.start();
  const auto start = std::chrono::steady_clock::now();
  {
    ClosedLoopWorkload workload(make_workload_config());
    while (std::chrono::steady_clock::now() - start <
           std::chrono::milliseconds(3000)) {
      daemon.run_slots(1, &workload);
    }
  }
  obs::JsonValue doc;
  std::string error;
  ASSERT_TRUE(obs::parse_json(admin.render_live_snapshot(), &doc, &error))
      << error;
  admin.stop();

  const obs::JsonValue* windows = doc.find("windows");
  ASSERT_NE(windows, nullptr);
  const obs::JsonValue* one_second = windows->find("1s");
  ASSERT_NE(one_second, nullptr);
  const double span_ns = one_second->number_or("span_ns", 0.0);
  EXPECT_GT(span_ns, 0.0);
  EXPECT_LE(span_ns, 1e9);
}

}  // namespace
}  // namespace pcn::daemon
