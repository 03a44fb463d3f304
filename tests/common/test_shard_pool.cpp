// ShardPool: every worker index runs exactly once per fork-join call,
// exceptions from any worker surface on the caller, a one-worker call
// starts no thread, and destruction joins the parked workers.  The
// ThreadReuse tests pin that the simulator and the daemon start their
// shard workers once and reuse them on every later call.
#include "pcn/common/shard_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "pcn/daemon/daemon.hpp"
#include "pcn/sim/network.hpp"

namespace pcn {
namespace {

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

/// The ids in `a` that are not in `b`.
std::set<std::string> minus(const std::set<std::string>& a,
                            const std::set<std::string>& b) {
  std::set<std::string> out;
  for (const std::string& id : a) {
    if (b.count(id) == 0) out.insert(id);
  }
  return out;
}

/// Runs `first` once and `again` many times; the first call must start
/// exactly `workers` threads and the later calls none, with those
/// workers still alive at the end.  Set differences keep the check exact
/// even while threads of an earlier owner are still being reaped.  Where
/// /proc/self/task is absent the calls run and nothing is counted.
template <class First, class Again>
void expect_workers_started_once(std::size_t workers, First first,
                                 Again again) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    first();
    again();
    return;
  }
  // A runtime may start a helper thread along with the process's first
  // thread (ThreadSanitizer does); have that happen before counting.
  std::thread([] {}).join();
  const std::set<std::string> before = task_ids();
  first();
  const std::set<std::string> started = task_ids();
  const std::set<std::string> pool = minus(started, before);
  EXPECT_EQ(pool.size(), workers);
  again();
  const std::set<std::string> after = task_ids();
  EXPECT_TRUE(minus(after, started).empty()) << "a later call started a thread";
  EXPECT_TRUE(minus(pool, after).empty()) << "a pool worker exited";
}

TEST(ShardPool, EveryWorkerRunsExactlyOncePerCall) {
  ShardPool pool;
  constexpr int kMaxWorkers = 4;
  std::vector<std::atomic<std::int64_t>> hits(kMaxWorkers);
  std::vector<std::int64_t> expected(kMaxWorkers, 0);
  const auto call = [&](int workers) {
    pool.run(workers, [&](int worker) {
      ASSERT_GE(worker, 0);
      ASSERT_LT(worker, workers);
      hits[static_cast<std::size_t>(worker)].fetch_add(1);
    });
    for (int w = 0; w < workers; ++w) ++expected[static_cast<std::size_t>(w)];
    for (int w = 0; w < kMaxWorkers; ++w) {
      ASSERT_EQ(hits[static_cast<std::size_t>(w)].load(),
                expected[static_cast<std::size_t>(w)])
          << workers << "-worker call, worker " << w;
    }
  };
  // The widest call starts every worker; 10000 calls reuse them, and the
  // narrower ones among them leave the extra parked workers out.
  expect_workers_started_once(
      kMaxWorkers - 1, [&] { call(kMaxWorkers); },
      [&] {
        for (int i = 0; i < 10000; ++i) call(2 + i % (kMaxWorkers - 1));
      });
}

TEST(ShardPool, CallerIsWorkerZero) {
  ShardPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> ids(3);
  pool.run(3, [&](int worker) {
    ids[static_cast<std::size_t>(worker)] = std::this_thread::get_id();
  });
  EXPECT_EQ(ids[0], caller);
  EXPECT_NE(ids[1], caller);
  EXPECT_NE(ids[2], caller);
  EXPECT_NE(ids[1], ids[2]);
}

TEST(ShardPool, ExceptionsSurfaceOnTheCallerAndThePoolStaysUsable) {
  ShardPool pool;
  for (const int thrower : {0, 2}) {
    std::atomic<int> ran{0};
    EXPECT_THROW(pool.run(4,
                          [&](int worker) {
                            ran.fetch_add(1);
                            if (worker == thrower) {
                              throw std::runtime_error("worker failed");
                            }
                          }),
                 std::runtime_error)
        << "thrower " << thrower;
    // Every worker still ran to completion before the rethrow.
    EXPECT_EQ(ran.load(), 4);
    std::atomic<int> after{0};
    pool.run(4, [&](int) { after.fetch_add(1); });
    EXPECT_EQ(after.load(), 4);
  }
}

TEST(ShardPool, LowestWorkerIndexExceptionWins) {
  ShardPool pool;
  try {
    pool.run(3, [](int worker) {
      if (worker > 0) throw std::runtime_error(std::to_string(worker));
    });
    FAIL() << "expected a rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_EQ(std::string(error.what()), "1");
  }
}

TEST(ShardPool, OneWorkerRunsInlineAndStartsNoThread) {
  ShardPool pool;
  const std::thread::id caller = std::this_thread::get_id();
  const std::set<std::string> before = task_ids();
  int calls = 0;
  for (int i = 0; i < 100; ++i) {
    pool.run(1, [&](int worker) {
      EXPECT_EQ(worker, 0);
      EXPECT_EQ(std::this_thread::get_id(), caller);
      ++calls;
    });
  }
  EXPECT_EQ(calls, 100);
  EXPECT_EQ(task_ids(), before);
}

std::atomic<int> g_exited{0};

/// Touched from a pool worker; its thread_local destructor runs as that
/// thread exits, before a join on it returns.
struct ExitProbe {
  ~ExitProbe() { g_exited.fetch_add(1); }
};

TEST(ShardPool, DestroyingThePoolJoinsParkedWorkers) {
  g_exited = 0;
  {
    ShardPool pool;
    pool.run(4, [](int worker) {
      if (worker > 0) {
        thread_local ExitProbe probe;
        (void)probe;
      }
    });
    EXPECT_EQ(g_exited.load(), 0);  // parked, not exited
  }
  EXPECT_EQ(g_exited.load(), 3);
}

TEST(ThreadReuse, PcndStartsItsWorkersOnce) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  daemon::PcndConfig config;
  config.threads = 2;
  daemon::Pcnd daemon(config);
  expect_workers_started_once(
      1, [&] { daemon.run_slots(1); },
      [&] {
        for (int i = 0; i < 200; ++i) daemon.run_slots(1);
      });
}

TEST(ThreadReuse, NetworkStartsItsWorkersOnce) {
  if (!std::filesystem::is_directory("/proc/self/task")) {
    GTEST_SKIP() << "/proc/self/task is not available";
  }
  for (const sim::SimEngine engine :
       {sim::SimEngine::kReference, sim::SimEngine::kAuto}) {
    sim::NetworkConfig config;
    config.threads = 4;
    config.engine = engine;
    sim::Network network(config, CostWeights{50.0, 2.0});
    for (int i = 0; i < 64; ++i) {
      network.add_terminal(sim::make_distance_terminal(
          Dimension::kTwoD, MobilityProfile{0.2, 0.05}, 2, DelayBound(2)));
    }
    // 64 terminals x 256 slots is enough work for the parallel path.
    expect_workers_started_once(
        3, [&] { network.run(256); },
        [&] {
          for (int i = 0; i < 50; ++i) network.run(256);
        });
  }
}

}  // namespace
}  // namespace pcn
