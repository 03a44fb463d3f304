// A persistent fork-join pool for sharded slot work.
//
// One run(workers, body) call executes body(w) once for every w in
// [0, workers) and returns when all of them have: worker 0 is the
// calling thread, workers 1..workers-1 are threads the pool keeps
// parked between calls (created on the first call that needs them,
// joined in the destructor).  The first exception, by worker index, is
// rethrown on the caller once every worker has finished, and the pool
// stays usable afterwards.  A one-worker call runs body(0) inline: no
// thread, lock or allocation.
//
// Parked workers sleep on a condition variable, so an idle pool costs
// no CPU time.  The pool knows nothing of its owner; the simulator
// (sim::Network) and the daemon (daemon::Pcnd) each hold one, so two
// owners running on different threads never serialise on a shared pool.
// One caller at a time: run() is not reentrant and not thread-safe.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace pcn {

class ShardPool {
 public:
  ShardPool() = default;
  ~ShardPool();
  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// Runs body(w) for w in [0, workers), worker 0 on the caller; blocks
  /// until every worker returns.  `body` must be callable as body(int).
  template <class Body>
  void run(int workers, Body&& body) {
    if (workers <= 1) {
      body(0);
      return;
    }
    using Fn = std::remove_reference_t<Body>;
    fork_join(workers,
              [](void* ctx, int w) { (*static_cast<Fn*>(ctx))(w); },
              const_cast<void*>(static_cast<const void*>(
                  std::addressof(body))));
  }

 private:
  using Task = void (*)(void* ctx, int worker);

  void fork_join(int workers, Task task, void* ctx);
  void worker_loop(int worker, std::uint64_t seen);

  std::mutex mutex_;
  std::condition_variable start_cv_;  ///< parked workers wait here
  std::condition_variable done_cv_;   ///< the caller waits here
  // The call in flight, published under mutex_.
  Task task_ = nullptr;
  void* ctx_ = nullptr;
  int active_ = 0;              ///< workers in the call
  int pending_ = 0;             ///< pool workers still running it
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  std::vector<std::exception_ptr> errors_;  ///< [worker]
  /// Thread i runs worker i + 1; declared after everything it uses.
  std::vector<std::thread> threads_;
};

}  // namespace pcn
