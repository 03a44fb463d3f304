#include "pcn/common/shard_pool.hpp"

namespace pcn {

ShardPool::~ShardPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  start_cv_.notify_all();
  for (std::thread& thread : threads_) thread.join();
}

void ShardPool::fork_join(int workers, Task task, void* ctx) {
  const auto count = static_cast<std::size_t>(workers);
  if (threads_.size() + 1 < count) {
    errors_.resize(count);
    // A new thread starts from the current generation, so it waits for
    // the call published below rather than replaying an old one.
    const std::uint64_t seen = generation_;
    while (threads_.size() + 1 < count) {
      const int worker = static_cast<int>(threads_.size()) + 1;
      threads_.emplace_back([this, worker, seen] { worker_loop(worker, seen); });
    }
  }
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    task_ = task;
    ctx_ = ctx;
    active_ = workers;
    pending_ = workers - 1;
    ++generation_;
  }
  start_cv_.notify_all();
  try {
    task(ctx, 0);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  {
    std::unique_lock<std::mutex> lock(mutex_);
    done_cv_.wait(lock, [this] { return pending_ == 0; });
  }
  std::exception_ptr first;
  for (std::size_t w = 0; w < count; ++w) {
    if (first == nullptr) first = errors_[w];
    errors_[w] = nullptr;
  }
  if (first != nullptr) std::rethrow_exception(first);
}

void ShardPool::worker_loop(int worker, std::uint64_t seen) {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    start_cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    if (worker >= active_) continue;  // a narrower call; stay parked
    const Task task = task_;
    void* const ctx = ctx_;
    lock.unlock();
    try {
      task(ctx, worker);
    } catch (...) {
      errors_[static_cast<std::size_t>(worker)] = std::current_exception();
    }
    lock.lock();
    if (--pending_ == 0) done_cv_.notify_one();
  }
}

}  // namespace pcn
