#include "common/thread_pool.hpp"

#include <algorithm>
#include <atomic>

namespace osn {

ThreadPool::ThreadPool(std::size_t workers) {
  workers_.reserve(std::max<std::size_t>(workers, 1));
  for (std::size_t i = 0; i < std::max<std::size_t>(workers, 1); ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  // Shared index: workers and the calling thread pull the next undone i.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  auto run = [next, n, &fn] {
    for (std::size_t i = next->fetch_add(1); i < n; i = next->fetch_add(1)) fn(i);
  };
  std::vector<Future<void>> futures;
  const std::size_t helpers = std::min(worker_count(), n);
  futures.reserve(helpers);
  for (std::size_t w = 0; w < helpers; ++w) futures.push_back(submit(run));
  run();  // the caller participates instead of blocking idle
  for (auto& f : futures) f.get();
}

std::size_t ThreadPool::resolve_jobs(std::size_t jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace osn
