// Fixed-size worker pool for the sharded offline analysis.
//
// The paper's pipeline is per-CPU end to end — LTTng drains lock-free
// per-CPU channels and interval pairing is a per-CPU linear scan — so the
// offline analyzer can fan its shards out to a small pool of workers and
// merge deterministically afterwards. The pool is deliberately minimal:
// fixed worker count, a mutex-guarded deque, futures for results. Analysis
// tasks are coarse (one shard each), so queue contention is irrelevant.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

namespace osn {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1). The destructor drains the queue
  /// and joins; tasks submitted before destruction all run.
  explicit ThreadPool(std::size_t workers);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t worker_count() const { return workers_.size(); }

  /// A submitted task's result. std::future::get rethrows a copy of the
  /// task's exception and leaves the shared state owning it, so a worker
  /// that drops the state after the caller has caught, read and let go of
  /// the error frees it, ordered after the read only by libstdc++'s
  /// reference count; that library is not built with -fsanitize=thread, and
  /// TSan reports a race. get() here moves the value or the exception out of
  /// the state instead: the caller alone owns what it caught.
  template <typename R>
  class Future {
   public:
    /// Waits for the task; returns its value or rethrows its exception.
    R get() {
      Outcome outcome = future_.get();  // moved out of the shared state
      if (outcome.error) std::rethrow_exception(std::move(outcome.error));
      if constexpr (!std::is_void_v<R>) return std::move(*outcome.value);
    }
    template <typename Rep, typename Period>
    std::future_status wait_for(const std::chrono::duration<Rep, Period>& timeout) const {
      return future_.wait_for(timeout);
    }

   private:
    friend class ThreadPool;
    struct Outcome {
      std::optional<std::conditional_t<std::is_void_v<R>, std::monostate, R>> value;
      std::exception_ptr error;
    };
    explicit Future(std::future<Outcome> future) : future_(std::move(future)) {}
    std::future<Outcome> future_;
  };

  /// Enqueues a task and returns a future for its result. Exceptions thrown
  /// by the task are rethrown from Future::get().
  template <typename F>
  auto submit(F&& fn) -> Future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    using Outcome = typename Future<R>::Outcome;
    auto task = std::make_shared<std::packaged_task<Outcome()>>(
        [call = std::forward<F>(fn)]() mutable {
          Outcome outcome;
          try {
            if constexpr (std::is_void_v<R>) {
              call();
              outcome.value.emplace();
            } else {
              outcome.value.emplace(call());
            }
          } catch (...) {
            outcome.error = std::current_exception();
          }
          return outcome;
        });
    Future<R> future(task->get_future());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      queue_.emplace_back([task] { (*task)(); });
    }
    cv_.notify_one();
    return future;
  }

  /// Runs fn(i) for every i in [0, n), distributing across the pool, and
  /// blocks until all complete. The caller's thread also executes tasks, so
  /// a 1-worker pool still makes progress if workers are saturated.
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// Worker count to use for `jobs` ("0 = auto"): hardware_concurrency,
  /// clamped to at least 1.
  static std::size_t resolve_jobs(std::size_t jobs);

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mutex_;
  std::condition_variable cv_;
  bool stopping_ = false;
};

}  // namespace osn
