// The analysis worker pool: submit/futures, exception propagation,
// parallel_for coverage, drain-on-destruction.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.hpp"

namespace osn {
namespace {

TEST(ThreadPool, SubmitReturnsResults) {
  ThreadPool pool(4);
  std::vector<ThreadPool::Future<int>> futures;
  for (int i = 0; i < 32; ++i) futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[static_cast<std::size_t>(i)].get(), i * i);
}

TEST(ThreadPool, AtLeastOneWorkerEvenWhenAskedForZero) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.worker_count(), 1u);
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
}

TEST(ThreadPool, ExceptionsPropagateThroughFutures) {
  ThreadPool pool(2);
  auto future = pool.submit([]() -> int { throw std::runtime_error("shard failed"); });
  EXPECT_THROW(future.get(), std::runtime_error);
  // The worker survives a throwing task.
  EXPECT_EQ(pool.submit([] { return 1; }).get(), 1);
}

// The caller owns the error it caught. If the task's shared state still
// held the exception, a worker dropping that state after the caller had
// read the message and let go would free it, ordered after the read only by
// libstdc++'s uninstrumented reference count: ThreadSanitizer reports that
// as a race. The window is a worker's few instructions between making the
// result ready and dropping the task, so the test repeats the round trip.
TEST(ThreadPool, CaughtErrorBelongsToTheCaller) {
  ThreadPool pool(2);
  for (int i = 0; i < 2000; ++i) {
    try {
      auto future =
          pool.submit([]() -> int { throw std::runtime_error("cpu 1: mismatched exit at 200 ns"); });
      while (future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
      }
      future.get();
      ADD_FAILURE() << "the task's error was not rethrown";
    } catch (const std::runtime_error& e) {
      ASSERT_EQ(std::string(e.what()), "cpu 1: mismatched exit at 200 ns");
    }
  }
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  pool.parallel_for(kN, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ThreadPool, ParallelForRunsOnMultipleThreadsWhenAvailable) {
  ThreadPool pool(4);
  std::mutex mu;
  std::set<std::thread::id> seen;
  pool.parallel_for(64, [&](std::size_t) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    std::lock_guard<std::mutex> lock(mu);
    seen.insert(std::this_thread::get_id());
  });
  // The calling thread participates, so at least it shows up; on a
  // multi-core host the workers do too. Either way every index ran.
  EXPECT_GE(seen.size(), 1u);
}

TEST(ThreadPool, ParallelForZeroIsANoop) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPool, DestructorDrainsPendingTasks) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 16; ++i)
      pool.submit([&ran] { ran.fetch_add(1); });
  }
  EXPECT_EQ(ran.load(), 16);
}

TEST(ThreadPool, ResolveJobs) {
  EXPECT_EQ(ThreadPool::resolve_jobs(1), 1u);
  EXPECT_EQ(ThreadPool::resolve_jobs(8), 8u);
  EXPECT_GE(ThreadPool::resolve_jobs(0), 1u);  // auto = hardware_concurrency
}

}  // namespace
}  // namespace osn
