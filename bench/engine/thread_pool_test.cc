#include "bench/engine/thread_pool.h"

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

namespace auditgame::util {
namespace {

TEST(ThreadPoolTest, ReportsThreadCount) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.num_threads(), 3);
  ThreadPool default_pool(0);
  EXPECT_EQ(default_pool.num_threads(), ThreadPool::DefaultThreadCount());
  EXPECT_GE(ThreadPool::DefaultThreadCount(), 1);
}

TEST(ThreadPoolTest, CompletesAllScheduledTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  const int tasks = 200;
  for (int i = 0; i < tasks; ++i) {
    pool.Schedule([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), tasks);
}

TEST(ThreadPoolTest, WaitCanBeCalledRepeatedly) {
  ThreadPool pool(2);
  pool.Wait();  // nothing scheduled yet
  std::atomic<int> counter{0};
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Schedule([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 2);
}

TEST(ThreadPoolTest, ParallelResultsMatchSerial) {
  const int n = 64;
  std::vector<long> serial(n);
  for (int i = 0; i < n; ++i) {
    serial[static_cast<size_t>(i)] = static_cast<long>(i) * i - 3 * i;
  }

  ThreadPool pool(4);
  std::vector<long> parallel(n, 0);
  for (int i = 0; i < n; ++i) {
    // Preassigned slots: completion order cannot change the output.
    pool.Schedule([&parallel, i] {
      parallel[static_cast<size_t>(i)] = static_cast<long>(i) * i - 3 * i;
    });
  }
  pool.Wait();
  EXPECT_EQ(parallel, serial);
}

TEST(ThreadPoolTest, DestructorDrainsQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 50; ++i) {
      pool.Schedule([&counter] { counter.fetch_add(1); });
    }
  }  // destructor joins after the queue is drained
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace auditgame::util
