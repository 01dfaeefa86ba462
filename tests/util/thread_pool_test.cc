#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <vector>

namespace flowsched {
namespace {

TEST(ThreadPoolTest, RunsEverySubmittedTask) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 1000; ++i) {
    pool.Submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 1000);
}

TEST(ThreadPoolTest, TasksWriteIntoTheirOwnSlots) {
  // The runner's pattern: pre-sized result vector, one slot per task.
  ThreadPool pool(3);
  std::vector<int> results(500, 0);
  for (int i = 0; i < 500; ++i) {
    pool.Submit([&results, i] { results[i] = i * i; });
  }
  pool.Wait();
  for (int i = 0; i < 500; ++i) EXPECT_EQ(results[i], i * i);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 1);
  pool.Submit([&count] { ++count; });
  pool.Submit([&count] { ++count; });
  pool.Wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPoolTest, StealingDrainsSkewedQueues) {
  // One long task pins a worker while many short tasks round-robin onto
  // every queue; stealing lets the free workers drain the pinned worker's
  // backlog. The test passes quickly iff stealing works — without it the
  // short tasks behind the sleeper would serialize after it.
  ThreadPool pool(4);
  std::atomic<int> done{0};
  pool.Submit([] {
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
  });
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&done] { done.fetch_add(1, std::memory_order_relaxed); });
  }
  // All short tasks should finish while the sleeper still holds its worker
  // (on a single-core machine this is only probabilistic, so assert the
  // final state, not the interleaving).
  pool.Wait();
  EXPECT_EQ(done.load(), 100);
}

TEST(ThreadPoolTest, ClampsThreadCount) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1);
  std::atomic<int> count{0};
  for (int i = 0; i < 10; ++i) {
    pool.Submit([&count] { ++count; });
  }
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(ThreadPoolTest, SubmitFromWithinATask) {
  // Tasks may enqueue follow-up work (the runner does not today, but the
  // pool must not deadlock if a future campaign does).
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.Submit([&] {
    for (int i = 0; i < 10; ++i) {
      pool.Submit([&count] { ++count; });
    }
  });
  pool.Wait();
  EXPECT_EQ(count.load(), 10);
}

}  // namespace
}  // namespace flowsched
