// A small work-stealing thread pool for the campaign runner and the fabric
// runner's shard parallelism.
//
// Each worker owns a deque: it pops its own tasks LIFO (cache-warm) and
// steals FIFO from the other workers when its deque drains, so a skewed
// grid (one maxweight cell dwarfing a hundred fifo cells) still keeps all
// cores busy. Submissions round-robin across the deques.
//
// Scope is deliberately narrow — fire-and-forget void() tasks plus a
// Wait() barrier. Tasks communicate results through whatever they capture
// (the campaign runner hands each task its own result slot and run
// directory, so tasks never contend). Tasks must not throw: the repo's
// failure modes are FS_CHECK aborts and error codes, not exceptions.
#ifndef FLOWSCHED_UTIL_THREAD_POOL_H_
#define FLOWSCHED_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace flowsched {

class ThreadPool {
 public:
  // Clamped to >= 1. Workers start immediately and idle until Submit.
  explicit ThreadPool(int num_threads);
  // Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  void Submit(std::function<void()> task);

  // Blocks until every task submitted so far has finished. The pool is
  // reusable afterwards.
  void Wait();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> tasks;
  };

  void WorkerLoop(int worker_index);
  // Own queue back first, then steal from the front of the others.
  bool TryTake(int worker_index, std::function<void()>& task);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex mu_;                  // Guards sleeping / counters below.
  std::condition_variable work_cv_;   // Signaled on Submit and shutdown.
  std::condition_variable done_cv_;   // Signaled when in-flight hits zero.
  std::size_t unfinished_ = 0;     // Submitted but not yet completed.
  std::size_t next_queue_ = 0;     // Round-robin submission cursor.
  bool shutdown_ = false;
};

}  // namespace flowsched

#endif  // FLOWSCHED_UTIL_THREAD_POOL_H_
