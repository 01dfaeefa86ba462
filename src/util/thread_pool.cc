#include "util/thread_pool.h"

#include <algorithm>
#include <chrono>
#include <utility>

namespace flowsched {

ThreadPool::ThreadPool(int num_threads) {
  const int n = std::max(1, num_threads);
  queues_.reserve(n);
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(n);
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  std::size_t target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++unfinished_;
    target = next_queue_++ % queues_.size();
  }
  {
    std::lock_guard<std::mutex> lock(queues_[target]->mu);
    queues_[target]->tasks.push_back(std::move(task));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return unfinished_ == 0; });
}

bool ThreadPool::TryTake(int worker_index, std::function<void()>& task) {
  {
    WorkerQueue& own = *queues_[worker_index];
    std::lock_guard<std::mutex> lock(own.mu);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.back());  // LIFO: most recently pushed.
      own.tasks.pop_back();
      return true;
    }
  }
  const int n = static_cast<int>(queues_.size());
  for (int k = 1; k < n; ++k) {
    WorkerQueue& victim = *queues_[(worker_index + k) % n];
    std::lock_guard<std::mutex> lock(victim.mu);
    if (!victim.tasks.empty()) {
      task = std::move(victim.tasks.front());  // FIFO: steal the oldest.
      victim.tasks.pop_front();
      return true;
    }
  }
  return false;
}

void ThreadPool::WorkerLoop(int worker_index) {
  for (;;) {
    std::function<void()> task;
    if (TryTake(worker_index, task)) {
      task();
      std::lock_guard<std::mutex> lock(mu_);
      if (--unfinished_ == 0) done_cv_.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    if (shutdown_) return;
    // Re-check under the lock: a Submit may have raced our empty scan.
    // unfinished_ > 0 alone is not "work available" (tasks may be running
    // on other workers), so wake on the cv and rescan.
    work_cv_.wait_for(lock, std::chrono::milliseconds(50));
  }
}

}  // namespace flowsched
