#include "src/common/thread_pool.h"

#include <algorithm>

namespace rulekit {

void TaskGroup::Add() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_;
}

void TaskGroup::Done() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return pending_ == 0; });
}

ThreadPool::ThreadPool(size_t num_threads) {
  num_threads = std::max<size_t>(1, num_threads);
  threads_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    ++in_flight_;
  }
  work_cv_.notify_one();
}

void ThreadPool::Submit(TaskGroup* group, std::function<void()> task) {
  group->Add();
  Submit([group, task = std::move(task)] {
    task();
    group->Done();
  });
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return in_flight_ == 0; });
}

void ThreadPool::ParallelFor(size_t n,
                             const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  TaskGroup group;
  const size_t chunks = std::min(n, threads_.size() * 4);
  const size_t chunk_size = (n + chunks - 1) / chunks;
  for (size_t begin = 0; begin < n; begin += chunk_size) {
    const size_t end = std::min(n, begin + chunk_size);
    Submit(&group, [&fn, begin, end] { fn(begin, end); });
  }
  group.Wait();
}

void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn) {
  if (n == 0) return;
  if (pool == nullptr || n == 1) {
    fn(0, n);
    return;
  }
  pool->ParallelFor(n, fn);
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--in_flight_ == 0) idle_cv_.notify_all();
    }
  }
}

}  // namespace rulekit
