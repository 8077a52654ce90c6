#ifndef RULEKIT_COMMON_THREAD_POOL_H_
#define RULEKIT_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rulekit {

/// Tracks completion of one logical batch of tasks submitted to a
/// ThreadPool. Several TaskGroups can be in flight on the same pool at
/// once (e.g. concurrent batch Classify calls sharing the serving pool);
/// each group's Wait() only blocks on its own tasks, unlike
/// ThreadPool::Wait() which drains the whole pool.
class TaskGroup {
 public:
  TaskGroup() = default;
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Blocks until every task submitted with this group has finished.
  void Wait();

 private:
  friend class ThreadPool;
  void Add();
  void Done();

  std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
};

/// Fixed-size worker pool used by the parallel rule executor and the
/// Chimera batch serving path. Stands in for the Hadoop cluster the paper
/// mentions for scaling rule execution; the indexing-vs-scan and
/// parallel-speedup claims are machine-local.
class ThreadPool {
 public:
  /// Starts `num_threads` workers (at least 1).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding work, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueue a task. Tasks must not throw.
  void Submit(std::function<void()> task);

  /// Enqueue a task tracked by `group` (as well as by the pool itself).
  void Submit(TaskGroup* group, std::function<void()> task);

  /// Block until every submitted task has finished (all groups).
  void Wait();

  size_t num_threads() const { return threads_.size(); }

  /// Partition [0, n) into roughly equal chunks and run `fn(begin, end)` on
  /// the pool, blocking until all chunks complete. Safe to call from
  /// several threads concurrently: each call waits on its own TaskGroup.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn);

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable work_cv_;   // signals workers
  std::condition_variable idle_cv_;   // signals Wait()
  std::deque<std::function<void()>> queue_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
  std::vector<std::thread> threads_;
};

/// Runs `fn(begin, end)` over [0, n): chunked on `pool` (see
/// ThreadPool::ParallelFor), or inline in one call when `pool` is null or
/// n == 1 — a lone item never pays a pool handoff. n == 0 runs nothing.
void ParallelFor(ThreadPool* pool, size_t n,
                 const std::function<void(size_t, size_t)>& fn);

}  // namespace rulekit

#endif  // RULEKIT_COMMON_THREAD_POOL_H_
