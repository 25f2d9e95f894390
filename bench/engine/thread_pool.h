#ifndef AUDIT_GAME_BENCH_ENGINE_THREAD_POOL_H_
#define AUDIT_GAME_BENCH_ENGINE_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace auditgame::util {

/// A fixed-size worker pool executing queued tasks FIFO. Used by
/// solver::SolverEngine to fan the independent solves of a benchmark sweep
/// across cores; the library itself solves on its caller's thread.
///
/// Semantics:
///  * Tasks run in submission order (each on whichever worker frees first);
///    callers that need deterministic *results* should write into
///    preassigned slots rather than rely on completion order.
///  * Wait() blocks until every task scheduled so far has finished.
///  * The destructor drains the queue (it does not cancel pending tasks).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers; 0 means DefaultThreadCount().
  explicit ThreadPool(int num_threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// std::thread::hardware_concurrency(), floored at 1.
  static int DefaultThreadCount();

  /// Enqueues a task. An exception escaping a task terminates the
  /// process.
  void Schedule(std::function<void()> task);

  /// Blocks until all tasks scheduled before this call have completed.
  void Wait();

 private:
  void WorkerLoop();

  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable all_done_;
  std::deque<std::function<void()>> queue_;
  int in_flight_ = 0;  // queued + currently executing
  bool shutdown_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace auditgame::util

#endif  // AUDIT_GAME_BENCH_ENGINE_THREAD_POOL_H_
