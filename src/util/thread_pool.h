#ifndef AUDIT_GAME_UTIL_THREAD_POOL_H_
#define AUDIT_GAME_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace auditgame::util {

/// A fixed-size worker pool executing queued tasks FIFO. Used by
/// solver::SolverEngine to fan the independent solves of a benchmark sweep
/// across cores, and by CGGS pricing when CggsOptions::pricing_threads > 1.
/// A served solve otherwise runs on the thread that asked for it.
///
/// Semantics:
///  * Tasks run in submission order (each on whichever worker frees first);
///    callers that need deterministic *results* should write into
///    preassigned slots rather than rely on completion order.
///  * Schedule() is fire-and-forget; Submit() returns a std::future that
///    carries the task's return value, or its exception if it threw.
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

  /// Enqueues a task. Exceptions escaping a Schedule()d task terminate the
  /// process (use Submit() when the task can fail).
  void Schedule(std::function<void()> task);

  /// Enqueues a task and returns a future for its result. An exception
  /// thrown by the task is rethrown from future::get().
  template <typename F>
  auto Submit(F&& task) -> std::future<std::invoke_result_t<F>> {
    using R = std::invoke_result_t<F>;
    auto packaged =
        std::make_shared<std::packaged_task<R()>>(std::forward<F>(task));
    std::future<R> future = packaged->get_future();
    Schedule([packaged] { (*packaged)(); });
    return future;
  }

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

#endif  // AUDIT_GAME_UTIL_THREAD_POOL_H_
