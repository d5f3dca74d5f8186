// Fixed-size worker pool for the parallel runtime.
//
// A ThreadPool of parallelism P owns P-1 worker threads; the thread that
// opens a parallel region always participates as the P-th lane, so
// ThreadPool(1) spawns no threads and is pure serial execution. The global
// singleton is created lazily on first use and sized from the
// BLINKML_NUM_THREADS environment variable (default: hardware
// concurrency). Workers are started once and live until destruction; tasks
// are closures pushed to a single locked queue. A parallel region submits
// one task per extra lane, which claims the region's chunks until none is
// left, so queue contention is negligible; a task that starts after its
// region's last claim exits at once (runtime/parallel.h).

#ifndef BLINKML_RUNTIME_THREAD_POOL_H_
#define BLINKML_RUNTIME_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace blinkml {

class ThreadPool {
 public:
  /// Pool with the given total parallelism (calling thread included);
  /// spawns parallelism - 1 workers. Clamped below at 1.
  explicit ThreadPool(int parallelism);

  /// Drains nothing: outstanding tasks are completed, then workers join.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (worker count + the participating caller).
  int parallelism() const { return static_cast<int>(workers_.size()) + 1; }

  /// Enqueues a task for any idle worker. Never blocks.
  void Submit(std::function<void()> task);

  /// Lazy global singleton sized by DefaultParallelism().
  static ThreadPool& Global();

  /// BLINKML_NUM_THREADS if set (clamped to [1, 1024]), otherwise
  /// std::thread::hardware_concurrency (at least 1).
  static int DefaultParallelism();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace blinkml

#endif  // BLINKML_RUNTIME_THREAD_POOL_H_
