// Fixed-size thread pool with a shared work queue. Threshold precomputation runs its
// independent scenario searches on it, and the placement service its planners.
#ifndef SRC_COMMON_THREAD_POOL_H_
#define SRC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace capsys {

class ThreadPool {
 public:
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Enqueues a task. Safe to call from worker threads (tasks may spawn tasks).
  void Submit(std::function<void()> fn);

  // Blocks until all submitted tasks (including ones spawned by tasks) have finished.
  void Wait();

  int num_threads() const { return static_cast<int>(threads_.size()); }

 private:
  void WorkerLoop();

  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> threads_;
  int active_ = 0;
  bool stop_ = false;
};

}  // namespace capsys

#endif  // SRC_COMMON_THREAD_POOL_H_
