#include "src/common/thread_pool.h"

#include "src/common/logging.h"

namespace capsys {

ThreadPool::ThreadPool(int num_threads) {
  CAPSYS_CHECK(num_threads > 0);
  threads_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) {
    t.join();
  }
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::Wait() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (stop_ && queue_.empty()) {
      return;
    }
    auto fn = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    fn();
    lock.lock();
    --active_;
    if (queue_.empty() && active_ == 0) {
      done_cv_.notify_all();
    }
  }
}

}  // namespace capsys
