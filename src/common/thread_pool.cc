#include "common/thread_pool.h"

#include <algorithm>
#include <optional>

namespace neutraj {

ThreadPool::ThreadPool(size_t num_threads) {
  const size_t n = std::max<size_t>(1, num_threads);
  workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(mu_);
    shutting_down_ = true;
  }
  task_ready_.NotifyAll();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    MutexLock lock(mu_);
    tasks_.push(std::move(task));
    ++in_flight_;
  }
  task_ready_.NotifyOne();
}

void ThreadPool::Wait() {
  std::exception_ptr err;
  {
    MutexLock lock(mu_);
    while (in_flight_ != 0) all_done_.Wait(mu_);
    err = first_error_;
    first_error_ = nullptr;
  }
  if (err) std::rethrow_exception(err);
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      MutexLock lock(mu_);
      while (!shutting_down_ && tasks_.empty()) task_ready_.Wait(mu_);
      if (tasks_.empty()) {
        if (shutting_down_) return;
        continue;
      }
      task = std::move(tasks_.front());
      tasks_.pop();
    }
    try {
      task();
    } catch (...) {
      MutexLock lock(mu_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    {
      MutexLock lock(mu_);
      if (--in_flight_ == 0) all_done_.NotifyAll();
    }
  }
}

void ForEachChunk(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t lo, size_t hi, size_t chunk)>& body) {
  if (n == 0) return;
  const size_t chunks = pool == nullptr ? 1 : std::min(n, pool->num_threads());
  if (chunks == 1) {
    body(0, n, 0);
    return;
  }
  const size_t size = (n + chunks - 1) / chunks;
  size_t chunk = 0;
  for (size_t lo = 0; lo < n; lo += size, ++chunk) {
    const size_t hi = std::min(lo + size, n);
    pool->Submit([&body, lo, hi, chunk] { body(lo, hi, chunk); });
  }
  pool->Wait();
}

void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& body) {
  const size_t workers = std::min(n, num_threads);
  std::optional<ThreadPool> pool;
  if (workers > 1) pool.emplace(workers);
  ForEachChunk(pool ? &*pool : nullptr, n, [&body](size_t lo, size_t hi, size_t) {
    for (size_t i = lo; i < hi; ++i) body(i);
  });
}

}  // namespace neutraj
