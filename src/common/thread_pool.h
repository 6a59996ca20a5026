// Fixed-size thread pool and the one chunked fan-out built on it.
//
// Every parallel site splits [0, n) with ForEachChunk (trainer anchor
// batches, the serving micro-batcher, bulk embedding) or its per-index form
// ParallelFor (IVF assignment). Chunking never changes a result.

#ifndef NEUTRAJ_COMMON_THREAD_POOL_H_
#define NEUTRAJ_COMMON_THREAD_POOL_H_

#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "common/sync.h"

namespace neutraj {

/// Fixed-size worker pool executing void() tasks FIFO; src/ submits to it
/// only through ForEachChunk (tools/lint.sh rule 10).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (>= 1 enforced).
  explicit ThreadPool(size_t num_threads);

  /// Drains outstanding tasks, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t num_threads() const { return workers_.size(); }

  /// Enqueues a task. Must not be called after destruction begins.
  void Submit(std::function<void()> task) NEUTRAJ_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished executing. If any task
  /// threw, rethrows the first captured exception (later ones are dropped)
  /// and clears it, leaving the pool usable for further submissions. A
  /// worker that throws keeps running — an exception never takes a worker
  /// down or deadlocks Wait().
  void Wait() NEUTRAJ_EXCLUDES(mu_);

 private:
  void WorkerLoop() NEUTRAJ_EXCLUDES(mu_);

  /// Leaf lock: never held while running a task, so task bodies may take
  /// any other lock in the system (rank table in common/sync.h).
  Mutex mu_{lock_rank::kThreadPool};
  CondVar task_ready_;
  CondVar all_done_;
  std::queue<std::function<void()>> tasks_ NEUTRAJ_GUARDED_BY(mu_);
  size_t in_flight_ NEUTRAJ_GUARDED_BY(mu_) = 0;
  bool shutting_down_ NEUTRAJ_GUARDED_BY(mu_) = false;
  /// First task exception since last Wait.
  std::exception_ptr first_error_ NEUTRAJ_GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
};

/// Splits [0, n) into min(n, pool->num_threads()) contiguous chunks of
/// ceil(n / chunks) items and runs body(lo, hi, chunk) for each, where
/// `chunk` (< pool->num_threads()) indexes the caller's per-worker scratch.
/// A null pool or a single chunk runs inline on the calling thread; else
/// the call blocks until every chunk has run on the pool, then rethrows the
/// first exception a chunk threw (the pool stays usable).
void ForEachChunk(
    ThreadPool* pool, size_t n,
    const std::function<void(size_t lo, size_t hi, size_t chunk)>& body);

/// Runs body(i) for i in [0, n) through ForEachChunk on a transient pool of
/// min(n, num_threads) workers. `body` must be safe to call concurrently for
/// distinct i. num_threads <= 1 runs inline.
void ParallelFor(size_t n, size_t num_threads,
                 const std::function<void(size_t)>& body);

}  // namespace neutraj

#endif  // NEUTRAJ_COMMON_THREAD_POOL_H_
