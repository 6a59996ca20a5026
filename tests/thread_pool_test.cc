// Tests for the thread pool, its chunked fan-out and the parallel drivers
// built on it.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/trainer.h"
#include "test_util.h"

namespace neutraj {
namespace {

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.num_threads(), 4u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> counter{0};
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 1);
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Submit([&counter] { counter.fetch_add(1); });
  pool.Wait();
  EXPECT_EQ(counter.load(), 3);
}

TEST(ThreadPoolTest, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 50; ++i) {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
    // No Wait(): the destructor must still run everything.
  }
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPoolTest, WaitRethrowsTaskException) {
  ThreadPool pool(2);
  pool.Submit([] { throw std::runtime_error("worker failed"); });
  EXPECT_THROW(pool.Wait(), std::runtime_error);
}

TEST(ThreadPoolTest, OnlyFirstExceptionIsReportedAndPoolStaysUsable) {
  ThreadPool pool(2);
  for (int i = 0; i < 8; ++i) {
    pool.Submit([] { throw std::runtime_error("boom"); });
  }
  // Exactly one rethrow for the batch, whichever task lost the race.
  EXPECT_THROW(pool.Wait(), std::runtime_error);

  // The error is cleared: the pool keeps accepting and running work.
  std::atomic<int> counter{0};
  for (int i = 0; i < 20; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.Wait();  // Must not throw again.
  EXPECT_EQ(counter.load(), 20);
}

TEST(ThreadPoolTest, ExceptionDoesNotAbandonSiblingTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 64; ++i) {
    if (i == 7) {
      pool.Submit([] { throw std::logic_error("mid-batch failure"); });
    } else {
      pool.Submit([&counter] { counter.fetch_add(1); });
    }
  }
  EXPECT_THROW(pool.Wait(), std::logic_error);
  // Every non-throwing task still ran; the failure only poisons Wait().
  EXPECT_EQ(counter.load(), 63);
}

TEST(ThreadPoolTest, StressSubmitWaitCycles) {
  ThreadPool pool(4);
  std::atomic<int64_t> sum{0};
  int64_t expected = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&sum, round, i] { sum.fetch_add(round * 32 + i); });
      expected += round * 32 + i;
    }
    pool.Wait();
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPoolTest, ClampsToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.num_threads(), 1u);
  std::atomic<bool> ran{false};
  pool.Submit([&ran] { ran = true; });
  pool.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 4u, 9u}) {
    std::vector<std::atomic<int>> hits(257);
    ParallelFor(hits.size(), threads,
                [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
    }
  }
}

TEST(ParallelForTest, ZeroIterationsIsNoOp) {
  bool ran = false;
  ParallelFor(0, 4, [&](size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

using Bounds = std::vector<std::pair<size_t, size_t>>;

// The [lo, hi) ForEachChunk hands each chunk index (an out-of-range index
// throws from at()); `inline_only` reports whether every chunk ran on the
// calling thread.
Bounds Chunks(ThreadPool* pool, size_t n, bool* inline_only) {
  Bounds out(pool == nullptr ? 1 : pool->num_threads());
  std::atomic<bool> off_caller{false};
  const std::thread::id caller = std::this_thread::get_id();
  ForEachChunk(pool, n, [&](size_t lo, size_t hi, size_t chunk) {
    out.at(chunk) = {lo, hi};
    if (std::this_thread::get_id() != caller) off_caller = true;
  });
  while (!out.empty() && out.back().second == 0) out.pop_back();
  *inline_only = !off_caller;
  return out;
}

TEST(ForEachChunkTest, SplitsIntoContiguousCeilSizedChunksOnThePool) {
  const std::vector<std::tuple<size_t, size_t, Bounds>> cases = {
      {8, 4, {{0, 2}, {2, 4}, {4, 6}, {6, 8}}},
      {10, 4, {{0, 3}, {3, 6}, {6, 9}, {9, 10}}},
      {5, 4, {{0, 2}, {2, 4}, {4, 5}}},  // ceil(5 / 4) leaves a worker idle.
      {3, 8, {{0, 1}, {1, 2}, {2, 3}}},  // n < threads.
      {7, 2, {{0, 4}, {4, 7}}}};
  for (const auto& [n, threads, want] : cases) {
    ThreadPool pool(threads);
    bool inline_only = true;
    EXPECT_EQ(Chunks(&pool, n, &inline_only), want) << n << " on " << threads;
    EXPECT_FALSE(inline_only);
  }
}

TEST(ForEachChunkTest, OneChunkRunsInlineOnTheCaller) {
  ThreadPool one(1), four(4);
  for (auto [pool, n] : {std::pair<ThreadPool*, size_t>{nullptr, 17},
                         {&one, 17}, {&four, 1}}) {
    bool inline_only = false;
    EXPECT_EQ(Chunks(pool, n, &inline_only), (Bounds{{0, n}}));
    EXPECT_TRUE(inline_only);
  }
}

TEST(ForEachChunkTest, ZeroItemsRunsNothing) {
  ThreadPool pool(4);
  bool inline_only = false;
  EXPECT_TRUE(Chunks(&pool, 0, &inline_only).empty());
  EXPECT_TRUE(Chunks(nullptr, 0, &inline_only).empty());
}

TEST(ForEachChunkTest, RethrowsFirstExceptionAndPoolStaysUsable) {
  ThreadPool pool(4);
  std::atomic<int> finished{0};
  EXPECT_THROW(ForEachChunk(&pool, 8,
                            [&](size_t, size_t, size_t chunk) {
                              if (chunk == 2) throw std::runtime_error("2");
                              finished.fetch_add(1);
                            }),
               std::runtime_error);
  EXPECT_EQ(finished.load(), 3);  // The sibling chunks still ran.
  bool inline_only = true;
  EXPECT_EQ(Chunks(&pool, 4, &inline_only),
            (Bounds{{0, 1}, {1, 2}, {2, 3}, {3, 4}}));
}

TEST(ParallelEmbedTest, MatchesSerialEmbedding) {
  Rng rng(132);
  const auto corpus = testing::RandomCorpus(20, 5, 15, 800.0, &rng);
  BoundingBox region = BoundingBox::Empty();
  for (const auto& t : corpus) region.Extend(t.Bounds());
  NeuTrajConfig cfg = NeuTrajConfig::NeuTraj();
  cfg.embedding_dim = 8;
  cfg.scan_width = 1;
  NeuTrajModel model(cfg, Grid(region.Inflated(5.0), 100.0));
  Rng wr(1);
  model.InitializeWeights(&wr);

  const auto serial = model.EmbedAll(corpus);
  const auto parallel = model.EmbedAllParallel(corpus, 4);
  ASSERT_EQ(parallel.size(), serial.size());
  for (size_t i = 0; i < serial.size(); ++i) {
    for (size_t k = 0; k < serial[i].size(); ++k) {
      EXPECT_DOUBLE_EQ(parallel[i][k], serial[i][k]);
    }
  }
}

}  // namespace
}  // namespace neutraj
