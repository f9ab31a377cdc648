// Tests for the experiment harness's fixed-size thread pool and the
// process-wide pool that parallel_for_each shares.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <set>
#include <thread>

#include "obs/obs.h"
#include "support/thread_pool.h"

namespace fsopt {
namespace {

TEST(ThreadPool, RunsEverySubmittedJob) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, WaitIsReusable) {
  ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
  pool.submit([&count] { ++count; });
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 3);
}

TEST(ThreadPool, WaitRethrowsFirstJobError) {
  ThreadPool pool(2);
  pool.submit([] { throw InternalError("job failed"); });
  EXPECT_THROW(pool.wait(), InternalError);
  // The pool stays usable after a failed job.
  std::atomic<int> count{0};
  pool.submit([&count] { ++count; });
  pool.wait();
  EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForEach, CoversEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 5}) {
    std::vector<std::atomic<int>> hits(57);
    parallel_for_each(threads, hits.size(),
                      [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i)
      EXPECT_EQ(hits[i].load(), 1) << "threads=" << threads << " i=" << i;
  }
}

TEST(ParallelForEach, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> hits(3);
  parallel_for_each(16, hits.size(), [&](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ParallelForEach, ZeroItemsIsANoop) {
  parallel_for_each(4, 0, [](size_t) { FAIL() << "body must not run"; });
}

TEST(ParallelForEach, SerialPathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_each(1, 3,
                        [](size_t i) {
                          if (i == 1) throw InternalError("boom");
                        }),
      InternalError);
}

TEST(ParallelForEach, PooledPathPropagatesExceptions) {
  EXPECT_THROW(
      parallel_for_each(4, 8,
                        [](size_t i) {
                          if (i == 3) throw InternalError("boom");
                        }),
      InternalError);
}

TEST(ParallelForEach, PoolOverloadDrainsSharedCounter) {
  ThreadPool pool(3);
  std::atomic<int> count{0};
  parallel_for_each(pool, 41, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 41);
}

// A parallel_for_each issued from a pool worker runs inline on that
// worker, and fills the same slots as a fully serial run.
TEST(ParallelForEach, NestedCallRunsInlineWithSameSlots) {
  constexpr size_t kOuter = 8, kInner = 16;
  auto fill = [&](int threads) {
    std::vector<std::vector<size_t>> slots(kOuter,
                                           std::vector<size_t>(kInner, 0));
    std::vector<int> inline_ok(kOuter, 0);
    parallel_for_each(threads, kOuter, [&](size_t o) {
      const std::thread::id outer = std::this_thread::get_id();
      const bool on_worker = ThreadPool::on_worker();
      bool same_thread = true;
      parallel_for_each(threads, kInner, [&](size_t i) {
        same_thread = same_thread && std::this_thread::get_id() == outer;
        slots[o][i] = o * 1000 + i * i;
      });
      inline_ok[o] = same_thread && (threads == 1 || on_worker ||
                                     shared_pool().size() == 1);
    });
    for (size_t o = 0; o < kOuter; ++o)
      EXPECT_TRUE(inline_ok[o]) << "threads=" << threads << " o=" << o;
    return slots;
  };
  std::vector<std::vector<size_t>> serial = fill(1);
  EXPECT_EQ(fill(4), serial);
  EXPECT_EQ(fill(0), serial);
}

TEST(ParallelForEach, NestedExceptionsPropagate) {
  EXPECT_THROW(parallel_for_each(4, 6,
                                 [](size_t o) {
                                   parallel_for_each(4, 5, [o](size_t i) {
                                     if (o == 2 && i == 3)
                                       throw InternalError("inner boom");
                                   });
                                 }),
               InternalError);
  // The shared pool is still usable afterwards.
  std::atomic<int> count{0};
  parallel_for_each(4, 9, [&](size_t) { ++count; });
  EXPECT_EQ(count.load(), 9);
}

// The process-wide pool is created once, on the first parallel call, and
// every later call reuses its workers instead of starting new threads.
// The trace recorder gives every thread its own id, never reused, so the
// threads that ran pool jobs over many calls can be counted.
TEST(SharedPool, CreatedOnceAndReused) {
  parallel_for_each(4, 32, [](size_t) {});
  ThreadPool& pool = shared_pool();
  obs::set_enabled(true);
  obs::reset();
  for (int k = 0; k < 20; ++k) {
    std::vector<std::atomic<int>> hits(32);
    parallel_for_each(4, hits.size(), [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
  }
  obs::TraceData data = obs::collect();
  obs::set_enabled(false);
  obs::reset();
  std::set<u32> job_threads;
  for (const obs::ThreadLog& t : data.threads)
    for (const obs::SpanEvent& sp : t.spans)
      if (std::string_view(sp.category) == "pool") job_threads.insert(t.tid);
  EXPECT_EQ(&shared_pool(), &pool);
  EXPECT_LE(job_threads.size(), static_cast<size_t>(pool.size()));
  if (pool.size() > 1) {
    EXPECT_GE(job_threads.size(), 1u);
  }
}

// Two threads outside the pool may share it at once; each call waits for
// its own indices only and sees only its own failures.
TEST(SharedPool, ConcurrentCallersEachCompleteTheirOwnWork) {
  std::vector<std::atomic<int>> a(200), b(200);
  std::thread other([&] {
    for (int k = 0; k < 10; ++k)
      parallel_for_each(4, b.size(), [&](size_t i) { ++b[i]; });
  });
  for (int k = 0; k < 10; ++k) {
    parallel_for_each(4, a.size(), [&](size_t i) { ++a[i]; });
    EXPECT_THROW(parallel_for_each(4, 8,
                                   [](size_t i) {
                                     if (i == 5) throw InternalError("boom");
                                   }),
                 InternalError);
  }
  other.join();
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].load(), 10);
    EXPECT_EQ(b[i].load(), 10);
  }
}

TEST(DefaultThreadCount, HonoursEnvOverride) {
  ASSERT_EQ(setenv("FSOPT_THREADS", "3", 1), 0);
  EXPECT_EQ(default_thread_count(), 3);
  ASSERT_EQ(setenv("FSOPT_THREADS", "bogus", 1), 0);
  EXPECT_GE(default_thread_count(), 1);  // falls back to hardware
  ASSERT_EQ(unsetenv("FSOPT_THREADS"), 0);
  EXPECT_GE(default_thread_count(), 1);
}

}  // namespace
}  // namespace fsopt
