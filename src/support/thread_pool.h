// Fixed-size thread pool for the experiment harness, and the one
// process-wide pool every parallel_for_each(int threads, …) call shares.
//
// The replay/sweep layers (driver/experiment.h) and the plan search
// (transform/search.h) fan independent jobs — cache replays of a
// recorded trace, compile+run timing jobs, candidate-plan scorings —
// across a small pool of workers.  Jobs are plain std::function<void()>;
// the pool makes no ordering guarantees, so callers that need
// deterministic output must write each job's result to its own
// pre-allocated slot and combine the slots in a fixed order afterwards
// (see parallel_for_each).
//
// One pool per process: the shared pool is created on the first parallel
// call, sized by experiment_threads(), and never torn down, so a run
// starts its workers once instead of once per call.  A parallel_for_each
// issued from inside a pool worker runs inline on that worker: the
// outer call already occupies the pool's width, so nesting neither
// oversubscribes the CPUs nor waits on jobs queued behind itself, and the
// results are unchanged because they land in per-index slots either way.
#pragma once

#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "support/common.h"

namespace fsopt {

/// Worker threads to use when a caller passes 0: the FSOPT_THREADS
/// environment variable if set (>= 1), else the hardware concurrency.
int default_thread_count();

/// Process-wide parallelism knob for the harness (replays, sweeps,
/// search scoring) and the size of the shared pool:
///   0  = auto: FSOPT_THREADS env var if set, else hardware concurrency;
///   1  = serial;
///   N  = at most N worker threads.
/// Results never depend on this — only wall-clock does.  The shared pool
/// takes its size from the value at its first use; a later, larger
/// setting caps call widths but does not grow the pool.
void set_experiment_threads(int threads);
int experiment_threads();

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 = default_thread_count()).
  explicit ThreadPool(int threads = 0);
  /// Drains the queue, then joins the workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int size() const { return static_cast<int>(workers_.size()); }

  /// Enqueue one job.  Jobs may submit further jobs.
  void submit(std::function<void()> job);

  /// Block until every submitted job has finished.  If any job threw, the
  /// first exception (in completion order) is rethrown here; the rest are
  /// discarded.  The pool stays usable after wait().
  void wait();

  /// True on a thread that is a worker of any ThreadPool.
  static bool on_worker();

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable work_cv_;   // workers: queue non-empty or stop
  std::condition_variable idle_cv_;   // wait(): queue empty and none running
  size_t running_ = 0;
  bool stop_ = false;
  std::exception_ptr first_error_;
};

/// The process-wide pool, created with experiment_threads() workers on
/// first use and kept for the life of the process.
ThreadPool& shared_pool();

/// Run body(0..n-1), each index exactly once, across the pool's workers.
/// Blocks until this call's indices are done (other callers' jobs on the
/// same pool are not waited for); if a body throws, the remaining
/// unclaimed indices are skipped and the first failure is rethrown.  The
/// body must not assume any index ordering — write results into
/// per-index slots for deterministic aggregation.  Called from a pool
/// worker, it runs inline.
void parallel_for_each(ThreadPool& pool, size_t n,
                       const std::function<void(size_t)>& body);

/// The harness entry point: at most min(threads, n) of the shared pool's
/// workers.  `threads <= 1`, `n <= 1` or a call from a pool worker runs
/// inline serially — bit-identical to the pooled path for well-formed
/// bodies.  threads == 0 means experiment_threads().
void parallel_for_each(int threads, size_t n,
                       const std::function<void(size_t)>& body);

}  // namespace fsopt
