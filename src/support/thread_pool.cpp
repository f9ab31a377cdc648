#include "support/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/obs.h"

namespace fsopt {

namespace {

// Registered once; the obs::counter timeline samples stay alongside so
// traces still show the depth curve, while the metrics surface exposes
// the same number (plus a jobs-executed counter) to scrapes.
obs::Gauge& queue_depth_gauge() {
  static obs::Gauge& g = obs::metric_gauge("pool.queue_depth");
  return g;
}

// 0 = auto (FSOPT_THREADS env or hardware concurrency).
std::atomic<int> g_experiment_threads{0};
thread_local bool t_on_worker = false;

/// One parallel_for_each call: the next unclaimed index, the helper jobs
/// still running, and the first failure.  Shared with the jobs so it
/// outlives the caller's wake-up.
struct Batch {
  explicit Batch(size_t count) : n(count) {}
  const size_t n;
  std::atomic<size_t> next{0};
  std::mutex mu;
  std::condition_variable done_cv;
  int active = 0;
  std::exception_ptr error;
};

void run_batch(ThreadPool& pool, int width, size_t n,
               const std::function<void(size_t)>& body) {
  if (width <= 1 || n <= 1 || ThreadPool::on_worker()) {
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // One queue entry per helper, each draining the batch's atomic counter:
  // cheaper than n queue entries when n is large, and helpers finish the
  // moment indices run out.
  auto batch = std::make_shared<Batch>(n);
  int jobs = static_cast<int>(std::min<size_t>(n, static_cast<size_t>(width)));
  batch->active = jobs;
  for (int j = 0; j < jobs; ++j) {
    pool.submit([batch, &body] {
      try {
        for (size_t i = batch->next.fetch_add(1); i < batch->n;
             i = batch->next.fetch_add(1))
          body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(batch->mu);
        if (batch->error == nullptr) batch->error = std::current_exception();
        batch->next.store(batch->n);  // the other helpers stop claiming
      }
      std::lock_guard<std::mutex> lk(batch->mu);
      if (--batch->active == 0) batch->done_cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lk(batch->mu);
  batch->done_cv.wait(lk, [&] { return batch->active == 0; });
  if (batch->error != nullptr) std::rethrow_exception(batch->error);
}

}  // namespace

int default_thread_count() {
  if (const char* env = std::getenv("FSOPT_THREADS")) {
    long n = std::strtol(env, nullptr, 10);
    if (n >= 1) return static_cast<int>(n);
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void set_experiment_threads(int threads) {
  g_experiment_threads.store(threads < 0 ? 0 : threads);
}

int experiment_threads() {
  int n = g_experiment_threads.load();
  return n > 0 ? n : default_thread_count();
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_thread_count();
  workers_.reserve(static_cast<size_t>(threads));
  for (int i = 0; i < threads; ++i)
    workers_.emplace_back([this, i] {
      t_on_worker = true;
      // Named even while tracing is off: the workers outlive the moment
      // tracing is switched on.
      obs::set_thread_name("pool-worker-" + std::to_string(i));
      worker_loop();
    });
}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

bool ThreadPool::on_worker() { return t_on_worker; }

void ThreadPool::submit(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    FSOPT_CHECK(!stop_, "submit on a stopping ThreadPool");
    queue_.push_back(std::move(job));
    obs::counter("pool.queue_depth", static_cast<double>(queue_.size()));
    queue_depth_gauge().set(static_cast<double>(queue_.size()));
  }
  work_cv_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lk(mu_);
  idle_cv_.wait(lk, [this] { return queue_.empty() && running_ == 0; });
  if (first_error_ != nullptr) {
    std::exception_ptr e = first_error_;
    first_error_ = nullptr;
    std::rethrow_exception(e);
  }
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to run
      job = std::move(queue_.front());
      queue_.pop_front();
      obs::counter("pool.queue_depth", static_cast<double>(queue_.size()));
      queue_depth_gauge().set(static_cast<double>(queue_.size()));
      ++running_;
    }
    static obs::Counter& jobs = obs::metric_counter("pool.jobs");
    jobs.inc();
    std::exception_ptr error;
    try {
      obs::Span span("pool", "job");
      job();
    } catch (...) {
      error = std::current_exception();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      --running_;
      if (error != nullptr && first_error_ == nullptr) first_error_ = error;
      if (queue_.empty() && running_ == 0) idle_cv_.notify_all();
    }
  }
}

ThreadPool& shared_pool() {
  // Leaked on purpose: the workers stay parked until the process exits,
  // and no static destructor has to join them while the obs registry and
  // other statics are being torn down.
  static ThreadPool* pool = new ThreadPool(experiment_threads());
  return *pool;
}

void parallel_for_each(ThreadPool& pool, size_t n,
                       const std::function<void(size_t)>& body) {
  run_batch(pool, pool.size(), n, body);
}

void parallel_for_each(int threads, size_t n,
                       const std::function<void(size_t)>& body) {
  if (threads <= 0) threads = experiment_threads();
  if (threads <= 1) {  // serial callers never create the pool
    for (size_t i = 0; i < n; ++i) body(i);
    return;
  }
  ThreadPool& pool = shared_pool();
  run_batch(pool, std::min(threads, pool.size()), n, body);
}

}  // namespace fsopt
