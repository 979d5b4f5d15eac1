#include "util/thread_pool.h"

#include <chrono>

#include "util/fault.h"
#include "util/logging.h"

namespace aplus {

namespace {
// True while this thread is running inside a published ThreadPool job
// (as its caller or as a pool worker). A nested Run from such a thread
// would deadlock on job_mu_ (the outer job holds it until completion,
// which requires the nested caller to finish), so a nested job is not
// published and its caller claims every id itself.
thread_local bool tls_in_parallel_job = false;

// How long a caller spins on the join before it blocks: a worker that
// claimed an id of a microsecond-scale job usually reports back within
// this window, and a futex sleep/wake round trip costs more than it.
constexpr std::chrono::microseconds kJoinSpin{10};

inline void CpuRelax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}
}  // namespace

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

ThreadPool& ThreadPool::Global() {
  static ThreadPool pool;
  return pool;
}

void ThreadPool::EnsureThreadsLocked(int needed) {
  while (static_cast<int>(threads_.size()) < needed) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

int ThreadPool::Claim(uint64_t generation, int width) {
  const uint64_t tag = generation & 0xffffffffu;
  uint64_t cur = claim_.load(std::memory_order_relaxed);
  while ((cur >> 32) == tag && static_cast<int>(cur & 0xffffffffu) < width) {
    if (claim_.compare_exchange_weak(cur, cur + 1, std::memory_order_relaxed)) {
      return static_cast<int>(cur & 0xffffffffu);
    }
  }
  return width;
}

void ThreadPool::Run(int num_workers, JobFn fn, void* ctx) {
  // A nested job is never published (see tls_in_parallel_job). The fault
  // point exercises the same unpublished path from the top level: results
  // must match the truly parallel run.
  const bool publish =
      num_workers > 1 && !tls_in_parallel_job && !fault::ShouldFail(fault::kPoolDispatch);
  std::unique_lock<std::mutex> job_lock(job_mu_, std::defer_lock);
  uint64_t generation = 0;
  if (publish) {
    job_lock.lock();
    {
      std::lock_guard<std::mutex> lock(mu_);
      EnsureThreadsLocked(num_workers - 1);
      job_fn_ = fn;
      job_ctx_ = ctx;
      job_workers_ = num_workers;
      generation = ++generation_;
      claim_.store((generation << 32) | 1, std::memory_order_relaxed);
      unfinished_.store(num_workers, std::memory_order_relaxed);
    }
    for (int i = 1; i < num_workers; ++i) work_cv_.notify_one();
    tls_in_parallel_job = true;
  }
  // Caller-runs: id 0, then every id no worker has claimed yet.
  int ran = 0;
  for (int id = 0; id < num_workers; id = publish ? Claim(generation, num_workers) : id + 1) {
    fn(ctx, id);
    ++ran;
  }
  if (!publish) return;
  tls_in_parallel_job = false;
  // Join: wait only for ids a worker claimed, spinning briefly first.
  if (unfinished_.fetch_sub(ran, std::memory_order_acq_rel) == ran) return;
  const auto deadline = std::chrono::steady_clock::now() + kJoinSpin;
  while (unfinished_.load(std::memory_order_acquire) != 0) {
    if (std::chrono::steady_clock::now() >= deadline) {
      // The worker that finishes the last id takes mu_ before notifying,
      // so its decrement cannot slip between this predicate check and
      // the wait.
      std::unique_lock<std::mutex> lock(mu_);
      done_cv_.wait(lock, [this] { return unfinished_.load(std::memory_order_acquire) == 0; });
      return;
    }
    CpuRelax();
  }
}

void ThreadPool::WorkerLoop() {
  uint64_t seen_generation = 0;
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || generation_ != seen_generation; });
    if (stop_) return;
    seen_generation = generation_;
    JobFn fn = job_fn_;
    void* ctx = job_ctx_;
    int width = job_workers_;
    lock.unlock();
    // A worker that woke late (the caller already claimed every id, or a
    // later job replaced this one) claims nothing and never calls fn.
    int ran = 0;
    tls_in_parallel_job = true;
    for (int id; (id = Claim(seen_generation, width)) < width; ++ran) fn(ctx, id);
    tls_in_parallel_job = false;
    bool last = ran > 0 && unfinished_.fetch_sub(ran, std::memory_order_acq_rel) == ran;
    lock.lock();
    if (last) done_cv_.notify_one();
  }
}

}  // namespace aplus
