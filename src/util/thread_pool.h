#ifndef APLUS_UTIL_THREAD_POOL_H_
#define APLUS_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace aplus {

// A persistent worker pool for fork-join parallel regions (morsel-driven
// Plan::Execute, parallel aggregate merges). Workers are spawned lazily on
// first use and kept alive for the pool's lifetime, so a steady stream
// of ParallelRun calls performs no thread creation and no heap
// allocation: the dispatch path stores a plain function pointer plus a
// context pointer, never a std::function.
//
// Contract of ParallelRun(k, body):
//  - body(id) runs exactly once for each id in [0, k), and ParallelRun
//    returns only after every call has returned.
//  - Ids are claimed, never assigned. The calling thread runs id 0, then
//    claims and runs every id no pool worker has claimed yet, so any id
//    may run on the caller or on any worker, in any order, and several
//    ids may run one after another on one thread. ParallelRun(1, body)
//    is a direct call.
//  - A body must therefore never wait on another id's progress (a
//    barrier between ids, a hand-off from id 1 to id 0): the id it waits
//    for may be queued behind it on the same thread, which deadlocks.
//    Share work through claims instead (a morsel cursor), where any
//    thread finishing early takes what is left.
//  - One job runs at a time; ParallelRun calls from different threads
//    serialize on an internal mutex. A nested ParallelRun from inside a
//    body (e.g. a SinkOp callback executing a sub-plan) publishes
//    nothing: its caller claims every id itself.
//
// The caller waits only for workers that actually claimed an id; it
// spins for a few microseconds before blocking on the join. A job wakes
// at most k-1 sleeping workers, and a worker that wakes after the job
// has finished, or after a later job has started, finds no id to claim
// and goes back to sleep.
class ThreadPool {
 public:
  ThreadPool() = default;
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  // Runs body(worker_id) for worker_id in [0, num_workers) and blocks
  // until every worker returns. `body` must be callable as void(int) and
  // stays alive for the duration of the call (it is passed by reference,
  // not copied — no allocation).
  template <typename Body>
  void ParallelRun(int num_workers, Body&& body) {
    Run(num_workers,
        [](void* ctx, int id) { (*static_cast<std::remove_reference_t<Body>*>(ctx))(id); },
        &body);
  }

  // Process-wide pool shared by every Plan, grown on demand and joined
  // at exit.
  static ThreadPool& Global();

 private:
  using JobFn = void (*)(void* ctx, int worker_id);

  void Run(int num_workers, JobFn fn, void* ctx);
  void WorkerLoop();
  void EnsureThreadsLocked(int needed);
  // Claims the next unclaimed id of job `generation`; returns `width`
  // when that job has no id left or is no longer the current job.
  int Claim(uint64_t generation, int width);

  std::mutex job_mu_;  // serializes whole jobs across calling threads

  std::mutex mu_;  // guards everything below except the atomics
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> threads_;
  uint64_t generation_ = 0;  // bumped per published job; workers wake on change
  JobFn job_fn_ = nullptr;
  void* job_ctx_ = nullptr;
  int job_workers_ = 0;
  bool stop_ = false;
  // Low 32 bits of the current job's generation (high half) and its next
  // unclaimed id (low half), so a claim against a finished job fails.
  std::atomic<uint64_t> claim_{0};
  std::atomic<int> unfinished_{0};  // ids of the current job not yet returned
};

}  // namespace aplus

#endif  // APLUS_UTIL_THREAD_POOL_H_
