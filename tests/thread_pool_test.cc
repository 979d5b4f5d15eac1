// ThreadPool fork-join contract: every id of a ParallelRun runs exactly
// once, on whichever thread claims it first, and ParallelRun returns only
// after all of them have. These tests drive the claim/join protocol
// through its awkward timings (workers asleep, waking late, the pool
// outgrowing a job, several callers, nested jobs) and guard against lost
// wake-ups with a long run of tiny jobs under the CTest timeout.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "util/fault.h"
#include "util/thread_pool.h"

namespace aplus {
namespace {

// Per-job tally: how often each id ran and whether any id was out of range.
struct Tally {
  explicit Tally(int width) : width(width), runs(new std::atomic<int>[width]) {
    for (int i = 0; i < width; ++i) runs[i].store(0);
  }
  void Hit(int id) {
    if (id < 0 || id >= width) {
      out_of_range.fetch_add(1);
      return;
    }
    runs[id].fetch_add(1);
  }
  bool EachOnce() const {
    if (out_of_range.load() != 0) return false;
    for (int i = 0; i < width; ++i) {
      if (runs[i].load() != 1) return false;
    }
    return true;
  }

  int width;
  std::unique_ptr<std::atomic<int>[]> runs;
  std::atomic<int> out_of_range{0};
};

void SleepMs(int ms) { std::this_thread::sleep_for(std::chrono::milliseconds(ms)); }

TEST(ThreadPoolTest, WidthOneIsADirectCall) {
  ThreadPool pool;
  std::thread::id ran_on;
  int runs = 0;
  pool.ParallelRun(1, [&](int id) {
    EXPECT_EQ(id, 0);
    ran_on = std::this_thread::get_id();
    ++runs;
  });
  EXPECT_EQ(runs, 1);
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

// Id 0 returns at once, so the caller claims the other ids while the
// workers are still waking (or asleep): nothing may run twice or be lost.
TEST(ThreadPoolTest, EveryIdOnceWhileWorkersSleep) {
  ThreadPool pool;
  for (int rep = 0; rep < 200; ++rep) {
    int width = 2 + rep % 7;
    if (rep % 20 == 0) SleepMs(2);  // let the workers park
    Tally tally(width);
    pool.ParallelRun(width, [&](int id) { tally.Hit(id); });
    ASSERT_TRUE(tally.EachOnce()) << "rep " << rep << " width " << width;
  }
}

// Slow non-zero ids: the caller finishes id 0 first and must wait for
// every id a worker claimed, running the unclaimed ones itself.
TEST(ThreadPoolTest, EveryIdOnceWhenOtherIdsAreSlow) {
  ThreadPool pool;
  for (int rep = 0; rep < 20; ++rep) {
    int width = 2 + rep % 3;
    Tally tally(width);
    pool.ParallelRun(width, [&](int id) {
      if (id >= 1) SleepMs(1);
      tally.Hit(id);
    });
    ASSERT_TRUE(tally.EachOnce()) << "rep " << rep << " width " << width;
  }
}

// Lost-wakeup guard: a missed notification on either side of the join
// hangs this loop, which the CTest timeout turns into a failure.
TEST(ThreadPoolTest, ManyTinyJobsFinish) {
  ThreadPool pool;
  constexpr int kJobs = 100000;
  std::atomic<int64_t> total{0};
  for (int job = 0; job < kJobs; ++job) {
    pool.ParallelRun(2, [&](int id) { total.fetch_add(id + 1, std::memory_order_relaxed); });
  }
  EXPECT_EQ(total.load(), int64_t{3} * kJobs);
}

TEST(ThreadPoolTest, ConcurrentCallers) {
  ThreadPool pool;
  constexpr int kCallers = 4;
  constexpr int kJobsPerCaller = 2000;
  std::atomic<int> bad_jobs{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int job = 0; job < kJobsPerCaller; ++job) {
        int width = 2 + (c + job) % 3;
        Tally tally(width);
        pool.ParallelRun(width, [&](int id) { tally.Hit(id); });
        if (!tally.EachOnce()) bad_jobs.fetch_add(1);
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad_jobs.load(), 0);
}

// After an 8-wide job the pool keeps 7 workers; narrower jobs afterwards
// must never hand a surplus worker an id at or beyond their width.
TEST(ThreadPoolTest, WidthGrowthNeverRunsSurplusIds) {
  ThreadPool pool;
  for (int width : {2, 8, 2, 3, 8, 2}) {
    for (int rep = 0; rep < 500; ++rep) {
      Tally tally(width);
      pool.ParallelRun(width, [&](int id) { tally.Hit(id); });
      ASSERT_EQ(tally.out_of_range.load(), 0) << "width " << width;
      ASSERT_TRUE(tally.EachOnce()) << "width " << width << " rep " << rep;
    }
  }
}

// A ParallelRun from inside a job publishes nothing: the thread running
// the outer id claims every inner id itself.
TEST(ThreadPoolTest, NestedRunIsClaimedByItsCaller) {
  ThreadPool pool;
  constexpr int kOuter = 3;
  constexpr int kInner = 4;
  std::atomic<int> inner_runs[kOuter][kInner] = {};
  std::atomic<int> off_thread{0};
  pool.ParallelRun(kOuter, [&](int outer) {
    std::thread::id me = std::this_thread::get_id();
    pool.ParallelRun(kInner, [&](int inner) {
      inner_runs[outer][inner].fetch_add(1);
      if (std::this_thread::get_id() != me) off_thread.fetch_add(1);
    });
  });
  for (int o = 0; o < kOuter; ++o) {
    for (int i = 0; i < kInner; ++i) EXPECT_EQ(inner_runs[o][i].load(), 1) << o << "/" << i;
  }
  EXPECT_EQ(off_thread.load(), 0);
}

// The pool_dispatch fault point takes the same unpublished path from the
// top level: every id still runs once, all on the caller.
TEST(ThreadPoolTest, DispatchFaultRunsEveryIdOnTheCaller) {
  ThreadPool pool;
  ASSERT_TRUE(fault::SetSpec("pool_dispatch"));
  Tally tally(4);
  std::atomic<int> off_thread{0};
  std::thread::id me = std::this_thread::get_id();
  pool.ParallelRun(4, [&](int id) {
    tally.Hit(id);
    if (std::this_thread::get_id() != me) off_thread.fetch_add(1);
  });
  uint64_t hits = fault::Hits(fault::kPoolDispatch);
  fault::Clear();
  EXPECT_TRUE(tally.EachOnce());
  EXPECT_EQ(off_thread.load(), 0);
  EXPECT_GE(hits, 1u);
}

// Caller-runs must not cost parallelism: while id 0 is busy, a woken
// worker claims another id. Retried, since a loaded host may delay the
// wake-up past id 0's sleep once in a while.
TEST(ThreadPoolTest, SlowIdZeroLeavesWorkForWorkers) {
  if (std::thread::hardware_concurrency() < 2) GTEST_SKIP() << "single-core host";
  ThreadPool pool;
  bool ran_off_caller = false;
  for (int attempt = 0; attempt < 10 && !ran_off_caller; ++attempt) {
    std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> off_thread{0};
    pool.ParallelRun(2, [&](int id) {
      if (id == 0) SleepMs(20);
      if (std::this_thread::get_id() != caller) off_thread.fetch_add(1);
    });
    ran_off_caller = off_thread.load() > 0;
  }
  EXPECT_TRUE(ran_off_caller);
}

}  // namespace
}  // namespace aplus
