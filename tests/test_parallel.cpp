// Unit tests for the parallel runtime: pool fork-join, parallel_for/reduce,
// the work-stealing task scheduler, and the interrupt latch of ExecContext.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <numeric>

#include "parallel/exec_context.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "util/fault.hpp"

namespace {

using lotus::parallel::ThreadPool;
using lotus::parallel::WorkStealingScheduler;

TEST(ExecContext, LatchesTheFirstInterruptAcrossATokenReset) {
  // A re-armed token must not hide a cancellation the run already acted on:
  // the post-run check reads the latch, not the token's current flag.
  lotus::util::CancelToken token;
  lotus::parallel::ExecContext ctx;
  ctx.cancel = &token;
  lotus::parallel::ScopedExecContext scoped(&ctx);
  EXPECT_EQ(lotus::parallel::check_interrupt(), lotus::parallel::Interrupt::kNone);
  token.cancel();
  EXPECT_EQ(lotus::parallel::check_interrupt(),
            lotus::parallel::Interrupt::kCancelled);
  token.reset();
  EXPECT_EQ(lotus::parallel::check_interrupt(),
            lotus::parallel::Interrupt::kCancelled);
  EXPECT_EQ(lotus::parallel::check_interrupt(&ctx),
            lotus::parallel::Interrupt::kCancelled);
}

TEST(ThreadPool, ExecuteRunsOncePerThread) {
  ThreadPool pool(4);
  std::atomic<unsigned> calls{0};
  std::atomic<unsigned> mask{0};
  pool.execute([&](unsigned t) {
    calls.fetch_add(1);
    mask.fetch_or(1u << t);
  });
  EXPECT_EQ(calls.load(), 4u);
  EXPECT_EQ(mask.load(), 0b1111u);
}

TEST(ThreadPool, ReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> sum{0};
    pool.execute([&](unsigned t) { sum.fetch_add(static_cast<int>(t) + 1); });
    ASSERT_EQ(sum.load(), 1 + 2 + 3);
  }
}

TEST(ThreadPool, SingleThreadPoolRunsInline) {
  ThreadPool pool(1);
  bool ran = false;
  pool.execute([&](unsigned t) {
    EXPECT_EQ(t, 0u);
    ran = true;
  });
  EXPECT_TRUE(ran);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::uint64_t kN = 100000;
  std::vector<std::atomic<int>> hits(kN);
  lotus::parallel::parallel_for(0, kN, 64,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  bool called = false;
  lotus::parallel::parallel_for(5, 5, 1,
      [&](unsigned, std::uint64_t, std::uint64_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ParallelFor, ZeroGrainIsSafe) {
  std::atomic<std::uint64_t> sum{0};
  lotus::parallel::parallel_for(0, 100, 0,
      [&](unsigned, std::uint64_t b, std::uint64_t e) {
        for (std::uint64_t i = b; i < e; ++i) sum.fetch_add(i);
      });
  EXPECT_EQ(sum.load(), 99ull * 100 / 2);
}

TEST(ParallelReduce, MatchesSerialSum) {
  constexpr std::uint64_t kN = 1 << 18;
  const auto total = lotus::parallel::parallel_reduce_add<std::uint64_t>(
      0, kN, 128, [](std::uint64_t i) { return i * 3 + 1; });
  std::uint64_t expected = 0;
  for (std::uint64_t i = 0; i < kN; ++i) expected += i * 3 + 1;
  EXPECT_EQ(total, expected);
}

TEST(WorkStealing, RunsAllTasks) {
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  constexpr std::size_t kTasks = 500;
  std::vector<std::atomic<int>> done(kTasks);
  std::vector<WorkStealingScheduler::Task> tasks;
  for (std::size_t i = 0; i < kTasks; ++i)
    tasks.emplace_back([&done, i](unsigned) { done[i].fetch_add(1); });
  const auto busy = scheduler.run(std::move(tasks));
  EXPECT_EQ(busy.size(), 4u);
  for (std::size_t i = 0; i < kTasks; ++i) ASSERT_EQ(done[i].load(), 1) << i;
}

TEST(WorkStealing, SkewedTasksGetStolen) {
  // One huge task plus many small ones: with stealing, small tasks must not
  // all wait behind the big one on its home thread.
  ThreadPool pool(4);
  WorkStealingScheduler scheduler(pool);
  std::atomic<std::uint64_t> work{0};
  std::vector<WorkStealingScheduler::Task> tasks;
  tasks.emplace_back([&](unsigned) {
    volatile std::uint64_t x = 0;
    for (std::uint64_t i = 0; i < 20'000'000; ++i) x += i;
    work.fetch_add(1);
  });
  for (int i = 0; i < 100; ++i)
    tasks.emplace_back([&](unsigned) { work.fetch_add(1); });
  const auto busy = scheduler.run(std::move(tasks));
  EXPECT_EQ(work.load(), 101u);
  // Busy time must be recorded for the thread that ran the big task.
  EXPECT_GT(*std::max_element(busy.begin(), busy.end()), 0.0);
}

TEST(WorkStealing, EmptyTaskListReturnsImmediately) {
  ThreadPool pool(2);
  WorkStealingScheduler scheduler(pool);
  const auto busy = scheduler.run({});
  EXPECT_EQ(busy.size(), 2u);
}

class BackendGuard {
 public:
  explicit BackendGuard(lotus::parallel::Backend b) { lotus::parallel::set_backend(b); }
  ~BackendGuard() { lotus::parallel::set_backend(lotus::parallel::Backend::kPool); }
};

TEST(OpenMPBackend, ParallelForCoversRange) {
  BackendGuard guard(lotus::parallel::Backend::kOpenMP);
  constexpr std::uint64_t kN = 50000;
  std::vector<std::atomic<int>> hits(kN);
  lotus::parallel::parallel_for(0, kN, 64,
      [&](unsigned t, std::uint64_t b, std::uint64_t e) {
        ASSERT_LT(t, lotus::parallel::max_parallelism());
        for (std::uint64_t i = b; i < e; ++i) hits[i].fetch_add(1);
      });
  for (std::uint64_t i = 0; i < kN; ++i) ASSERT_EQ(hits[i].load(), 1) << i;
}

TEST(OpenMPBackend, ReduceMatchesPoolBackend) {
  const auto body = [](std::uint64_t i) { return i * i; };
  std::uint64_t pool_sum = 0, omp_sum = 0;
  {
    BackendGuard guard(lotus::parallel::Backend::kPool);
    pool_sum = lotus::parallel::parallel_reduce_add<std::uint64_t>(0, 100000, 128, body);
  }
  {
    BackendGuard guard(lotus::parallel::Backend::kOpenMP);
    omp_sum = lotus::parallel::parallel_reduce_add<std::uint64_t>(0, 100000, 128, body);
  }
  EXPECT_EQ(pool_sum, omp_sum);
}

TEST(DefaultPool, RespectsThreadOverride) {
  lotus::parallel::set_num_threads(3);
  EXPECT_EQ(lotus::parallel::num_threads(), 3u);
  lotus::parallel::set_num_threads(0);  // back to hardware default
  EXPECT_GE(lotus::parallel::num_threads(), 1u);
}

TEST(Backend, SetBackendReportsAvailability) {
  // Selecting the pool always succeeds; selecting OpenMP succeeds exactly
  // when it is compiled in — and on failure the pool stays active instead of
  // a silent pretend-switch.
  EXPECT_TRUE(lotus::parallel::set_backend(lotus::parallel::Backend::kPool));
  const bool switched =
      lotus::parallel::set_backend(lotus::parallel::Backend::kOpenMP);
  EXPECT_EQ(switched, lotus::parallel::openmp_available());
  if (switched) {
    EXPECT_EQ(lotus::parallel::backend(), lotus::parallel::Backend::kOpenMP);
  } else {
    EXPECT_EQ(lotus::parallel::backend(), lotus::parallel::Backend::kPool);
  }
  EXPECT_TRUE(lotus::parallel::set_backend(lotus::parallel::Backend::kPool));
}

TEST(Backend, MaxParallelismBoundsThreadIndicesUnderBothBackends) {
  // Whatever the backend and pool size, every thread index parallel_for
  // hands to its body must be < max_parallelism() — per-thread accumulator
  // arrays are sized with it (parallel_reduce_add, kernels, analytics).
  for (const auto backend :
       {lotus::parallel::Backend::kPool, lotus::parallel::Backend::kOpenMP}) {
    if (backend == lotus::parallel::Backend::kOpenMP &&
        !lotus::parallel::openmp_available())
      continue;
    for (const unsigned threads : {1u, 2u, 5u}) {
      lotus::parallel::set_num_threads(threads);
      ASSERT_TRUE(lotus::parallel::set_backend(backend));
      const unsigned bound = lotus::parallel::max_parallelism();
      ASSERT_GE(bound, 1u);
      std::atomic<unsigned> max_seen{0};
      lotus::parallel::parallel_for(0, 20000, 16,
          [&](unsigned t, std::uint64_t, std::uint64_t) {
            unsigned prev = max_seen.load();
            while (t > prev && !max_seen.compare_exchange_weak(prev, t)) {
            }
          });
      EXPECT_LT(max_seen.load(), bound)
          << "backend="
          << (backend == lotus::parallel::Backend::kPool ? "pool" : "openmp")
          << " threads=" << threads;
    }
  }
  lotus::parallel::set_backend(lotus::parallel::Backend::kPool);
  lotus::parallel::set_num_threads(0);
}

TEST(ThreadPool, SurvivesThreadSpawnFailure) {
  // Every std::thread construction fails (thread_spawn fault site): the pool
  // must come up with just the inline master thread and still work.
  namespace fault = lotus::util::fault;
  {
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kThreadSpawn, 1.0));
    lotus::parallel::ThreadPool pool(8);
    EXPECT_EQ(pool.size(), 1u);
    std::atomic<unsigned> runs{0};
    pool.execute([&](unsigned) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), 1u);
  }
  {
    // Only some spawns fail: the pool keeps the threads that did start and
    // reports the actual concurrency, and execute still runs once per thread.
    fault::ScopedFaultPlan plan(
        fault::single_site_plan(fault::Site::kThreadSpawn, 0.5, 3));
    lotus::parallel::ThreadPool pool(8);
    EXPECT_GE(pool.size(), 1u);
    EXPECT_LE(pool.size(), 8u);
    std::atomic<unsigned> runs{0};
    pool.execute([&](unsigned) { runs.fetch_add(1); });
    EXPECT_EQ(runs.load(), pool.size());
  }
}

TEST(ThreadPool, SpawnFailurePoolStillCountsCorrectly) {
  namespace fault = lotus::util::fault;
  fault::ScopedFaultPlan plan(
      fault::single_site_plan(fault::Site::kThreadSpawn, 1.0));
  lotus::parallel::ThreadPool pool(4);
  ASSERT_EQ(pool.size(), 1u);
  // A strided sum over the degraded pool covers the range exactly once:
  // thread t takes indices t, t+size, ... — with one thread, all of them.
  constexpr unsigned kN = 257;
  std::atomic<std::uint64_t> sum{0};
  pool.execute([&](unsigned t) {
    std::uint64_t local = 0;
    for (unsigned i = t; i < kN; i += pool.size()) local += i;
    sum.fetch_add(local);
  });
  EXPECT_EQ(sum.load(), static_cast<std::uint64_t>(kN) * (kN - 1) / 2);
}

}  // namespace
