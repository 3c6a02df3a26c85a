// thread_pool, its for_each fan-out and parallel_for: lifecycle,
// wait_idle under concurrent submitters, the size floor, for_each's
// exact cover and task numbering, and the determinism contract the
// simulation drivers rely on (results depend on indices, never on thread
// count).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;

TEST(ThreadPool, SizeFloorOfOne) {
  // 0 means "hardware concurrency", which may itself report 0 -- the pool
  // must still come up with at least one worker or submits would hang.
  thread_pool automatic(0);
  EXPECT_GE(automatic.size(), 1u);
  thread_pool three(3);
  EXPECT_EQ(three.size(), 3u);
  thread_pool one(1);
  EXPECT_EQ(one.size(), 1u);
}

TEST(ThreadPool, WaitIdleDrainsAllTasks) {
  thread_pool pool(2);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 100);
  // The pool stays usable after an idle barrier.
  pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 101);
}

TEST(ThreadPool, WaitIdleUnderConcurrentSubmits) {
  // Several external threads feed the pool while the main thread blocks on
  // wait_idle: the barrier must neither deadlock nor miss work that was
  // already enqueued by the time the submitters were joined.
  thread_pool pool(3);
  std::atomic<int> counter{0};
  constexpr int kSubmitters = 4;
  constexpr int kTasksEach = 200;
  std::vector<std::thread> submitters;
  submitters.reserve(kSubmitters);
  for (int s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&pool, &counter] {
      for (int i = 0; i < kTasksEach; ++i) {
        pool.submit([&counter] { counter.fetch_add(1, std::memory_order_relaxed); });
      }
    });
  }
  // Interleave idle barriers with the ongoing submissions; each call must
  // return (in-flight work only ever drains) without losing tasks.
  pool.wait_idle();
  for (auto& t : submitters) t.join();
  pool.wait_idle();
  EXPECT_EQ(counter.load(), kSubmitters * kTasksEach);
}

TEST(ThreadPool, WaitIdleOnEmptyPoolReturnsImmediately) {
  thread_pool pool(2);
  pool.wait_idle();  // nothing submitted: must not block
  SUCCEED();
}

TEST(ThreadPool, RejectsEmptyTask) {
  thread_pool pool(1);
  EXPECT_THROW(pool.submit(nullptr), contract_error);
}

TEST(ForEach, RunsEveryIndexOnceOnATaskBelowMinOfSizeAndCount) {
  // Counts below, equal to and far above the pool's size.
  thread_pool pool(4);
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{9},
                                  std::size_t{5000}}) {
    const std::size_t tasks = std::min(pool.size(), count);
    std::vector<std::atomic<int>> hits(count);
    std::vector<std::size_t> task_of(count, tasks);
    pool.for_each(count, [&](std::size_t i, std::size_t task) {
      hits[i].fetch_add(1);
      task_of[i] = task;
    });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
      ASSERT_LT(task_of[i], tasks) << "index " << i << " of " << count;
    }
  }
}

TEST(ForEach, ZeroCountSubmitsNothing) {
  // The only worker is busy until released: for_each(0) must return
  // without calling the body, submitting a task or waiting for the pool.
  thread_pool pool(1);
  std::atomic<bool> release{false};
  pool.submit([&release] {
    while (!release.load()) std::this_thread::yield();
  });
  std::atomic<bool> called{false};
  auto call = std::async(std::launch::async, [&] {
    pool.for_each(0, [&called](std::size_t, std::size_t) { called = true; });
  });
  const bool returned = call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release = true;
  call.wait();
  pool.wait_idle();
  EXPECT_TRUE(returned) << "for_each(0) waited for unrelated work";
  EXPECT_FALSE(called.load());
}

TEST(ForEach, PoolStaysUsableAfterwards) {
  thread_pool pool(3);
  std::atomic<int> counter{0};
  for (int round = 0; round < 3; ++round) {
    pool.for_each(10, [&counter](std::size_t, std::size_t) { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 30);
  pool.submit([&counter] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 31);
}

TEST(ParallelFor, DeterministicAcrossThreadCounts) {
  // The drivers' contract: body(i) results depend only on i, so any thread
  // count -- including the inlined threads == 1 path -- fills identically.
  constexpr std::size_t kCount = 500;
  const auto fill = [](std::size_t threads) {
    std::vector<std::uint64_t> out(kCount, 0);
    parallel_for(kCount, threads, [&out](std::size_t i) { out[i] = derive_seed(123, i); });
    return out;
  };
  const auto t1 = fill(1);
  const auto t2 = fill(2);
  const auto t8 = fill(8);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  for (std::size_t i = 1; i < kCount; ++i) EXPECT_NE(t1[i], t1[0]);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{16}}) {
    std::vector<std::atomic<int>> hits(257);
    parallel_for(hits.size(), threads, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, SingleThreadRunsInOrder) {
  std::vector<std::size_t> order;
  parallel_for(10, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ParallelFor, EdgeCounts) {
  std::atomic<int> ran{0};
  parallel_for(0, 4, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 0);
  parallel_for(1, 4, [&ran](std::size_t) { ran.fetch_add(1); });
  EXPECT_EQ(ran.load(), 1);
  EXPECT_THROW(parallel_for(3, 2, nullptr), contract_error);
}

}  // namespace
