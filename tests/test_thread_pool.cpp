// thread_pool, its for_each fan-out and parallel_for: the size floor,
// for_each's exact cover (alone, beside a busy helper and from
// concurrent callers), and the determinism contract the
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
  // must still come up with at least one worker, the calling thread.
  thread_pool automatic(0);
  EXPECT_GE(automatic.size(), 1u);
  thread_pool three(3);
  EXPECT_EQ(three.size(), 3u);
  thread_pool one(1);
  EXPECT_EQ(one.size(), 1u);
}

TEST(ForEach, RunsEveryIndexExactlyOnce) {
  // Counts below, equal to and far above the pool's size.
  thread_pool pool(4);
  for (const std::size_t count : {std::size_t{1}, std::size_t{3}, std::size_t{4}, std::size_t{9},
                                  std::size_t{5000}}) {
    std::vector<std::atomic<int>> hits(count);
    pool.for_each(count, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "index " << i << " of " << count;
    }
  }
}

TEST(ForEach, OneWorkerPoolRunsInOrderOnTheCaller) {
  thread_pool pool(1);
  const auto caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  pool.for_each(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST(ForEach, FinishesOnTheCallerWhileEveryHelperIsBusy) {
  // Another caller's fan-out holds the only helper until released: a
  // second for_each must not wait for it, but run every index itself, and
  // for_each(0) must return without calling its body.
  thread_pool pool(2);
  std::atomic<int> entered{0};
  std::atomic<bool> release{false};
  auto blocker = std::async(std::launch::async, [&] {
    pool.for_each(2, [&](std::size_t) {
      entered.fetch_add(1);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (entered.load() < 2) std::this_thread::yield();
  std::vector<std::atomic<int>> hits(5);
  std::atomic<bool> called{false};
  auto call = std::async(std::launch::async, [&] {
    pool.for_each(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
    pool.for_each(0, [&called](std::size_t) { called = true; });
  });
  const bool returned = call.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  release = true;
  call.wait();
  blocker.wait();
  EXPECT_TRUE(returned) << "for_each waited for a busy helper";
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  EXPECT_FALSE(called.load());
}

TEST(ForEach, ConcurrentCallersEachCoverTheirIndices) {
  // Several threads fan out on one pool at once: each fan-out covers its
  // own indices exactly once, and the pool stays usable afterwards.
  thread_pool pool(3);
  constexpr std::size_t kCallers = 4;
  constexpr std::size_t kCount = 200;
  std::vector<std::vector<std::atomic<int>>> hits(kCallers);
  for (auto& h : hits) h = std::vector<std::atomic<int>>(kCount);
  std::vector<std::thread> callers;
  callers.reserve(kCallers);
  for (std::size_t c = 0; c < kCallers; ++c) {
    callers.emplace_back([&pool, &hits, c] {
      for (int round = 0; round < 10; ++round) {
        pool.for_each(kCount, [&hits, c](std::size_t i) { hits[c][i].fetch_add(1); });
      }
    });
  }
  for (auto& t : callers) t.join();
  for (std::size_t c = 0; c < kCallers; ++c) {
    for (std::size_t i = 0; i < kCount; ++i) {
      ASSERT_EQ(hits[c][i].load(), 10) << "caller " << c << " index " << i;
    }
  }
  std::atomic<int> counter{0};
  pool.for_each(10, [&counter](std::size_t) { counter.fetch_add(1); });
  EXPECT_EQ(counter.load(), 10);
}

TEST(ParallelFor, DeterministicAcrossThreadCounts) {
  // The drivers' contract: body(i) results depend only on i, so any thread
  // count -- including threads == 1, which starts no thread -- fills identically.
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
