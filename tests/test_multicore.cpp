// Multicore scaling correctness: the determinism contracts that make the
// scaling bench matrix trustworthy --
//   (1) the shard engine is bit-identical for ANY thread count, including
//       oversubscribed counts far past hardware_concurrency,
//   (2) the work-stealing campaign scheduler emits byte-identical
//       aggregate JSON for any worker count,
//   (3) per-index RNG streams are independent of the executing thread
//       (same seed on concurrent threads => same stream; distinct shard
//       seeds => distinct streams),
// plus the supporting machinery: the work-stealing chunk distributor,
// oversubscription diagnostics, host detection and the perf-counter
// wrapper's graceful fallback.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "test_support.hpp"
#include "util/host_info.hpp"
#include "util/perf_counters.hpp"

namespace {

using namespace nb;

// ---------------------------------------------------------------------------
// (1) Shard engine: bit-invariance across 1/2/4/8/16 threads, including
// counts well past this machine's cores (oversubscription time-slices but
// must not perturb sampling).

std::vector<load_t> engine_loads(std::size_t threads, std::uint64_t seed) {
  const bin_count n = 8192;
  b_batch process(n, n);
  rng_t rng(seed);
  shard_engine engine(shard_options{.threads = threads, .shards = 16, .min_window = 1});
  engine.step_many(process, rng, 8 * static_cast<step_count>(n));
  return process.state().loads();
}

TEST(Multicore, ShardEngineBitIdenticalUpToSixteenThreads) {
  const auto reference = engine_loads(1, 2026);
  EXPECT_EQ(nb::testing::total_balls(reference), 8 * 8192);
  for (const std::size_t threads : {2, 4, 8, 16}) {
    EXPECT_EQ(engine_loads(threads, 2026), reference) << "threads = " << threads;
  }
  EXPECT_NE(engine_loads(16, 2027), reference);  // the engine is not inert
}

// ---------------------------------------------------------------------------
// (2) Campaign scheduler: work stealing reorders execution only -- the
// aggregate JSON is byte-identical for any worker count.

std::string campaign_json(std::size_t workers) {
  const bin_count n = 2048;
  std::vector<campaign_config> configs;
  for (int c = 0; c < 6; ++c) {
    campaign_config cfg;
    cfg.label = (c % 2 == 0 ? "b-batch-" : "two-choice-zipf-") + std::to_string(c);
    cfg.m = 4 * static_cast<step_count>(n);
    if (c % 2 == 0) {
      cfg.factory = [n] { return any_process(b_batch(n, n)); };
    } else {
      // Heterogeneous cell mix on purpose: fused zipf cells run at a very
      // different rate than kernel b-batch cells, so stealing actually
      // rebalances instead of degenerating to the fixed hand-out order.
      cfg.factory = [n] {
        two_choice p(n);
        p.set_model(make_model("unit", "zipf:1", n));
        return any_process(std::move(p));
      };
    }
    configs.push_back(std::move(cfg));
  }
  campaign_options opt;
  opt.repeats = 3;
  opt.seed = 77;
  opt.threads = workers;
  opt.engine.use_kernel = true;
  opt.engine.lanes = 8;
  return run_campaign(configs, opt).to_json();
}

TEST(Multicore, CampaignJsonByteIdenticalAcrossWorkerCounts) {
  const std::string reference = campaign_json(1);
  EXPECT_FALSE(reference.empty());
  for (const std::size_t workers : {2, 4, 8, 16}) {
    EXPECT_EQ(campaign_json(workers), reference) << "workers = " << workers;
  }
}

// ---------------------------------------------------------------------------
// (3) Per-thread generator independence (the Katana property): streams are
// a function of the seed alone, never of which thread advances them, and
// the shard seeding scheme hands distinct shards distinct streams.

TEST(Multicore, SameSeedStreamsIdenticalAcrossConcurrentThreads) {
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kDraws = 4096;
  std::vector<std::vector<std::uint64_t>> draws(kThreads, std::vector<std::uint64_t>(kDraws));
  std::atomic<int> go{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      rng_t rng(31337);  // every thread: the SAME seed
      go.fetch_add(1);
      while (go.load() < static_cast<int>(kThreads)) {
      }  // maximize overlap
      for (std::size_t i = 0; i < kDraws; ++i) draws[t][i] = rng.next();
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t t = 1; t < kThreads; ++t) {
    EXPECT_EQ(draws[t], draws[0]) << "thread-local stream diverged on thread " << t;
  }
}

TEST(Multicore, DistinctShardSeedsGiveDistinctStreams) {
  const std::uint64_t token = 9001;
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 32; ++s) {
    rng_t rng(shard_stream_seed(token, s));
    firsts.push_back(rng.next());
  }
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

// ---------------------------------------------------------------------------
// Oversubscription diagnostics.

TEST(Multicore, OversubscriptionWarnsOnceAndOnlyWhenOver) {
  // One worker can never oversubscribe (hardware_concurrency floor is 1).
  EXPECT_FALSE(warn_if_oversubscribed(1, "test/never"));
  EXPECT_FALSE(warned("oversubscribed/test/never"));
  // 4096 workers exceeds any build machine we target.
  EXPECT_TRUE(warn_if_oversubscribed(4096, "test/always"));
  EXPECT_TRUE(warned("oversubscribed/test/always"));
  EXPECT_FALSE(warn_if_oversubscribed(4096, "test/always"));  // once per key
}

// ---------------------------------------------------------------------------
// Work-stealing chunk distributor: exact cover, no duplicates, whether
// chunks leave via pops or steals.

TEST(Multicore, StealingQueuesCoverEveryIndexExactlyOnce) {
  const std::size_t count = 1000;
  work_stealing_queues queues(count, 4);
  EXPECT_EQ(queues.workers(), 4u);
  EXPECT_GE(queues.chunk(), 1u);
  std::vector<int> hits(count, 0);
  work_stealing_queues::span s;
  // Worker 0 pops its own deque dry, then steals everything else.
  while (queues.try_pop(0, s) || queues.try_steal(0, s)) {
    for (std::size_t i = s.begin; i < s.end; ++i) ++hits[i];
  }
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
  EXPECT_FALSE(queues.try_steal(2, s));  // empty everywhere == done
}

TEST(Multicore, StealingQueuesConcurrentConsumersPartitionTheRange) {
  const std::size_t count = 10000;
  const std::size_t workers = 8;
  work_stealing_queues queues(count, workers);
  std::vector<std::atomic<int>> hits(count);
  std::vector<std::thread> threads;
  for (std::size_t w = 0; w < workers; ++w) {
    threads.emplace_back([&, w] {
      work_stealing_queues::span s;
      while (queues.try_pop(w, s) || queues.try_steal(w, s)) {
        for (std::size_t i = s.begin; i < s.end; ++i) hits[i].fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::size_t i = 0; i < count; ++i) {
    ASSERT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(Multicore, ParallelForIndexResultsThreadCountInvariant) {
  const std::size_t count = 257;  // deliberately not a multiple of anything
  auto run = [count](std::size_t threads) {
    std::vector<std::uint64_t> out(count, 0);
    parallel_for(count, threads, [&](std::size_t i) { out[i] = derive_seed(5, i); });
    return out;
  };
  const auto reference = run(1);
  for (const std::size_t threads : {2, 4, 16}) EXPECT_EQ(run(threads), reference);
}

// ---------------------------------------------------------------------------
// Host detection and perf counters: both must degrade gracefully (no PMU,
// containers, non-Linux) rather than fail.

TEST(Multicore, HostInfoIsSane) {
  const host_info host = detect_host_info();
  EXPECT_GE(host.hardware_concurrency, 1u);
  EXPECT_GE(host.cache_line_size, 16u);
  EXPECT_EQ(host.cache_line_size & (host.cache_line_size - 1), 0u);  // power of two
}

TEST(Multicore, PerfCountersMeasureOrReportUnavailable) {
  perf_counter_set counters;
  counters.start();
  // A little real work so cycles/instructions are nonzero when a PMU exists.
  volatile std::uint64_t sink = 0;
  for (std::uint64_t i = 0; i < 100000; ++i) sink = sink + i * i;
  const perf_sample sample = counters.stop();
  EXPECT_EQ(sample.available, counters.available());
  if (sample.available) {
    EXPECT_GT(sample.cycles, 0.0);
    EXPECT_GT(sample.instructions, 0.0);
    EXPECT_GT(sample.ipc(), 0.0);
  } else {
    EXPECT_EQ(sample.cycles, 0.0);
    EXPECT_EQ(sample.instructions, 0.0);
  }
}

}  // namespace
