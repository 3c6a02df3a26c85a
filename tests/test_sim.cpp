// Tests for the simulation drivers: simulate, repeated runs through a
// one-configuration campaign (seeds, thread-count independence), the trace
// recorder and the sweep helpers.
#include <gtest/gtest.h>

#include "test_support.hpp"

namespace {

using namespace nb;

TEST(Simulate, ReturnsConsistentResult) {
  two_choice p(32);
  rng_t rng(1);
  const auto r = simulate(p, 1000, rng);
  EXPECT_EQ(r.balls, 1000);
  EXPECT_EQ(r.max_load, p.state().max_load());
  EXPECT_DOUBLE_EQ(r.gap, p.state().gap());
  EXPECT_GE(r.gap, 0.0);
  EXPECT_GE(r.underload_gap, 0.0);
}

TEST(Simulate, ZeroBallsIsNoop) {
  two_choice p(8);
  rng_t rng(2);
  const auto r = simulate(p, 0, rng);
  EXPECT_EQ(r.balls, 0);
  EXPECT_EQ(r.max_load, 0);
}

TEST(Simulate, ContinuesFromCurrentState) {
  two_choice p(8);
  rng_t rng(3);
  simulate(p, 100, rng);
  const auto r = simulate(p, 50, rng);
  EXPECT_EQ(r.balls, 150);
}

TEST(Simulate, RejectsLoadOverflowRisk) {
  two_choice p(1);
  rng_t rng(4);
  EXPECT_THROW(simulate(p, step_count{3000000000}, rng), contract_error);
}

// Repeated runs go through the campaign orchestrator; a one-configuration
// list is the single-configuration driver.
campaign_result repeat(const std::function<any_process()>& factory, step_count m,
                       const campaign_options& opt) {
  return run_campaign({{"runs", factory, m}}, opt);
}

TEST(RepeatedRuns, ProducesRequestedRuns) {
  campaign_options opt;
  opt.repeats = 8;
  opt.seed = 5;
  const auto res = repeat([] { return any_process(two_choice(64)); }, 5000, opt);
  EXPECT_EQ(res.cells.size(), 8u);
  EXPECT_EQ(res.configs[0].aggregate.gap_histogram().total(), 8);
  for (const auto& r : res.cells) EXPECT_EQ(r.balls, 5000);
}

TEST(RepeatedRuns, SeedsAreDerivedPerRun) {
  campaign_options opt;
  opt.repeats = 4;
  opt.seed = 6;
  const auto res = repeat([] { return any_process(two_choice(64)); }, 1000, opt);
  std::set<std::uint64_t> seeds;
  for (const auto& r : res.cells) seeds.insert(r.seed);
  EXPECT_EQ(seeds.size(), 4u);
  for (std::size_t r = 0; r < 4; ++r) EXPECT_EQ(res.cells[r].seed, derive_seed(6, r));
}

TEST(RepeatedRuns, ThreadCountDoesNotChangeResults) {
  const auto run_with = [](std::size_t threads) {
    campaign_options opt;
    opt.repeats = 12;
    opt.seed = 7;
    opt.threads = threads;
    return repeat([] { return any_process(g_bounded(64, 3)); }, 4000, opt);
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(8);
  ASSERT_EQ(serial.cells.size(), parallel.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.cells[i].gap, parallel.cells[i].gap) << "run " << i;
    EXPECT_EQ(serial.cells[i].max_load, parallel.cells[i].max_load);
  }
}

TEST(RepeatedRuns, AggregateMatchesRuns) {
  campaign_options opt;
  opt.repeats = 10;
  opt.seed = 9;
  const auto res = repeat([] { return any_process(one_choice(32)); }, 3200, opt);
  const auto& agg = res.configs[0].aggregate;
  EXPECT_EQ(agg.count(), 10u);
  double acc = 0.0;
  for (const auto& r : res.cells) acc += r.gap;
  EXPECT_NEAR(agg.mean_gap(), acc / 10.0, 1e-12);
}

TEST(RepeatedRuns, ThreadsPerRunWithoutParallelWindowsWarnsOnceAndRunsSerially) {
  // Regression: threads_per_run used to be silently ignored for processes
  // without parallel snapshot windows.  It must still run (serially, with
  // identical results to the plain serial path) but say so once.
  const auto run_with = [](std::size_t threads_per_run) {
    campaign_options opt;
    opt.repeats = 3;
    opt.seed = 21;
    opt.threads = 1;
    opt.engine.threads_per_run = threads_per_run;
    return repeat([] { return any_process(two_choice(64)); }, 2000, opt);
  };
  const auto ignored = run_with(4);
  EXPECT_TRUE(warned("shard-engine/two-choice"));
  const auto serial = run_with(0);
  ASSERT_EQ(ignored.cells.size(), serial.cells.size());
  for (std::size_t i = 0; i < serial.cells.size(); ++i) {
    EXPECT_DOUBLE_EQ(ignored.cells[i].gap, serial.cells[i].gap) << "run " << i;
    EXPECT_EQ(ignored.cells[i].max_load, serial.cells[i].max_load);
  }
}

TEST(WarnOnce, EmitsExactlyOncePerKey) {
  // warn_once state is process-global and never reset; a fresh key per
  // invocation keeps this valid under --gtest_repeat / --gtest_shuffle.
  static int invocation = 0;
  const std::string key = "test-sim/unique-key-" + std::to_string(invocation++);
  EXPECT_FALSE(warned(key));
  EXPECT_TRUE(warn_once(key, "first emission"));
  EXPECT_FALSE(warn_once(key, "suppressed"));
  EXPECT_TRUE(warned(key));
}

TEST(RepeatedRuns, RejectsZeroRuns) {
  campaign_options opt;
  opt.repeats = 0;
  EXPECT_THROW((void)repeat([] { return any_process(two_choice(8)); }, 10, opt), contract_error);
}

TEST(AnyProcess, CopyIsDeepClone) {
  any_process a(two_choice(16));
  rng_t rng(10);
  a.step(rng);
  any_process b = a;
  b.step(rng);
  EXPECT_EQ(a.state().balls(), 1);
  EXPECT_EQ(b.state().balls(), 2);
  EXPECT_EQ(a.name(), "two-choice");
}

// ---------------------------------------------------------------------------
// Trace recorder.

TEST(Recorder, SamplesAtRequestedInterval) {
  two_choice p(32);
  rng_t rng(11);
  trace_options opt;
  opt.sample_interval = 100;
  const auto tr = record_trace(p, 1000, rng, opt);
  ASSERT_EQ(tr.points.size(), 10u);
  EXPECT_EQ(tr.points.front().t, 100);
  EXPECT_EQ(tr.points.back().t, 1000);
}

TEST(Recorder, FinalPartialSampleIncluded) {
  two_choice p(32);
  rng_t rng(12);
  trace_options opt;
  opt.sample_interval = 100;
  const auto tr = record_trace(p, 1050, rng, opt);
  ASSERT_EQ(tr.points.size(), 11u);
  EXPECT_EQ(tr.points.back().t, 1050);
}

TEST(Recorder, RecordsRequestedPotentials) {
  g_bounded p(32, 2);
  rng_t rng(13);
  trace_options opt;
  opt.sample_interval = 50;
  opt.record_gamma = true;
  opt.gamma = paper_constants::gamma_for_g(2.0);
  opt.record_lambda = true;
  opt.lambda_offset = 4.0;
  opt.record_good_step = true;
  opt.good_step_g = 2.0;
  const auto tr = record_trace(p, 500, rng, opt);
  for (const auto& pt : tr.points) {
    EXPECT_GE(pt.gamma, 2.0 * 32.0);   // Gamma >= 2n always
    EXPECT_GE(pt.lambda, 2.0 * 32.0);  // Lambda >= 2n always
    EXPECT_GE(pt.quadratic, 0.0);
    EXPECT_GE(pt.absolute, 0.0);
    EXPECT_TRUE(pt.good_step);  // tame process: always good
  }
}

TEST(Recorder, RejectsZeroInterval) {
  two_choice p(8);
  rng_t rng(14);
  trace_options opt;
  opt.sample_interval = 0;
  EXPECT_THROW(record_trace(p, 100, rng, opt), contract_error);
}

// ---------------------------------------------------------------------------
// Sweep helpers.

TEST(Sweep, ArithmeticRange) {
  const auto v = arithmetic_range(1, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_EQ(v.front(), 1);
  EXPECT_EQ(v.back(), 5);
  const auto w = arithmetic_range(0, 10, 5);
  ASSERT_EQ(w.size(), 3u);
  EXPECT_EQ(w[1], 5);
  EXPECT_THROW(arithmetic_range(5, 1), contract_error);
}

TEST(Sweep, OneFiveDecades) {
  const auto v = one_five_decades(5, 500000);
  // 5, 10, 50, 100, 500, 1000, 5000, 10^4, 5x10^4, 10^5, 5x10^5
  ASSERT_EQ(v.size(), 11u);
  EXPECT_EQ(v.front(), 5);
  EXPECT_EQ(v[1], 10);
  EXPECT_EQ(v.back(), 500000);
}

}  // namespace
