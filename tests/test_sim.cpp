// Tests for the simulation driver: simulate / run_repeated determinism,
// thread-count independence, the trace recorder and the sweep helpers.
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

TEST(RunRepeated, ProducesRequestedRuns) {
  repeat_options opt;
  opt.runs = 8;
  opt.master_seed = 5;
  const auto res = run_repeated([] { return any_process(two_choice(64)); }, 5000, opt);
  EXPECT_EQ(res.runs.size(), 8u);
  EXPECT_EQ(res.gap_histogram.total(), 8);
  for (const auto& r : res.runs) EXPECT_EQ(r.balls, 5000);
}

TEST(RunRepeated, SeedsAreDerivedPerRun) {
  repeat_options opt;
  opt.runs = 4;
  opt.master_seed = 6;
  const auto res = run_repeated([] { return any_process(two_choice(64)); }, 1000, opt);
  std::set<std::uint64_t> seeds;
  for (const auto& r : res.runs) seeds.insert(r.seed);
  EXPECT_EQ(seeds.size(), 4u);
  EXPECT_EQ(res.runs[0].seed, derive_seed(6, 0));
  EXPECT_EQ(res.runs[3].seed, derive_seed(6, 3));
}

TEST(RunRepeated, ThreadCountDoesNotChangeResults) {
  const auto run_with = [](std::size_t threads) {
    repeat_options opt;
    opt.runs = 12;
    opt.master_seed = 7;
    opt.threads = threads;
    return run_repeated([] { return any_process(g_bounded(64, 3)); }, 4000, opt);
  };
  const auto serial = run_with(1);
  const auto parallel = run_with(8);
  ASSERT_EQ(serial.runs.size(), parallel.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(serial.runs[i].gap, parallel.runs[i].gap) << "run " << i;
    EXPECT_EQ(serial.runs[i].max_load, parallel.runs[i].max_load);
  }
}

TEST(RunRepeated, TemplatedAndErasedPathsAgree) {
  repeat_options opt;
  opt.runs = 6;
  opt.master_seed = 8;
  const auto direct = run_repeated_with([] { return two_choice(64); }, 3000, opt);
  const auto erased = run_repeated([] { return any_process(two_choice(64)); }, 3000, opt);
  for (std::size_t i = 0; i < direct.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(direct.runs[i].gap, erased.runs[i].gap);
  }
}

TEST(RunRepeated, SummaryMatchesRuns) {
  repeat_options opt;
  opt.runs = 10;
  opt.master_seed = 9;
  const auto res = run_repeated([] { return any_process(one_choice(32)); }, 3200, opt);
  const auto s = res.gap_summary();
  EXPECT_EQ(s.count, 10u);
  double acc = 0.0;
  for (const auto& r : res.runs) acc += r.gap;
  EXPECT_NEAR(s.mean, acc / 10.0, 1e-12);
  EXPECT_NEAR(res.mean_gap(), s.mean, 1e-12);
}

TEST(RunRepeated, ThreadsPerRunWithoutParallelWindowsWarnsOnceAndRunsSerially) {
  // Regression: threads_per_run used to be silently ignored for processes
  // without parallel snapshot windows.  It must still run (serially, with
  // identical results to the plain serial path) but say so once.
  const auto run_with = [](std::size_t threads_per_run) {
    repeat_options opt;
    opt.runs = 3;
    opt.master_seed = 21;
    opt.threads = 1;
    opt.engine.threads_per_run = threads_per_run;
    return run_repeated_with([] { return two_choice(64); }, 2000, opt);
  };
  const auto ignored = run_with(4);
  EXPECT_TRUE(warned("shard-engine/two-choice"));
  const auto serial = run_with(0);
  ASSERT_EQ(ignored.runs.size(), serial.runs.size());
  for (std::size_t i = 0; i < serial.runs.size(); ++i) {
    EXPECT_DOUBLE_EQ(ignored.runs[i].gap, serial.runs[i].gap) << "run " << i;
    EXPECT_EQ(ignored.runs[i].max_load, serial.runs[i].max_load);
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

TEST(RunRepeated, RejectsZeroRuns) {
  repeat_options opt;
  opt.runs = 0;
  EXPECT_THROW(run_repeated([] { return any_process(two_choice(8)); }, 10, opt), contract_error);
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

TEST(Sweep, GeometricRange) {
  const auto v = geometric_range(1, 64, 4);
  ASSERT_EQ(v.size(), 4u);
  EXPECT_EQ(v[3], 64);
  EXPECT_THROW(geometric_range(1, 10, 1), contract_error);
}

TEST(Sweep, GeometricRangeNearOverflowTerminates) {
  // Regression: v *= factor used to wrap std::int64_t (UB) when hi sat
  // near the type maximum; the division guard must stop one step early.
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  const auto v = geometric_range(1, kMax, 2);
  ASSERT_EQ(v.size(), 63u);  // 2^0 .. 2^62; 2^63 would overflow
  EXPECT_EQ(v.back(), std::int64_t{1} << 62);
  const auto w = geometric_range(kMax - 1, kMax, 3);
  ASSERT_EQ(w.size(), 1u);
  EXPECT_EQ(w.front(), kMax - 1);
  // Values above hi but below overflow still stop exactly at hi.
  const auto u = geometric_range(5, 100, 10);
  ASSERT_EQ(u.size(), 2u);
  EXPECT_EQ(u.back(), 50);
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
