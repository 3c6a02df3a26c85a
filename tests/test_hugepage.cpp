// Huge-page backing (util/hugepage.hpp): the knob must be execution-only
// -- runs with and without THP backing (and with madvise artificially
// failing) are bit-identical -- and the fallback path must be graceful:
// a refused advice is counted with its errno, never surfaced as an error.
#include <gtest/gtest.h>

#include "test_support.hpp"
#include "util/hugepage.hpp"

namespace {

using namespace nb;

/// Restores the process-wide hugepage knob and stats around each test.
class HugepageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    prev_ = hugepages_enabled();
    reset_hugepage_stats();
  }
  void TearDown() override {
    force_hugepage_failure_for_testing(false);
    set_hugepages_enabled(prev_);
    reset_hugepage_stats();
  }

 private:
  bool prev_ = false;
};

TEST_F(HugepageTest, DisabledKnobIsANoOp) {
  set_hugepages_enabled(false);
  std::vector<std::uint8_t> buf(1 << 20);
  EXPECT_FALSE(advise_hugepages(buf.data(), buf.size()));
  const auto s = hugepage_stats();
  EXPECT_EQ(s.advised, 0u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.last_errno, 0);
}

TEST_F(HugepageTest, EnabledAdviceIsCountedOnLinux) {
  set_hugepages_enabled(true);
  std::vector<std::uint8_t> buf(1 << 20);  // spans whole pages for sure
  const bool granted = advise_hugepages(buf.data(), buf.size());
  const auto s = hugepage_stats();
#if defined(__linux__)
  // A mainline kernel accepts MADV_HUGEPAGE; one with THP compiled out
  // fails with EINVAL.  Either way the outcome must be counted, and
  // exactly one of the counters moves.
  EXPECT_EQ(s.advised + s.failed, 1u);
  EXPECT_EQ(granted, s.advised == 1u);
  if (!granted) EXPECT_NE(s.last_errno, 0);
#else
  EXPECT_FALSE(granted);
  EXPECT_EQ(s.failed, 1u);
#endif
}

TEST_F(HugepageTest, SubPageRangesAreSkippedNotFailed) {
  set_hugepages_enabled(true);
  // 16 bytes cannot contain a whole page; the advice must be skipped
  // without recording a failure (this is the tiny-test-fixture path).
  std::vector<std::uint8_t> buf(16);
  EXPECT_FALSE(advise_hugepages(buf.data(), buf.size()));
  EXPECT_EQ(hugepage_stats().failed, 0u);
}

TEST_F(HugepageTest, ForcedMadviseFailureFallsBackGracefully) {
  set_hugepages_enabled(true);
  force_hugepage_failure_for_testing(true);
  std::vector<std::uint8_t> buf(1 << 20);
  EXPECT_FALSE(advise_hugepages(buf.data(), buf.size()));
  const auto s = hugepage_stats();
  EXPECT_EQ(s.advised, 0u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.last_errno, EINVAL);
}

TEST_F(HugepageTest, BackingNeverAffectsResults) {
  // The hard contract: identical runs with the knob off, on, and on-but-
  // failing must produce bit-identical loads.  Routes through the kernel
  // engine so both advised buffers (load array, compact snapshot) are hot.
  const auto run_loads = [] {
    b_batch process(256, 256);
    rng_t rng(77);
    shard_engine engine(shard_options{.shards = 1, .min_window = 1});
    engine.step_many(process, rng, 256 * 64);
    return process.state().loads();
  };
  set_hugepages_enabled(false);
  const auto off = run_loads();
  set_hugepages_enabled(true);
  const auto on = run_loads();
  force_hugepage_failure_for_testing(true);
  const auto fallback = run_loads();
  EXPECT_EQ(on, off);
  EXPECT_EQ(fallback, off);
}

TEST_F(HugepageTest, RepeatOptionsKnobIsScopedAndExecutionOnly) {
  set_hugepages_enabled(false);
  const auto run_with = [](bool hugepages) {
    repeat_options opt;
    opt.runs = 2;
    opt.master_seed = 5;
    opt.threads = 1;
    opt.use_kernel = true;
    opt.hugepages = hugepages;
    return run_repeated([] { return any_process(b_batch(128, 128 * 16)); }, 128 * 64, opt);
  };
  const auto plain = run_with(false);
  const auto backed = run_with(true);
  // Scoped: the global knob is restored after the run.
  EXPECT_FALSE(hugepages_enabled());
  ASSERT_EQ(plain.runs.size(), backed.runs.size());
  for (std::size_t r = 0; r < plain.runs.size(); ++r) {
    EXPECT_EQ(plain.runs[r].max_load, backed.runs[r].max_load);
    EXPECT_DOUBLE_EQ(plain.runs[r].gap, backed.runs[r].gap);
  }
}

}  // namespace
