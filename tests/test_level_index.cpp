// The level-compressed load index: incremental maintenance must match a
// from-scratch recomputation after arbitrary allocation sequences, and the
// O(1)/O(span) observation queries must agree with full scans/sorts.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;

/// Checks every level_index query against a brute-force recomputation
/// from the raw load vector.
void expect_levels_consistent(const load_state& s) {
  const auto& loads = s.loads();
  const load_t mn = *std::min_element(loads.begin(), loads.end());
  const load_t mx = *std::max_element(loads.begin(), loads.end());
  const level_index& levels = s.levels();

  EXPECT_EQ(levels.min_level(), mn);
  EXPECT_EQ(levels.max_level(), mx);
  EXPECT_EQ(levels.bins(), s.n());
  EXPECT_EQ(levels.level_count(), mx - mn + 1);
  EXPECT_EQ(s.min_load(), mn);
  EXPECT_EQ(s.max_load(), mx);

  std::map<load_t, bin_count> histogram;
  for (const load_t x : loads) ++histogram[x];
  bin_count total = 0;
  for (load_t l = mn; l <= mx; ++l) {
    const auto it = histogram.find(l);
    const bin_count want = it == histogram.end() ? 0 : it->second;
    EXPECT_EQ(levels.count_at(l), want) << "level " << l;
    total += want;
  }
  EXPECT_EQ(total, s.n());
  EXPECT_EQ(levels.count_at(mn - 1), 0u);
  EXPECT_EQ(levels.count_at(mx + 1), 0u);

  // Suffix counts at, below and above the occupied range.
  EXPECT_EQ(levels.count_at_or_above(mn), s.n());
  EXPECT_EQ(levels.count_at_or_above(mn - 5), s.n());
  EXPECT_EQ(levels.count_at_or_above(mx + 1), 0u);
  const load_t mid = mn + (mx - mn) / 2 + 1;
  bin_count above = 0;
  for (const load_t x : loads) {
    if (x >= mid) ++above;
  }
  EXPECT_EQ(levels.count_at_or_above(mid), above);

  // Overloaded-bin count against the O(n) scan it replaced.
  const double avg = s.average_load();
  bin_count overloaded = 0;
  for (const load_t x : loads) {
    if (static_cast<double>(x) >= avg) ++overloaded;
  }
  EXPECT_EQ(s.overloaded_count(), overloaded);

  // Sort-free sorted normalized vector against an actual sort.
  std::vector<double> expected = s.normalized();
  std::sort(expected.begin(), expected.end(), std::greater<>());
  EXPECT_EQ(s.sorted_normalized_desc(), expected);

  // Descending iteration yields exactly the non-empty levels.
  load_t last = mx + 1;
  bin_count visited = 0;
  levels.for_each_level_desc([&](load_t level, bin_count count) {
    EXPECT_LT(level, last);
    EXPECT_GT(count, 0u);
    EXPECT_EQ(count, levels.count_at(level));
    last = level;
    visited += count;
  });
  EXPECT_EQ(visited, s.n());
}

/// The state's index after a fused commit (apply_increments /
/// apply_releases track the range in their add pass) must equal a
/// from-scratch rebuild of the same loads: min, max and every count.
void expect_index_equals_rebuild(const load_state& s) {
  level_index fresh;
  const bool dense = fresh.rebuild(s.loads());
  ASSERT_EQ(s.levels_valid(), dense);
  if (!dense) return;
  const level_index& got = s.levels();
  EXPECT_EQ(got.min_level(), fresh.min_level());
  EXPECT_EQ(got.max_level(), fresh.max_level());
  for (load_t l = fresh.min_level(); l <= fresh.max_level(); ++l) {
    EXPECT_EQ(got.count_at(l), fresh.count_at(l)) << "level " << l;
  }
}

TEST(LevelIndex, FusedApplyIncrementsMatchesRebuild) {
  const bin_count n = 40;
  load_state s(n);
  rng_t rng(5);
  std::vector<std::uint32_t> add(n);
  for (const weight_t w : {weight_t{1}, weight_t{3}}) {
    for (int round = 0; round < 30; ++round) {
      for (auto& a : add) a = static_cast<std::uint32_t>(bounded(rng, 4));
      s.apply_increments(add, w);
      expect_index_equals_rebuild(s);
    }
  }
  std::vector<std::uint32_t> rel(n, 0);
  for (bin_index i = 0; i < n; i += 3) rel[i] = 1;
  s.apply_releases(rel, 1, (n + 2) / 3);
  expect_index_equals_rebuild(s);
  // Dense-span degrade: one heavy window pushes the span past
  // max_dense_span, and lifting every other bin by the same weight brings
  // the index back.
  const weight_t heavy = level_index::max_dense_span + 1;
  std::vector<std::uint32_t> one(n, 0);
  one[7] = 1;
  s.apply_increments(one, heavy);
  EXPECT_FALSE(s.levels_valid());
  expect_index_equals_rebuild(s);
  std::vector<std::uint32_t> rest(n, 1);
  rest[7] = 0;
  s.apply_increments(rest, heavy);
  EXPECT_TRUE(s.levels_valid());
  expect_index_equals_rebuild(s);
}

TEST(LevelIndex, FusedApplyGuardsLeaveStateUntouched) {
  const bin_count n = 128;
  load_state s(n);
  s.apply_increments(std::vector<std::uint32_t>(n, 2), 5);
  const std::vector<load_t> loads = s.loads();
  const step_count balls = s.balls();
  const weight_t weight = s.total_weight();
  const auto expect_untouched = [&] {
    EXPECT_EQ(s.loads(), loads);
    EXPECT_EQ(s.balls(), balls);
    EXPECT_EQ(s.total_weight(), weight);
    EXPECT_TRUE(s.levels_valid());
    EXPECT_EQ(s.levels().min_level(), 10);
    EXPECT_EQ(s.levels().max_level(), 10);
    EXPECT_EQ(s.levels().count_at(10), n);
  };
  // Per-bin guard: one bin would pass its 32-bit load.
  std::vector<std::uint32_t> big(n, 0);
  big[3] = std::numeric_limits<load_t>::max() / 4;
  EXPECT_THROW(s.apply_increments(big, 4), contract_error);
  expect_untouched();
  // Total-weight guard: 128 * (2^32 - 1) balls of weight 2^24 pass
  // max_total_weight.
  EXPECT_THROW(s.apply_increments(std::vector<std::uint32_t>(n, 0xFFFFFFFFu), max_ball_weight),
               contract_error);
  expect_untouched();
}

TEST(LevelIndex, FreshStateIsAllAtZero) {
  load_state s(16);
  expect_levels_consistent(s);
  EXPECT_EQ(s.levels().count_at(0), 16u);
  EXPECT_EQ(s.levels().level_count(), 1);
}

TEST(LevelIndex, TracksRandomizedAllocationSequences) {
  load_state s(24);
  rng_t rng(1);
  for (int round = 0; round < 50; ++round) {
    for (int k = 0; k < 37; ++k) {
      s.allocate(static_cast<bin_index>(bounded(rng, s.n())));
    }
    expect_levels_consistent(s);
  }
}

TEST(LevelIndex, TracksSkewedSequences) {
  // All balls into one bin: a long, thin level window whose minimum never
  // moves (stresses the grow path, not the trim path).
  load_state s(4);
  for (int k = 0; k < 5000; ++k) {
    s.allocate(0);
    if (k % 500 == 0) expect_levels_consistent(s);
  }
  expect_levels_consistent(s);
  EXPECT_EQ(s.max_load(), 5000);
  EXPECT_EQ(s.min_load(), 0);
  EXPECT_EQ(s.levels().count_at(5000), 1u);
  EXPECT_EQ(s.levels().count_at(0), 3u);
}

TEST(LevelIndex, TrimsAdvancingMinimum) {
  // Round-robin allocation: every bin marches up in lockstep, so the
  // minimum advances constantly and dead levels must be trimmed away
  // without disturbing any query.
  load_state s(3);
  for (int k = 0; k < 9000; ++k) {
    s.allocate(static_cast<bin_index>(k % 3));
    if (k % 1000 == 999) expect_levels_consistent(s);
  }
  expect_levels_consistent(s);
  EXPECT_EQ(s.min_load(), 3000);
  EXPECT_EQ(s.max_load(), 3000);
  EXPECT_EQ(s.levels().level_count(), 1);
}

TEST(LevelIndex, SingleBinDeepRun) {
  load_state s(1);
  for (int k = 0; k < 100000; ++k) s.allocate(0);
  expect_levels_consistent(s);
  EXPECT_EQ(s.min_load(), 100000);
  EXPECT_EQ(s.levels().count_at(100000), 1u);
  EXPECT_EQ(s.levels().count_at_or_above(99999), 1u);
}

TEST(LevelIndex, ResetRestoresFreshState) {
  load_state s(8);
  rng_t rng(2);
  for (int k = 0; k < 700; ++k) s.allocate(static_cast<bin_index>(bounded(rng, 8)));
  s.reset();
  expect_levels_consistent(s);
  EXPECT_EQ(s.levels().count_at(0), 8u);
  EXPECT_EQ(s.max_load(), 0);
  EXPECT_EQ(s.min_load(), 0);
}

TEST(LevelIndex, StaysConsistentUnderEveryProcess) {
  // The index is maintained by allocate() regardless of which process is
  // driving; sweep the whole registry to cover every allocation pattern.
  for (const auto& [kind, description] : registered_process_kinds()) {
    process_spec spec;
    spec.kind = kind;
    spec.n = 32;
    spec.param = kind == "d-choice" ? 3.0 : (kind == "one-plus-beta" ? 0.5 : 2.0);
    any_process p = make_process(spec);
    rng_t rng(std::hash<std::string>{}(kind));
    step_many(p, rng, 3000);
    expect_levels_consistent(p.state());
  }
}

TEST(LevelIndex, GapAndUnderloadGapUseIndexedExtremes) {
  load_state s(4);
  for (int k = 0; k < 7; ++k) s.allocate(0);
  for (int k = 0; k < 2; ++k) s.allocate(1);
  // loads = {7, 2, 0, 0}, avg = 2.25
  EXPECT_DOUBLE_EQ(s.gap(), 7.0 - 2.25);
  EXPECT_DOUBLE_EQ(s.underload_gap(), 2.25);
  EXPECT_EQ(s.overloaded_count(), 1u);
}

}  // namespace
