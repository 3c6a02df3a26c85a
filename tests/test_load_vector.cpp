// Unit tests for load_state, the process-state substrate.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "core/load_vector.hpp"
#include "rng/rng.hpp"
#include "test_support.hpp"

namespace {

using nb::load_state;

TEST(LoadState, StartsEmpty) {
  load_state s(4);
  EXPECT_EQ(s.n(), 4u);
  EXPECT_EQ(s.balls(), 0);
  EXPECT_EQ(s.max_load(), 0);
  EXPECT_EQ(s.min_load(), 0);
  EXPECT_DOUBLE_EQ(s.gap(), 0.0);
}

TEST(LoadState, RejectsZeroBins) { EXPECT_THROW(load_state(0), nb::contract_error); }

TEST(LoadState, AllocateUpdatesLoadsAndMax) {
  load_state s(3);
  s.allocate(1);
  s.allocate(1);
  s.allocate(2);
  EXPECT_EQ(s.load(0), 0);
  EXPECT_EQ(s.load(1), 2);
  EXPECT_EQ(s.load(2), 1);
  EXPECT_EQ(s.balls(), 3);
  EXPECT_EQ(s.max_load(), 2);
  EXPECT_EQ(s.min_load(), 0);
}

TEST(LoadState, GapMatchesDefinition) {
  load_state s(4);
  for (int i = 0; i < 4; ++i) s.allocate(0);  // loads = (4,0,0,0), avg = 1
  EXPECT_DOUBLE_EQ(s.average_load(), 1.0);
  EXPECT_DOUBLE_EQ(s.gap(), 3.0);
  EXPECT_DOUBLE_EQ(s.underload_gap(), 1.0);
}

TEST(LoadState, GapIsZeroWhenPerfectlyBalanced) {
  load_state s(5);
  for (nb::bin_index i = 0; i < 5; ++i) s.allocate(i);
  EXPECT_DOUBLE_EQ(s.gap(), 0.0);
  EXPECT_DOUBLE_EQ(s.underload_gap(), 0.0);
}

TEST(LoadState, NormalizedSumsToZero) {
  load_state s(7);
  s.allocate(0);
  s.allocate(0);
  s.allocate(3);
  const auto y = s.normalized();
  ASSERT_EQ(y.size(), 7u);
  const double sum = std::accumulate(y.begin(), y.end(), 0.0);
  EXPECT_NEAR(sum, 0.0, 1e-12);
  EXPECT_NEAR(y[0], 2.0 - 3.0 / 7.0, 1e-12);
}

TEST(LoadState, SortedNormalizedIsNonIncreasing) {
  load_state s(6);
  s.allocate(5);
  s.allocate(5);
  s.allocate(2);
  const auto y = s.sorted_normalized_desc();
  for (std::size_t i = 1; i < y.size(); ++i) EXPECT_GE(y[i - 1], y[i]);
  // y_1 equals the gap by definition.
  EXPECT_DOUBLE_EQ(y.front(), s.gap());
}

TEST(LoadState, OverloadedCount) {
  load_state s(4);
  s.allocate(0);
  s.allocate(0);
  s.allocate(1);
  s.allocate(1);
  // avg = 1; loads (2,2,0,0): two bins >= avg.
  EXPECT_EQ(s.overloaded_count(), 2u);
}

TEST(LoadState, OverloadedCountAllEqualIsAll) {
  load_state s(3);
  for (nb::bin_index i = 0; i < 3; ++i) s.allocate(i);
  EXPECT_EQ(s.overloaded_count(), 3u);
}

TEST(LoadState, ResetClearsEverything) {
  load_state s(3);
  s.allocate(2);
  s.allocate(2);
  s.reset();
  EXPECT_EQ(s.balls(), 0);
  EXPECT_EQ(s.max_load(), 0);
  EXPECT_EQ(s.load(2), 0);
  EXPECT_EQ(s.n(), 3u);
}

TEST(LoadState, MaxIsMonotoneUnderAllocations) {
  load_state s(5);
  nb::load_t last_max = 0;
  for (int i = 0; i < 100; ++i) {
    s.allocate(static_cast<nb::bin_index>(i % 5));
    EXPECT_GE(s.max_load(), last_max);
    last_max = s.max_load();
  }
}

TEST(LoadState, SingleBinDegenerateCase) {
  load_state s(1);
  s.allocate(0);
  s.allocate(0);
  EXPECT_DOUBLE_EQ(s.gap(), 0.0);  // max == average when n == 1
  EXPECT_EQ(s.overloaded_count(), 1u);
}

/// assign(state) -- ranged by the level index -- must yield exactly the
/// bytes, base() and max_off() of a full assign(loads) scan, and refuse
/// exactly when the scan does.
void expect_ranged_snapshot_parity(const load_state& s) {
  nb::compact_snapshot full;
  nb::compact_snapshot ranged;
  const bool ok = full.assign(s.loads());
  ASSERT_EQ(ranged.assign(s), ok);
  EXPECT_EQ(ranged.ok(), ok);
  EXPECT_EQ(ranged.base(), full.base());
  if (!ok) return;
  EXPECT_EQ(ranged.max_off(), full.max_off());
  ASSERT_EQ(ranged.size(), full.size());
  const std::size_t bytes = full.size() + nb::compact_snapshot::tail_padding;
  EXPECT_TRUE(std::equal(full.data(), full.data() + bytes, ranged.data()));
}

TEST(CompactSnapshot, LevelRangedAssignMatchesFullScan) {
  const nb::bin_count n = 97;
  load_state s(n);
  nb::xoshiro256pp rng(3);
  expect_ranged_snapshot_parity(s);
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 150; ++k) s.allocate(static_cast<nb::bin_index>(nb::bounded(rng, n)));
    expect_ranged_snapshot_parity(s);
  }
  // Merged windows and departures move the range through the other paths.
  std::vector<std::uint32_t> add(n, 0);
  add[5] = 40;
  s.apply_increments(add);
  expect_ranged_snapshot_parity(s);
  std::vector<std::uint32_t> rel(n, 0);
  rel[5] = 30;
  s.apply_releases(rel, 1, 30);
  s.release(7);
  expect_ranged_snapshot_parity(s);
  // Span over 255: both refuse, reporting the same base.
  for (int k = 0; k < 300; ++k) s.allocate(0);
  ASSERT_GT(s.max_load() - s.min_load(), 255);
  expect_ranged_snapshot_parity(s);
}

TEST(CompactSnapshot, LevelRangedAssignScansOnceLevelsGiveUp) {
  const nb::bin_count n = 16;
  load_state s(n);
  const nb::weight_t heavy = nb::level_index::max_dense_span + 1;
  s.allocate(0, heavy);
  ASSERT_FALSE(s.levels_valid());
  expect_ranged_snapshot_parity(s);  // span way over 255
  // Lift every other bin by the same weight: the span is small again, but
  // no rebuild has run, so the index stays invalid and assign(state) must
  // fall back to scanning.
  for (nb::bin_index i = 1; i < n; ++i) s.allocate(i, heavy);
  s.allocate(3, 7);
  ASSERT_FALSE(s.levels_valid());
  nb::compact_snapshot ranged;
  EXPECT_TRUE(ranged.assign(s));
  EXPECT_EQ(ranged.max_off(), 7);
  expect_ranged_snapshot_parity(s);
}

/// assign_inverted -- from the state (level-ranged) and from the raw
/// loads -- must write 255 minus the plain assign's bytes, with the same
/// base(), max_off() and refusal, and keep the tail padding zero.
void expect_inverted_snapshot_parity(const load_state& s) {
  nb::compact_snapshot plain;
  const bool ok = plain.assign(s.loads());
  nb::compact_snapshot from_state;
  nb::compact_snapshot from_loads;
  ASSERT_EQ(from_state.assign_inverted(s), ok);
  ASSERT_EQ(from_loads.assign_inverted(s.loads()), ok);
  for (const nb::compact_snapshot* inv : {&from_state, &from_loads}) {
    EXPECT_EQ(inv->ok(), ok);
    EXPECT_EQ(inv->base(), plain.base());
    if (!ok) continue;
    EXPECT_EQ(inv->max_off(), plain.max_off());
    ASSERT_EQ(inv->size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
      ASSERT_EQ(inv->data()[i], 255 - plain.data()[i]) << "bin " << i;
      ASSERT_EQ(inv->base() + 255 - inv->data()[i], s.load(static_cast<nb::bin_index>(i)));
    }
    for (std::size_t p = 0; p < nb::compact_snapshot::tail_padding; ++p) {
      EXPECT_EQ(inv->data()[plain.size() + p], 0) << "tail byte " << p;
    }
  }
}

TEST(CompactSnapshot, InvertedAssignIsTheComplementOfThePlainBytes) {
  const nb::bin_count n = 97;
  load_state s(n);
  nb::xoshiro256pp rng(5);
  expect_inverted_snapshot_parity(s);  // all-zero loads: every byte 255
  for (int round = 0; round < 20; ++round) {
    for (int k = 0; k < 150; ++k) s.allocate(static_cast<nb::bin_index>(nb::bounded(rng, n)));
    expect_inverted_snapshot_parity(s);
  }
  std::vector<std::uint32_t> rel(n, 0);
  rel[11] = 25;
  s.apply_releases(rel, 1, 25);
  expect_inverted_snapshot_parity(s);
  // A plain assignment after an inverted one is plain again.
  nb::compact_snapshot snap;
  ASSERT_TRUE(snap.assign_inverted(s));
  ASSERT_TRUE(snap.assign(s));
  for (std::size_t i = 0; i < snap.size(); ++i) {
    ASSERT_EQ(snap.base() + snap.data()[i], s.load(static_cast<nb::bin_index>(i))) << "bin " << i;
  }
  // Span over 255: every assignment refuses, reporting the same base.
  for (int k = 0; k < 300; ++k) s.allocate(0);
  ASSERT_GT(s.max_load() - s.min_load(), 255);
  expect_inverted_snapshot_parity(s);
  EXPECT_FALSE(snap.assign_inverted(s));
  EXPECT_FALSE(snap.assign_inverted(s.loads()));
}

/// The assignment pass is a vectorized narrowing map, so its head and tail
/// are where an off-by-one would hide: check every byte, in both
/// encodings, against a per-element scalar reference, and the padding
/// behind the last offset.  `snap` is reused across calls, so a padding
/// byte left over from a longer earlier assignment would show.
void expect_scalar_reference_bytes(nb::compact_snapshot& snap, const std::vector<nb::load_t>& loads) {
  const nb::load_t mn = *std::min_element(loads.begin(), loads.end());
  const nb::load_t mx = *std::max_element(loads.begin(), loads.end());
  const bool fits = mx - mn <= 255;
  for (const std::uint8_t mask : {std::uint8_t{0}, std::uint8_t{0xFF}}) {
    SCOPED_TRACE("n=" + std::to_string(loads.size()) + " span=" + std::to_string(mx - mn) +
                 (mask != 0 ? " inverted" : " plain"));
    const bool ok = mask != 0 ? snap.assign_inverted(loads) : snap.assign(loads);
    ASSERT_EQ(ok, fits);
    EXPECT_EQ(snap.base(), mn);
    if (!fits) continue;
    EXPECT_EQ(snap.max_off(), mx - mn);
    ASSERT_EQ(snap.size(), loads.size());
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const auto want = static_cast<std::uint8_t>((loads[i] - mn) ^ mask);
      ASSERT_EQ(snap.data()[i], want) << "bin " << i;
    }
    for (std::size_t p = 0; p < nb::compact_snapshot::tail_padding; ++p) {
      EXPECT_EQ(snap.data()[loads.size() + p], 0) << "tail byte " << p;
    }
  }
}

TEST(CompactSnapshot, BytesMatchAScalarReferenceAtEveryLength) {
  nb::compact_snapshot snap;
  nb::xoshiro256pp rng(11);
  // Longest first: every shorter assignment then reuses a buffer whose
  // bytes past the new end held offsets.
  for (const std::size_t n : {4099u, 63u, 17u, 16u, 15u, 1u}) {
    for (const nb::load_t span : {0, 1, 7, 255, 256}) {
      // A large base: the offsets are differences, not truncated loads.
      std::vector<nb::load_t> loads(n);
      for (auto& x : loads) x = 1'000'000'007 + static_cast<nb::load_t>(nb::bounded(rng, span + 1));
      // Pin both ends of the span (one bin holds both when n == 1).
      loads[n / 2] = 1'000'000'007;
      loads[n - 1] = n == 1 ? loads[0] : 1'000'000'007 + span;
      expect_scalar_reference_bytes(snap, loads);
    }
  }
}

TEST(CompactSnapshot, InvertedAssignScansOnceLevelsGiveUp) {
  const nb::bin_count n = 16;
  load_state s(n);
  const nb::weight_t heavy = nb::level_index::max_dense_span + 1;
  s.allocate(0, heavy);
  ASSERT_FALSE(s.levels_valid());
  expect_inverted_snapshot_parity(s);  // span way over 255: refused
  for (nb::bin_index i = 1; i < n; ++i) s.allocate(i, heavy);
  s.allocate(3, 7);
  ASSERT_FALSE(s.levels_valid());
  nb::compact_snapshot inv;
  EXPECT_TRUE(inv.assign_inverted(s));
  EXPECT_EQ(inv.max_off(), 7);
  EXPECT_EQ(inv.off(3), 255 - 7);
  expect_inverted_snapshot_parity(s);
}

// ---------------------------------------------------------------------------
// The byte-row commit: bin i receives low[i] + 256 balls per carry entry
// equal to i, and must commit exactly like the uint32 row it stands for.

/// Everything a commit moves: loads, totals and the level index.
void expect_same_state(const load_state& a, const load_state& b) {
  EXPECT_EQ(a.loads(), b.loads());
  EXPECT_EQ(a.balls(), b.balls());
  EXPECT_EQ(a.total_weight(), b.total_weight());
  ASSERT_EQ(a.levels_valid(), b.levels_valid());
  EXPECT_EQ(a.min_load(), b.min_load());
  EXPECT_EQ(a.max_load(), b.max_load());
  if (!a.levels_valid()) return;
  for (nb::load_t l = a.min_load(); l <= a.max_load(); ++l) {
    EXPECT_EQ(a.levels().count_at(l), b.levels().count_at(l)) << "level " << l;
  }
}

/// The contract_error text `commit` raises ("" when it raises none).
template <typename Commit>
std::string error_text(const Commit& commit) {
  try {
    commit();
  } catch (const nb::contract_error& e) {
    return e.what();
  }
  return "";
}

TEST(ByteRowCommit, MatchesTheWideCommit) {
  const nb::bin_count n = 16;
  // Bins 3 and 9 take >= 256 and >= 512 balls; bin 0 wraps to exactly 256.
  const std::vector<std::uint8_t> low = {0, 1, 2, 255, 4, 0, 6, 7, 8, 9, 0, 11, 12, 13, 14, 200};
  const std::vector<std::uint32_t> carries = {9, 3, 0, 9};
  const std::vector<std::uint32_t> wide = nb::testing::widen_counts(low, carries);
  ASSERT_EQ(wide[9], 521u);
  for (const nb::weight_t w : {nb::weight_t{1}, nb::weight_t{3}}) {
    load_state by_row(n);
    load_state by_bytes(n);
    for (nb::bin_index i = 0; i < n; i += 2) {
      by_row.allocate(i, w);
      by_bytes.allocate(i, w);
    }
    by_row.apply_increments(wide, w);
    by_bytes.apply_increments(low, carries, w);
    expect_same_state(by_row, by_bytes);
    // No carries: the byte row alone.
    const std::vector<std::uint32_t> none;
    by_row.apply_increments(nb::testing::widen_counts(low, none), w);
    by_bytes.apply_increments(low, none, w);
    expect_same_state(by_row, by_bytes);
  }
}

TEST(ByteRowCommit, BinOverflowByCarriesRaisesTheWideErrorAndMutatesNothing) {
  // Two bins 300 below the 32-bit ceiling (reached with maximal balls).
  const nb::bin_count n = 4;
  const nb::load_t top = std::numeric_limits<nb::load_t>::max() - 300;
  load_state s(n);
  for (const nb::bin_index i : {1u, 2u}) {
    for (nb::load_t left = top; left > 0;) {
      const nb::weight_t w = std::min<nb::weight_t>(left, nb::max_ball_weight);
      s.allocate(i, w);
      left -= static_cast<nb::load_t>(w);
    }
  }
  ASSERT_EQ(s.load(1), top);
  const load_state before = s;
  const nb::weight_t w = 3;
  // Bin 1 overflows only through its carry (44 + 256 balls of weight 3);
  // bin 2 overflows by its low count alone (200 balls), after it.  Then
  // the other way round: the low-count culprit comes first.
  const std::vector<std::vector<std::uint8_t>> lows = {{7, 44, 200, 0}, {7, 200, 44, 0}};
  const std::vector<std::vector<std::uint32_t>> carry_lists = {{0, 1, 3}, {2, 0}};
  const std::vector<std::string> culprits = {"bin 1's", "bin 1's"};
  for (std::size_t c = 0; c < lows.size(); ++c) {
    const std::vector<std::uint32_t> wide = nb::testing::widen_counts(lows[c], carry_lists[c]);
    const std::string expected = error_text([&] { s.apply_increments(wide, w); });
    ASSERT_NE(expected.find(culprits[c]), std::string::npos) << expected;
    expect_same_state(s, before);
    EXPECT_EQ(error_text([&] { s.apply_increments(lows[c], carry_lists[c], w); }), expected);
    expect_same_state(s, before);
  }
  // A carry naming no bin is refused, and mutates nothing either.
  EXPECT_THROW(s.apply_increments(lows[0], {n}, w), nb::contract_error);
  expect_same_state(s, before);
}

TEST(ByteRowCommit, LeaseRecordMatchesTheWideCommit) {
  const nb::bin_count n = 8;
  const std::vector<std::uint8_t> low = {3, 0, 255, 1, 0, 2, 0, 9};
  const std::vector<std::uint32_t> carries = {6, 2, 6, 0};
  for (const nb::weight_t w : {nb::weight_t{1}, nb::weight_t{3}}) {
    load_state by_row(n);
    load_state by_bytes(n);
    by_row.set_lease_tracking(true);
    by_bytes.set_lease_tracking(true);
    by_row.allocate(5, w);
    by_bytes.allocate(5, w);
    by_row.apply_increments(nb::testing::widen_counts(low, carries), w);
    by_bytes.apply_increments(low, carries, w);
    ASSERT_EQ(by_row.leased(), by_bytes.leased());
    while (by_row.leased() > 0) {
      ASSERT_EQ(by_row.release_oldest(), by_bytes.release_oldest());
    }
    expect_same_state(by_row, by_bytes);
  }
}

}  // namespace
