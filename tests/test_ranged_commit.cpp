// Ranged commits: load_state::apply_increments / apply_releases and
// b_batch::commit_window / commit_departures run their O(n) passes by bin
// range through a range_executor.  The executor is execution-only, so a
// commit through the worker pool at ANY range count -- one range, a few,
// an awkward prime, more ranges than bins -- must leave exactly the state
// the default one-range executor leaves: loads, totals, every level-index
// query, the wide-span degrade, and on a guard violation the same message
// naming the same bin with the state untouched.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;

/// Range counts every parity check sweeps (the last exceeds every n used
/// here, so trailing ranges are empty).
const std::vector<std::size_t>& range_counts() {
  static const std::vector<std::size_t> counts = {1, 2, 3, 7, 5000};
  return counts;
}

/// Every observable of a load_state, level index included.
void expect_same_state(const load_state& got, const load_state& want, const std::string& what) {
  ASSERT_EQ(got.loads(), want.loads()) << what;
  EXPECT_EQ(got.balls(), want.balls()) << what;
  EXPECT_EQ(got.total_weight(), want.total_weight()) << what;
  ASSERT_EQ(got.levels_valid(), want.levels_valid()) << what;
  EXPECT_EQ(got.min_load(), want.min_load()) << what;
  EXPECT_EQ(got.max_load(), want.max_load()) << what;
  EXPECT_EQ(got.overloaded_count(), want.overloaded_count()) << what;
  EXPECT_EQ(got.sorted_normalized_desc(), want.sorted_normalized_desc()) << what;
  if (!want.levels_valid()) return;
  const level_index& g = got.levels();
  const level_index& w = want.levels();
  EXPECT_EQ(g.min_level(), w.min_level()) << what;
  EXPECT_EQ(g.max_level(), w.max_level()) << what;
  EXPECT_EQ(g.level_count(), w.level_count()) << what;
  EXPECT_EQ(g.bins(), w.bins()) << what;
  for (load_t l = w.min_level() - 1; l <= w.max_level() + 1; ++l) {
    EXPECT_EQ(g.count_at(l), w.count_at(l)) << what << " level " << l;
    EXPECT_EQ(g.count_at_or_above(l), w.count_at_or_above(l)) << what << " level " << l;
  }
}

/// A state with uneven loads: `balls` unit (or fixed-weight) balls dropped
/// uniformly at random.
load_state scattered(bin_count n, step_count balls, weight_t w, std::uint64_t seed) {
  load_state s(n);
  rng_t rng(seed);
  for (step_count t = 0; t < balls; ++t) {
    const auto i = static_cast<bin_index>(bounded(rng, n));
    if (w == 1) {
      s.allocate(i);
    } else {
      s.allocate(i, w);
    }
  }
  return s;
}

std::vector<std::uint32_t> random_counts(bin_count n, std::uint32_t max, std::uint64_t seed) {
  rng_t rng(seed);
  std::vector<std::uint32_t> v(n);
  for (auto& x : v) x = static_cast<std::uint32_t>(bounded(rng, max + 1));
  return v;
}

/// Runs `op(state, exec)` on a copy of `start` through the pool at every
/// range count and checks each result against the default executor's.
template <typename Op>
void expect_parity(const load_state& start, const Op& op, const std::string& what) {
  load_state reference = start;
  op(reference, range_executor{});
  thread_pool pool(4);
  for (const std::size_t ranges : range_counts()) {
    load_state pooled = start;
    op(pooled, range_executor(pool, ranges));
    expect_same_state(pooled, reference, what + " ranges=" + std::to_string(ranges));
  }
}

/// The guard-violation contract: every executor throws the default
/// executor's message and leaves `start` untouched.
template <typename Op>
void expect_same_refusal(const load_state& start, const Op& op, const std::string& needle) {
  std::string reference;
  {
    load_state s = start;
    try {
      op(s, range_executor{});
      FAIL() << "the default executor must refuse";
    } catch (const contract_error& e) {
      reference = e.what();
    }
    expect_same_state(s, start, "default executor after refusal");
  }
  EXPECT_NE(reference.find(needle), std::string::npos) << reference;
  thread_pool pool(4);
  for (const std::size_t ranges : range_counts()) {
    load_state s = start;
    try {
      op(s, range_executor(pool, ranges));
      FAIL() << "ranges=" << ranges << " must refuse";
    } catch (const contract_error& e) {
      EXPECT_EQ(std::string(e.what()), reference) << "ranges=" << ranges;
    }
    expect_same_state(s, start, "ranges=" + std::to_string(ranges) + " after refusal");
  }
}

TEST(RangedCommit, UnitIncrementsMatchSerial) {
  for (const bin_count n : {37u, 1000u}) {
    const load_state start = scattered(n, 5 * n, 1, 1);
    const auto add = random_counts(n, 6, 2);
    expect_parity(
        start, [&](load_state& s, const range_executor& exec) { s.apply_increments(add, 1, exec); },
        "unit n=" + std::to_string(n));
  }
}

TEST(RangedCommit, FixedWeightIncrementsMatchSerial) {
  for (const bin_count n : {37u, 1000u}) {
    const load_state start = scattered(n, 3 * n, 2, 3);
    const auto add = random_counts(n, 4, 4);
    expect_parity(
        start, [&](load_state& s, const range_executor& exec) { s.apply_increments(add, 2, exec); },
        "fixed:2 n=" + std::to_string(n));
  }
}

TEST(RangedCommit, ReleasesMatchSerial) {
  for (const bin_count n : {37u, 1000u}) {
    const load_state start = scattered(n, 6 * n, 1, 5);
    std::vector<std::uint32_t> rel(n);
    step_count k = 0;
    for (bin_index i = 0; i < n; ++i) {
      rel[i] = static_cast<std::uint32_t>(start.load(i) / 2 + (i % 3 == 0 ? 1 : 0));
      rel[i] = rel[i] > static_cast<std::uint32_t>(start.load(i))
                   ? static_cast<std::uint32_t>(start.load(i))
                   : rel[i];
      k += rel[i];
    }
    expect_parity(
        start, [&](load_state& s, const range_executor& exec) { s.apply_releases(rel, 1, k, exec); },
        "releases n=" + std::to_string(n));
  }
}

TEST(RangedCommit, WideDenseSpanCountsSeriallyAndMatches) {
  // A span of thousands of levels over 1000 bins: per-range histograms
  // would outweigh the bins, so the ranged rebuild counts in one sweep --
  // same index either way.
  const bin_count n = 1000;
  load_state start(n);
  start.allocate(0, 5000);
  ASSERT_TRUE(start.levels_valid());
  const auto add = random_counts(n, 3, 6);
  expect_parity(
      start, [&](load_state& s, const range_executor& exec) { s.apply_increments(add, 1, exec); },
      "wide dense span");
}

TEST(RangedCommit, RebuildCountsMatchANaiveRecountAtEveryShape) {
  // The rebuild counts each range into level_index::count_ways interleaved
  // sub-histograms, one histogram where count_ways of them would outweigh
  // the bins, and one range where even the per-range histograms would.
  // Every shape must count exactly what a naive recount does, including
  // the bins past the last whole group of count_ways.
  constexpr std::size_t ways = level_index::count_ways;
  struct shape {
    std::string name;
    std::size_t n;
    load_t levels;
  };
  const std::vector<shape> shapes = {
      {"one level", 1001, 1},
      {"256 levels", 256 * 7 * ways + 5, 256},
      {"levels * ways > n", 1001, 200},
      {"n % ways != 0", 8 * ways * 7 + 3, 8},
  };
  thread_pool pool(4);
  level_index index;  // reused: every rebuild must reset what the last left
  for (const shape& sh : shapes) {
    ASSERT_NE(sh.n % ways, 0u) << sh.name;
    rng_t rng(static_cast<std::uint64_t>(sh.levels));
    std::vector<load_t> loads(sh.n);
    for (auto& x : loads) x = 40 + static_cast<load_t>(bounded(rng, sh.levels));
    loads.front() = 40;  // pin the range
    loads.back() = 40 + sh.levels - 1;
    std::vector<bin_count> recount(static_cast<std::size_t>(sh.levels), 0);
    for (const load_t x : loads) ++recount[static_cast<std::size_t>(x - 40)];
    for (const std::size_t ranges : {1u, 3u, 7u}) {
      SCOPED_TRACE(sh.name + ", ranges=" + std::to_string(ranges));
      ASSERT_TRUE(index.rebuild(loads, 40, 40 + sh.levels - 1, range_executor(pool, ranges)));
      EXPECT_EQ(index.min_level(), 40);
      EXPECT_EQ(index.max_level(), 40 + sh.levels - 1);
      EXPECT_EQ(index.bins(), sh.n);
      EXPECT_EQ(index.count_at(39), 0u);
      EXPECT_EQ(index.count_at(40 + sh.levels), 0u);
      for (load_t l = 0; l < sh.levels; ++l) {
        ASSERT_EQ(index.count_at(40 + l), recount[static_cast<std::size_t>(l)]) << "level " << l;
      }
    }
  }
}

TEST(RangedCommit, WideSpanDegradeMatchesSerial) {
  // Past max_dense_span the index gives up (levels_valid() == false) on
  // every executor alike, and the scan-based queries agree.
  const bin_count n = 50;
  load_state start(n);
  const weight_t heavy = level_index::max_dense_span + 1;
  const std::vector<std::uint32_t> one = [&] {
    std::vector<std::uint32_t> v(n, 0);
    v[7] = 1;
    return v;
  }();
  expect_parity(
      start,
      [&](load_state& s, const range_executor& exec) {
        s.apply_increments(one, heavy, exec);
        EXPECT_FALSE(s.levels_valid());
      },
      "wide-span degrade");
}

TEST(RangedCommit, IncrementOverflowNamesTheFirstBinAndMutatesNothing) {
  // Bins 9 and 30 would each pass the 32-bit ceiling at weight 2; bin 9
  // -- in an earlier range at every range count -- must be the one named.
  const bin_count n = 40;
  const load_state start = scattered(n, 2 * n, 2, 9);
  std::vector<std::uint32_t> add(n, 1);
  add[9] = 1u << 30;
  add[30] = 1u << 30;
  expect_same_refusal(
      start, [&](load_state& s, const range_executor& exec) { s.apply_increments(add, 2, exec); },
      "bin 9");
}

TEST(RangedCommit, ReleaseUnderflowNamesTheFirstBinAndMutatesNothing) {
  const bin_count n = 40;
  const load_state start = scattered(n, 4 * n, 1, 8);
  std::vector<std::uint32_t> rel(n, 0);
  rel[3] = static_cast<std::uint32_t>(start.load(3)) + 1;
  rel[35] = static_cast<std::uint32_t>(start.load(35)) + 2;
  const step_count k = rel[3] + rel[35];
  expect_same_refusal(
      start, [&](load_state& s, const range_executor& exec) { s.apply_releases(rel, 1, k, exec); },
      "bin 3");
  // The totals guards fire the same way too.
  std::vector<std::uint32_t> fine(n, 0);
  fine[0] = 1;
  expect_same_refusal(
      start, [&](load_state& s, const range_executor& exec) { s.apply_releases(fine, 1, 2, exec); },
      "do not sum");
}

/// Two b-Batch processes fed the same windows and departure blocks, one
/// through the default executor and one through the pool, must agree on
/// the state, the frozen batch snapshot and its liveness after each
/// commit.
void expect_batch_parity(const b_batch& got, const b_batch& want, const std::string& what) {
  expect_same_state(got.state(), want.state(), what);
  EXPECT_EQ(got.window_snapshot(), want.window_snapshot()) << what;
  EXPECT_EQ(got.snapshot_is_live(), want.snapshot_is_live()) << what;
}

TEST(RangedCommit, BatchCommitWindowAndDeparturesMatchSerial) {
  for (const char* weighting : {"unit", "fixed:2"}) {
    const bin_count n = 61;
    const weight_t w = std::string(weighting) == "unit" ? 1 : 2;
    thread_pool pool(4);
    for (const std::size_t ranges : range_counts()) {
      b_batch serial(n, n);
      b_batch pooled(n, n);
      serial.set_model(make_model(weighting, "uniform", n, "drain"));
      pooled.set_model(make_model(weighting, "uniform", n, "drain"));
      const range_executor exec(pool, ranges);
      const std::string what =
          std::string(weighting) + " ranges=" + std::to_string(ranges);
      rng_t rng(11);
      for (int cycle = 0; cycle < 4; ++cycle) {
        // A partial window, then the rest of the batch (a boundary copy).
        const step_count window = serial.snapshot_window();
        const step_count part = window / 3;
        std::vector<std::uint32_t> first(n, 0);
        std::vector<std::uint32_t> rest(n, 0);
        for (step_count t = 0; t < part; ++t) ++first[bounded(rng, n)];
        for (step_count t = part; t < window; ++t) ++rest[bounded(rng, n)];
        if (part > 0) {
          serial.commit_window(first, part);
          pooled.commit_window(first, part, exec);
          expect_batch_parity(pooled, serial, what + " partial window");
        }
        serial.commit_window(rest, window - part);
        pooled.commit_window(rest, window - part, exec);
        expect_batch_parity(pooled, serial, what + " boundary window");
        ASSERT_TRUE(serial.snapshot_is_live());
        // A departure block emptying the lowest bins until n/2 balls left.
        std::vector<std::uint32_t> rel(n, 0);
        step_count k = 0;
        for (bin_index i = 0; i < n && k < n / 2; ++i) {
          rel[i] = static_cast<std::uint32_t>(serial.state().load(i) / w);
          k += rel[i];
        }
        serial.commit_departures(rel, k);
        pooled.commit_departures(rel, k, exec);
        expect_batch_parity(pooled, serial, what + " departures");
      }
    }
  }
}

/// Churn on the shard engine at n bins: loads, the frozen batch
/// snapshot and the stream at 1 and 4 threads must agree.
void expect_churn_thread_invariant(bin_count n) {
  std::vector<load_t> reference_loads;
  std::vector<load_t> reference_stale;
  std::uint64_t reference_rng = 0;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    b_batch p(n, n);
    p.set_model(make_model("unit", "uniform", n, "drain"));
    shard_engine engine(shard_options{.threads = threads});
    rng_t rng(29);
    engine.step_many(p, rng, 2 * static_cast<step_count>(n));
    for (int cycle = 0; cycle < 2; ++cycle) {
      engine.step_many(p, rng, n);
      engine.depart_many(p, rng, n);
    }
    EXPECT_EQ(p.state().balls(), 2 * static_cast<step_count>(n)) << n << " bins";
    if (reference_loads.empty()) {
      reference_loads = p.state().loads();
      reference_stale = p.window_snapshot();
      reference_rng = rng.next();
    } else {
      EXPECT_EQ(p.state().loads(), reference_loads) << n << " bins, " << threads << " threads";
      EXPECT_EQ(p.window_snapshot(), reference_stale) << n << " bins, " << threads << " threads";
      EXPECT_EQ(rng.next(), reference_rng) << n << " bins, " << threads << " threads";
    }
  }
}

TEST(RangedCommit, ShardEngineChurnIsThreadInvariantOnBothCommitPaths) {
  // From 2^17 bins the shard engine hands its window and departure-block
  // commits to the pool by range (row clears queued after them); below
  // that it commits on the calling thread (row clears queued before).
  // On both sides loads, the frozen batch snapshot and the stream must
  // not depend on the thread count.
  for (const bin_count n : {bin_count{1} << 14, bin_count{1} << 17}) {
    expect_churn_thread_invariant(n);
  }
}

}  // namespace
