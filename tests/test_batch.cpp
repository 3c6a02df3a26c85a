// Tests for the b-Batch process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::mean_gap_of;
using nb::testing::run_and_snapshot;
using nb::testing::total_balls;

TEST(BBatch, RejectsBatchBelowOne) { EXPECT_THROW(b_batch(8, 0), nb::contract_error); }

TEST(BBatch, ConservesBalls) {
  EXPECT_EQ(total_balls(run_and_snapshot(b_batch(64, 100), 5000, 1)), 5000);
}

TEST(BBatch, ReportedLoadsFrozenWithinBatch) {
  const bin_count n = 16;
  const step_count b = 50;
  b_batch p(n, b);
  rng_t rng(2);
  for (int batch = 0; batch < 20; ++batch) {
    // Snapshot reported loads at the batch start; they must not change
    // until the batch completes.
    std::vector<load_t> reported(n);
    for (bin_index i = 0; i < n; ++i) reported[i] = p.reported_load(i);
    for (step_count s = 0; s < b; ++s) {
      for (bin_index i = 0; i < n; ++i) {
        ASSERT_EQ(p.reported_load(i), reported[i])
            << "batch " << batch << " step " << s << " bin " << i;
      }
      p.step(rng);
    }
  }
}

TEST(BBatch, SnapshotRefreshesToTrueLoadsAtBoundary) {
  const bin_count n = 16;
  const step_count b = 37;
  b_batch p(n, b);
  rng_t rng(3);
  for (int batch = 0; batch < 15; ++batch) {
    for (step_count s = 0; s < b; ++s) p.step(rng);
    for (bin_index i = 0; i < n; ++i) {
      ASSERT_EQ(p.reported_load(i), p.state().load(i)) << "after batch " << batch;
    }
  }
}

TEST(BBatch, FirstBatchReportsAllZero) {
  b_batch p(8, 100);
  rng_t rng(4);
  for (int s = 0; s < 99; ++s) {
    p.step(rng);
    for (bin_index i = 0; i < 8; ++i) ASSERT_EQ(p.reported_load(i), 0);
  }
}

TEST(BBatch, GapGrowsWithBatchSize) {
  const bin_count n = 256;
  const step_count m = 100000;
  const double b1 = mean_gap_of([&] { return b_batch(n, 1); }, m, 10, 5);
  const double bn = mean_gap_of([&] { return b_batch(n, n); }, m, 10, 6);
  const double b10n = mean_gap_of([&] { return b_batch(n, 10 * n); }, m, 10, 7);
  EXPECT_LT(b1, bn);
  EXPECT_LT(bn, b10n);
}

TEST(BBatch, HeavyBatchRegimeScalesLikeBOverN) {
  // For b >= n log n the tight gap is Theta(b/n) [LS22a].  Doubling b
  // should roughly double the gap.
  const bin_count n = 128;
  const step_count m = 200000;
  const auto blo = static_cast<step_count>(16 * n);
  const double g_lo = mean_gap_of([&] { return b_batch(n, blo); }, m, 10, 8);
  const double g_hi = mean_gap_of([&] { return b_batch(n, 2 * blo); }, m, 10, 9);
  EXPECT_GT(g_hi / g_lo, 1.35);
  EXPECT_LT(g_hi / g_lo, 3.0);
}

TEST(BBatch, BatchOfNStaysNearLogOverLogLog) {
  // Theorem 10.2: Gap = Theta(log n / log log n) for b = n.
  const bin_count n = 1024;
  const step_count m = 200000;
  const double gap = mean_gap_of([&] { return b_batch(n, n); }, m, 10, 10);
  const double shape = std::log(n) / std::log(std::log(n));
  EXPECT_GT(gap, 0.4 * shape);
  EXPECT_LT(gap, 4.0 * shape);
}

TEST(BBatch, DominatedByAdversarialDelayAtSameScale) {
  const bin_count n = 256;
  const step_count m = 80000;
  const double batch = mean_gap_of([&] { return b_batch(n, n); }, m, 15, 11);
  const double delay = mean_gap_of([&] { return tau_delay<delay_adversarial>(n, n); }, m, 15, 12);
  EXPECT_LE(batch, delay + 1.0);
}

TEST(BBatch, ResetClearsSnapshotState) {
  b_batch p(32, 20);
  rng_t rng(13);
  for (int t = 0; t < 30; ++t) p.step(rng);  // mid-batch
  p.reset();
  EXPECT_EQ(p.state().balls(), 0);
  for (bin_index i = 0; i < 32; ++i) EXPECT_EQ(p.reported_load(i), 0);
  rng_t a(14);
  rng_t b(14);
  b_batch q(32, 20);
  for (int t = 0; t < 500; ++t) {
    p.step(a);
    q.step(b);
  }
  EXPECT_EQ(p.state().loads(), q.state().loads());
}

TEST(BBatch, NameEncodesBatchSize) { EXPECT_EQ(b_batch(8, 3).name(), "b-batch[b=3]"); }

// ---------------------------------------------------------------------------
// The boundary law: at every batch boundary the stale snapshot equals the
// loads -- departures included -- whichever path moved them.

/// One way of driving b-Batch: arrivals and departures through the serial
/// loops or one of the engines (min_window 1, so every window of at least
/// n/4 balls takes the engine's fast path and shorter ones go serial).
struct route {
  std::string name;
  std::function<void(b_batch&, rng_t&, step_count)> arrive;
  std::function<void(b_batch&, rng_t&, step_count)> depart;
};

std::vector<route> all_routes() {
  std::vector<route> routes;
  routes.push_back({"serial", [](b_batch& p, rng_t& rng, step_count k) { step_many(p, rng, k); },
                    [](b_batch& p, rng_t& rng, step_count k) { depart_many(p, rng, k); }});
  // One shard on the calling thread (the serial SIMD engine), then four
  // shards on one and on four workers.
  for (const auto& [label, options] :
       {std::pair{"kernel", shard_options{.shards = 1, .min_window = 1}},
        std::pair{"shard t=1", shard_options{.threads = 1, .shards = 4, .min_window = 1}},
        std::pair{"shard t=4", shard_options{.threads = 4, .shards = 4, .min_window = 1}}}) {
    auto engine = std::make_shared<shard_engine>(options);
    routes.push_back(
        {label, [engine](b_batch& p, rng_t& rng, step_count k) { engine->step_many(p, rng, k); },
         [engine](b_batch& p, rng_t& rng, step_count k) { engine->depart_many(p, rng, k); }});
  }
  return routes;
}

/// snapshot_is_live() is a proof the engines act on (they snapshot the
/// live loads instead of the frozen ones), so it must imply equality.
void expect_live_claim_sound(const b_batch& p) {
  if (p.snapshot_is_live()) {
    EXPECT_EQ(p.window_snapshot(), p.state().loads());
  }
}

/// Allocates `balls` through `r` in calls cut at irregular sizes (never
/// across a boundary, so every call is one window), checking the law after
/// each call that ends a batch.  Returns the number of boundaries checked.
int arrive_checking_boundaries(b_batch& p, rng_t& rng, const route& r, step_count balls) {
  static constexpr step_count cuts[] = {5, 13, 40, 3, 64, 21};
  int boundaries = 0;
  for (std::size_t c = 0; balls > 0; ++c) {
    const step_count k = std::min({cuts[c % std::size(cuts)], p.snapshot_window(), balls});
    r.arrive(p, rng, k);
    balls -= k;
    expect_live_claim_sound(p);
    if (p.state().balls() % p.batch_size() == 0) {
      ++boundaries;
      EXPECT_EQ(p.window_snapshot(), p.state().loads())
          << r.name << ": boundary at ball " << p.state().balls();
      EXPECT_TRUE(p.snapshot_is_live());
    }
  }
  return boundaries;
}

constexpr bin_count kLawBins = 64;
constexpr step_count kLawBatch = 32;  // >= n/4: whole batches take the engines' fast path

TEST(BBatchBoundaryLaw, DeparturesVisibleAtNextBoundary) {
  for (const std::string channel : {"drain", "random", "lease"}) {
    for (const route& r : all_routes()) {
      SCOPED_TRACE(r.name + ", " + channel);
      b_batch p(kLawBins, kLawBatch);
      p.set_model(make_model("unit", "uniform", kLawBins, channel));
      rng_t rng(7);
      r.arrive(p, rng, 4 * kLawBatch);  // ends on a boundary
      const std::vector<load_t> before = p.state().loads();
      r.depart(p, rng, kLawBatch);
      EXPECT_FALSE(p.snapshot_is_live());
      const std::vector<load_t> drained = p.state().loads();
      r.arrive(p, rng, kLawBatch);  // the next boundary
      int drained_without_arrival = 0;
      for (bin_index i = 0; i < kLawBins; ++i) {
        if (drained[i] < before[i] && p.state().load(i) == drained[i]) ++drained_without_arrival;
        EXPECT_EQ(p.reported_load(i), p.state().load(i)) << "bin " << i;
      }
      // The case an arrivals-only refresh misses must actually occur.
      EXPECT_GT(drained_without_arrival, 0);
    }
  }
}

TEST(BBatchBoundaryLaw, SnapshotEqualsLoadsAfterEveryBatchEndingWindow) {
  for (const std::string weighting : {"unit", "fixed:2"}) {
    for (const route& r : all_routes()) {
      SCOPED_TRACE(r.name + ", " + weighting);
      b_batch p(kLawBins, kLawBatch);
      p.set_model(make_model(weighting, "uniform", kLawBins));
      rng_t rng(8);
      EXPECT_EQ(arrive_checking_boundaries(p, rng, r, 20 * kLawBatch), 20);
    }
  }
}

TEST(BBatchBoundaryLaw, HoldsAfterMidBatchCheckpointRestore) {
  for (const route& r : all_routes()) {
    SCOPED_TRACE(r.name);
    b_batch uninterrupted(kLawBins, kLawBatch);
    rng_t rng(9);
    // 3 batches plus a partial window of 20 balls (>= n/4, so the engines
    // commit it mid-batch).
    r.arrive(uninterrupted, rng, 3 * kLawBatch + 20);
    state_writer w;
    uninterrupted.save_checkpoint(w);
    b_batch restored(kLawBins, kLawBatch);
    state_reader reader(w.bytes());
    restored.restore_checkpoint(reader);
    EXPECT_EQ(restored.window_snapshot(), uninterrupted.window_snapshot());
    rng_t rng_restored = rng;
    EXPECT_EQ(arrive_checking_boundaries(restored, rng_restored, r, 4 * kLawBatch - 20), 4);
    arrive_checking_boundaries(uninterrupted, rng, r, 4 * kLawBatch - 20);
    EXPECT_EQ(restored.state().loads(), uninterrupted.state().loads());
    EXPECT_EQ(rng_restored.state(), rng.state());
  }
}

}  // namespace
