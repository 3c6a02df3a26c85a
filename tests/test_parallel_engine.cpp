// The intra-run shard-parallel batch engine and its building blocks:
// block-RNG sampling, the compact 8-bit snapshot, the per-task shard
// rows, and the two determinism contracts --
//   (1) one (seed, shard count) is bit-identical for ANY thread count,
//   (2) the parallel path agrees with the serial bulk path on every
//       distributional invariant (it draws different randomness, so the
//       agreement is statistical, never bitwise).
#include <gtest/gtest.h>

#include <numeric>

#include "test_support.hpp"

namespace {

using namespace nb;

// ---------------------------------------------------------------------------
// Shard stream seeds.

TEST(ShardStreamSeed, IndependentPerShardAndWindow) {
  // Distinct (token, shard) pairs must give distinct seeds, and the scheme
  // must match the documented derive_seed layering.
  EXPECT_EQ(shard_stream_seed(42, 3), derive_seed(42, 3));
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t token : {1ULL, 2ULL}) {
    for (std::uint64_t s = 0; s < 8; ++s) seeds.push_back(shard_stream_seed(token, s));
  }
  std::sort(seeds.begin(), seeds.end());
  EXPECT_EQ(std::adjacent_find(seeds.begin(), seeds.end()), seeds.end());
}

// ---------------------------------------------------------------------------
// Compact snapshot.

TEST(CompactSnapshot, OffsetFromBaseRoundTrip) {
  const std::vector<load_t> loads = {7, 3, 3, 12, 258, 100};
  compact_snapshot snap;
  ASSERT_TRUE(snap.assign(loads));
  EXPECT_TRUE(snap.ok());
  EXPECT_EQ(snap.base(), 3);
  EXPECT_EQ(snap.size(), loads.size());
  for (std::size_t i = 0; i < loads.size(); ++i) {
    EXPECT_EQ(static_cast<load_t>(snap.off(static_cast<bin_index>(i))) + snap.base(), loads[i]);
  }
}

TEST(CompactSnapshot, SaturatedSpanIsRejected) {
  compact_snapshot snap;
  EXPECT_TRUE(snap.assign({0, 255}));   // span exactly 255: still exact
  EXPECT_FALSE(snap.assign({0, 256}));  // span 256: would clamp, must refuse
  EXPECT_FALSE(snap.ok());
  EXPECT_TRUE(snap.assign({1000, 1000, 1255}));  // large base is fine
  EXPECT_EQ(snap.base(), 1000);
}

// ---------------------------------------------------------------------------
// Per-task shard rows and the merged increment application.

TEST(ShardEngine, TaskRowCountsEqualPlainRecount) {
  // One multi-shard window's increments, recounted by hand: every shard's
  // kernel counts on its own substream, summed into one plain row.  The
  // engine's per-task byte rows, summed range by range, must give exactly
  // these counts, including partial last ranges, ranges of a single bin,
  // empty shards, 2^16-bin ranges and task rows whose bytes wrap (n = 16,
  // k = 65536: thousands of balls per bin and task), where the carries
  // reach the sum.  No window is cut below its size: k = 1 100 000 on 16
  // shards, above 16 * 65 535, is one window too.
  struct shape {
    bin_count n;
    step_count k;
    const char* sampler;
    step_count warm;  // serial balls first, a whole number of batches
  };
  const std::size_t shards = 16;
  for (const shape& c : {shape{1000, 5000, "uniform", 5000},          // n not a power of two
                         shape{5, 40, "uniform", 40},                 // n < shards
                         shape{20, 7, "uniform", 14},                 // k < shards: empty shards
                         shape{1000, 5000, "zipf:1", 0},              // alias sampler
                         shape{16, 65536, "uniform", 0},              // task bytes wrap
                         shape{16, 65536, "zipf:1", 0},
                         shape{16, 1'100'000, "uniform", 0},          // one uncut window
                         shape{1100003, 300000, "uniform", 300000}}) {  // widest ranges
    for (const std::size_t threads : {std::size_t{1}, std::size_t{3}, std::size_t{4}}) {
      b_batch process(c.n, c.k);
      process.set_model(make_model("unit", c.sampler, c.n, "none"));
      rng_t rng(77);
      step_many(process, rng, c.warm);  // ends on a boundary: the next window is live
      compact_snapshot snap;
      ASSERT_TRUE(snap.assign(process.state().loads()));
      rng_t expected_rng = rng;
      const std::uint64_t token = expected_rng.next();
      std::vector<std::uint32_t> inc(c.n, 0);
      for (std::size_t s = 0; s < shards; ++s) {
        const auto total = static_cast<step_count>(shards);
        const step_count share = c.k / total + (static_cast<step_count>(s) < c.k % total ? 1 : 0);
        std::vector<std::uint32_t> row(c.n, 0);
        if (process.model().sampler.is_uniform()) {
          kernel_run(kernel_isa::scalar, 8, c.n, snap.data(), row.data(), share,
                     shard_stream_seed(token, s));
        } else {
          const alias_table& table = process.model().sampler.table();
          std::vector<std::uint8_t> low(c.n, 0);
          std::vector<std::uint32_t> carries;
          kernel_run_alias(kernel_isa::scalar, c.n, snap.data(), table.thresholds(),
                           table.aliases(), low.data(), carries, share,
                           shard_stream_seed(token, s));
          row = nb::testing::widen_counts(low, carries);
        }
        for (bin_index i = 0; i < c.n; ++i) inc[i] += row[i];
      }
      load_state expected = process.state();
      expected.apply_increments(inc);

      shard_engine engine(shard_options{.threads = threads, .shards = shards, .min_window = 1});
      engine.step_many(process, rng, c.k);
      const std::string where = "n=" + std::to_string(c.n) + " k=" + std::to_string(c.k) + " " +
                                c.sampler + " threads=" + std::to_string(threads);
      EXPECT_EQ(engine.phases().windows, 1) << where;
      if (c.n == 16) {
        EXPECT_GT(engine.phases().carries, 0) << where;
      }
      EXPECT_EQ(process.state().loads(), expected.loads()) << where;
      EXPECT_EQ(rng.state(), expected_rng.state()) << where;
    }
  }
}

TEST(ShardEngine, ThreadLayoutsThatDoNotMatchTheShardsAreBitIdentical) {
  // More threads than shards (2 shards, 4 threads: two tasks) and a thread
  // count that does not divide the shards (16 shards, 3 threads: tasks
  // claim 5 or 6 shards each, in whatever order they run) must commit
  // what one thread commits -- arrival windows and drain blocks alike.
  const bin_count n = 2048;
  struct layout {
    std::size_t shards;
    std::size_t threads;
  };
  for (const layout l : {layout{2, 4}, layout{16, 3}}) {
    const auto run = [&](std::size_t threads) {
      b_batch process(n, n);
      process.set_model(make_model("unit", "uniform", n, "drain"));
      rng_t rng(31);
      shard_engine engine(shard_options{.threads = threads, .shards = l.shards, .min_window = 1});
      engine.step_many(process, rng, 8 * static_cast<step_count>(n));
      for (int cycle = 0; cycle < 3; ++cycle) {
        engine.step_many(process, rng, n);
        engine.depart_many(process, rng, n);
      }
      EXPECT_EQ(engine.phases().windows, 11);
      EXPECT_EQ(engine.depart_phases().windows, 3);
      return std::make_pair(process.state().loads(), rng.state());
    };
    const auto one = run(1);
    const auto many = run(l.threads);
    EXPECT_EQ(many.first, one.first) << l.shards << " shards, " << l.threads << " threads";
    EXPECT_EQ(many.second, one.second) << l.shards << " shards, " << l.threads << " threads";
  }
}

TEST(LoadState, ApplyIncrementsMatchesAllocateLoop) {
  load_state bulk(6);
  load_state serial(6);
  const std::vector<std::uint32_t> inc = {3, 0, 1, 7, 0, 2};
  bulk.apply_increments(inc);
  for (bin_index i = 0; i < 6; ++i) {
    for (std::uint32_t k = 0; k < inc[i]; ++k) serial.allocate(i);
  }
  EXPECT_EQ(bulk.loads(), serial.loads());
  EXPECT_EQ(bulk.balls(), serial.balls());
  EXPECT_EQ(bulk.max_load(), serial.max_load());
  EXPECT_EQ(bulk.min_load(), serial.min_load());
  EXPECT_EQ(bulk.overloaded_count(), serial.overloaded_count());
  EXPECT_EQ(bulk.sorted_normalized_desc(), serial.sorted_normalized_desc());
  EXPECT_THROW(bulk.apply_increments({1, 2}), contract_error);  // wrong size
}

// ---------------------------------------------------------------------------
// The engine: determinism contract (1) -- thread count never matters.

std::vector<load_t> parallel_run_loads(std::size_t threads, std::size_t shards, bin_count n,
                                       step_count b, step_count m, std::uint64_t seed,
                                       step_count min_window = 1) {
  b_batch process(n, b);
  rng_t rng(seed);
  shard_engine engine(shard_options{.threads = threads, .shards = shards, .min_window = min_window});
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(ShardEngine, BitIdenticalAcrossThreadCounts) {
  const bin_count n = 256;
  const step_count m = 16 * 256;
  const auto t1 = parallel_run_loads(1, 8, n, n, m, 4242);
  const auto t2 = parallel_run_loads(2, 8, n, n, m, 4242);
  const auto t8 = parallel_run_loads(8, 8, n, n, m, 4242);
  EXPECT_EQ(t1, t2);
  EXPECT_EQ(t1, t8);
  EXPECT_EQ(nb::testing::total_balls(t1), m);
  // Different seeds still give different runs (the engine is not inert).
  EXPECT_NE(t1, parallel_run_loads(4, 8, n, n, m, 4243));
}

/// FNV-1a digest of a multi-shard arrival run: the final loads, then the
/// ball count, then the master stream's next draw.
std::uint64_t shard_arrival_digest(std::size_t threads, const char* sampler) {
  const bin_count n = 4096;
  b_batch process(n, n);
  process.set_model(make_model("unit", sampler, n, "none"));
  rng_t rng(11);
  shard_engine engine(
      shard_options{.threads = threads, .shards = 8, .min_window = 1});
  engine.step_many(process, rng, 20 * n + 123);
  const std::vector<load_t>& loads = process.state().loads();
  std::vector<std::uint64_t> digest(loads.begin(), loads.end());
  digest.push_back(static_cast<std::uint64_t>(process.state().balls()));
  digest.push_back(rng.next());
  return nb::testing::fnv1a(digest);
}

TEST(ShardEngine, GoldenMultiShardArrivalStreams) {
  // Pins the multi-shard window streams themselves, not only their thread
  // invariance: a seed, merge or law change applied to every thread count
  // alike would pass the invariance tests but not these.  The zipf case
  // saturates the snapshot span after one kernel window and finishes on
  // the serial loop.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(shard_arrival_digest(threads, "uniform"), 3517318941921769619ULL) << threads << " threads";
    EXPECT_EQ(shard_arrival_digest(threads, "zipf:1"), 8575422234162568400ULL) << threads << " threads";
  }
}

TEST(ShardEngine, BoundaryAlignedChunkingInvariance) {
  // Call-size cuts that land on window (batch) boundaries do not change
  // the window sequence, so the same windows draw the same tokens in the
  // same master-stream order: one whole-run call and boundary-aligned
  // chunked calls are bit-identical.  (Cuts INSIDE a window split it into
  // smaller windows and legitimately change the drawn randomness -- the
  // chunk pattern is part of the parallel sampling contract, which is why
  // the drivers checkpoint at multiples of the batch size.)
  const bin_count n = 128;
  b_batch whole(n, n);
  b_batch pieces(n, n);
  rng_t rng_a(5);
  rng_t rng_b(5);
  shard_engine engine(shard_options{.threads = 2, .shards = 4, .min_window = 1});
  engine.step_many(whole, rng_a, 1280);
  for (const step_count batches : {1, 3, 2, 4}) {
    engine.step_many(pieces, rng_b, batches * static_cast<step_count>(n));
  }
  EXPECT_EQ(whole.state().loads(), pieces.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());  // same number of window tokens
}

TEST(ShardEngine, SnapshotRefreshMatchesTrueLoadsAtBoundary) {
  const bin_count n = 64;
  b_batch process(n, n);
  rng_t rng(11);
  shard_engine engine(shard_options{.threads = 2, .shards = 4, .min_window = 1});
  engine.step_many(process, rng, 5 * n);  // ends exactly on a boundary
  for (bin_index i = 0; i < n; ++i) {
    EXPECT_EQ(process.reported_load(i), process.state().load(i)) << "stale bin " << i;
  }
  // Mid-batch, the snapshot must still show the batch-start loads: run half
  // a batch more and check the snapshot did NOT move.
  const auto frozen = process.state().loads();
  engine.step_many(process, rng, n / 2);
  for (bin_index i = 0; i < n; ++i) {
    EXPECT_EQ(process.reported_load(i), frozen[i]) << "snapshot moved mid-batch, bin " << i;
  }
}

// ---------------------------------------------------------------------------
// The engine: serial fallbacks are bit-identical to the serial bulk path.

TEST(ShardEngine, UndersizedWindowsFallBackToSerialExactly) {
  // min_window larger than every batch: the engine must walk the run with
  // the serial fused loop on the master stream -- bit-identical to
  // step_many, including the generator position afterwards.
  b_batch parallel(32, 32);
  b_batch serial(32, 32);
  rng_t rng_a(21);
  rng_t rng_b(21);
  shard_engine engine(shard_options{.threads = 4, .shards = 4, .min_window = 1 << 20});
  engine.step_many(parallel, rng_a, 3210);
  step_many(serial, rng_b, 3210);
  EXPECT_EQ(parallel.state().loads(), serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(ShardEngine, WindowlessProcessesFallBackToSerialExactly) {
  // tau-Delay models only the probe (snapshot_window() == 0): sliding
  // windows never freeze.  two_choice has no window API at all.  Both must
  // take the serial path through the engine, bit for bit.
  tau_delay<delay_adversarial> delay_par(32, 9);
  tau_delay<delay_adversarial> delay_ser(32, 9);
  rng_t rng_a(31);
  rng_t rng_b(31);
  shard_engine engine(shard_options{.threads = 4, .shards = 4, .min_window = 1});
  engine.step_many(delay_par, rng_a, 2000);
  step_many(delay_ser, rng_b, 2000);
  EXPECT_EQ(delay_par.state().loads(), delay_ser.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());

  two_choice tc_par(32);
  two_choice tc_ser(32);
  rng_t rng_c(32);
  rng_t rng_d(32);
  engine.step_many(tc_par, rng_c, 2000);
  step_many(tc_ser, rng_d, 2000);
  EXPECT_EQ(tc_par.state().loads(), tc_ser.state().loads());
}

TEST(ShardEngine, TypeErasedRouteMatchesTemplateRoute) {
  // any_process must dispatch into the same engine code path as the
  // concrete type: identical seeds, options and chunking => identical runs.
  const bin_count n = 128;
  const step_count m = 10 * n;
  b_batch direct(n, n);
  any_process erased{b_batch(n, n)};
  rng_t rng_a(77);
  rng_t rng_b(77);
  shard_engine engine(shard_options{.threads = 2, .shards = 4, .min_window = 1});
  engine.step_many(direct, rng_a, m);
  engine.step_many(erased, rng_b, m);
  EXPECT_EQ(direct.state().loads(), erased.state().loads());
}

// ---------------------------------------------------------------------------
// Determinism contract (2): distributional parity with the serial path.

TEST(ShardEngine, GapDistributionMatchesSerialBulkPath) {
  // Same configuration, independent seeds: mean gap over repetitions of
  // the parallel path must agree with the serial path well within the
  // run-to-run spread (b = n, so both are one-choice-like per batch with
  // two-choice correction across batches; gaps concentrate tightly).
  const bin_count n = 100;
  const step_count m = 100 * n;
  const std::size_t runs = 24;
  double serial_mean = 0.0;
  double parallel_mean = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    b_batch serial(n, n);
    rng_t rng_s(derive_seed(1000, r));
    step_many(serial, rng_s, m);
    serial_mean += serial.state().gap();

    b_batch parallel(n, n);
    rng_t rng_p(derive_seed(2000, r));
    shard_engine engine(shard_options{.threads = 2, .shards = 4, .min_window = 1});
    engine.step_many(parallel, rng_p, m);
    parallel_mean += parallel.state().gap();
    EXPECT_EQ(parallel.state().balls(), m);
  }
  serial_mean /= static_cast<double>(runs);
  parallel_mean /= static_cast<double>(runs);
  // Gaps at this configuration sit around 4-6 with spread well under 1;
  // a 1.5 tolerance on the means catches real distributional drift while
  // staying far from flaky.
  EXPECT_NEAR(serial_mean, parallel_mean, 1.5);
}

// ---------------------------------------------------------------------------
// Driver integration.

TEST(ShardEngine, SimulateWithAndRepeatRouting) {
  b_batch process(64, 64);
  rng_t rng(3);
  run_engine engine(engine_config{.threads_per_run = 2, .shards = 4});
  const auto result = simulate_with(process, 640, rng, engine);
  EXPECT_EQ(result.balls, 640);
  EXPECT_DOUBLE_EQ(result.gap, process.state().gap());

  // threads_per_run > 0 routes campaign cells through the engine; results
  // stay deterministic in the outer thread count AND the inner one.  The
  // batch (8192) clears the driver's default min_window, so the runs
  // genuinely take the parallel windows.
  const std::vector<campaign_config> configs = {
      {"b-batch", [] { return any_process(b_batch(64, 8192)); }, 6400}};
  campaign_options opt;
  opt.repeats = 4;
  opt.seed = 9;
  opt.threads = 2;
  opt.engine.threads_per_run = 2;
  opt.engine.shards = 4;
  const auto a = run_campaign(configs, opt);
  opt.threads = 1;
  opt.engine.threads_per_run = 1;
  const auto b = run_campaign(configs, opt);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t r = 0; r < a.cells.size(); ++r) {
    EXPECT_EQ(a.cells[r].max_load, b.cells[r].max_load);
    EXPECT_DOUBLE_EQ(a.cells[r].gap, b.cells[r].gap);
  }
  EXPECT_EQ(a.configs[0].aggregate.gap_histogram().entries(),
            b.configs[0].aggregate.gap_histogram().entries());
}

TEST(ShardEngine, ShardCountBoundedAndNamedOnRejection) {
  // The bound is checked before the pool exists: a rejected count builds
  // no engine and starts no thread.
  for (const std::size_t bad : {std::size_t{0}, static_cast<std::size_t>(-1), std::size_t{1025}}) {
    try {
      const shard_engine engine(shard_options{.threads = 1, .shards = bad});
      ADD_FAILURE() << bad << " shards accepted";
    } catch (const contract_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("shards got " + std::to_string(bad)), std::string::npos) << what;
    }
  }
  for (const std::size_t good : {std::size_t{1}, std::size_t{1024}}) {
    const shard_engine engine(shard_options{.threads = 1, .shards = good});
    EXPECT_EQ(engine.options().shards, good);
    EXPECT_EQ(engine.threads(), 1u);
  }
}

TEST(ShardEngine, RunCeilingUsesNamedConstant) {
  two_choice p(4);
  rng_t rng(1);
  EXPECT_THROW(static_cast<void>(simulate(p, max_run_balls + 1, rng)), contract_error);
  run_engine engine(engine_config{.threads_per_run = 1});
  EXPECT_THROW(static_cast<void>(simulate_with(p, max_run_balls + 1, rng, engine)),
               contract_error);
}

TEST(EnginePhases, CountEveryFastPathWindow) {
  // Execution-only phase timers: one entry per fast-path window, none for
  // windows routed to the serial loop, and no merge with one shard.
  const bin_count n = 64;
  b_batch a(n, n);
  b_batch b(n, n);
  rng_t rng_a(3);
  rng_t rng_b(3);
  shard_engine kernel(shard_options{.shards = 1, .min_window = 1});
  shard_engine shard(shard_options{.threads = 2, .shards = 4, .min_window = 1});
  kernel.step_many(a, rng_a, 5 * n);
  shard.step_many(b, rng_b, 5 * n);
  EXPECT_EQ(kernel.phases().windows, 5);
  EXPECT_EQ(shard.phases().windows, 5);
  EXPECT_EQ(kernel.phases().merge_ns, 0);
  for (const window_phase_times* phases : {&kernel.phases(), &shard.phases()}) {
    EXPECT_GE(phases->snapshot_ns, 0);
    EXPECT_GT(phases->kernel_ns, 0);
    EXPECT_GT(phases->commit_ns, 0);
  }
  kernel.step_many(a, rng_a, 3);  // 3 < n/4: serial, not a window
  EXPECT_EQ(kernel.phases().windows, 5);
}

}  // namespace
