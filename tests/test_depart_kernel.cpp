// Batched departures through the windowed engine (core/engine/
// shard_engine) and their contract.  One drain law serves every shard
// count: the block's shards run kernel_run over the inverted snapshot of
// the live loads (the fuller of two sampled bins loses a ball, ties
// fair), the settle clamps the summed counts to snapshot capacity, the
// clamped excess is re-served into the counts under the re-serve law, and
// the block commits once.  The kernel's own contract (backend
// bit-identity, the fixed lane count, argument checks) is
// tests/test_kernel.cpp's.  The suite pins
//   (1) the drain law and the engines' batched-departure routing: a hand
//       replay of the one-shard block, the re-serve law's refusal once
//       nothing can cover the weight, the count sum and capacity bound,
//       one commit per block, golden digests, ISA- and thread-count
//       invariance and the lease channel's per-event route,
//   (2) the warn_once diagnostics on every silent serial fallback (no
//       commit_departures, undersized block, span-saturated drain
//       snapshot),
//   (3) the up-front refusal of a request for more departures than there
//       are resident balls,
//   (4) the random channel's one exact pass (multivariate hypergeometric
//       counts over the live loads, checked against the enumerated law
//       and invariant under every shard, thread, lane and ISA setting)
//       and the drain leaf's exact max-select law while no clamp fires
//       (G-tested at 1, 2 and 16 shards).
#include <gtest/gtest.h>

#include <array>
#include <iostream>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "core/analysis/allocation_probability.hpp"
#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::fnv1a;

/// Every ISA the dispatch knows (excluding auto_detect), supported or not.
const std::vector<kernel_isa>& all_backends() {
  static const std::vector<kernel_isa> isas = {kernel_isa::scalar, kernel_isa::avx2,
                                               kernel_isa::avx512};
  return isas;
}

/// Backends that can execute on this machine (scalar always can).
std::vector<kernel_isa> supported_backends() {
  std::vector<kernel_isa> isas;
  for (const kernel_isa isa : all_backends()) {
    if (kernel_isa_supported(isa)) isas.push_back(isa);
  }
  return isas;
}

// ---------------------------------------------------------------------------
// (1) The drain law and the engine routing: batched departures through the
// windowed engine, with one shard and with several.

any_process churned_process(const char* channel, bin_count n, step_count warm,
                            std::uint64_t seed, rng_t& rng) {
  any_process process{two_choice(n)};
  process.set_model(make_model("unit", "uniform", n, channel));
  rng = rng_t(seed);
  step_many(process, rng, warm);
  return process;
}

TEST(DepartEngineKernel, BatchedBitIdenticalAcrossIsaBackends) {
  for (const char* channel : {"drain", "random"}) {
    std::vector<load_t> reference;
    std::uint64_t reference_rng_state = 0;
    for (const kernel_isa isa : supported_backends()) {
      rng_t rng(7);
      any_process process = churned_process(channel, 64, 20000, 7, rng);
      shard_engine engine(shard_options{.shards = 1, .min_window = 1, .isa = isa});
      engine.depart_many(process, rng, 8000);
      EXPECT_EQ(process.state().balls(), 12000) << channel;
      if (reference.empty()) {
        reference = process.state().loads();
        reference_rng_state = rng.next();
      } else {
        EXPECT_EQ(process.state().loads(), reference)
            << channel << " " << kernel_isa_name(isa);
        EXPECT_EQ(rng.next(), reference_rng_state)
            << channel << " " << kernel_isa_name(isa);
      }
    }
    // The batched path is a declared sampling-contract change: it must
    // NOT reproduce the serial per-event stream.
    rng_t serial_rng(7);
    any_process serial = churned_process(channel, 64, 20000, 7, serial_rng);
    depart_many(serial, serial_rng, 8000);
    EXPECT_NE(serial.state().loads(), reference) << channel;
  }
}

TEST(DepartEngineShard, BatchedBitIdenticalAcrossThreadCountsAndBackends) {
  std::vector<load_t> reference;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const kernel_isa isa : supported_backends()) {
      rng_t rng(21);
      any_process process = churned_process("drain", 64, 20000, 21, rng);
      shard_engine engine(shard_options{
          .threads = threads, .shards = 8, .min_window = 1, .isa = isa});
      engine.depart_many(process, rng, 8000);
      EXPECT_EQ(process.state().balls(), 12000);
      if (reference.empty()) {
        reference = process.state().loads();
      } else {
        EXPECT_EQ(process.state().loads(), reference)
            << threads << " threads, " << kernel_isa_name(isa);
      }
    }
  }
}

/// FNV-1a digest of a multi-shard departure run: the final loads, then the
/// resident balls, then the master stream's next draw.
std::uint64_t shard_departure_digest(std::size_t threads, const char* channel) {
  rng_t rng(5);
  any_process process{two_choice(64)};
  process.set_model(make_model("unit", "uniform", 64, channel));
  step_many(process, rng, 3000);
  shard_engine engine(
      shard_options{.threads = threads, .shards = 8, .min_window = 1});
  engine.depart_many(process, rng, 2900);
  const std::vector<load_t>& loads = process.state().loads();
  std::vector<std::uint64_t> digest(loads.begin(), loads.end());
  digest.push_back(static_cast<std::uint64_t>(process.state().balls()));
  digest.push_back(rng.next());
  return fnv1a(digest);
}

TEST(DepartEngineShard, GoldenMultiShardDepartureStreams) {
  // Pins the multi-shard departure streams: 2900 of 3000 balls leave 64
  // bins, so the drain shards overdraw and the merge clamps and
  // re-serves; the random block is the one exact pass of any shard count.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    EXPECT_EQ(shard_departure_digest(threads, "drain"), 8006737899295112482ULL) << threads << " threads";
    EXPECT_EQ(shard_departure_digest(threads, "random"), 4074037394981231410ULL) << threads << " threads";
  }
}

/// One drain block of `k` events on `shards` shards over two-choice loads
/// warmed with `warm` balls: the FNV-1a digest of the run (as in
/// shard_departure_digest), the engine's departure record and the loads.
struct drain_block_run {
  std::uint64_t digest = 0;
  window_phase_times phases;
  std::vector<load_t> loads;
  step_count balls = 0;
};

drain_block_run shard_drain_block(bin_count n, step_count warm, step_count k, std::size_t shards,
                                  std::size_t threads = 2,
                                  kernel_isa isa = kernel_isa::auto_detect) {
  rng_t rng(5);
  any_process process{two_choice(n)};
  process.set_model(make_model("unit", "uniform", n, "drain"));
  step_many(process, rng, warm);
  shard_engine engine(shard_options{
      .threads = threads, .shards = shards, .min_window = 1, .isa = isa});
  engine.depart_many(process, rng, k);
  drain_block_run run{.phases = engine.depart_phases(),
                      .loads = process.state().loads(),
                      .balls = process.state().balls()};
  std::vector<std::uint64_t> digest(run.loads.begin(), run.loads.end());
  digest.push_back(static_cast<std::uint64_t>(run.balls));
  digest.push_back(rng.next());
  run.digest = fnv1a(digest);
  return run;
}

TEST(DepartEngineShard, DrainShardsPickUncheckedAndTheSettleRepairsEveryOverdraw) {
  // 2900 of 3000 balls leave 64 bins on 2 shards: each shard alone picks
  // some bins past their capacity.  The settle's clamp and re-serve is
  // the one repair, and the block still commits through apply_releases'
  // validation: no bin underflows, exactly the resident balls remain.
  const drain_block_run heavy = shard_drain_block(64, 3000, 2900, 2);
  EXPECT_EQ(heavy.digest, 10052057816601448946ULL);
  EXPECT_GT(heavy.phases.clamped_ranges, 0);
  EXPECT_GT(heavy.phases.reserved_events, 0);
  EXPECT_EQ(heavy.balls, 100);
  EXPECT_EQ(nb::testing::total_balls(heavy.loads), 100);
  for (std::size_t i = 0; i < heavy.loads.size(); ++i) EXPECT_GE(heavy.loads[i], 0) << "bin " << i;
  // Threads and ISA backends only execute shards.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    for (const kernel_isa isa : supported_backends()) {
      EXPECT_EQ(shard_drain_block(64, 3000, 2900, 2, threads, isa).digest, heavy.digest)
          << threads << " threads, " << kernel_isa_name(isa);
    }
  }
  // The same block on 8 shards (GoldenMultiShardDepartureStreams' drain
  // pin): no shard overdraws alone, only the merged counts do.
  const drain_block_run split = shard_drain_block(64, 3000, 2900, 8);
  EXPECT_EQ(split.digest, 8006737899295112482ULL);
  EXPECT_GT(split.phases.clamped_ranges, 0);
  EXPECT_GT(split.phases.reserved_events, 0);
  // At occupancy 8n no shard comes near a bin's capacity: nothing is
  // clamped or re-served.
  const drain_block_run steady = shard_drain_block(4096, 8 * 4096, 4096, 8);
  EXPECT_EQ(steady.digest, 2432676464533900587ULL);
  EXPECT_EQ(steady.phases.clamped_ranges, 0);
  EXPECT_EQ(steady.phases.reserved_events, 0);
}

TEST(DepartEngineShard, DrainBlockWhoseTaskRowsWrapMatchesItsDigest) {
  // 16 bins at occupancy 2^16, and one 16-shard drain block of 40000
  // events: every pool task's byte row wraps (thousands of events per bin
  // and task), so the settle's sum needs the carries.  The digest was
  // recorded when shards emitted picks and the settle counted bucket-sorted
  // picks.
  const step_count warm = 16 * 4096;
  const step_count k = 40000;
  const drain_block_run one = shard_drain_block(16, warm, k, 16, 1);
  EXPECT_EQ(one.digest, 14765968553042592886ULL);
  EXPECT_EQ(one.phases.windows, 1);
  EXPECT_EQ(one.balls, warm - k);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const kernel_isa isa : supported_backends()) {
      const drain_block_run other = shard_drain_block(16, warm, k, 16, threads, isa);
      EXPECT_EQ(other.digest, one.digest) << threads << " threads, " << kernel_isa_name(isa);
      EXPECT_EQ(other.phases.reserved_events, one.phases.reserved_events)
          << threads << " threads, " << kernel_isa_name(isa);
    }
  }
}

/// One heavy two-shard drain block on b-Batch at 2^17 bins, where the
/// settle and the commit run as one pooled pass by bin range: a whole
/// batch of n/2 engine arrivals (its boundary copy left pending), then
/// n/2 - 1000 departures.  FNV-1a digest of the loads, the frozen batch
/// snapshot, the resident balls and the master stream's next draw.
drain_block_run pooled_batch_drain_block(std::size_t threads) {
  const bin_count n = bin_count{1} << 17;
  const step_count half = n / 2;
  rng_t rng(17);
  b_batch process(n, half);
  process.set_model(make_model("unit", "uniform", n, "drain"));
  shard_engine engine(shard_options{.threads = threads, .shards = 2});
  engine.step_many(process, rng, half);
  engine.depart_many(process, rng, half - 1000);
  drain_block_run run{.phases = engine.depart_phases(),
                      .loads = process.state().loads(),
                      .balls = process.state().balls()};
  std::vector<std::uint64_t> digest(run.loads.begin(), run.loads.end());
  const std::vector<load_t>& frozen = process.window_snapshot();
  digest.insert(digest.end(), frozen.begin(), frozen.end());
  digest.push_back(static_cast<std::uint64_t>(run.balls));
  digest.push_back(rng.next());
  run.digest = fnv1a(digest);
  return run;
}

TEST(DepartEngineShard, PooledHeavyDrainBlockClampsAndMatchesItsDigest) {
  // From kMinPooledCommitBins bins up each range task counts the shards'
  // buckets, clamps, makes b-Batch's pending boundary copy and commits;
  // the clamped deficit is re-served after the commit.  The digest was
  // recorded when settle, copy and commit were separate passes.
  const drain_block_run heavy = pooled_batch_drain_block(2);
  EXPECT_EQ(heavy.digest, 2253839515047998951ULL);
  EXPECT_EQ(heavy.phases.windows, 1);
  EXPECT_GT(heavy.phases.clamped_ranges, 0);
  EXPECT_GT(heavy.phases.reserved_events, 0);
  EXPECT_EQ(heavy.balls, 1000);
  EXPECT_EQ(nb::testing::total_balls(heavy.loads), 1000);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{3}}) {
    const drain_block_run other = pooled_batch_drain_block(threads);
    EXPECT_EQ(other.digest, heavy.digest) << threads << " threads";
    EXPECT_EQ(other.phases.clamped_ranges, heavy.phases.clamped_ranges) << threads << " threads";
    EXPECT_EQ(other.phases.reserved_events, heavy.phases.reserved_events) << threads << " threads";
  }
}

TEST(DepartEngineShard, OneEngineAcrossHeavyDrainBlocksMatchesAFreshEnginePerBlock) {
  // Churn cycles at occupancy n, each n arrivals then a drain block of n
  // events: the block drains half the resident balls, so most ranges clamp.
  // No state of one block may leak into the next: an engine reused across
  // the blocks serves the same loads and stream as a fresh one per block.
  const bin_count n = 4096;
  const shard_options opt{.threads = 2, .shards = 8, .min_window = 1};
  rng_t rng(9);
  any_process shared_run{two_choice(n)};
  shared_run.set_model(make_model("unit", "uniform", n, "drain"));
  step_many(shared_run, rng, n);
  any_process fresh_run = shared_run;
  rng_t fresh_rng = rng;
  shard_engine shared(opt);
  for (int block = 0; block < 3; ++block) {
    step_many(shared_run, rng, n);
    shared.depart_many(shared_run, rng, n);
    step_many(fresh_run, fresh_rng, n);
    shard_engine fresh(opt);
    fresh.depart_many(fresh_run, fresh_rng, n);
    EXPECT_EQ(shared_run.state().loads(), fresh_run.state().loads()) << "block " << block;
  }
  EXPECT_EQ(rng.state(), fresh_rng.state());
  EXPECT_GT(shared.depart_phases().clamped_ranges, 3 * 8 / 2);
}

/// A process holding exactly the loads it was given, on the `channel`
/// departure channel and the library's departure laws; it never arrives.
/// It records each commit_departures call as (k, sum of rel), the sum
/// read once the commit returned.
struct placed_loads {
  load_state st;
  alloc_model m;
  std::vector<std::pair<step_count, step_count>> commits;

  explicit placed_loads(const std::vector<load_t>& loads, const char* channel = "random")
      : st(static_cast<bin_count>(loads.size())) {
    set_model(make_model("unit", "uniform", st.n(), channel));
    for (std::size_t i = 0; i < loads.size(); ++i) {
      for (load_t u = 0; u < loads[i]; ++u) st.allocate(static_cast<bin_index>(i));
    }
  }
  void step(rng_t&) {}
  void depart(rng_t& rng) { (void)depart_ball(st, m, rng); }
  void commit_departures(const std::vector<std::uint32_t>& rel, step_count k,
                         const range_executor& exec = {}) {
    apply_departure_block(st, m, rel, k, exec);
    commits.emplace_back(k, std::accumulate(rel.begin(), rel.end(), step_count{0}));
  }
  void set_model(alloc_model model) { install_model(st, m, std::move(model)); }
  [[nodiscard]] const alloc_model& model() const { return m; }
  [[nodiscard]] const load_state& state() const { return st; }
  [[nodiscard]] std::string name() const { return "placed-loads"; }
};

/// The re-serve law, written out from its documentation: over remaining
/// load (`loads` less one unit per count in `rel`), redraw a pair
/// bounded(n), bounded(n) from `replay`; skip it when both bins are
/// drained dry, else the fuller bin loses a ball, ties by the top bit of
/// one more raw draw; after 4096 attempts the fullest bin, first index
/// winning.  Unit weight.
void reserve_one(const std::vector<load_t>& loads, std::vector<std::uint32_t>& rel,
                 rng_t& replay) {
  const auto n = static_cast<bin_count>(loads.size());
  const auto remaining = [&](std::uint32_t c) { return loads[c] - static_cast<load_t>(rel[c]); };
  for (int attempt = 0; attempt < 4096; ++attempt) {
    const auto i = static_cast<std::uint32_t>(bounded(replay, n));
    const auto j = static_cast<std::uint32_t>(bounded(replay, n));
    if (remaining(i) < 1 && remaining(j) < 1) continue;
    std::uint32_t c;
    if (remaining(i) != remaining(j)) {
      c = remaining(i) > remaining(j) ? i : j;
    } else {
      c = (replay.next() >> 63) != 0 ? i : j;
    }
    ++rel[c];
    return;
  }
  std::uint32_t best = 0;
  for (std::uint32_t i = 1; i < n; ++i) {
    if (remaining(i) > remaining(best)) best = i;
  }
  ++rel[best];
}

TEST(DepartEngine, DrainBlockIsOneFoldOverTheInvertedLiveSnapshotThenClampAndReserve) {
  // Pins the one-shard drain block to the documented law: one kernel_run
  // over the inverted snapshot of the live loads, seeded by the block
  // token itself; every bin's count clamped to its snapshot load; the
  // clamped excess re-served into the counts one event at a time under the
  // re-serve law from rng_t(derive_seed(token, kernel_lanes)), the stream
  // one past the lanes; then one commit of all k events.  On the calling
  // thread whatever the thread count.  The first shape never overdraws a
  // bin; the second (2900 of 3000 balls leave 64 bins) re-serves.
  struct shape {
    bin_count n;
    step_count warm;
    step_count k;
  };
  for (const shape sh : {shape{512, 20000, 6000}, shape{64, 3000, 2900}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
      rng_t rng(0);
      any_process process = churned_process("drain", sh.n, sh.warm, 3, rng);
      load_state expected = process.state();
      const std::vector<load_t> loads = expected.loads();
      rng_t expected_rng = rng;
      const std::uint64_t token = expected_rng.next();
      compact_snapshot inv;
      ASSERT_TRUE(inv.assign_inverted(expected));
      std::vector<std::uint32_t> rel(sh.n, 0);
      kernel_run(kernel_isa::scalar, 8, sh.n, inv.data(), rel.data(), sh.k, token);
      step_count deficit = 0;
      step_count clamped_bins = 0;
      for (bin_count i = 0; i < sh.n; ++i) {
        const auto cap = static_cast<std::uint32_t>(loads[i]);
        if (rel[i] > cap) {
          deficit += rel[i] - cap;
          ++clamped_bins;
          rel[i] = cap;
        }
      }
      rng_t replay(derive_seed(token, 8));
      for (step_count d = 0; d < deficit; ++d) reserve_one(loads, rel, replay);
      expected.apply_releases(rel, 1, sh.k);
      EXPECT_EQ(deficit > 0, sh.n == 64) << sh.n << " bins";

      shard_engine engine(shard_options{.threads = threads, .shards = 1, .min_window = 1});
      engine.depart_many(process, rng, sh.k);
      const window_phase_times& ph = engine.depart_phases();
      const std::string where =
          std::to_string(sh.n) + " bins, " + std::to_string(threads) + " threads";
      EXPECT_EQ(engine.threads(), 1u);
      EXPECT_EQ(ph.windows, 1);
      EXPECT_EQ(ph.reserved_events, deficit) << where;
      EXPECT_EQ(ph.clamped_ranges > 0, clamped_bins > 0) << where;
      // The re-serve's own time is part of the merge phase, and it books
      // time exactly when the block re-served events.
      EXPECT_LE(ph.reserve_ns, ph.merge_ns) << where;
      EXPECT_EQ(ph.reserve_ns > 0, deficit > 0) << where;
      EXPECT_EQ(process.state().loads(), expected.loads()) << where;
      EXPECT_EQ(rng.state(), expected_rng.state()) << where;
    }
  }
}

TEST(DepartEngine, EveryDrainBlockIsOneCommitOfAllItsEvents) {
  // The re-serve lands in the block's counts before the commit, so each
  // drain block is exactly one commit_departures call whose counts sum to
  // the block size -- on one shard and on 16, on the heavy block (2900 of
  // 3000 balls leave 64 bins: the clamp fires and events are re-served)
  // and on an occupancy-8n block that never overdraws a bin.
  struct shape {
    bin_count n;
    step_count warm;
    step_count k;
    bool overdraws;
  };
  for (const shape sh : {shape{64, 3000, 2900, true}, shape{4096, 8 * 4096, 4096, false}}) {
    any_process warmed{two_choice(sh.n)};
    rng_t warm_rng(5);
    step_many(warmed, warm_rng, sh.warm);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
      placed_loads p(warmed.state().loads(), "drain");
      shard_engine engine(shard_options{.threads = 2, .shards = shards, .min_window = 1});
      rng_t rng(11);
      engine.depart_many(p, rng, sh.k);
      const std::string where =
          std::to_string(sh.n) + " bins, " + std::to_string(shards) + " shards";
      EXPECT_EQ(engine.depart_phases().windows, 1) << where;
      ASSERT_EQ(p.commits.size(), 1u) << where;
      EXPECT_EQ(p.commits[0].first, sh.k) << where;
      EXPECT_EQ(p.commits[0].second, sh.k) << where;
      EXPECT_EQ(engine.depart_phases().reserved_events > 0, sh.overdraws) << where;
      EXPECT_EQ(p.st.balls(), sh.warm - sh.k) << where;
    }
  }
}

TEST(DepartEngine, MultiShardDrainRequestIsOneBlockAtAnySize) {
  // No drain request is cut below its size: 200 000 events on 2 shards,
  // above 2 * 65 535 (the per-shard bound that once cut multi-shard
  // blocks), are one block and one commit, and retire exactly k balls.
  const bin_count n = 4096;
  const step_count warm = 400000;
  const step_count k = 200000;
  any_process warmed{two_choice(n)};
  rng_t warm_rng(5);
  step_many(warmed, warm_rng, warm);
  placed_loads p(warmed.state().loads(), "drain");
  shard_engine engine(shard_options{.threads = 2, .shards = 2});
  rng_t rng(12);
  engine.depart_many(p, rng, k);
  EXPECT_EQ(engine.depart_phases().windows, 1);
  ASSERT_EQ(p.commits.size(), 1u);
  EXPECT_EQ(p.commits[0].first, k);
  EXPECT_EQ(p.commits[0].second, k);
  EXPECT_EQ(nb::testing::total_balls(p.st.loads()), warm - k);
  EXPECT_EQ(p.st.balls(), warm - k);
}

TEST(DepartEngine, OneShardDrainCountsSumToKAndStayWithinCapacity) {
  // Fixed per-ball weight 3 and a block retiring all but 20 of 1000
  // balls: the clamp and re-serve fire, yet on every ISA each bin loses a
  // multiple of 3 no larger than its load, and exactly k balls leave.
  const bin_count n = 16;
  const step_count k = 980;
  std::vector<load_t> reference;
  for (const kernel_isa isa : supported_backends()) {
    any_process process{two_choice(n)};
    process.set_model(make_model("fixed:3", "uniform", n, "drain"));
    rng_t rng(12);
    step_many(process, rng, 1000);
    const std::vector<load_t> before = process.state().loads();
    shard_engine engine(shard_options{.shards = 1, .min_window = 1, .isa = isa});
    engine.depart_many(process, rng, k);
    EXPECT_GT(engine.depart_phases().reserved_events, 0) << kernel_isa_name(isa);
    EXPECT_EQ(process.state().balls(), 1000 - k);
    EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 3 * (1000 - k));
    step_count departed = 0;
    for (bin_count i = 0; i < n; ++i) {
      const load_t drop = before[i] - process.state().loads()[i];
      EXPECT_GE(drop, 0) << kernel_isa_name(isa) << " bin " << i;
      EXPECT_LE(drop, before[i]) << kernel_isa_name(isa) << " bin " << i;
      EXPECT_EQ(drop % 3, 0) << kernel_isa_name(isa) << " bin " << i;
      departed += drop / 3;
    }
    EXPECT_EQ(departed, k) << kernel_isa_name(isa);
    if (reference.empty()) {
      reference = process.state().loads();
    } else {
      EXPECT_EQ(process.state().loads(), reference) << kernel_isa_name(isa);
    }
  }
}

TEST(DepartEngine, ReserveLawRefusesOnceNoBinCoversTheWeight) {
  // The re-serve law over 8 bins of snapshot load 12 + i % 5: with every
  // bin drained but bin 5, the redraws (or the fallback) must land there;
  // once every bin is drained dry it refuses with the weight-naming
  // contract error instead of overdrawing.
  const bin_count n = 8;
  std::vector<load_t> loads(n);
  for (bin_count i = 0; i < n; ++i) loads[i] = 12 + static_cast<load_t>(i % 5);
  compact_snapshot inv;
  ASSERT_TRUE(inv.assign_inverted(loads));
  std::vector<std::uint32_t> rel(loads.begin(), loads.end());
  rel[5] -= 1;
  rng_t replay(99);
  EXPECT_EQ(engine_detail::depart_replay(n, inv.data(), inv.base(), 1, rel.data(), replay), 5u);
  EXPECT_EQ(rel[5], static_cast<std::uint32_t>(loads[5]));
  try {
    (void)engine_detail::depart_replay(n, inv.data(), inv.base(), 1, rel.data(), replay);
    FAIL() << "a drained-dry snapshot must refuse";
  } catch (const contract_error& e) {
    EXPECT_NE(std::string(e.what()).find("weight 1"), std::string::npos) << e.what();
  }
}

TEST(DepartEngine, OneShardDrainBlockThatNeverOverdrawsKeepsItsDigest) {
  // An occupancy-8n drain block on one shard never overdraws a bin, so
  // nothing is clamped or re-served.  The digest was recorded when
  // one-shard drain blocks ran a separate checked kernel that replayed
  // drained-dry picks inline.
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const kernel_isa isa : supported_backends()) {
      const drain_block_run steady = shard_drain_block(4096, 8 * 4096, 4096, 1, threads, isa);
      EXPECT_EQ(steady.digest, 16144933582718212715ULL)
          << threads << " threads, " << kernel_isa_name(isa);
      EXPECT_EQ(steady.phases.clamped_ranges, 0);
      EXPECT_EQ(steady.phases.reserved_events, 0);
    }
  }
}

TEST(DepartEngine, HeavyOneShardDrainBlockClampsReservesAndMatchesItsDigest) {
  // GoldenMultiShardDepartureStreams' drain block (2900 of 3000 balls
  // leave 64 bins) on one shard: the block overdraws, so the clamp and
  // re-serve fire and report it, whatever the thread count and ISA.
  const drain_block_run heavy = shard_drain_block(64, 3000, 2900, 1);
  EXPECT_EQ(heavy.digest, 8403636406541552254ULL);
  EXPECT_GT(heavy.phases.clamped_ranges, 0);
  EXPECT_GT(heavy.phases.reserved_events, 0);
  EXPECT_EQ(heavy.balls, 100);
  EXPECT_EQ(nb::testing::total_balls(heavy.loads), 100);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    for (const kernel_isa isa : supported_backends()) {
      const drain_block_run other = shard_drain_block(64, 3000, 2900, 1, threads, isa);
      EXPECT_EQ(other.digest, heavy.digest) << threads << " threads, " << kernel_isa_name(isa);
      EXPECT_EQ(other.phases.reserved_events, heavy.phases.reserved_events);
    }
  }
}

TEST(DepartEngineKernel, LeaseRequestsTakeThePerEventLaw) {
  // The lease channel is RNG-free FIFO popping: the engine hands lease
  // requests to the serial per-event loop, so the result is that loop's
  // exactly, stream position included.
  rng_t rng_a(3);
  any_process batched = churned_process("lease", 32, 5000, 3, rng_a);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.depart_many(batched, rng_a, 4000);

  rng_t rng_b(3);
  any_process serial = churned_process("lease", 32, 5000, 3, rng_b);
  depart_many(serial, rng_b, 4000);

  EXPECT_EQ(batched.state().loads(), serial.state().loads());
  EXPECT_EQ(batched.state().balls(), 1000);
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(DepartEngineKernel, WeightedDrainRetiresTheBallsActualWeight) {
  // Fixed per-ball weight 3: every batched departure must retire exactly
  // 3 load units, so total load tracks 3 * balls throughout.
  const bin_count n = 32;
  any_process process{two_choice(n)};
  process.set_model(make_model("fixed:3", "uniform", n, "drain"));
  rng_t rng(9);
  step_many(process, rng, 3000);
  ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 9000);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.depart_many(process, rng, 1000);
  EXPECT_EQ(process.state().balls(), 2000);
  EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 6000);
}

// ---------------------------------------------------------------------------
// (2) The silent-fallback diagnostics: every path that quietly serves a
// batched-departure request through the serial per-event loop must say so
// once (warn_once), and must still serve it bit-identically to the serial
// reference.

TEST(DepartEngineKernel, UndersizedBlocksFallBackToSerialWithDiagnostic) {
  rng_t rng_a(13);
  any_process via_engine = churned_process("drain", 64, 2000, 13, rng_a);
  const std::string key = "depart-engine-window/" + via_engine.name();
  shard_engine engine(shard_options{.shards = 1});  // default min_window = 4096
  engine.depart_many(via_engine, rng_a, 100);
  EXPECT_TRUE(warned(key)) << key;

  rng_t rng_b(13);
  any_process serial = churned_process("drain", 64, 2000, 13, rng_b);
  depart_many(serial, rng_b, 100);
  EXPECT_EQ(via_engine.state().loads(), serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(DepartEngineKernel, SpanSaturatedLoadsFallBackToSerialWithDiagnostic) {
  // Three fixed-weight-300 balls over two bins leave loads {600, 300}:
  // the 300-unit span exceeds the compact snapshot's 8-bit range.  A
  // random block reads the live loads, so it still batches: no warning,
  // one unit quantum retired, total weight conserved.
  {
    any_process process{two_choice(2)};
    process.set_model(make_model("fixed:300", "uniform", 2, "random"));
    rng_t rng(1);
    step_many(process, rng, 3);
    ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 900);
    shard_engine engine(shard_options{.shards = 1, .min_window = 1});
    engine.depart_many(process, rng, 1);
    EXPECT_FALSE(warned("depart-engine-drain-span/" + process.name()));
    EXPECT_EQ(engine.depart_phases().windows, 1);
    EXPECT_EQ(process.state().balls(), 2);
    EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 899);
    EXPECT_EQ(process.state().total_weight(), 899);
  }
  // A drain block snapshots the loads, so it must decline, warn once, and
  // serve serially.
  any_process process{two_choice(2)};
  process.set_model(make_model("fixed:300", "uniform", 2, "drain"));
  rng_t rng(1);
  step_many(process, rng, 3);
  ASSERT_EQ(nb::testing::total_balls(process.state().loads()), 900);
  const std::string key = "depart-engine-drain-span/" + process.name();
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.depart_many(process, rng, 1);
  EXPECT_TRUE(warned(key)) << key;
  EXPECT_EQ(process.state().balls(), 2);
  EXPECT_EQ(nb::testing::total_balls(process.state().loads()), 600);
}

/// A minimal process with a per-event depart() but no commit_departures:
/// the engines must accept it, warn once, and run the serial loop.
struct bare_departer {
  load_state st{16};
  void step(rng_t& rng) { st.allocate(static_cast<bin_index>(bounded(rng, 16))); }
  void depart(rng_t& rng) {
    (void)rng;
    const auto& loads = st.loads();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      if (loads[i] > 0) {
        st.release(static_cast<bin_index>(i), 1);
        return;
      }
    }
  }
  [[nodiscard]] const load_state& state() const { return st; }
  [[nodiscard]] std::string name() const { return "bare-departer"; }
};

// ---------------------------------------------------------------------------
// (3) Asking for more departures than there are resident balls: both
// engines refuse before the first block -- contract_error naming both
// counts, state and stream untouched -- instead of redrawing forever
// (random) or throwing inside a pool task (shard drain).

/// Serves `count` departures from `p` through engine `mode`: 0 = one
/// shard, 1 / 4 = the default 16 shards at that many threads.
void engine_depart(int mode, b_batch& p, rng_t& rng, step_count count) {
  shard_engine engine(mode == 0 ? shard_options{.shards = 1}
                                : shard_options{.threads = static_cast<std::size_t>(mode)});
  engine.depart_many(p, rng, count);
}

TEST(DepartEngine, MoreDeparturesThanResidentBallsThrowUpFront) {
  const bin_count n = 8192;
  struct ask {
    const char* channel;
    step_count resident;
    step_count request;
  };
  for (const ask& a :
       {ask{"random", 5000, 6000}, ask{"drain", 200, 4096}, ask{"lease", 3000, 3001}}) {
    for (const int mode : {0, 1, 4}) {
      b_batch p(n, n);
      p.set_model(make_model("unit", "uniform", n, a.channel));
      rng_t rng(4);
      step_many(p, rng, a.resident);
      const std::vector<load_t> loads = p.state().loads();
      const auto stream = rng.state();
      try {
        engine_depart(mode, p, rng, a.request);
        FAIL() << a.channel << " mode " << mode << " must refuse";
      } catch (const contract_error& e) {
        const std::string what = e.what();
        EXPECT_NE(what.find(std::to_string(a.request)), std::string::npos) << what;
        EXPECT_NE(what.find(std::to_string(a.resident)), std::string::npos) << what;
      }
      EXPECT_EQ(p.state().loads(), loads) << a.channel << " mode " << mode;
      EXPECT_EQ(p.state().balls(), a.resident) << a.channel << " mode " << mode;
      EXPECT_EQ(rng.state(), stream) << a.channel << " mode " << mode;
    }
  }
}

TEST(DepartEngine, DepartingEveryResidentBallEmptiesTheSystem) {
  // The boundary of the guard: exactly the resident count is served, on
  // every engine, through the clamp/repair path at its most stressed.
  const bin_count n = 8192;
  for (const char* channel : {"random", "drain", "lease"}) {
    for (const int mode : {0, 1, 4}) {
      b_batch p(n, n);
      p.set_model(make_model("unit", "uniform", n, channel));
      rng_t rng(6);
      step_many(p, rng, 5000);
      engine_depart(mode, p, rng, 5000);
      EXPECT_EQ(p.state().balls(), 0) << channel << " mode " << mode;
      EXPECT_EQ(p.state().max_load(), 0) << channel << " mode " << mode;
    }
  }
}

TEST(DepartEngine, NonBatchDepartableFallsBackToSerialWithDiagnostic) {
  bare_departer process;
  rng_t rng(2);
  for (int i = 0; i < 50; ++i) process.step(rng);
  shard_engine kernel(shard_options{.shards = 1, .min_window = 1});
  kernel.depart_many(process, rng, 5);
  EXPECT_TRUE(warned("depart-engine/bare-departer"));
  EXPECT_EQ(process.state().balls(), 45);

  shard_engine shard(shard_options{.threads = 2, .min_window = 1});
  shard.depart_many(process, rng, 5);
  EXPECT_EQ(process.state().balls(), 40);
}

// ---------------------------------------------------------------------------
// (4) Exact laws.  Random blocks: one exact serial pass of hypergeometric
// counts over the live loads, whatever the shard, thread, lane and ISA
// setting.  Drain blocks no clamp touches: multinomial under max-select.

/// The multivariate hypergeometric pmf of k departures over `loads`: cell
/// c (mixed radix loads[i] + 1, bin 0 fastest) holds prod C(loads[i],
/// c[i]) / C(M, k) when the counts sum to k, else 0.
std::vector<double> mvh_pmf(const std::vector<load_t>& loads, step_count k) {
  const auto choose = [](std::int64_t n, std::int64_t r) {
    long double c = 1.0L;
    for (std::int64_t j = 1; j <= r; ++j) c = c * static_cast<long double>(n - r + j) / j;
    return c;
  };
  std::size_t cells = 1;
  std::int64_t total = 0;
  for (const load_t l : loads) {
    cells *= static_cast<std::size_t>(l) + 1;
    total += l;
  }
  std::vector<double> pmf(cells, 0.0);
  for (std::size_t cell = 0; cell < cells; ++cell) {
    std::size_t rest = cell;
    std::int64_t sum = 0;
    long double ways = 1.0L;
    for (const load_t l : loads) {
      const auto c = static_cast<std::int64_t>(rest % (static_cast<std::size_t>(l) + 1));
      rest /= static_cast<std::size_t>(l) + 1;
      sum += c;
      ways *= choose(l, c);
    }
    if (sum == k) pmf[cell] = static_cast<double>(ways / choose(total, k));
  }
  return pmf;
}

TEST(DepartEngineRandom, BlocksFollowTheExactMultivariateHypergeometricLaw) {
  // The random departure leaf's exact law: 10^5 engine blocks per shard
  // count on pinned seeds, G-tested against the enumerated pmf at
  // alpha = 10^-3.  {3, 1, 2, 0} with k = 3 is the small-n oracle;
  // {20, 15, 25} with k = 30 sends its first bin through the sampler's
  // mode walk.
  struct shape {
    std::vector<load_t> loads;
    step_count k;
  };
  for (const shape& sh : {shape{{3, 1, 2, 0}, 3}, shape{{20, 15, 25}, 30}}) {
    const placed_loads start(sh.loads);
    const std::vector<double> pmf = mvh_pmf(sh.loads, sh.k);
    for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
      shard_engine engine(shard_options{.threads = 2, .shards = shards, .min_window = 1});
      rng_t rng(derive_seed(2025, shards));
      std::vector<std::int64_t> counts(pmf.size(), 0);
      const int blocks = 100000;
      for (int b = 0; b < blocks; ++b) {
        placed_loads p = start;
        engine.depart_many(p, rng, sh.k);
        std::size_t cell = 0;
        std::size_t radix = 1;
        for (std::size_t i = 0; i < sh.loads.size(); ++i) {
          cell += static_cast<std::size_t>(sh.loads[i] - p.st.loads()[i]) * radix;
          radix *= static_cast<std::size_t>(sh.loads[i]) + 1;
        }
        ASSERT_GT(pmf[cell], 0.0) << "impossible departure counts, block " << b;
        ++counts[cell];
      }
      EXPECT_EQ(engine.depart_phases().windows, blocks);
      const double p = nb::testing::g_test_p_value(counts, pmf);
      std::cout << "MVH oracle, " << sh.loads.size() << " bins, k = " << sh.k << ", " << shards
                << " shards: G-test p = " << p << "\n";
      EXPECT_GT(p, 1e-3) << shards << " shards";
    }
  }
}

TEST(DepartEngineDrain, BlocksFollowTheExactMaxSelectLaw) {
  // The drain leaf's exact law: while no bin can drain dry, each event of
  // a block takes one ball from the fuller of two uniform bins by
  // snapshot load, ties fair, independently of the others -- so a block's
  // counts are Multinomial(k, p) with p the two-choice law over the
  // negated loads, and so are the summed counts of independent blocks
  // (Multinomial(blocks * k, p)).  4000 blocks of k = 256 from the same
  // 16 loads per shard count on pinned seeds, G-tested at alpha = 10^-3.
  // Every bin holds at least 1000 balls, far above k, so no clamp fires.
  const std::vector<load_t> loads = {1000, 1003, 1003, 1001, 1007, 1000, 1002, 1005,
                                     1003, 1001, 1000, 1006, 1004, 1002, 1007, 1001};
  std::vector<load_t> negated;
  for (const load_t l : loads) negated.push_back(-l);
  const std::vector<double> p = two_choice_probabilities(negated);
  std::cout << "drain max-select law p =";
  for (const double q : p) std::cout << " " << q;
  std::cout << "\n";
  const placed_loads start(loads, "drain");
  const step_count k = 256;
  const int blocks = 4000;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    shard_engine engine(shard_options{.threads = 2, .shards = shards, .min_window = 1});
    rng_t rng(derive_seed(2026, shards));
    std::vector<std::int64_t> counts(loads.size(), 0);
    for (int b = 0; b < blocks; ++b) {
      placed_loads q = start;
      engine.depart_many(q, rng, k);
      for (std::size_t i = 0; i < loads.size(); ++i) counts[i] += loads[i] - q.st.loads()[i];
    }
    const window_phase_times& ph = engine.depart_phases();
    EXPECT_EQ(ph.windows, blocks);
    EXPECT_EQ(ph.clamped_ranges, 0) << shards << " shards";
    EXPECT_EQ(ph.reserved_events, 0) << shards << " shards";
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), blocks * k);
    const double pv = nb::testing::g_test_p_value(counts, p);
    std::cout << "drain max-select oracle, " << loads.size() << " bins, k = " << k << ", "
              << shards << " shards: G-test p = " << pv << "\n";
    EXPECT_GT(pv, 1e-3) << shards << " shards";
  }
}

TEST(DepartEngineRandom, BlockIsOneHypergeometricPassOverTheLiveLoads) {
  // Pins the documented pass: bins in order, bin i drawing
  // Hypergeometric(k_rem, load_i, M_rem) from rng_t(token) with the
  // block's one master-stream token, empty bins and bins after k_rem hits
  // 0 drawing nothing.  No snapshot, merge or repair at any shard count.
  const bin_count n = 512;
  const step_count k = 6000;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{16}}) {
    rng_t rng(0);
    any_process process = churned_process("random", n, 20000, 3, rng);
    load_state expected = process.state();
    rng_t expected_rng = rng;
    rng_t pass(expected_rng.next());
    std::vector<std::uint32_t> rel(n, 0);
    step_count left = k;
    weight_t resident = expected.total_weight();
    for (bin_count i = 0; i < n && left > 0; ++i) {
      const load_t load = expected.loads()[i];
      if (load == 0) continue;
      rel[i] = static_cast<std::uint32_t>(hypergeometric(pass, left, load, resident));
      left -= rel[i];
      resident -= load;
    }
    expected.apply_releases(rel, 1, k);

    shard_engine engine(shard_options{.threads = 2, .shards = shards, .min_window = 1});
    engine.depart_many(process, rng, k);
    EXPECT_EQ(process.state().loads(), expected.loads()) << shards << " shards";
    EXPECT_EQ(rng.state(), expected_rng.state()) << shards << " shards";
    const window_phase_times& ph = engine.depart_phases();
    EXPECT_EQ(ph.windows, 1);
    EXPECT_EQ(ph.snapshot_ns, 0);
    EXPECT_EQ(ph.merge_ns, 0);
    EXPECT_EQ(ph.reserve_ns, 0);
    EXPECT_EQ(ph.clamped_ranges, 0);
    EXPECT_EQ(ph.reserved_events, 0);
  }
}

TEST(DepartEngineRandom, BlocksIdenticalAtEveryShardThreadAndIsaSetting) {
  // Loads and master stream after two random blocks, at shards {1, 2, 16}
  // x threads {1, 2, 4} x every supported ISA.  At n = 2^17 the pooled
  // engines commit by range.
  const bin_count n = bin_count{1} << 17;
  b_batch warmed(n, n);
  warmed.set_model(make_model("unit", "uniform", n, "random"));
  rng_t warm_rng(8);
  step_many(warmed, warm_rng, 3 * static_cast<step_count>(n));
  std::vector<load_t> reference;
  std::array<std::uint64_t, 4> reference_stream{};
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
      for (const kernel_isa isa : supported_backends()) {
        b_batch p = warmed;
        rng_t rng = warm_rng;
        shard_engine engine(shard_options{.threads = threads, .shards = shards, .isa = isa});
        engine.depart_many(p, rng, n);
        engine.depart_many(p, rng, n / 2);
        EXPECT_EQ(engine.depart_phases().windows, 2);
        EXPECT_EQ(p.state().balls(), 3 * static_cast<step_count>(n) / 2);
        if (reference.empty()) {
          reference = p.state().loads();
          reference_stream = rng.state();
          continue;
        }
        EXPECT_EQ(p.state().loads(), reference)
            << shards << " shards, " << threads << " threads, " << kernel_isa_name(isa);
        EXPECT_EQ(rng.state(), reference_stream)
            << shards << " shards, " << threads << " threads, " << kernel_isa_name(isa);
      }
    }
  }
}

}  // namespace
