// The lane-interleaved SIMD allocation kernel (core/kernel/) and its hard
// contract: the accumulated counts are a pure function of (n, snapshot,
// balls, seed) -- the instruction-set backend is execution only and NEVER
// affects results, and the lane count is fixed at kernel_lanes.  The suite
// pins
//   (1) the lane streams to the public xoshiro256++/derive_seed reference,
//   (2) the scalar backend to an independently written replay of the
//       documented per-ball draw order (Lemire i1, Lemire i2, tie draw),
//   (3) every vector backend to the scalar backend, bit for bit, including
//       partial rounds, multi-block runs and the rejection replay path,
//   (4) the windowed engine (one shard and several) to ISA- and
//       thread-count-invariance for every registered process, to the
//       exact min-select law of a window, and to distributional parity
//       with the serial bulk path,
//   (5) a golden value so the sampling contract cannot drift silently
//       between releases.
#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <numeric>
#include <string>

#include "core/analysis/allocation_probability.hpp"
#include "core/kernel/kernel_common.hpp"
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

/// A deterministic snapshot with plenty of ties (offsets cycle 0..4) and
/// the 3 padding bytes the vector gathers require.
std::vector<std::uint8_t> make_snapshot(bin_count n) {
  std::vector<std::uint8_t> snap(static_cast<std::size_t>(n) + compact_snapshot::tail_padding, 0);
  for (bin_count i = 0; i < n; ++i) snap[i] = static_cast<std::uint8_t>(i % 5);
  return snap;
}

std::vector<std::uint32_t> kernel_counts(kernel_isa isa, bin_count n,
                                         const std::vector<std::uint8_t>& snap, step_count balls,
                                         std::uint64_t seed) {
  std::vector<std::uint32_t> row(n, 0);
  kernel_run(isa, kernel_lanes, n, snap.data(), row.data(), balls, seed);
  return row;
}

// ---------------------------------------------------------------------------
// (1) Lane streams.

TEST(KernelLanes, LaneStreamsMatchDerivedXoshiroReference) {
  // Lane l of the SoA state must replay nb::xoshiro256pp(derive_seed(seed, l))
  // exactly -- this is what makes the kernel's sampling auditable from the
  // public RNG API alone.
  kernel_detail::lane_soa st;
  st.init(2024);
  for (std::size_t l = 0; l < kernel_lanes; ++l) {
    rng_t reference(derive_seed(2024, l));
    for (int i = 0; i < 100; ++i) {
      ASSERT_EQ(st.next(l), reference.next()) << "lane " << l << " draw " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// (2) The scalar backend vs an independent replay of the documented
// sampling order.

TEST(Kernel, ScalarMatchesDocumentedDrawOrder) {
  const bin_count n = 97;
  const std::size_t lanes = kernel_lanes;
  const step_count balls = 1003;  // partial trailing round on purpose
  const std::uint64_t seed = 77;
  const auto snap = make_snapshot(n);

  // Reference: per-lane xoshiro streams; ball t uses lane t % lanes and
  // draws, in order, bounded(i1), bounded(i2), one raw tie draw.
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  std::vector<std::uint32_t> expected(n, 0);
  for (step_count t = 0; t < balls; ++t) {
    rng_t& rng = lane_rng[static_cast<std::size_t>(t) % lanes];
    const auto i1 = static_cast<bin_index>(bounded(rng, n));
    const auto i2 = static_cast<bin_index>(bounded(rng, n));
    const std::uint64_t c = rng.next();
    const std::uint8_t a = snap[i1];
    const std::uint8_t b = snap[i2];
    const bin_index chosen = a < b ? i1 : (b < a ? i2 : ((c >> 63) != 0 ? i1 : i2));
    ++expected[chosen];
  }

  EXPECT_EQ(kernel_counts(kernel_isa::scalar, n, snap, balls, seed), expected);
  EXPECT_EQ(std::accumulate(expected.begin(), expected.end(), std::int64_t{0}), balls);
}

TEST(Kernel, DecideAgreesWithBBatchSnapshotDecide) {
  // The kernel's branchless decide and b_batch::snapshot_decide implement
  // the same rule: feed snapshot_decide an rng whose next draw is exactly
  // the kernel's tie word and the choices must coincide -- for every
  // (less, greater, tie) x (bit set, bit clear) combination.
  const std::uint8_t snap[4] = {3, 7, 3, 0};
  rng_t rng(1234);
  for (int trial = 0; trial < 64; ++trial) {
    for (bin_index i1 = 0; i1 < 3; ++i1) {
      for (bin_index i2 = 0; i2 < 3; ++i2) {
        rng_t peek = rng;                   // snapshot_decide may consume one draw
        const std::uint64_t c = peek.next();  // ... and it would draw exactly this
        rng_t ref = rng;
        const bin_index want = b_batch::snapshot_decide(snap, i1, i2, ref);
        EXPECT_EQ(kernel_detail::decide(snap[i1], snap[i2], c, i1, i2), want)
            << "i1=" << i1 << " i2=" << i2 << " c.top=" << (c >> 63);
      }
    }
    rng.next();
  }
}

TEST(Kernel, ReplayBallConsumesQueueThenLiveStream) {
  // Force a genuine Lemire rejection through the queue: for bound = 3 the
  // threshold is (2^64 mod 3) = 1 and x = 0 yields low = 0 < 1, so a
  // queued first draw of 0 must be rejected and the retry must come from
  // the queue's next value, then the lane's live stream -- the exact
  // continuation the vector backends rely on when their rejection test
  // fires.  Both bin draws: uniform (3 queued draws) and alias (5).
  const std::uint64_t bound = 3;
  const std::uint64_t threshold = kernel_detail::lemire_threshold(bound);
  ASSERT_EQ(threshold, 1u);
  const std::uint8_t snap[8] = {0, 1, 2, 0, 1, 2, 0, 1};
  const alias_table table(std::vector<double>{1.0, 2.0, 5.0});
  const std::vector<std::uint64_t> queue = {0, 5, std::uint64_t{1} << 63, ~std::uint64_t{0} / 3,
                                            std::uint64_t{1} << 62};

  for (const bool alias : {false, true}) {
    const int queued = alias ? 5 : 3;
    kernel_detail::lane_soa st;
    st.init(99);
    const std::uint32_t got =
        alias ? kernel_detail::replay_ball(st, 1, bound, threshold, snap,
                                           kernel_detail::alias_bins{table.thresholds(),
                                                                     table.aliases()},
                                           queue.data(), queued)
              : kernel_detail::replay_ball(st, 1, bound, threshold, snap,
                                           kernel_detail::uniform_bins{}, queue.data(), queued);

    // Reference: same composite stream (queue, then lane 1's live draws).
    rng_t live(derive_seed(99, 1));
    std::vector<std::uint64_t> stream(queue.begin(), queue.begin() + queued);
    for (int i = 0; i < 8; ++i) stream.push_back(live.next());
    std::size_t pos = 0;
    const auto draw_bounded = [&] {
      for (;;) {
        const std::uint64_t x = stream[pos++];
        const auto m = static_cast<__uint128_t>(x) * bound;
        if (static_cast<std::uint64_t>(m) >= threshold) return static_cast<std::uint32_t>(m >> 64);
      }
    };
    // Alias: a slot, then one keep draw against the slot's threshold.
    const auto draw_bin = [&] {
      const std::uint32_t slot = draw_bounded();
      if (!alias) return slot;
      const std::uint64_t u = stream[pos++];
      return u < table.thresholds()[slot] ? slot : table.aliases()[slot];
    };
    const std::uint32_t i1 = draw_bin();
    const std::uint32_t i2 = draw_bin();
    const std::uint64_t c = stream[pos++];
    EXPECT_EQ(got, kernel_detail::decide(snap[i1], snap[i2], c, i1, i2)) << "alias=" << alias;
    // The rejection actually consumed an extra draw, past the queue.
    EXPECT_EQ(pos, static_cast<std::size_t>(queued) + 1) << "alias=" << alias;

    // The lane must sit exactly past the draws the ball consumed: its next
    // output continues the reference stream.
    EXPECT_EQ(st.next(1), stream[pos]) << "alias=" << alias;
  }
}

// ---------------------------------------------------------------------------
// (3) Backend bit-parity.

TEST(Kernel, BackendsBitIdenticalAcrossShapes) {
  // Every supported backend must reproduce the scalar counts bit for bit
  // over awkward shapes: tiny bins, ball counts below one round and ending
  // mid-round, whole rounds, and multiple blocks (balls > the driver's
  // 8192-ball block, one ball past a block boundary included).
  const auto isas = supported_backends();
  ASSERT_GE(isas.size(), 1u);
  for (const bin_count n : {1u, 2u, 7u, 97u, 4096u}) {
    const auto snap = make_snapshot(n);
    for (const step_count balls : {step_count{1}, step_count{7}, step_count{63},
                                   step_count{1000}, step_count{1003}, step_count{8193},
                                   step_count{20000}}) {
      const auto reference = kernel_counts(kernel_isa::scalar, n, snap, balls, 31337);
      EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), std::int64_t{0}), balls);
      for (const kernel_isa isa : isas) {
        EXPECT_EQ(kernel_counts(isa, n, snap, balls, 31337), reference)
            << kernel_isa_name(isa) << " n=" << n << " balls=" << balls;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Alias-sampled lane path (PR 5): non-uniform bin probabilities through
// the same lane contract.

std::vector<std::uint32_t> kernel_alias_counts(kernel_isa isa, bin_count n,
                                               const std::vector<std::uint8_t>& snap,
                                               const alias_table& table, step_count balls,
                                               std::uint64_t seed) {
  std::vector<std::uint8_t> low(n, 0);
  std::vector<std::uint32_t> carries;
  kernel_run_alias(isa, n, snap.data(), table.thresholds(), table.aliases(), low.data(), carries,
                   balls, seed);
  return nb::testing::widen_counts(low, carries);
}

TEST(KernelAlias, BackendsBitIdenticalAcrossShapes) {
  // The alias lane path's backend contract, over the same awkward shapes
  // as the uniform path: tiny bins, mid-round tails, multi-block runs.
  // AVX2 and AVX-512 use hardware gathers for the threshold / alias /
  // snapshot lookups -- both must match the scalar reference bit for bit.
  const auto isas = supported_backends();
  for (const bin_count n : {1u, 2u, 7u, 97u, 4096u}) {
    const auto snap = make_snapshot(n);
    std::vector<double> weights(n);
    for (bin_count i = 0; i < n; ++i) weights[i] = 1.0 / (1.0 + static_cast<double>(i));
    const alias_table table(weights);
    for (const step_count balls : {step_count{1}, step_count{7}, step_count{63},
                                   step_count{1003}, step_count{8193}, step_count{20000}}) {
      const auto reference = kernel_alias_counts(kernel_isa::scalar, n, snap, table, balls, 99);
      EXPECT_EQ(std::accumulate(reference.begin(), reference.end(), std::int64_t{0}), balls);
      for (const kernel_isa isa : isas) {
        EXPECT_EQ(kernel_alias_counts(isa, n, snap, table, balls, 99), reference)
            << kernel_isa_name(isa) << " n=" << n << " balls=" << balls;
      }
    }
  }
}

/// The alias kernel's counts replayed in a uint32 row from the documented
/// draw order -- per ball and lane: slot1 (Lemire draws), u1, slot2, u2,
/// tie -- through the public RNG API and the table alone.
std::vector<std::uint32_t> documented_alias_counts(bin_count n, const std::uint8_t* snap,
                                                   const alias_table& table, step_count balls,
                                                   std::uint64_t seed) {
  std::vector<std::uint32_t> expected(n, 0);
  std::vector<rng_t> lane_rng;
  for (std::size_t l = 0; l < kernel_lanes; ++l) lane_rng.emplace_back(derive_seed(seed, l));
  for (step_count t = 0; t < balls; ++t) {
    rng_t& rng = lane_rng[static_cast<std::size_t>(t) % kernel_lanes];
    const auto slot1 = static_cast<bin_index>(bounded(rng, n));
    const std::uint64_t u1 = rng.next();
    const bin_index i1 = u1 < table.thresholds()[slot1] ? slot1 : table.aliases()[slot1];
    const auto slot2 = static_cast<bin_index>(bounded(rng, n));
    const std::uint64_t u2 = rng.next();
    const bin_index i2 = u2 < table.thresholds()[slot2] ? slot2 : table.aliases()[slot2];
    const std::uint64_t c = rng.next();
    const bool pick_first = (snap[i1] < snap[i2]) || ((snap[i1] == snap[i2]) && (c >> 63) != 0);
    ++expected[pick_first ? i1 : i2];
  }
  return expected;
}

TEST(KernelAlias, ScalarMatchesDocumentedAliasDrawOrder) {
  const bin_count n = 11;
  const auto snap = make_snapshot(n);
  std::vector<double> weights(n, 1.0);
  weights[3] = 8.0;  // something non-uniform
  const alias_table table(weights);
  EXPECT_EQ(kernel_alias_counts(kernel_isa::scalar, n, snap, table, 500, 4242),
            documented_alias_counts(n, snap.data(), table, 500, 4242));
}

// ---------------------------------------------------------------------------
// The byte form: a byte row plus a carry list counts what the uint32 row
// counts.

/// A non-uniform sampler for n bins (weights 1..7, repeating).
alias_table skewed_table(bin_count n) {
  std::vector<double> weights(n);
  for (bin_count i = 0; i < n; ++i) weights[i] = static_cast<double>((i % 7) + 1);
  return alias_table(weights);
}

TEST(KernelByteRow, CountsMatchTheUint32RowAtEveryIsa) {
  // 16 bins and 16 000 balls: a bin takes about 1000 balls, so most bytes
  // wrap, several times over; 16 003 balls end in a partial round.
  const bin_count n = 16;
  const auto snap = make_snapshot(n);
  const alias_table table = skewed_table(n);
  for (const step_count balls : {step_count{16000}, step_count{16003}}) {
    for (const kernel_isa isa : supported_backends()) {
      std::vector<std::uint8_t> low(n, 0);
      std::vector<std::uint32_t> carries;
      kernel_run(isa, n, snap.data(), low.data(), carries, balls, 17);
      const std::vector<std::uint32_t> wide = kernel_counts(isa, n, snap, balls, 17);
      EXPECT_EQ(nb::testing::widen_counts(low, carries), wide)
          << kernel_isa_name(isa) << " balls=" << balls;
      EXPECT_GE(*std::max_element(wide.begin(), wide.end()), 512u);
      std::size_t wraps = 0;
      for (const std::uint32_t c : wide) wraps += c / 256;
      EXPECT_EQ(carries.size(), wraps);

      // Alias sampling has no uint32 kernel form: the byte form against
      // the documented draw order replayed into a uint32 row.
      low.assign(n, 0);
      carries.clear();
      kernel_run_alias(isa, n, snap.data(), table.thresholds(), table.aliases(), low.data(),
                       carries, balls, 17);
      const std::vector<std::uint32_t> alias_wide =
          documented_alias_counts(n, snap.data(), table, balls, 17);
      EXPECT_EQ(nb::testing::widen_counts(low, carries), alias_wide)
          << kernel_isa_name(isa) << " balls=" << balls;
      std::size_t alias_wraps = 0;
      for (const std::uint32_t c : alias_wide) alias_wraps += c / 256;
      EXPECT_EQ(carries.size(), alias_wraps);
    }
  }
}

TEST(KernelByteRow, AccumulatesOntoARow) {
  // Like the uint32 form, the byte form adds to what the row holds: a
  // second call's wraps carry on from the first call's bytes.
  const bin_count n = 16;
  const auto snap = make_snapshot(n);
  std::vector<std::uint8_t> low(n, 0);
  std::vector<std::uint32_t> carries;
  std::vector<std::uint32_t> wide(n, 0);
  for (const std::uint64_t seed : {3u, 4u, 5u}) {
    kernel_run(kernel_isa::scalar, n, snap.data(), low.data(), carries, 3000, seed);
    kernel_run(kernel_isa::scalar, kernel_lanes, n, snap.data(), wide.data(), 3000, seed);
  }
  EXPECT_EQ(nb::testing::widen_counts(low, carries), wide);
}

TEST(Kernel, GoldenLaneContractRegression) {
  // Frozen reference values for (seed 42, n 101, lanes 8, balls 10^5) on
  // the cyclic snapshot: an FNV-1a fold of the count vector plus spot
  // counts.  These pin the sampling contract itself -- any change to lane
  // seeding, draw order, Lemire acceptance or the tie rule shows up here.
  // EVERY compiled backend must hit the same golden hash directly (not
  // just match scalar): a contract drift that slipped into all backends at
  // once would still fail here.
  const bin_count n = 101;
  const auto snap = make_snapshot(n);
  for (const kernel_isa isa : supported_backends()) {
    const auto counts = kernel_counts(isa, n, snap, 100000, 42);
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), 100000)
        << kernel_isa_name(isa);
    EXPECT_EQ(fnv1a(counts), 852822278533736135ULL) << kernel_isa_name(isa);
    EXPECT_EQ(counts[0], 1784u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[1], 1301u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[2], 986u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[3], 579u) << kernel_isa_name(isa);
    EXPECT_EQ(counts[4], 206u) << kernel_isa_name(isa);
  }
}

TEST(Kernel, FixedScheduleBitIdenticalAcrossBackends) {
  // The one schedule each backend runs -- one round of kernel_lanes balls
  // per iteration, the trailing partial round replayed scalar -- must
  // match the scalar reference bit for bit, uniform and alias.  Shapes
  // cover whole rounds (balls >> lanes), odd ball counts that end
  // mid-round and hand the tail to the replay loop, and multi-block runs.
  const bin_count n = 257;
  const auto snap = make_snapshot(n);
  std::vector<double> weights(n);
  for (bin_count i = 0; i < n; ++i) weights[i] = static_cast<double>((i % 5) + 1);
  const alias_table table(weights);
  for (const step_count balls : {step_count{40}, step_count{1001}, step_count{30000}}) {
    const auto reference = kernel_counts(kernel_isa::scalar, n, snap, balls, 2026);
    const auto alias_reference =
        kernel_alias_counts(kernel_isa::scalar, n, snap, table, balls, 2026);
    for (const kernel_isa isa : supported_backends()) {
      EXPECT_EQ(kernel_counts(isa, n, snap, balls, 2026), reference)
          << kernel_isa_name(isa) << " balls=" << balls;
      EXPECT_EQ(kernel_alias_counts(isa, n, snap, table, balls, 2026), alias_reference)
          << kernel_isa_name(isa) << " balls=" << balls;
    }
  }
}

/// `isa`'s fill of `balls` balls from lane state `from`: the chosen bins
/// and the lane state the fill leaves behind.
struct fill_result {
  std::vector<std::uint32_t> chosen;
  kernel_detail::lane_soa state;
};

template <typename Bins>
fill_result run_fill(kernel_isa isa, const kernel_detail::lane_soa& from, bin_count n,
                     const std::vector<std::uint8_t>& snap, Bins bins, std::size_t balls) {
  fill_result out{std::vector<std::uint32_t>(balls), from};
  kernel_detail::fill_for<Bins>(isa)(out.state, n, kernel_detail::lemire_threshold(n), snap.data(),
                                     bins, out.chosen.data(), balls);
  return out;
}

TEST(Kernel, ForcedRejectionsReplayExactlyOnEveryBackend) {
  // A lane whose s0 and s3 are both 0 outputs 0 on its next step, and a
  // draw of 0 is a Lemire rejection for any n that is not a power of two
  // (low = 0 < 2^64 mod n).  Forcing it in a vector round drives each
  // vector backend's rejection replay -- otherwise reached with
  // probability ~2^-32 per draw -- which must match the scalar fill bit
  // for bit: the chosen bins, and the lane state the replay leaves.
  const bin_count n = 97;
  const auto snap = make_snapshot(n);
  const alias_table table = skewed_table(n);
  ASSERT_GT(kernel_detail::lemire_threshold(n), 0u);
  for (const std::size_t lane : {std::size_t{0}, std::size_t{3}, std::size_t{7}}) {
    kernel_detail::lane_soa from;
    from.init(606);
    from.s0[lane] = 0;
    from.s3[lane] = 0;
    kernel_detail::lane_soa probe = from;
    ASSERT_EQ(probe.next(lane), 0u);
    for (const std::size_t balls : {std::size_t{8}, std::size_t{13}, std::size_t{24}}) {
      const auto check = [&](auto bins, const char* draw) {
        const fill_result want = run_fill(kernel_isa::scalar, from, n, snap, bins, balls);
        for (const kernel_isa isa : supported_backends()) {
          const fill_result got = run_fill(isa, from, n, snap, bins, balls);
          const std::string where = std::string(kernel_isa_name(isa)) + " " + draw +
                                    " lane=" + std::to_string(lane) +
                                    " balls=" + std::to_string(balls);
          EXPECT_EQ(got.chosen, want.chosen) << where;
          EXPECT_TRUE(got.state.s0 == want.state.s0 && got.state.s1 == want.state.s1 &&
                      got.state.s2 == want.state.s2 && got.state.s3 == want.state.s3)
              << where;
        }
      };
      check(kernel_detail::uniform_bins{}, "uniform");
      check(kernel_detail::alias_bins{table.thresholds(), table.aliases()}, "alias");
    }
  }
}

// ---------------------------------------------------------------------------
// (4) Engines: ISA- and thread-count invariance, serial fallbacks, and
// distributional parity.

std::vector<load_t> single_shard_loads(kernel_isa isa, bin_count n, step_count m,
                                        std::uint64_t seed) {
  b_batch process(n, n);
  rng_t rng(seed);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1, .isa = isa});
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(KernelEngine, BitIdenticalAcrossIsaBackends) {
  const bin_count n = 1024;
  const step_count m = 64 * n;
  const auto reference = single_shard_loads(kernel_isa::scalar, n, m, 7);
  EXPECT_EQ(nb::testing::total_balls(reference), m);
  for (const kernel_isa isa : supported_backends()) {
    EXPECT_EQ(single_shard_loads(isa, n, m, 7), reference) << kernel_isa_name(isa);
  }
  // auto_detect resolves to one of the backends, so it matches too.
  EXPECT_EQ(single_shard_loads(kernel_isa::auto_detect, n, m, 7), reference);
}

TEST(KernelEngine, WindowIsOneKernelCallSeededByTheToken) {
  // Pins the one-shard arrival window to the documented kernel call: one
  // kernel_run over the window's compact snapshot, seeded by the window
  // token itself -- on the calling thread whatever the thread count, so
  // the stream is that of a plain kernel replay.  The engine counts into
  // a byte row with carries; the uint32 row and wide commit here must
  // give the same state.
  const bin_count n = 512;
  const step_count b = 2048;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}}) {
    b_batch process(n, b);
    rng_t rng(5);
    step_many(process, rng, 3 * b);  // serial batches: a boundary, uneven loads
    b_batch expected = process;
    rng_t expected_rng = rng;
    const std::uint64_t token = expected_rng.next();
    compact_snapshot snap;
    ASSERT_TRUE(snap.assign(expected.window_snapshot()));
    std::vector<std::uint32_t> inc(n, 0);
    kernel_run(kernel_isa::scalar, kernel_lanes, n, snap.data(), inc.data(), b, token);
    expected.commit_window(inc, b);

    shard_engine engine(shard_options{.threads = threads, .shards = 1, .min_window = 1});
    engine.step_many(process, rng, b);
    EXPECT_EQ(engine.threads(), 1u);
    EXPECT_EQ(engine.phases().windows, 1);
    EXPECT_EQ(process.state().loads(), expected.state().loads()) << threads << " threads";
    EXPECT_EQ(rng.state(), expected_rng.state()) << threads << " threads";
  }
}

TEST(KernelEngine, ByteRowWindowsMatchTheWideCommit) {
  // One-shard windows in which every bin takes >= 256 balls: the engine's
  // byte row with carries must commit what a uint32 row and the wide
  // commit_window give -- kernel_run's row for uniform sampling, the
  // documented alias draw order replayed for alias sampling -- on every
  // ISA, with fixed weight 3.
  const bin_count n = 16;
  const step_count b = 16000;
  const step_count warm = 40;  // serial balls first: uneven loads
  for (const char* sampler : {"uniform", "zipf:1"}) {
    for (const kernel_isa isa : supported_backends()) {
      b_batch process(n, b);
      process.set_model(make_model("fixed:3", sampler, n, "none"));
      rng_t rng(9);
      step_many(process, rng, warm);
      b_batch expected = process;
      rng_t expected_rng = rng;
      const std::uint64_t token = expected_rng.next();
      compact_snapshot snap;
      ASSERT_TRUE(snap.assign(expected.window_snapshot()));
      std::vector<std::uint32_t> inc(n, 0);
      if (process.model().sampler.is_uniform()) {
        kernel_run(isa, kernel_lanes, n, snap.data(), inc.data(), b - warm, token);
      } else {
        inc = documented_alias_counts(n, snap.data(), process.model().sampler.table(), b - warm,
                                      token);
      }
      ASSERT_GE(*std::max_element(inc.begin(), inc.end()), 512u);
      expected.commit_window(inc, b - warm);

      shard_engine engine(shard_options{.shards = 1, .min_window = 1, .isa = isa});
      engine.step_many(process, rng, b - warm);
      const std::string where = std::string(sampler) + " " + kernel_isa_name(isa);
      EXPECT_EQ(engine.phases().windows, 1) << where;
      EXPECT_GT(engine.phases().carries, 0) << where;
      EXPECT_EQ(process.state().loads(), expected.state().loads()) << where;
      EXPECT_EQ(process.state().total_weight(), expected.state().total_weight()) << where;
      EXPECT_EQ(rng.state(), expected_rng.state()) << where;
    }
  }
}

TEST(KernelEngine, PaperScaleWindowsNeedNoCarries) {
  // b = n = 10^6: a window gives each bin about one ball, so no byte
  // wraps and the carry count stays 0.
  const bin_count n = 1000000;
  b_batch process(n, n);
  rng_t rng(3);
  shard_engine engine(shard_options{.shards = 1});
  engine.step_many(process, rng, 2 * static_cast<step_count>(n));
  EXPECT_EQ(engine.phases().windows, 2);
  EXPECT_EQ(engine.phases().carries, 0);
  EXPECT_EQ(process.state().balls(), 2 * static_cast<step_count>(n));
}

TEST(KernelEngine, WindowCountsFollowTheExactMinSelectLaw) {
  // An arrival window's exact law: every ball of a window decides against
  // the window snapshot alone -- the less loaded of two uniform bins, ties
  // fair -- independently of the others, so a window's counts are
  // Multinomial(b, p) with p the two-choice law over the snapshot loads,
  // and the summed counts of independent windows from one snapshot are
  // Multinomial(windows * b, p).  One b-Batch(16, 256) is warmed serially
  // to a batch boundary, then 4000 one-window copies of it run through the
  // engine per shard count on pinned seeds, G-tested at alpha = 10^-3.
  const bin_count n = 16;
  const step_count b = 256;
  b_batch warmed(n, b);
  rng_t warm_rng(41);
  step_many(warmed, warm_rng, 4 * b);
  ASSERT_EQ(warmed.snapshot_window(), b);  // at a boundary: a whole window ahead
  const std::vector<load_t> loads = warmed.state().loads();
  std::vector<load_t> levels = loads;
  std::sort(levels.begin(), levels.end());
  const auto distinct = std::unique(levels.begin(), levels.end()) - levels.begin();
  ASSERT_GE(distinct, 3) << "the law needs distinct levels";
  ASSERT_LT(distinct, static_cast<std::ptrdiff_t>(n)) << "and ties";
  const std::vector<double> p = two_choice_probabilities(loads);
  std::cout << "arrival min-select law, loads =";
  for (const load_t l : loads) std::cout << " " << l;
  std::cout << "\n";
  const int windows = 4000;
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}, std::size_t{16}}) {
    shard_engine engine(shard_options{.threads = 2, .shards = shards, .min_window = 1});
    rng_t rng(derive_seed(2027, shards));
    std::vector<std::int64_t> counts(n, 0);
    for (int w = 0; w < windows; ++w) {
      b_batch q = warmed;
      engine.step_many(q, rng, b);
      for (bin_index i = 0; i < n; ++i) counts[i] += q.state().loads()[i] - loads[i];
    }
    EXPECT_EQ(engine.phases().windows, windows) << shards << " shards";
    EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), std::int64_t{0}), windows * b);
    const double pv = nb::testing::g_test_p_value(counts, p);
    std::cout << "arrival min-select oracle, " << n << " bins, b = " << b << ", " << shards
              << " shards: G-test p = " << pv << "\n";
    EXPECT_GT(pv, 1e-3) << shards << " shards";
  }
}

TEST(KernelEngine, UndersizedWindowsFallBackToSerialExactly) {
  // min_window above every batch: the engine must walk the run through the
  // serial fused loop on the master stream, bit-identical to step_many
  // including the generator position afterwards.
  b_batch via_engine(32, 32);
  b_batch serial(32, 32);
  rng_t rng_a(21);
  rng_t rng_b(21);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1 << 20});
  engine.step_many(via_engine, rng_a, 3210);
  step_many(serial, rng_b, 3210);
  EXPECT_EQ(via_engine.state().loads(), serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());
}

TEST(KernelEngine, NonMinSelectProcessesFallBackToSerialExactly) {
  // two_choice has no window API; tau-Delay only probes (window 0).  Both
  // must route through the serial path bit for bit.
  two_choice tc_kernel(32);
  two_choice tc_serial(32);
  rng_t rng_a(5);
  rng_t rng_b(5);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.step_many(tc_kernel, rng_a, 2000);
  step_many(tc_serial, rng_b, 2000);
  EXPECT_EQ(tc_kernel.state().loads(), tc_serial.state().loads());
  EXPECT_EQ(rng_a.next(), rng_b.next());

  tau_delay<delay_adversarial> td_kernel(32, 9);
  tau_delay<delay_adversarial> td_serial(32, 9);
  rng_t rng_c(6);
  rng_t rng_d(6);
  engine.step_many(td_kernel, rng_c, 2000);
  step_many(td_serial, rng_d, 2000);
  EXPECT_EQ(td_kernel.state().loads(), td_serial.state().loads());
}

TEST(KernelEngine, TypeErasedRouteMatchesTemplateRoute) {
  const bin_count n = 256;
  const step_count m = 32 * n;
  b_batch direct(n, n);
  any_process erased{b_batch(n, n)};
  rng_t rng_a(88);
  rng_t rng_b(88);
  shard_engine engine(shard_options{.shards = 1, .min_window = 1});
  engine.step_many(direct, rng_a, m);
  engine.step_many(erased, rng_b, m);
  EXPECT_EQ(direct.state().loads(), erased.state().loads());
}

TEST(KernelEngine, GapDistributionMatchesSerialBulkPath) {
  // The kernel path draws different (identically distributed) randomness
  // than the serial fused loop; agreement is distributional.  Same bar as
  // the shard engine's parity test: means over 24 runs within 1.5.
  const bin_count n = 100;
  const step_count m = 100 * n;
  const std::size_t runs = 24;
  double serial_mean = 0.0;
  double kernel_mean = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    b_batch serial(n, n);
    rng_t rng_s(derive_seed(3000, r));
    step_many(serial, rng_s, m);
    serial_mean += serial.state().gap();

    b_batch kern(n, n);
    rng_t rng_k(derive_seed(4000, r));
    shard_engine engine(shard_options{.shards = 1, .min_window = 1});
    engine.step_many(kern, rng_k, m);
    kernel_mean += kern.state().gap();
    EXPECT_EQ(kern.state().balls(), m);
  }
  EXPECT_NEAR(serial_mean / runs, kernel_mean / runs, 1.5);
}

std::vector<load_t> shard_kernel_loads(std::size_t threads, kernel_isa isa, bin_count n,
                                       step_count m, std::uint64_t seed) {
  b_batch process(n, n);
  rng_t rng(seed);
  shard_engine engine(
      shard_options{.threads = threads, .shards = 8, .min_window = 1, .isa = isa});
  engine.step_many(process, rng, m);
  return process.state().loads();
}

TEST(ShardEngineKernel, BitIdenticalAcrossThreadCountsAndBackends) {
  // The shard engine now runs min-select shards through the kernel: the
  // result must stay a pure function of (seed, shards) -- invariant
  // in BOTH the thread count and the ISA backend, jointly.
  const bin_count n = 256;
  const step_count m = 32 * n;
  const auto reference = shard_kernel_loads(1, kernel_isa::scalar, n, m, 2025);
  EXPECT_EQ(nb::testing::total_balls(reference), m);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const kernel_isa isa : supported_backends()) {
      EXPECT_EQ(shard_kernel_loads(threads, isa, n, m, 2025), reference)
          << threads << " threads, " << kernel_isa_name(isa);
    }
  }
}

TEST(ShardEngineKernel, GapHistogramInvariantAcrossBackendsForRegistry) {
  // Every registered process kind, driven through a campaign's
  // shard-parallel route with explicit scalar vs auto backends and 1 vs 2
  // worker threads: per-run max loads, gaps and the aggregate gap
  // histogram must all be bit-identical.  Non-windowed kinds exercise the
  // serial fallback; b-batch exercises the kernel.
  for (const auto& [kind, description] : registered_process_kinds()) {
    // One valid parameter per kind: (1+beta) needs beta in [0,1], every
    // other parameterized kind accepts a small positive integer.
    const process_spec spec{kind, 64, kind == "one-plus-beta" ? 0.5 : 4.0};
    const std::vector<campaign_config> configs = {{kind, nullptr, 64 * 64, spec}};
    campaign_options opt;
    opt.repeats = 3;
    opt.seed = 17;
    opt.threads = 1;
    opt.engine.threads_per_run = 1;
    opt.engine.shards = 4;
    opt.engine.isa = kernel_isa::scalar;
    const auto scalar_run = run_campaign(configs, opt);
    opt.threads = 2;
    opt.engine.threads_per_run = 2;
    opt.engine.isa = kernel_isa::auto_detect;
    const auto simd_run = run_campaign(configs, opt);
    ASSERT_EQ(scalar_run.cells.size(), simd_run.cells.size()) << kind;
    for (std::size_t r = 0; r < scalar_run.cells.size(); ++r) {
      EXPECT_EQ(scalar_run.cells[r].max_load, simd_run.cells[r].max_load) << kind << " run " << r;
      EXPECT_DOUBLE_EQ(scalar_run.cells[r].gap, simd_run.cells[r].gap) << kind << " run " << r;
    }
    EXPECT_EQ(scalar_run.configs[0].aggregate.gap_histogram().entries(),
              simd_run.configs[0].aggregate.gap_histogram().entries())
        << kind;
  }
}

TEST(KernelEngine, SimulateWithAndRepeatRouting) {
  b_batch process(64, 64);
  rng_t rng(3);
  run_engine engine(engine_config{.use_kernel = true});
  const auto result = simulate_with(process, 640, rng, engine);
  EXPECT_EQ(result.balls, 640);
  EXPECT_DOUBLE_EQ(result.gap, process.state().gap());

  // use_kernel routes campaign cells through the one-shard engine;
  // results must not depend on the ISA backend.
  const std::vector<campaign_config> configs = {
      {"b-batch", [] { return any_process(b_batch(64, 8192)); }, 64 * 256}};
  campaign_options opt;
  opt.repeats = 3;
  opt.seed = 9;
  opt.engine.use_kernel = true;
  opt.engine.isa = kernel_isa::scalar;
  const auto a = run_campaign(configs, opt);
  opt.engine.isa = kernel_isa::auto_detect;
  const auto b = run_campaign(configs, opt);
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t r = 0; r < a.cells.size(); ++r) {
    EXPECT_EQ(a.cells[r].max_load, b.cells[r].max_load);
    EXPECT_DOUBLE_EQ(a.cells[r].gap, b.cells[r].gap);
  }
  EXPECT_EQ(a.configs[0].aggregate.gap_histogram().entries(),
            b.configs[0].aggregate.gap_histogram().entries());
}

// ---------------------------------------------------------------------------
// (5) Dispatch plumbing.

TEST(KernelIsa, NamesRoundTripAndAliases) {
  for (const kernel_isa isa : all_backends()) {
    const auto back = kernel_isa_from_name(kernel_isa_name(isa));
    ASSERT_TRUE(back.has_value()) << kernel_isa_name(isa);
    EXPECT_EQ(*back, isa) << kernel_isa_name(isa);
  }
  EXPECT_EQ(kernel_isa_from_name("auto"), kernel_isa::auto_detect);
  EXPECT_EQ(kernel_isa_from_name("simd"), kernel_isa::auto_detect);
  EXPECT_FALSE(kernel_isa_from_name("sve").has_value());
  EXPECT_FALSE(kernel_isa_from_name("sse2").has_value());
  EXPECT_FALSE(kernel_isa_from_name("").has_value());
}

/// The contract_error message `parse` throws, or "" when it does not throw.
template <typename Parse>
std::string rejection_message(const Parse& parse) {
  try {
    parse();
  } catch (const contract_error& e) {
    return e.what();
  }
  return "";
}

TEST(KernelIsa, FlagValidationNamesTheRejectedValue) {
  for (const kernel_isa isa : all_backends()) {
    EXPECT_EQ(kernel_isa_flag("--kernel", kernel_isa_name(isa), true), isa);
  }
  EXPECT_EQ(kernel_isa_flag("--kernel", "off", true), std::nullopt);
  EXPECT_EQ(kernel_isa_flag("--isa", "simd", false), kernel_isa::auto_detect);

  // The shared engine flags, parsed as a binary parses them.
  const auto engine_for = [](std::vector<const char*> args) {
    cli_parser cli("test");
    add_engine_flags(cli);
    args.insert(args.begin(), "prog");
    EXPECT_TRUE(cli.parse(static_cast<int>(args.size()), args.data()));
    return engine_from_flags(get_engine_flags(cli));
  };
  const std::string sse2 = rejection_message([&] { (void)engine_for({"--kernel", "sse2"}); });
  EXPECT_NE(sse2.find("--kernel"), std::string::npos) << sse2;
  EXPECT_NE(sse2.find("'sse2'"), std::string::npos) << sse2;
  for (const kernel_isa isa : all_backends()) {
    EXPECT_NE(sse2.find(kernel_isa_name(isa)), std::string::npos) << sse2;
  }
  const std::string off = rejection_message([] { (void)kernel_isa_flag("--isa", "off", false); });
  EXPECT_NE(off.find("'off'"), std::string::npos) << off;
  // The deleted aarch64 backend's name is rejected like any other.
  const std::string neon = rejection_message([] { (void)kernel_isa_flag("--isa", "neon", false); });
  EXPECT_NE(neon.find("--isa"), std::string::npos) << neon;
  EXPECT_NE(neon.find("'neon'"), std::string::npos) << neon;

  EXPECT_TRUE(engine_for({"--kernel", "scalar"}).use_kernel);
  EXPECT_FALSE(engine_for({}).use_kernel);
}

TEST(KernelIsa, ResolutionIsSupportedAndStable) {
  const kernel_isa best = detect_kernel_isa();
  EXPECT_NE(best, kernel_isa::auto_detect);
  EXPECT_TRUE(kernel_isa_supported(best));
  EXPECT_EQ(resolve_kernel_isa(kernel_isa::auto_detect), best);
  EXPECT_EQ(resolve_kernel_isa(kernel_isa::scalar), kernel_isa::scalar);
  // An explicit but unsupported request downgrades (legal: the backend
  // never affects results).
  if (!kernel_isa_supported(kernel_isa::avx2)) {
    EXPECT_EQ(resolve_kernel_isa(kernel_isa::avx2), best);
  }
  // The avx512 backend runs the AVX2 pair fill, so it needs AVX2 too.
  if (kernel_isa_supported(kernel_isa::avx512)) {
    EXPECT_TRUE(kernel_isa_supported(kernel_isa::avx2));
  }
}

TEST(KernelIsa, UnsupportedForcedIsaWarnsOnceOnFallback) {
  // Forcing a backend the CPU lacks must still resolve (downgrade is legal)
  // but emit the one-shot kernel-isa-fallback diagnostic, so a benchmark
  // that silently measured the wrong ISA is visible in its output.  An
  // AVX-512 host supports every backend, so the rule runs against fake
  // supported sets here -- the same rule resolve_kernel_isa applies to the
  // CPU's set.
  using kernel_detail::isa_bit;
  using kernel_detail::resolve_isa_in;
  const kernel_detail::isa_set no_avx512 = isa_bit(kernel_isa::scalar) | isa_bit(kernel_isa::avx2);
  EXPECT_EQ(resolve_isa_in(kernel_isa::auto_detect, no_avx512), kernel_isa::avx2);
  EXPECT_EQ(resolve_isa_in(kernel_isa::scalar, no_avx512), kernel_isa::scalar);
  EXPECT_EQ(resolve_isa_in(kernel_isa::avx2, no_avx512), kernel_isa::avx2);

  ::testing::internal::CaptureStderr();
  EXPECT_EQ(resolve_isa_in(kernel_isa::avx512, no_avx512), kernel_isa::avx2);
  EXPECT_EQ(resolve_isa_in(kernel_isa::avx512, no_avx512), kernel_isa::avx2);
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(warned("kernel-isa-fallback:avx512"));
  // At most one line: none if an earlier forced avx512 already warned.
  std::size_t lines = 0;
  for (std::size_t at = err.find("kernel ISA 'avx512'"); at != std::string::npos;
       at = err.find("kernel ISA 'avx512'", at + 1)) {
    ++lines;
  }
  EXPECT_LE(lines, 1u) << err;

  const kernel_detail::isa_set scalar_only = isa_bit(kernel_isa::scalar);
  EXPECT_EQ(resolve_isa_in(kernel_isa::auto_detect, scalar_only), kernel_isa::scalar);
  EXPECT_EQ(resolve_isa_in(kernel_isa::avx2, scalar_only), kernel_isa::scalar);
  EXPECT_TRUE(warned("kernel-isa-fallback:avx2"));

  // On the real CPU, supported requests resolve to themselves and never
  // warn.
  for (const kernel_isa isa : supported_backends()) {
    EXPECT_EQ(resolve_kernel_isa(isa), isa) << kernel_isa_name(isa);
  }
  EXPECT_FALSE(warned("kernel-isa-fallback:scalar"));
}

TEST(Kernel, RejectsContractViolations) {
  const auto snap = make_snapshot(8);
  std::vector<std::uint32_t> row(8, 0);
  EXPECT_THROW(kernel_run(kernel_isa::scalar, kernel_lanes, 0, snap.data(), row.data(), 10, 1),
               contract_error);
  EXPECT_THROW(static_cast<void>(shard_engine(shard_options{.shards = 0})), contract_error);
}

TEST(KernelLanes, LeftoverLaneSettingsRefuseAnythingButEight) {
  // The two lane settings the repo benchmark still spells out -- the
  // uint32 kernel_run's `lanes` and engine_config::lanes -- accept only
  // kernel_lanes, and the refusal names the rejected value.
  ASSERT_EQ(kernel_lanes, 8u);
  const auto snap = make_snapshot(8);
  std::vector<std::uint32_t> row(8, 0);
  const std::string kernel = rejection_message(
      [&] { kernel_run(kernel_isa::scalar, 16, 8, snap.data(), row.data(), 10, 1); });
  EXPECT_NE(kernel.find("16"), std::string::npos) << kernel;
  EXPECT_EQ(row, std::vector<std::uint32_t>(8, 0));
  const std::string engine =
      rejection_message([] { (void)run_engine(engine_config{.use_kernel = true, .lanes = 4}); });
  EXPECT_NE(engine.find("lanes got 4"), std::string::npos) << engine;
  const std::string serial = rejection_message([] { (void)run_engine(engine_config{.lanes = 4}); });
  EXPECT_NE(serial.find("lanes got 4"), std::string::npos) << serial;
  EXPECT_EQ(run_engine(engine_config{.use_kernel = true, .lanes = 8}).fingerprint(),
            "kernel[lanes=8]");
  EXPECT_EQ(run_engine(engine_config{.threads_per_run = 1, .shards = 4}).fingerprint(),
            "shard[shards=4,lanes=8]");
}

}  // namespace
