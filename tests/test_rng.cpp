// Unit tests for the RNG substrate: generator correctness (against
// independent reimplementations of the reference algorithms), determinism,
// and the statistical behaviour of every distribution we ship.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <set>
#include <string>
#include <vector>

#include "rng/rng.hpp"
#include "stats/summary.hpp"
#include "test_support.hpp"

namespace {

using nb::bernoulli;
using nb::bounded;
using nb::canonical;
using nb::coin_flip;
using nb::derive_seed;
using nb::gaussian_sampler;
using nb::hypergeometric;
using nb::splitmix64;
using nb::xoshiro256pp;

// ---------------------------------------------------------------------------
// Independent reference implementations (deliberately written differently
// from src/rng/rng.hpp so a shared typo cannot hide).

std::uint64_t reference_splitmix64_step(std::uint64_t& state) {
  state += 0x9E3779B97f4A7C15ULL;
  std::uint64_t z = state;
  z ^= z >> 30;
  z *= 0xBF58476D1CE4E5B9ULL;
  z ^= z >> 27;
  z *= 0x94D049BB133111EBULL;
  z ^= z >> 31;
  return z;
}

struct reference_xoshiro_pp {
  std::array<std::uint64_t, 4> s;
  static std::uint64_t rot(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
  std::uint64_t operator()() {
    const std::uint64_t out = rot(s[0] + s[3], 23) + s[0];
    const std::uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rot(s[3], 45);
    return out;
  }
};

TEST(SplitMix64, MatchesReferenceImplementation) {
  std::uint64_t ref_state = 0xDEADBEEFCAFEF00DULL;
  splitmix64 sm(0xDEADBEEFCAFEF00DULL);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(sm.next(), reference_splitmix64_step(ref_state)) << "at draw " << i;
  }
}

TEST(SplitMix64, DifferentSeedsDiverge) {
  splitmix64 a(1);
  splitmix64 b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Xoshiro256pp, MatchesReferenceImplementation) {
  // Seed expansion must agree too: expand via splitmix64 as the class does.
  std::uint64_t seed_state = 42;
  reference_xoshiro_pp ref{};
  for (auto& w : ref.s) w = reference_splitmix64_step(seed_state);
  xoshiro256pp gen(42);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(gen.next(), ref()) << "at draw " << i;
  }
}

TEST(Xoshiro256pp, DeterministicForSeed) {
  xoshiro256pp a(7);
  xoshiro256pp b(7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Xoshiro256pp, ReseedRestartsStream) {
  xoshiro256pp a(7);
  const std::uint64_t first = a.next();
  a.next();
  a.reseed(7);
  EXPECT_EQ(a.next(), first);
}

TEST(Xoshiro256pp, JumpProducesDisjointStream) {
  xoshiro256pp a(7);
  xoshiro256pp b(7);
  b.jump();
  std::set<std::uint64_t> head;
  for (int i = 0; i < 1000; ++i) head.insert(a.next());
  for (int i = 0; i < 1000; ++i) EXPECT_FALSE(head.count(b.next()));
}

TEST(Xoshiro256pp, BitBalance) {
  xoshiro256pp gen(123);
  std::array<int, 64> ones{};
  constexpr int kDraws = 20000;
  for (int i = 0; i < kDraws; ++i) {
    const std::uint64_t v = gen.next();
    for (int b = 0; b < 64; ++b) {
      if (v & (std::uint64_t{1} << b)) ++ones[static_cast<std::size_t>(b)];
    }
  }
  for (int b = 0; b < 64; ++b) {
    const double frac = static_cast<double>(ones[static_cast<std::size_t>(b)]) / kDraws;
    EXPECT_NEAR(frac, 0.5, 0.02) << "bit " << b;
  }
}

TEST(DeriveSeed, DistinctAcrossStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t r = 0; r < 10000; ++r) seeds.insert(derive_seed(1, r));
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(DeriveSeed, DistinctAcrossMasters) {
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_NE(derive_seed(1, 1), derive_seed(2, 1));
}

TEST(DeriveSeed, Deterministic) {
  EXPECT_EQ(derive_seed(123, 45), derive_seed(123, 45));
}

// ---------------------------------------------------------------------------
// Bounded uniforms.

TEST(Bounded, StaysInRange) {
  xoshiro256pp gen(5);
  for (const std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, (1ULL << 33)}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(bounded(gen, bound), bound);
    }
  }
}

TEST(Bounded, BoundOneIsAlwaysZero) {
  xoshiro256pp gen(5);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(bounded(gen, 1), 0u);
}

class BoundedUniformity : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BoundedUniformity, ChiSquareWithinCriticalValue) {
  const std::uint64_t k = GetParam();
  xoshiro256pp gen(777 + k);
  const int draws_per_cell = 2000;
  const auto draws = static_cast<int>(k) * draws_per_cell;
  std::vector<std::int64_t> cells(k, 0);
  for (int i = 0; i < draws; ++i) ++cells[bounded(gen, k)];
  double chi2 = 0.0;
  for (const auto c : cells) {
    const double diff = static_cast<double>(c) - draws_per_cell;
    chi2 += diff * diff / draws_per_cell;
  }
  // Very loose critical value: mean of chi2(k-1) is k-1, sd ~ sqrt(2(k-1));
  // allow 6 standard deviations so the fixed-seed test never flakes on a
  // correct implementation but catches gross bias.
  const double dof = static_cast<double>(k - 1);
  EXPECT_LT(chi2, dof + 6.0 * std::sqrt(2.0 * dof) + 10.0);
}

INSTANTIATE_TEST_SUITE_P(Bounds, BoundedUniformity,
                         ::testing::Values<std::uint64_t>(2, 3, 5, 7, 10, 16, 100));

TEST(Canonical, InHalfOpenUnitInterval) {
  xoshiro256pp gen(6);
  for (int i = 0; i < 10000; ++i) {
    const double u = canonical(gen);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Canonical, MeanAndVariance) {
  xoshiro256pp gen(8);
  nb::running_stats rs;
  for (int i = 0; i < 200000; ++i) rs.add(canonical(gen));
  EXPECT_NEAR(rs.mean(), 0.5, 0.005);
  EXPECT_NEAR(rs.variance(), 1.0 / 12.0, 0.005);
}

TEST(Bernoulli, EdgeProbabilitiesConsumeNoEntropy) {
  xoshiro256pp a(9);
  xoshiro256pp b(9);
  EXPECT_FALSE(bernoulli(a, 0.0));
  EXPECT_TRUE(bernoulli(a, 1.0));
  EXPECT_FALSE(bernoulli(a, -0.5));
  EXPECT_TRUE(bernoulli(a, 1.5));
  EXPECT_EQ(a.next(), b.next());  // streams still aligned
}

TEST(Bernoulli, FrequencyMatchesP) {
  for (const double p : {0.1, 0.25, 0.5, 0.9}) {
    xoshiro256pp gen(static_cast<std::uint64_t>(p * 1000) + 3);
    int hits = 0;
    constexpr int kDraws = 100000;
    for (int i = 0; i < kDraws; ++i) {
      if (bernoulli(gen, p)) ++hits;
    }
    EXPECT_NEAR(static_cast<double>(hits) / kDraws, p, 0.01) << "p=" << p;
  }
}

TEST(CoinFlip, Balanced) {
  xoshiro256pp gen(11);
  int heads = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    if (coin_flip(gen)) ++heads;
  }
  EXPECT_NEAR(static_cast<double>(heads) / kDraws, 0.5, 0.01);
}

// ---------------------------------------------------------------------------
// Continuous distributions.

TEST(Gaussian, MomentsMatchStandardNormal) {
  xoshiro256pp gen(13);
  gaussian_sampler gs;
  nb::running_stats rs;
  double third = 0.0;
  constexpr int kDraws = 300000;
  for (int i = 0; i < kDraws; ++i) {
    const double z = gs.next(gen);
    rs.add(z);
    third += z * z * z;
  }
  EXPECT_NEAR(rs.mean(), 0.0, 0.01);
  EXPECT_NEAR(rs.variance(), 1.0, 0.02);
  EXPECT_NEAR(third / kDraws, 0.0, 0.05);  // symmetric
}

TEST(Gaussian, TailProbabilityMatchesPhi) {
  xoshiro256pp gen(17);
  gaussian_sampler gs;
  int above_one = 0;
  constexpr int kDraws = 200000;
  for (int i = 0; i < kDraws; ++i) {
    if (gs.next(gen) > 1.0) ++above_one;
  }
  // P(Z > 1) = 0.158655...
  EXPECT_NEAR(static_cast<double>(above_one) / kDraws, 0.158655, 0.005);
}

TEST(Gaussian, ResetDropsCachedValue) {
  // Each Box-Muller pair consumes exactly two uniforms; after reset the
  // sampler must discard its cached second value and draw a fresh pair.
  xoshiro256pp a(19);
  xoshiro256pp b(19);
  for (int i = 0; i < 4; ++i) b.next();  // two pairs' worth of draws
  gaussian_sampler ga;
  ga.next(a);
  ga.reset();
  ga.next(a);
  // With the cache dropped, stream a has consumed 4 draws, like b.
  EXPECT_EQ(a.next(), b.next());
  // Without reset, the second call returns the cache and draws nothing.
  xoshiro256pp c(19);
  xoshiro256pp d(19);
  for (int i = 0; i < 2; ++i) d.next();
  gaussian_sampler gc;
  gc.next(c);
  gc.next(c);
  EXPECT_EQ(c.next(), d.next());
}

// ---------------------------------------------------------------------------
// Mid-stream state save/restore -- the checkpointing substrate.  The
// contract (for every stream the engines derive): save the state, draw,
// restore the state, and the next draw repeats identically.

TEST(StateSaving, SaveDrawRestoreRepeatsMainStream) {
  xoshiro256pp gen(2022);
  for (int i = 0; i < 17; ++i) gen.next();  // an arbitrary mid-stream point
  const auto saved = gen.state();
  std::array<std::uint64_t, 8> first{};
  for (auto& v : first) v = gen.next();
  gen.set_state(saved);
  for (const auto v : first) ASSERT_EQ(gen.next(), v);
  // And restored state keeps matching arbitrarily far out.
  xoshiro256pp fresh(2022);
  for (int i = 0; i < 17 + 8; ++i) fresh.next();
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(gen.next(), fresh.next()) << "at draw " << i;
}

TEST(StateSaving, RoundTripsAcrossGeneratorInstances) {
  // Restoring into a DIFFERENT instance (the resume path: a freshly
  // seeded generator adopts the checkpointed words) is equivalent to
  // restoring in place.
  xoshiro256pp original(99);
  for (int i = 0; i < 1234; ++i) original.next();
  xoshiro256pp resumed(1);  // seed is irrelevant once state is set
  resumed.set_state(original.state());
  for (int i = 0; i < 100; ++i) EXPECT_EQ(resumed.next(), original.next());
}

TEST(StateSaving, RejectsAllZeroState) {
  // The all-zero state is xoshiro's absorbing fixed point; a corrupt
  // checkpoint must not be able to install it.
  xoshiro256pp gen(3);
  EXPECT_THROW(gen.set_state({0, 0, 0, 0}), nb::contract_error);
}

TEST(StateSaving, ShardSubstreamsHonorTheContract) {
  // The shard engine's per-window substreams: one master token per
  // window, shard s draws from shard_stream_seed(token, s).  Checkpoints
  // cut at window boundaries, so only the MASTER state is saved -- but
  // the contract must hold for the substreams too (a resumed run rebuilds
  // them from the replayed tokens).
  xoshiro256pp master(11);
  const auto saved = master.state();
  const std::uint64_t token = master.next();
  std::array<std::array<std::uint64_t, 4>, 3> shard_draws{};
  for (std::size_t s = 0; s < shard_draws.size(); ++s) {
    xoshiro256pp sub(nb::shard_stream_seed(token, s));
    for (auto& v : shard_draws[s]) v = sub.next();
  }
  master.set_state(saved);
  const std::uint64_t replayed = master.next();
  ASSERT_EQ(replayed, token);
  for (std::size_t s = 0; s < shard_draws.size(); ++s) {
    xoshiro256pp sub(nb::shard_stream_seed(replayed, s));
    for (const auto v : shard_draws[s]) EXPECT_EQ(sub.next(), v) << "shard " << s;
  }
}

TEST(StateSaving, KernelLaneStreamsHonorTheContract) {
  // Same shape for the kernel engine's lane streams, which derive from
  // the window token via derive_seed(token, lane).
  xoshiro256pp master(13);
  for (int i = 0; i < 3; ++i) master.next();
  const auto saved = master.state();
  const std::uint64_t token = master.next();
  std::array<std::array<std::uint64_t, 4>, 4> lane_draws{};
  for (std::size_t lane = 0; lane < lane_draws.size(); ++lane) {
    xoshiro256pp sub(derive_seed(token, lane));
    for (auto& v : lane_draws[lane]) v = sub.next();
  }
  master.set_state(saved);
  const std::uint64_t replayed = master.next();
  ASSERT_EQ(replayed, token);
  for (std::size_t lane = 0; lane < lane_draws.size(); ++lane) {
    xoshiro256pp sub(derive_seed(replayed, lane));
    for (const auto v : lane_draws[lane]) EXPECT_EQ(sub.next(), v) << "lane " << lane;
  }
}

TEST(StateSaving, GaussianCacheAccessorsRoundTrip) {
  // Box-Muller caches the pair's second half; the checkpoint layer saves
  // it through has_cached()/cached_value() and reinstalls via set_cache().
  // Save after ONE draw (cache full), clobber the sampler, restore: the
  // next draw must repeat bit-for-bit without touching the stream.
  xoshiro256pp gen(21);
  gaussian_sampler gs;
  (void)gs.next(gen);
  const bool has = gs.has_cached();
  const double cached = gs.cached_value();
  EXPECT_TRUE(has);
  const auto rng_saved = gen.state();
  const double second = gs.next(gen);  // served from cache, zero draws
  EXPECT_EQ(gen.state(), rng_saved);
  gs.reset();
  gs.set_cache(has, cached);
  EXPECT_EQ(gs.next(gen), second);
  EXPECT_EQ(gen.state(), rng_saved);  // still no stream consumption
}

// ---------------------------------------------------------------------------
// Hypergeometric: the exact per-bin law of batched random departures.

/// pmf of Hypergeometric(draws, good, total) over x = 0..min(draws, good),
/// from binomial coefficients in long double (exact at these sizes).
std::vector<double> hypergeometric_pmf(std::int64_t draws, std::int64_t good,
                                       std::int64_t total) {
  const auto choose = [](std::int64_t n, std::int64_t k) {
    if (k < 0 || k > n) return 0.0L;
    long double c = 1.0L;
    for (std::int64_t j = 1; j <= k; ++j) c = c * static_cast<long double>(n - k + j) / j;
    return c;
  };
  std::vector<double> pmf;
  for (std::int64_t x = 0; x <= std::min(draws, good); ++x) {
    pmf.push_back(static_cast<double>(choose(good, x) * choose(total - good, draws - x) /
                                      choose(total, draws)));
  }
  return pmf;
}

struct hg_shape {
  std::int64_t draws;
  std::int64_t good;
  std::int64_t total;
};

TEST(Hypergeometric, SmallParameterPmfGTest) {
  // 10^5 draws per shape from pinned seeds, G-tested against the
  // enumerated pmf at alpha = 10^-3.  The shapes cover the inversion
  // branch (min(draws, good) <= 16 after folding) unfolded, with draws
  // and good both folded, and with good folded alone, and the mode walk
  // (30 and 20) unfolded and folded.
  const std::vector<hg_shape> shapes = {{7, 5, 20},    {15, 12, 20}, {3, 10, 13},
                                        {12, 3, 20},   {40, 30, 100}, {70, 80, 100}};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const hg_shape& sh = shapes[i];
    const std::vector<double> pmf = hypergeometric_pmf(sh.draws, sh.good, sh.total);
    std::vector<std::int64_t> counts(pmf.size(), 0);
    xoshiro256pp gen(derive_seed(2024, i));
    for (int r = 0; r < 100000; ++r) {
      const std::int64_t x = hypergeometric(gen, sh.draws, sh.good, sh.total);
      ASSERT_GE(x, 0);
      ASSERT_LT(x, static_cast<std::int64_t>(counts.size()));
      ++counts[static_cast<std::size_t>(x)];
    }
    const double p = nb::testing::g_test_p_value(counts, pmf);
    std::cout << "Hypergeometric(" << sh.draws << ", " << sh.good << ", " << sh.total
              << "): G-test p = " << p << "\n";
    EXPECT_GT(p, 1e-3) << sh.draws << " " << sh.good << " " << sh.total;
  }
}

TEST(Hypergeometric, LargeBranchMeanAndVarianceMatch) {
  // Good and bad near 10^6 take the mode walk.  20000 draws per shape:
  // the sample mean and variance must sit within 4 standard errors of
  // d g / N and d g (N - g)(N - d) / (N^2 (N - 1)).
  const int runs = 20000;
  for (const hg_shape& sh : {hg_shape{1000000, 1000003, 2000000},
                             hg_shape{300000, 1200000, 2000000}}) {
    xoshiro256pp gen(derive_seed(99, static_cast<std::uint64_t>(sh.draws)));
    nb::running_stats rs;
    for (int r = 0; r < runs; ++r) {
      rs.add(static_cast<double>(hypergeometric(gen, sh.draws, sh.good, sh.total)));
    }
    const double d = static_cast<double>(sh.draws);
    const double g = static_cast<double>(sh.good);
    const double n = static_cast<double>(sh.total);
    const double mean = d * g / n;
    const double var = d * g * (n - g) * (n - d) / (n * n * (n - 1.0));
    const double z_mean = (rs.mean() - mean) / std::sqrt(var / runs);
    const double z_var = (rs.variance() - var) / (var * std::sqrt(2.0 / (runs - 1)));
    std::cout << "Hypergeometric(" << sh.draws << ", " << sh.good << ", " << sh.total
              << "): z(mean) = " << z_mean << ", z(variance) = " << z_var << "\n";
    EXPECT_LT(std::fabs(z_mean), 4.0);
    EXPECT_LT(std::fabs(z_var), 4.0);
  }
}

TEST(Hypergeometric, DeterminedResultsConsumeNoDraws) {
  xoshiro256pp gen(3);
  const auto before = gen.state();
  EXPECT_EQ(hypergeometric(gen, 0, 5, 10), 0);   // draws = 0
  EXPECT_EQ(hypergeometric(gen, 4, 0, 10), 0);   // good = 0
  EXPECT_EQ(hypergeometric(gen, 10, 7, 10), 7);  // draws = total
  EXPECT_EQ(hypergeometric(gen, 6, 10, 10), 6);  // good = total
  EXPECT_EQ(hypergeometric(gen, 0, 0, 0), 0);    // an empty urn
  EXPECT_EQ(gen.state(), before);
}

TEST(Hypergeometric, EachAttemptIsOneCanonicalDraw) {
  // An attempt almost never outlasts the support, so each call here
  // consumes exactly one next(), in either branch and under every fold.
  for (const hg_shape& sh : {hg_shape{7, 5, 20}, hg_shape{15, 12, 20}, hg_shape{40, 30, 100},
                             hg_shape{1000000, 1000003, 2000000}}) {
    xoshiro256pp gen(17);
    xoshiro256pp ref = gen;
    for (int r = 0; r < 50; ++r) {
      (void)hypergeometric(gen, sh.draws, sh.good, sh.total);
      (void)ref.next();
      ASSERT_EQ(gen.state(), ref.state()) << sh.draws << " " << sh.good << " " << sh.total;
    }
  }
}

TEST(Hypergeometric, GoldenDrawOrder) {
  // Pins the documented draw order: the folds, the inversion from 0, the
  // walk from the mode and one canonical() per attempt.
  xoshiro256pp gen(20220713);
  std::vector<std::int64_t> got;
  for (const hg_shape& sh : {hg_shape{7, 5, 20}, hg_shape{15, 12, 20}, hg_shape{3, 10, 13},
                             hg_shape{40, 30, 100}, hg_shape{70, 80, 100},
                             hg_shape{1000000, 1000003, 2000000}}) {
    for (int r = 0; r < 3; ++r) got.push_back(hypergeometric(gen, sh.draws, sh.good, sh.total));
  }
  const std::vector<std::int64_t> golden = {1,  2,  2,  7,  9,  8,  3,      2,      3,
                                            15, 12, 17, 57, 56, 54, 499574, 499915, 500695};
  EXPECT_EQ(got, golden);
}

TEST(Hypergeometric, OutOfRangeParametersNameTheValue) {
  const auto expect_names = [](std::int64_t draws, std::int64_t good, std::int64_t total,
                               const std::string& needle) {
    xoshiro256pp gen(1);
    try {
      (void)hypergeometric(gen, draws, good, total);
      FAIL() << needle << ": accepted";
    } catch (const nb::contract_error& e) {
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos) << e.what();
    }
  };
  expect_names(-1, 2, 10, "draws got -1");
  expect_names(11, 2, 10, "draws got 11");
  expect_names(3, -2, 10, "good got -2");
  expect_names(3, 12, 10, "good got 12");
  expect_names(0, 0, -5, "total got -5");
}

}  // namespace
