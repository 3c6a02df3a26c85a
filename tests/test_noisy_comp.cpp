// Tests for the probabilistic-noise setting: rho-Noisy-Comp and the two
// forms of sigma-Noisy-Load.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "test_support.hpp"

namespace {

using namespace nb;
using nb::testing::mean_gap_of;
using nb::testing::run_and_snapshot;
using nb::testing::total_balls;

// ---------------------------------------------------------------------------
// The rho functions themselves.

TEST(RhoGaussian, MatchesEquationTwoPointOne) {
  const rho_gaussian rho(2.0);
  // rho(delta) = 1 - exp(-(delta/sigma)^2)/2
  EXPECT_NEAR(rho(0), 0.5, 1e-12);
  EXPECT_NEAR(rho(2), 1.0 - 0.5 * std::exp(-1.0), 1e-12);
  EXPECT_NEAR(rho(4), 1.0 - 0.5 * std::exp(-4.0), 1e-12);
}

TEST(RhoGaussian, NonDecreasingAndApproachesOne) {
  const rho_gaussian rho(3.0);
  double prev = 0.0;
  for (load_t d = 0; d <= 30; ++d) {
    const double v = rho(d);
    EXPECT_GE(v, prev);
    prev = v;
  }
  EXPECT_GT(rho(30), 1.0 - 1e-9);
}

TEST(RhoGaussian, RejectsNonPositiveSigma) {
  EXPECT_THROW(rho_gaussian(0.0), nb::contract_error);
  EXPECT_THROW(rho_gaussian(-1.0), nb::contract_error);
}

TEST(RhoStep, RecoversFigTwoPointTwoShapes) {
  const rho_step bounded_shape(4, 0.0);   // g-Bounded: wrong below threshold
  const rho_step myopic_shape(4, 0.5);    // g-Myopic: random below threshold
  EXPECT_EQ(bounded_shape(3), 0.0);
  EXPECT_EQ(bounded_shape(4), 0.0);
  EXPECT_EQ(bounded_shape(5), 1.0);
  EXPECT_EQ(myopic_shape(2), 0.5);
  EXPECT_EQ(myopic_shape(6), 1.0);
}

TEST(RhoConstant, ValidatesRange) {
  EXPECT_THROW(rho_constant(-0.1), nb::contract_error);
  EXPECT_THROW(rho_constant(1.1), nb::contract_error);
  EXPECT_EQ(rho_constant(0.75)(10), 0.75);
}

// ---------------------------------------------------------------------------
// Process semantics.

TEST(RhoNoisyComp, ConservesBalls) {
  EXPECT_EQ(total_balls(run_and_snapshot(sigma_noisy_load(64, rho_gaussian(2.0)), 4000, 1)), 4000);
}

TEST(RhoNoisyComp, CorrectComparisonFrequencyMatchesRho) {
  // Drive the process, mirror the sampled pairs, and measure how often the
  // allocation was "correct" (lighter bin) as a function of delta.
  const bin_count n = 16;  // power of two keeps the mirror aligned
  sigma_noisy_load p(n, rho_gaussian(2.0));
  rng_t rng(2);
  rng_t mirror(2);
  std::array<int, 8> correct{};
  std::array<int, 8> seen{};
  for (int t = 0; t < 200000; ++t) {
    const auto& loads = p.state().loads();
    const auto i1 = static_cast<bin_index>(bounded(mirror, n));
    const auto i2 = static_cast<bin_index>(bounded(mirror, n));
    const load_t x1 = loads[i1];
    const load_t x2 = loads[i2];
    const load_t delta = std::abs(x1 - x2);
    const auto before = loads;
    p.step(rng);
    if (delta > 0 && delta < 8) {
      bin_index chosen = 0;
      for (bin_index i = 0; i < n; ++i) {
        if (p.state().loads()[i] != before[i]) chosen = i;
      }
      const bin_index lighter = x1 < x2 ? i1 : i2;
      ++seen[static_cast<std::size_t>(delta)];
      if (chosen == lighter) ++correct[static_cast<std::size_t>(delta)];
      mirror.next();  // the bernoulli draw
    } else if (delta == 0) {
      mirror.next();  // the tie coin
    } else {
      mirror.next();  // bernoulli draw for large delta too
    }
  }
  const rho_gaussian rho(2.0);
  for (load_t d = 1; d < 8; ++d) {
    const auto idx = static_cast<std::size_t>(d);
    if (seen[idx] < 500) continue;  // not enough mass to test
    const double freq = static_cast<double>(correct[idx]) / seen[idx];
    EXPECT_NEAR(freq, rho(d), 0.05) << "delta=" << d;
  }
}

/// The rho-Noisy-Comp step written out with bernoulli(rng, rho(delta)) on
/// every unequal comparison: the form the process's threshold table must
/// reproduce draw for draw.  Balls carry fixed weight w.
template <typename Rho>
std::pair<std::vector<load_t>, std::uint64_t> bernoulli_reference(bin_count n, const Rho& rho,
                                                                  weight_t w, step_count m,
                                                                  std::uint64_t seed) {
  std::vector<load_t> loads(n, 0);
  rng_t rng(seed);
  for (step_count t = 0; t < m; ++t) {
    const auto i1 = static_cast<bin_index>(bounded(rng, n));
    const auto i2 = static_cast<bin_index>(bounded(rng, n));
    const load_t x1 = loads[i1];
    const load_t x2 = loads[i2];
    bin_index chosen;
    if (x1 == x2) {
      chosen = coin_flip(rng) ? i1 : i2;
    } else {
      const bool correct = bernoulli(rng, rho(std::abs(x1 - x2)));
      chosen = (x1 < x2) == correct ? i1 : i2;
    }
    loads[chosen] += static_cast<load_t>(w);
  }
  return {loads, rng.next()};
}

template <typename Rho>
void expect_table_matches_bernoulli(const Rho& rho, weight_t w) {
  const bin_count n = 64;
  const step_count m = 20000;
  rho_noisy_comp<Rho> p(n, rho);
  p.set_model(make_model("fixed:" + std::to_string(w), "uniform", n, "none"));
  rng_t rng(31);
  step_many(p, rng, m);
  const auto [loads, next] = bernoulli_reference(n, rho, w, m, 31);
  EXPECT_EQ(p.state().loads(), loads) << rho.label() << " w=" << w;
  EXPECT_EQ(rng.next(), next) << rho.label() << " w=" << w;
}

TEST(RhoNoisyComp, ThresholdTableDecidesExactlyLikeBernoulli) {
  // Tables that end early at rho = 1 (small sigma, the step), never end
  // (constants below 1), hold rho = 0 (no draw either way), and deltas past
  // the table (sigma = 5000 keeps rho < 1 over all 4096 entries, and
  // weight-5000 balls put every unequal pair at least 5000 apart).
  for (const double sigma : {0.5, 2.0, 8.0}) expect_table_matches_bernoulli(rho_gaussian(sigma), 1);
  expect_table_matches_bernoulli(rho_gaussian(5000.0), 5000);
  expect_table_matches_bernoulli(rho_gaussian(5000.0), 7);
  for (const double low : {0.0, 0.5}) expect_table_matches_bernoulli(rho_step(3, low), 1);
  for (const double c : {0.0, 0.3, 1.0}) expect_table_matches_bernoulli(rho_constant(c), 1);
}

TEST(RhoNoisyComp, AlwaysWrongIsWorseThanOneChoice) {
  // rho == 0 sends every unequal comparison to the heavier bin -- strictly
  // worse than random placement.
  const step_count m = 50000;
  const double wrong =
      mean_gap_of([] { return rho_noisy_comp<rho_constant>(128, rho_constant(0.0)); }, m, 10, 3);
  const double one = mean_gap_of([] { return one_choice(128); }, m, 10, 4);
  EXPECT_GT(wrong, one);
}

TEST(SigmaNoisyLoad, GapGrowsWithSigma) {
  const step_count m = 100000;
  const double s1 = mean_gap_of([] { return sigma_noisy_load(256, rho_gaussian(1.0)); }, m, 10, 5);
  const double s8 = mean_gap_of([] { return sigma_noisy_load(256, rho_gaussian(8.0)); }, m, 10, 6);
  EXPECT_LT(s1, s8);
}

TEST(SigmaNoisyLoad, MilderThanAdversarialNoiseAtSameParameter) {
  // Fig 12.1 ordering: sigma-Noisy-Load < g-Myopic-Comp < g-Bounded.
  const step_count m = 100000;
  const double noisy = mean_gap_of([] { return sigma_noisy_load(256, rho_gaussian(8.0)); }, m, 10, 7);
  const double myopic = mean_gap_of([] { return g_myopic_comp(256, 8); }, m, 10, 8);
  const double bounded_gap = mean_gap_of([] { return g_bounded(256, 8); }, m, 10, 9);
  EXPECT_LE(noisy, myopic + 0.4);
  EXPECT_LE(myopic, bounded_gap + 0.4);
}

// ---------------------------------------------------------------------------
// The physical Gaussian-report form.

TEST(SigmaNoisyGauss, ConservesBalls) {
  EXPECT_EQ(total_balls(run_and_snapshot(sigma_noisy_load_gaussian(64, 2.0), 4000, 10)), 4000);
}

TEST(SigmaNoisyGauss, CorrectComparisonProbabilityIsOneMinusPhi) {
  // For loads differing by delta, P(correct) = 1 - Phi(delta / (sqrt(2)
  // sigma)) ... wait: P(correct) = P(lighter's report < heavier's) =
  // Phi(delta / (sqrt(2) sigma)).  Verify against erfc directly.
  const double sigma = 3.0;
  const load_t delta = 4;
  rng_t rng(11);
  gaussian_sampler gs;
  int correct = 0;
  constexpr int kTrials = 200000;
  for (int i = 0; i < kTrials; ++i) {
    const double light = 0.0 + sigma * gs.next(rng);
    const double heavy = static_cast<double>(delta) + sigma * gs.next(rng);
    if (light < heavy) ++correct;
  }
  const double z = static_cast<double>(delta) / (std::sqrt(2.0) * sigma);
  const double phi = 0.5 * std::erfc(-z / std::sqrt(2.0));
  EXPECT_NEAR(static_cast<double>(correct) / kTrials, phi, 0.005);
}

TEST(SigmaNoisyGauss, TracksRhoFormAcrossSigmas) {
  // The Eq. 2.1 process is the re-scaled Gaussian tail of the physical
  // process; their gaps agree within a small constant across sigma.
  const step_count m = 60000;
  for (const double sigma : {2.0, 6.0}) {
    const double physical =
        mean_gap_of([&] { return sigma_noisy_load_gaussian(128, sigma); }, m, 10,
                    static_cast<std::uint64_t>(sigma) + 12);
    const double rho_form =
        mean_gap_of([&] { return sigma_noisy_load(128, rho_gaussian(sigma)); }, m, 10,
                    static_cast<std::uint64_t>(sigma) + 13);
    EXPECT_NEAR(physical, rho_form, 0.45 * std::max(physical, rho_form)) << "sigma=" << sigma;
  }
}

TEST(SigmaNoisyGauss, RejectsNegativeSigma) {
  EXPECT_THROW(sigma_noisy_load_gaussian(8, -1.0), nb::contract_error);
}

TEST(SigmaNoisyLoad, NamesAreDescriptive) {
  EXPECT_NE(sigma_noisy_load(8, rho_gaussian(2.0)).name().find("sigma-noisy-load"),
            std::string::npos);
  EXPECT_NE(sigma_noisy_load_gaussian(8, 2.0).name().find("sigma-noisy-gauss"), std::string::npos);
}

}  // namespace
