// Shared helpers for the noisebalance test suites.
#pragma once

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "noisebalance.hpp"

namespace nb::testing {

/// Runs `process` for m balls from a fresh RNG with `seed`.
template <allocation_process P>
std::vector<load_t> run_and_snapshot(P process, step_count m, std::uint64_t seed) {
  rng_t rng(seed);
  for (step_count t = 0; t < m; ++t) process.step(rng);
  return process.state().loads();
}

/// Asserts two processes produce *identical* load vectors when driven by
/// identical RNG streams -- the strongest form of process equivalence
/// (same sampling decisions, same entropy consumption, same allocations).
template <allocation_process P1, allocation_process P2>
::testing::AssertionResult traces_identical(P1 a, P2 b, step_count m, std::uint64_t seed) {
  rng_t rng_a(seed);
  rng_t rng_b(seed);
  for (step_count t = 0; t < m; ++t) {
    a.step(rng_a);
    b.step(rng_b);
    if (a.state().loads() != b.state().loads()) {
      return ::testing::AssertionFailure()
             << a.name() << " and " << b.name() << " diverged at step " << (t + 1) << " of " << m;
    }
  }
  return ::testing::AssertionSuccess();
}

/// Mean gap over `runs` independent runs (deterministic given the seed).
template <typename Factory>
double mean_gap_of(Factory&& factory, step_count m, std::size_t runs, std::uint64_t seed) {
  double acc = 0.0;
  for (std::size_t r = 0; r < runs; ++r) {
    auto process = factory();
    rng_t rng(derive_seed(seed, r));
    acc += simulate(process, m, rng).gap;
  }
  return acc / static_cast<double>(runs);
}

/// FNV-1a fold of a sequence of integers, one element per round (each
/// element is widened through its unsigned type before the xor).  The
/// golden-value tests pin streams with it: count vectors, load vectors and
/// kind names alike.
template <typename Range>
std::uint64_t fnv1a(const Range& values) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  for (const auto x : values) {
    using unsigned_t = std::make_unsigned_t<std::remove_cv_t<decltype(x)>>;
    h ^= static_cast<std::uint64_t>(static_cast<unsigned_t>(x));
    h *= 0x100000001B3ULL;
  }
  return h;
}

/// Representative parameter for each registered process kind, shared by
/// the registry-wide suites (parity, churn, pinned streams).
inline double param_for(const std::string& kind) {
  if (kind == "d-choice") return 4.0;
  if (kind == "one-plus-beta") return 0.7;
  if (kind == "b-batch") return 37.0;  // deliberately not a divisor of m
  if (kind.rfind("tau-delay", 0) == 0) return 17.0;
  if (kind.rfind("sigma", 0) == 0) return 2.0;
  return 3.0;  // g for the adversarial kinds; ignored by one/two-choice
}

/// The uint32 count row a byte row with a carry list stands for (the byte
/// form of kernel_run): bin i counts low[i] + 256 per carry entry equal
/// to i.
inline std::vector<std::uint32_t> widen_counts(const std::vector<std::uint8_t>& low,
                                               const std::vector<std::uint32_t>& carries) {
  std::vector<std::uint32_t> row(low.begin(), low.end());
  for (const std::uint32_t c : carries) row.at(c) += 256;
  return row;
}

/// Upper tail of the chi-square law with `df` degrees of freedom at x:
/// the regularized upper incomplete gamma Q(df / 2, x / 2), by its series
/// below a + 1 and its continued fraction (modified Lentz) above.
inline double chi_square_sf(double x, double df) {
  const double a = df / 2.0;
  const double h = x / 2.0;
  if (h <= 0.0) return 1.0;
  const double front = std::exp(-h + a * std::log(h) - std::lgamma(a));
  if (h < a + 1.0) {
    double term = 1.0 / a;
    double sum = term;
    for (double ap = a + 1.0; term > sum * 1e-16; ap += 1.0) {
      term *= h / ap;
      sum += term;
    }
    return 1.0 - front * sum;
  }
  constexpr double kTiny = 1e-300;
  double b = h + 1.0 - a;
  double c = 1.0 / kTiny;
  double d = 1.0 / b;
  double frac = d;
  for (int i = 1; i < 10000; ++i) {
    const double an = -i * (i - a);
    b += 2.0;
    d = an * d + b;
    d = std::fabs(d) < kTiny ? 1.0 / kTiny : 1.0 / d;
    c = b + an / c;
    if (std::fabs(c) < kTiny) c = kTiny;
    frac *= d * c;
    if (std::fabs(d * c - 1.0) < 1e-16) break;
  }
  return front * frac;
}

/// p-value of a G-test of `observed` counts against the cell
/// probabilities `probs` (summing to 1).  Cells expecting fewer than 5
/// counts are pooled into one; df is the cell count after pooling, less 1.
inline double g_test_p_value(const std::vector<std::int64_t>& observed,
                             const std::vector<double>& probs) {
  double total = 0.0;
  for (const std::int64_t o : observed) total += static_cast<double>(o);
  std::vector<std::pair<double, double>> cells;  // (observed, expected)
  std::pair<double, double> pooled{0.0, 0.0};
  for (std::size_t i = 0; i < observed.size(); ++i) {
    const std::pair<double, double> cell{static_cast<double>(observed[i]), probs[i] * total};
    if (cell.second < 5.0) {
      pooled.first += cell.first;
      pooled.second += cell.second;
    } else {
      cells.push_back(cell);
    }
  }
  if (pooled.second > 0.0) cells.push_back(pooled);
  double g = 0.0;
  for (const auto& [o, e] : cells) {
    if (o > 0.0) g += 2.0 * o * std::log(o / e);
  }
  return chi_square_sf(g, static_cast<double>(cells.size()) - 1.0);
}

/// Total number of balls across bins.
inline std::int64_t total_balls(const std::vector<load_t>& loads) {
  std::int64_t sum = 0;
  for (const load_t x : loads) sum += x;
  return sum;
}

}  // namespace nb::testing
