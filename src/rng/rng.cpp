// The out-of-line samplers of rng.hpp (hypergeometric), and a compiled
// anchor for the header-only rest (catches ODR/ABI issues early).
#include "rng/rng.hpp"

#include <algorithm>
#include <string>

namespace nb {
namespace {

/// ln(x!): a table of summed logs below 256, Stirling's series with three
/// correction terms above (its first omitted term is below 1e-20 there).
double log_factorial(std::int64_t x) {
  static const std::array<double, 256> table = [] {
    std::array<double, 256> t{};
    for (std::size_t i = 2; i < t.size(); ++i) t[i] = t[i - 1] + std::log(static_cast<double>(i));
    return t;
  }();
  if (x < static_cast<std::int64_t>(table.size())) return table[static_cast<std::size_t>(x)];
  const double v = static_cast<double>(x);
  const double r = 1.0 / v;
  const double r2 = r * r;
  constexpr double kHalfLog2Pi = 0.91893853320467274178;
  return (v + 0.5) * std::log(v) - v + kHalfLog2Pi +
         r * (1.0 / 12.0 - r2 * (1.0 / 360.0 - r2 / 1260.0));
}

/// Largest s = min(draws, good) whose attempts invert from 0.
constexpr std::int64_t kInversionMax = 16;

/// Hypergeometric(s, l, total) with 1 <= s <= l <= total / 2, so its
/// support is [0, s]; the draw order is hypergeometric's (rng.hpp).
std::int64_t hypergeometric_folded(xoshiro256pp& rng, std::int64_t s, std::int64_t l,
                                   std::int64_t total) {
  const double ds = static_cast<double>(s);
  const double dl = static_cast<double>(l);
  const double rest = static_cast<double>(total - s - l);  // >= 0 after folding
  // pmf(x + 1) / pmf(x) and pmf(x - 1) / pmf(x).
  const auto up = [&](double x) { return (ds - x) * (dl - x) / ((x + 1) * (rest + x + 1)); };
  const auto down = [&](double x) { return x * (rest + x) / ((ds - x + 1) * (dl - x + 1)); };
  if (s <= kInversionMax) {
    // pmf(0) = C(total - l, s) / C(total, s), one division: each product
    // has at most 16 factors below 2^63, so it stays below 2^1008.
    double num = 1.0;
    double den = 1.0;
    for (std::int64_t j = 0; j < s; ++j) {
      num *= static_cast<double>(total - l - j);
      den *= static_cast<double>(total - j);
    }
    const double p0 = num / den;
    for (;;) {
      double u = canonical(rng);
      double p = p0;
      for (std::int64_t x = 0; x <= s; ++x) {
        if (u < p) return x;
        u -= p;
        p *= up(static_cast<double>(x));
      }
    }
  }
  const auto mode = static_cast<std::int64_t>(
      static_cast<unsigned __int128>(s + 1) * static_cast<unsigned __int128>(l + 1) /
      static_cast<unsigned __int128>(total + 2));
  const double pmode =
      std::exp(log_factorial(s) + log_factorial(l) + log_factorial(total - s) +
               log_factorial(total - l) - log_factorial(total) - log_factorial(mode) -
               log_factorial(s - mode) - log_factorial(l - mode) -
               log_factorial(total - s - l + mode));
  for (;;) {
    double u = canonical(rng);
    if (u < pmode) return mode;
    u -= pmode;
    std::int64_t hi = mode;
    std::int64_t lo = mode;
    double phi = pmode;
    double plo = pmode;
    while (hi < s || lo > 0) {
      if (hi < s) {
        phi *= up(static_cast<double>(hi++));
        if (u < phi) return hi;
        u -= phi;
      }
      if (lo > 0) {
        plo *= down(static_cast<double>(lo--));
        if (u < plo) return lo;
        u -= plo;
      }
    }
  }
}

[[maybe_unused]] std::uint64_t instantiate_smoke() {
  xoshiro256pp a(1);
  gaussian_sampler gs;
  return bounded(a, 10) ^ static_cast<std::uint64_t>(canonical(a) * 8) ^
         static_cast<std::uint64_t>(gs.next(a)) ^ shard_stream_seed(a.next(), 2);
}

}  // namespace

std::int64_t hypergeometric(xoshiro256pp& rng, std::int64_t draws, std::int64_t good,
                            std::int64_t total) {
  NB_REQUIRE(total >= 0,
             "hypergeometric total got " + std::to_string(total) + "; it must be non-negative");
  const auto in_range = [total](const char* what, std::int64_t v) {
    NB_REQUIRE(v >= 0 && v <= total, std::string("hypergeometric ") + what + " got " +
                                         std::to_string(v) + "; it must be in [0, total = " +
                                         std::to_string(total) + "]");
  };
  in_range("draws", draws);
  in_range("good", good);
  if (draws == 0 || good == 0) return 0;
  if (draws == total) return good;
  if (good == total) return draws;
  // Fold: bad items among the drawn, good items among the undrawn.
  const bool fold_good = good > total - good;
  const bool fold_draws = draws > total - draws;
  const std::int64_t g = fold_good ? total - good : good;
  const std::int64_t d = fold_draws ? total - draws : draws;
  std::int64_t x = hypergeometric_folded(rng, std::min(d, g), std::max(d, g), total);
  if (fold_draws) x = g - x;
  if (fold_good) x = draws - x;
  return x;
}

}  // namespace nb
