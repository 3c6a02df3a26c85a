// Pseudo-random number generation for the simulator.
//
// The allocation processes draw two bin indices per ball; at paper scale a
// single run is 10^8 steps, so generator speed matters.  We implement (from
// scratch, following the public-domain reference algorithms):
//
//   * splitmix64       -- seeding / stream derivation / cheap mixing
//   * xoshiro256++     -- the workhorse generator (fast, passes BigCrush)
//
// plus the distributions the paper needs: unbiased bounded uniforms
// (Lemire's multiply-shift rejection method), canonical doubles, Bernoulli,
// Gaussian (for sigma-Noisy-Load) and hypergeometric (for batched random
// departures; defined in rng.cpp).
//
// Everything takes the generator as an explicit argument; there is no
// global RNG state (Core Guidelines I.2).
#pragma once

#include <array>
#include <cmath>
#include <concepts>
#include <cstdint>
#include <limits>

#include "common/error.hpp"

namespace nb {

/// Concept satisfied by our 64-bit generators (and any compatible one).
template <typename G>
concept uniform_random_u64 = requires(G g) {
  { g.next() } -> std::convertible_to<std::uint64_t>;
};

/// splitmix64: tiny, high-quality 64-bit mixer.  Primary use: expanding a
/// single user seed into the 256-bit state of xoshiro and deriving
/// independent per-run seeds.
class splitmix64 {
 public:
  explicit constexpr splitmix64(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    std::uint64_t z = (state_ += 0x9E3779B97f4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t state_;
};

/// Stateless mixing of (seed, stream) pairs into fresh seeds.  Used to give
/// every repetition of an experiment an independent, reproducible stream
/// regardless of scheduling order or thread count.
constexpr std::uint64_t derive_seed(std::uint64_t master_seed, std::uint64_t stream) noexcept {
  splitmix64 sm(master_seed ^ (0x9E3779B97f4A7C15ULL * (stream + 1)));
  sm.next();
  return sm.next();
}

/// Substream seed for shard `shard` of one intra-run parallel window.  The
/// caller draws a single `window_token` from the run's master generator
/// (one next() per window), then every shard gets an independent stream
/// that depends only on (token, shard index) -- never on which thread
/// executes the shard -- so shard-parallel results are bit-identical for
/// any thread count.
constexpr std::uint64_t shard_stream_seed(std::uint64_t window_token, std::uint64_t shard) noexcept {
  return derive_seed(window_token, shard);
}

namespace detail {
constexpr std::uint64_t rotl64(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}
}  // namespace detail

/// xoshiro256++ (Blackman & Vigna).  256 bits of state, period 2^256-1.
class xoshiro256pp {
 public:
  explicit constexpr xoshiro256pp(std::uint64_t seed) noexcept { reseed(seed); }

  constexpr void reseed(std::uint64_t seed) noexcept {
    splitmix64 sm(seed);
    for (auto& word : s_) word = sm.next();
  }

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t result = detail::rotl64(s_[0] + s_[3], 23) + s_[0];
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = detail::rotl64(s_[3], 45);
    return result;
  }

  /// Equivalent to 2^128 calls of next(); used to split one seed into
  /// non-overlapping subsequences.
  constexpr void jump() noexcept {
    constexpr std::array<std::uint64_t, 4> kJump = {0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL,
                                                    0xa9582618e03fc9aaULL, 0x39abdc4529b1661cULL};
    std::array<std::uint64_t, 4> acc = {0, 0, 0, 0};
    for (std::uint64_t word : kJump) {
      for (int b = 0; b < 64; ++b) {
        if (word & (std::uint64_t{1} << b)) {
          for (int i = 0; i < 4; ++i) acc[static_cast<std::size_t>(i)] ^= s_[static_cast<std::size_t>(i)];
        }
        next();
      }
    }
    s_ = acc;
  }

  /// UniformRandomBitGenerator interface so <random> adapters also work.
  using result_type = std::uint64_t;
  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return std::numeric_limits<std::uint64_t>::max(); }
  result_type operator()() noexcept { return next(); }

  /// Raw 256-bit state, for mid-stream checkpoint/restore: after
  /// set_state(state()) the generator produces the identical continuation
  /// of the stream.  The all-zero state is the one fixed point of the
  /// transition function and is rejected.
  [[nodiscard]] constexpr std::array<std::uint64_t, 4> state() const noexcept { return s_; }
  constexpr void set_state(const std::array<std::uint64_t, 4>& s) {
    NB_REQUIRE(s[0] != 0 || s[1] != 0 || s[2] != 0 || s[3] != 0,
               "xoshiro256 state must not be all zero");
    s_ = s;
  }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Unbiased uniform integer in [0, bound) via Lemire's multiply-shift
/// rejection method.  bound must be positive.
template <uniform_random_u64 G>
inline std::uint64_t bounded(G& rng, std::uint64_t bound) {
  NB_ASSERT(bound > 0);
  // 128-bit multiply; the high word is an unbiased sample after rejection.
  std::uint64_t x = rng.next();
  __uint128_t m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
  auto low = static_cast<std::uint64_t>(m);
  if (low < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (low < threshold) {
      x = rng.next();
      m = static_cast<__uint128_t>(x) * static_cast<__uint128_t>(bound);
      low = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Hypergeometric(draws, good, total): how many of `draws` items taken
/// without replacement from `total` items, `good` of them good, are good.
/// Exact up to double rounding: one inversion of the closed-form pmf, no
/// approximation.  (The mode walk starts from log-factorials, so there
/// rounding scales its pmf by 1 + e with |e| about 2^-52 ln(total!):
/// 10^-8 at total = 2*10^6.)  Draw order (part of every caller's sampling
/// contract):
///   * a determined result (draws or good 0, draws or good == total)
///     consumes no draw;
///   * otherwise d = draws and g = good are each folded to at most total/2
///     (x -> total - x, the result mapped back), s = min(d, g) and
///     l = max(d, g), and every attempt consumes exactly one canonical()
///     u.  For s <= 16 the attempt inverts the pmf upward from 0; above,
///     it starts at the mode, then takes one atom above and one below in
///     turn.  An attempt whose u outlasts every atom (double rounding
///     only) is redrawn.
/// Throws contract_error naming the value when total < 0 or draws or good
/// lies outside [0, total].
std::int64_t hypergeometric(xoshiro256pp& rng, std::int64_t draws, std::int64_t good,
                            std::int64_t total);

/// Uniform double in [0, 1) with 53 random bits.
template <uniform_random_u64 G>
inline double canonical(G& rng) {
  return static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
}

/// Bernoulli(p) draw; p outside [0,1] is clamped (p<=0 -> false, p>=1 -> true).
template <uniform_random_u64 G>
inline bool bernoulli(G& rng, double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return canonical(rng) < p;
}

/// Fair coin using a single bit of entropy.
template <uniform_random_u64 G>
inline bool coin_flip(G& rng) {
  return (rng.next() >> 63) != 0;
}

/// Standard normal draws via the Box-Muller transform, caching the second
/// value of each pair.  Cheap, branch-light and precise enough for the
/// sigma-Noisy-Load perturbations.
class gaussian_sampler {
 public:
  template <uniform_random_u64 G>
  double next(G& rng) {
    if (has_cached_) {
      has_cached_ = false;
      return cached_;
    }
    // u in (0,1] to avoid log(0); v in [0,1).
    const double u = 1.0 - canonical(rng);
    const double v = canonical(rng);
    const double r = std::sqrt(-2.0 * std::log(u));
    const double theta = 2.0 * kPi * v;
    cached_ = r * std::sin(theta);
    has_cached_ = true;
    return r * std::cos(theta);
  }

  void reset() noexcept { has_cached_ = false; }

  /// Box-Muller produces values in pairs, so "how far into the current
  /// pair" is real mid-stream state: a checkpoint must carry the cached
  /// second value or the restored stream diverges after one draw.
  [[nodiscard]] bool has_cached() const noexcept { return has_cached_; }
  [[nodiscard]] double cached_value() const noexcept { return cached_; }
  void set_cache(bool has_cached, double value) noexcept {
    has_cached_ = has_cached;
    cached_ = value;
  }

 private:
  static constexpr double kPi = 3.14159265358979323846;
  double cached_ = 0.0;
  bool has_cached_ = false;
};

}  // namespace nb
