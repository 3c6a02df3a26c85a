// Probabilistic noise settings (Section 2, "Probabilistic Noise").
//
// rho-Noisy-Comp: a non-decreasing function rho : N -> [0,1] gives the
// probability that a comparison between bins with absolute load difference
// delta is *correct*; an incorrect comparison sends the ball to the heavier
// bin.  delta = 0 is a tie and is resolved by a fair coin (correct and
// incorrect coincide).
//
// Named rho instances (Fig. 2.2): step functions recover g-Bounded and
// g-Myopic-Comp; constants recover One-Choice (1/2), Two-Choice (1) and
// (1+beta) ((1+beta)/2); the Gaussian tail rho(delta) = 1 - exp(-(delta/
// sigma)^2)/2 defines sigma-Noisy-Load (Eq. 2.1).
//
// sigma_noisy_load_gaussian is the "physical" form of the same process:
// each sampled bin reports x + sigma * N(0,1) (fresh, independent noise per
// sample) and the ball goes to the smaller report.  Eq. 2.1 is exactly this
// after re-scaling sigma by sqrt(2) and tightening the Gaussian tail, so
// the two agree up to that re-scaling (tested).
#pragma once

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace nb {

/// rho(delta) = 1 - exp(-(delta/sigma)^2) / 2  (Eq. 2.1).
class rho_gaussian {
 public:
  explicit rho_gaussian(double sigma) : sigma_(sigma) {
    NB_REQUIRE(sigma > 0.0, "sigma must be positive");
  }
  [[nodiscard]] double operator()(load_t delta) const {
    const double z = static_cast<double>(delta) / sigma_;
    return 1.0 - 0.5 * std::exp(-z * z);
  }
  [[nodiscard]] std::string label() const { return "sigma-noisy-load[s=" + format(sigma_) + "]"; }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

 private:
  static std::string format(double v) {
    std::string s = std::to_string(v);
    // trim trailing zeros for readable names
    while (s.size() > 1 && s.back() == '0') s.pop_back();
    if (!s.empty() && s.back() == '.') s.pop_back();
    return s;
  }
  double sigma_;
};

/// rho == c for all delta > 0.
class rho_constant {
 public:
  explicit rho_constant(double c) : c_(c) {
    NB_REQUIRE(c >= 0.0 && c <= 1.0, "rho must be in [0,1]");
  }
  [[nodiscard]] double operator()(load_t /*delta*/) const { return c_; }
  [[nodiscard]] std::string label() const { return "rho-const[" + std::to_string(c_) + "]"; }

 private:
  double c_;
};

/// rho(delta) = low for delta <= g, 1 otherwise: low=0 is g-Bounded,
/// low=1/2 is g-Myopic-Comp (Fig. 2.2 a/b).
class rho_step {
 public:
  rho_step(load_t g, double low) : g_(g), low_(low) {
    NB_REQUIRE(g >= 0, "step threshold g must be non-negative");
    NB_REQUIRE(low >= 0.0 && low <= 1.0, "rho must be in [0,1]");
  }
  [[nodiscard]] double operator()(load_t delta) const { return delta <= g_ ? low_ : 1.0; }
  [[nodiscard]] std::string label() const {
    return "rho-step[g=" + std::to_string(g_) + ",lo=" + std::to_string(low_) + "]";
  }

 private:
  load_t g_;
  double low_;
};

template <typename Rho>
class rho_noisy_comp : public process_base<rho_noisy_comp<Rho>> {
 public:
  rho_noisy_comp(bin_count n, Rho rho)
      : process_base<rho_noisy_comp>(n), rho_(std::move(rho)), thresholds_(tabulate(rho_)) {}

  [[nodiscard]] std::string name() const {
    return with_model_suffix(rho_.label(), model_);
  }
  [[nodiscard]] const Rho& rho() const noexcept { return rho_; }

 private:
  friend class process_base<rho_noisy_comp>;
  using process_base<rho_noisy_comp>::state_;
  using process_base<rho_noisy_comp>::model_;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t x1 = state_.load(i1);
    const load_t x2 = state_.load(i2);
    bin_index chosen;
    if (x1 == x2) {
      chosen = coin_flip(rng) ? i1 : i2;
    } else {
      const bin_index lighter = (x1 < x2) ? i1 : i2;
      const bin_index heavier = (x1 < x2) ? i2 : i1;
      const load_t delta = (x1 < x2) ? (x2 - x1) : (x1 - x2);
      chosen = correct(rng, delta) ? lighter : heavier;
    }
    deposit(state_, model_.weighting, chosen, rng);
  }

  /// Largest load difference the threshold table covers.
  static constexpr load_t kMaxTabulated = 4096;
  /// Table entry of a comparison that is always correct (rho >= 1).
  static constexpr std::uint64_t kAlways = ~std::uint64_t{0};

  /// bernoulli(rng, rho(delta)) as 53-bit integer thresholds, entry delta
  /// for delta = 1 .. min(D, kMaxTabulated), where D is the first delta
  /// with rho(delta) = 1 (entry 0 is unused: delta = 0 is a tie).
  /// canonical() is k * 2^-53 with k = next() >> 11, so canonical() < p
  /// holds exactly when k < ceil(p * 2^53) (the product is exact).  rho <=
  /// 0 is stored as 0 and rho >= 1 as kAlways: bernoulli draws nothing
  /// then, and neither does correct().
  static std::vector<std::uint64_t> tabulate(const Rho& rho) {
    std::vector<std::uint64_t> thresholds(1, 0);
    for (load_t delta = 1; delta <= kMaxTabulated; ++delta) {
      const double p = rho(delta);
      if (p >= 1.0) {
        thresholds.push_back(kAlways);
        break;
      }
      thresholds.push_back(p <= 0.0 ? 0 : static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53)));
    }
    return thresholds;
  }

  /// Whether the comparison of two bins delta apart comes out correct:
  /// bernoulli(rng, rho_(delta)) -- the same draws and the same answer --
  /// without evaluating rho_ inside the table.
  bool correct(rng_t& rng, load_t delta) const {
    if (static_cast<std::size_t>(delta) >= thresholds_.size()) {
      return bernoulli(rng, rho_(delta));
    }
    const std::uint64_t threshold = thresholds_[static_cast<std::size_t>(delta)];
    if (threshold == 0) return false;
    if (threshold == kAlways) return true;
    return (rng.next() >> 11) < threshold;
  }

  Rho rho_;
  std::vector<std::uint64_t> thresholds_;
};

/// sigma-Noisy-Load in the form the paper benchmarks (Eq. 2.1).
using sigma_noisy_load = rho_noisy_comp<rho_gaussian>;

/// sigma-Noisy-Load in the physical form: fresh Gaussian perturbation of
/// each sampled bin's reported load.
class sigma_noisy_load_gaussian : public process_base<sigma_noisy_load_gaussian> {
 public:
  sigma_noisy_load_gaussian(bin_count n, double sigma) : process_base(n), sigma_(sigma) {
    NB_REQUIRE(sigma >= 0.0, "sigma must be non-negative");
  }

  void reset() {
    state_.reset();
    gauss_.reset();
  }
  [[nodiscard]] std::string name() const {
    const std::string base = "sigma-noisy-gauss[s=" + std::to_string(sigma_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] double sigma() const noexcept { return sigma_; }

  /// Checkpoint contract.  Box-Muller draws Gaussians in pairs, so the
  /// sampler's cached second half is genuine mid-stream state: dropping it
  /// would shift every later Gaussian draw by one.
  void save_checkpoint(state_writer& w) const {
    state_.save(w);
    w.put_bool(gauss_.has_cached());
    w.put_double(gauss_.cached_value());
  }
  void restore_checkpoint(state_reader& r) {
    state_.restore(r);
    const bool has_cached = r.get_bool();
    const double cached = r.get_double();
    gauss_.set_cache(has_cached, cached);
  }

 private:
  friend class process_base<sigma_noisy_load_gaussian>;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const double e1 = static_cast<double>(state_.load(i1)) + sigma_ * gauss_.next(rng);
    const double e2 = static_cast<double>(state_.load(i2)) + sigma_ * gauss_.next(rng);
    bin_index chosen;
    if (e1 < e2) {
      chosen = i1;
    } else if (e2 < e1) {
      chosen = i2;
    } else {
      chosen = coin_flip(rng) ? i1 : i2;  // probability-zero path for sigma>0
    }
    deposit(state_, model_.weighting, chosen, rng);
  }

  double sigma_;
  gaussian_sampler gauss_;
};

static_assert(allocation_process<sigma_noisy_load>);
static_assert(allocation_process<rho_noisy_comp<rho_constant>>);
static_assert(allocation_process<rho_noisy_comp<rho_step>>);
static_assert(allocation_process<sigma_noisy_load_gaussian>);
static_assert(modeled_process<sigma_noisy_load>);
static_assert(modeled_process<sigma_noisy_load_gaussian>);
static_assert(checkpointable_process<sigma_noisy_load>);
static_assert(checkpointable_process<rho_noisy_comp<rho_constant>>);
static_assert(checkpointable_process<rho_noisy_comp<rho_step>>);
static_assert(checkpointable_process<sigma_noisy_load_gaussian>);
static_assert(departable_process<sigma_noisy_load>);
static_assert(departable_process<sigma_noisy_load_gaussian>);

}  // namespace nb
