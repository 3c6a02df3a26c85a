// Extension (the paper's Section 13 "future work"): noisy versions of two
// further allocation processes.
//
//   * Mean-Thinning: sample a bin i; if its load is below the current
//     average, place the ball there, otherwise place it in a *fresh*
//     uniformly random bin (no second comparison).  A Two-Thinning process
//     with the mean as threshold [LSS22 "Twinning and Thinning"].
//
//   * (1+beta): with probability beta take a Two-Choice step, otherwise a
//     One-Choice step [PTW15].
//
// Their noisy counterparts put the same g-band adversary of g-Adv-Comp on
// the decision each process makes:
//
//   * noisy_mean_thinning<S>: the overloaded/underloaded test against the
//     mean is adversarial whenever |x_i - t/n| <= g;
//   * noisy_one_plus_beta<S>: the Two-Choice comparison is adversarial
//     whenever |x_{i1} - x_{i2}| <= g (One-Choice steps have no
//     comparison to corrupt).
//
// Shipped threshold strategies mirror adversary.hpp: greedy (always takes
// the damaging branch), random (myopic) and correct.
#pragma once

#include <cmath>
#include <string>

#include "core/noise/adversary.hpp"
#include "core/process.hpp"

namespace nb {

/// Decision strategies for the thinning threshold test.  `keep_here` is
/// the returned convention: true = place the ball in the sampled bin i,
/// false = divert to a fresh random bin.
struct thinning_greedy {
  static constexpr const char* label = "noisy-mean-thinning-greedy";
  /// The damaging choice: keep the ball on an overloaded bin, divert it
  /// away from an underloaded one.
  bool keep_here(double delta, rng_t& /*rng*/) const { return delta >= 0.0; }
};

struct thinning_random {
  static constexpr const char* label = "noisy-mean-thinning-myopic";
  bool keep_here(double /*delta*/, rng_t& rng) const { return coin_flip(rng); }
};

struct thinning_correct {
  static constexpr const char* label = "noisy-mean-thinning-correct";
  bool keep_here(double delta, rng_t& /*rng*/) const { return delta < 0.0; }
};

/// Mean-Thinning with a g-band adversary on the threshold test.  g = 0
/// with the `correct` strategy recovers noise-free Mean-Thinning (up to
/// the measure-zero boundary delta == 0).
template <typename Strategy>
class noisy_mean_thinning : public process_base<noisy_mean_thinning<Strategy>> {
 public:
  noisy_mean_thinning(bin_count n, load_t g, Strategy strategy = Strategy{})
      : process_base<noisy_mean_thinning>(n), g_(g), strategy_(std::move(strategy)) {
    NB_REQUIRE(g >= 0, "threshold noise g must be non-negative");
  }

  [[nodiscard]] std::string name() const {
    const std::string base = std::string(Strategy::label) + "[g=" + std::to_string(g_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] load_t g() const noexcept { return g_; }

 private:
  friend class process_base<noisy_mean_thinning>;
  using process_base<noisy_mean_thinning>::state_;
  using process_base<noisy_mean_thinning>::model_;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i = model_.sampler.sample(rng, n);
    const double delta = static_cast<double>(state_.load(i)) - state_.average_load();
    bool keep;
    if (std::fabs(delta) <= static_cast<double>(g_)) {
      keep = strategy_.keep_here(delta, rng);
    } else {
      keep = delta < 0.0;  // correct: keep only on underloaded bins
    }
    const bin_index target = keep ? i : model_.sampler.sample(rng, n);
    deposit(state_, model_.weighting, target, rng);
  }

  load_t g_;
  Strategy strategy_;
};

/// (1+beta) whose Two-Choice steps run under a g-Adv-Comp adversary.
template <typename Strategy>
class noisy_one_plus_beta : public process_base<noisy_one_plus_beta<Strategy>> {
 public:
  noisy_one_plus_beta(bin_count n, double beta, load_t g, Strategy strategy = Strategy{})
      : process_base<noisy_one_plus_beta>(n), beta_(beta), g_(g), strategy_(std::move(strategy)) {
    NB_REQUIRE(beta >= 0.0 && beta <= 1.0, "beta must be in [0,1]");
    NB_REQUIRE(g >= 0, "adversary power g must be non-negative");
  }

  [[nodiscard]] std::string name() const {
    const std::string base = "noisy-(1+beta)-" + std::string(Strategy::label) +
                             "[beta=" + std::to_string(beta_) + ",g=" + std::to_string(g_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] double beta() const noexcept { return beta_; }
  [[nodiscard]] load_t g() const noexcept { return g_; }

 private:
  friend class process_base<noisy_one_plus_beta>;
  using process_base<noisy_one_plus_beta>::state_;
  using process_base<noisy_one_plus_beta>::model_;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    if (!bernoulli(rng, beta_)) {
      deposit(state_, model_.weighting, i1, rng);  // One-Choice step: nothing to corrupt
      return;
    }
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t x1 = state_.load(i1);
    const load_t x2 = state_.load(i2);
    const load_t diff = x1 >= x2 ? x1 - x2 : x2 - x1;
    bin_index chosen;
    if (diff <= g_) {
      chosen = strategy_.decide(i1, i2, state_, rng);
    } else {
      chosen = (x1 < x2) ? i1 : i2;
    }
    deposit(state_, model_.weighting, chosen, rng);
  }

  double beta_;
  load_t g_;
  Strategy strategy_;
};

/// Noise-free Mean-Thinning (the baseline for the extension experiments).
using mean_thinning = noisy_mean_thinning<thinning_correct>;

static_assert(allocation_process<noisy_mean_thinning<thinning_greedy>>);
static_assert(allocation_process<noisy_mean_thinning<thinning_random>>);
static_assert(allocation_process<mean_thinning>);
static_assert(allocation_process<noisy_one_plus_beta<greedy_reverser>>);
static_assert(allocation_process<noisy_one_plus_beta<random_decision>>);
static_assert(modeled_process<mean_thinning>);
static_assert(modeled_process<noisy_one_plus_beta<greedy_reverser>>);
static_assert(checkpointable_process<mean_thinning>);
static_assert(checkpointable_process<noisy_one_plus_beta<greedy_reverser>>);
static_assert(departable_process<mean_thinning>);
static_assert(departable_process<noisy_one_plus_beta<greedy_reverser>>);

}  // namespace nb
