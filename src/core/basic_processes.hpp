// Baseline (noise-free) allocation processes from the paper:
//
//   * One-Choice     -- each ball into a uniformly random bin.
//   * Two-Choice     -- sample two bins u.a.r. with replacement, allocate to
//                       the less loaded one [ABKU99]; ties broken by a fair
//                       coin (the paper allows arbitrary tie-breaking; the
//                       coin makes Two-Choice the exact g=0 instance of
//                       every noise setting we implement).
//   * d-Choice       -- least loaded of d samples [ABKU99/BCSV06].
//   * (1+beta)       -- Two-Choice step with probability beta, One-Choice
//                       step otherwise [PTW15].
//
// Each is a process_base (process.hpp) with its own step_one decision
// rule.  Every process carries an alloc_model (weighted balls + non-uniform
// bin sampling, default unit/uniform); see the contract note in process.hpp.
// Bin samples go through the model's sampler, deposits through deposit();
// the default model reproduces the historical streams bit for bit.
#pragma once

#include <string>

#include "core/process.hpp"

namespace nb {

class one_choice : public process_base<one_choice> {
 public:
  explicit one_choice(bin_count n) : process_base(n) {}

  [[nodiscard]] std::string name() const {
    return with_model_suffix("one-choice", model_);
  }

 private:
  friend class process_base<one_choice>;

  void step_one(rng_t& rng, bin_count n) {
    deposit(state_, model_.weighting, model_.sampler.sample(rng, n), rng);
  }
};

class two_choice : public process_base<two_choice> {
 public:
  explicit two_choice(bin_count n) : process_base(n) {}

  [[nodiscard]] std::string name() const {
    return with_model_suffix("two-choice", model_);
  }

 private:
  friend class process_base<two_choice>;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t x1 = state_.load(i1);
    const load_t x2 = state_.load(i2);
    bin_index chosen;
    if (x1 < x2) {
      chosen = i1;
    } else if (x2 < x1) {
      chosen = i2;
    } else {
      chosen = coin_flip(rng) ? i1 : i2;
    }
    deposit(state_, model_.weighting, chosen, rng);
  }
};

/// Least loaded of d independent uniform samples (with replacement); ties
/// among the minima are broken uniformly via reservoir sampling.
class d_choice : public process_base<d_choice> {
 public:
  d_choice(bin_count n, int d) : process_base(n), d_(d) {
    NB_REQUIRE(d >= 1, "d-choice needs d >= 1");
  }

  [[nodiscard]] std::string name() const {
    const std::string base = std::to_string(d_) + "-choice";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] int d() const noexcept { return d_; }

 private:
  friend class process_base<d_choice>;

  void step_one(rng_t& rng, bin_count n) {
    bin_index best = model_.sampler.sample(rng, n);
    load_t best_load = state_.load(best);
    std::uint64_t tie_count = 1;
    for (int k = 1; k < d_; ++k) {
      const bin_index candidate = model_.sampler.sample(rng, n);
      const load_t candidate_load = state_.load(candidate);
      if (candidate_load < best_load) {
        best = candidate;
        best_load = candidate_load;
        tie_count = 1;
      } else if (candidate_load == best_load) {
        ++tie_count;
        if (bounded(rng, tie_count) == 0) best = candidate;
      }
    }
    deposit(state_, model_.weighting, best, rng);
  }

  int d_;
};

/// The (1+beta)-process of Peres, Talwar and Wieder.
class one_plus_beta : public process_base<one_plus_beta> {
 public:
  one_plus_beta(bin_count n, double beta) : process_base(n), beta_(beta) {
    NB_REQUIRE(beta >= 0.0 && beta <= 1.0, "beta must be in [0,1]");
  }

  [[nodiscard]] std::string name() const {
    const std::string base = "(1+beta)[" + std::to_string(beta_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] double beta() const noexcept { return beta_; }

 private:
  friend class process_base<one_plus_beta>;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    if (!bernoulli(rng, beta_)) {
      deposit(state_, model_.weighting, i1, rng);  // One-Choice step
      return;
    }
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t x1 = state_.load(i1);
    const load_t x2 = state_.load(i2);
    bin_index chosen;
    if (x1 < x2) {
      chosen = i1;
    } else if (x2 < x1) {
      chosen = i2;
    } else {
      chosen = coin_flip(rng) ? i1 : i2;
    }
    deposit(state_, model_.weighting, chosen, rng);
  }

  double beta_;
};

static_assert(allocation_process<one_choice>);
static_assert(allocation_process<two_choice>);
static_assert(allocation_process<d_choice>);
static_assert(allocation_process<one_plus_beta>);
static_assert(modeled_process<one_choice>);
static_assert(modeled_process<two_choice>);
static_assert(modeled_process<d_choice>);
static_assert(modeled_process<one_plus_beta>);
static_assert(checkpointable_process<one_choice>);
static_assert(checkpointable_process<two_choice>);
static_assert(checkpointable_process<d_choice>);
static_assert(checkpointable_process<one_plus_beta>);
static_assert(departable_process<one_choice>);
static_assert(departable_process<two_choice>);
static_assert(departable_process<d_choice>);
static_assert(departable_process<one_plus_beta>);

}  // namespace nb
