// The g-Adv-Comp setting (Section 2, "Adversarial Load and Comparison").
//
// Two-Choice with an adaptive adversary of power g: at each step two bins
// i1, i2 are sampled u.a.r. with replacement; if |x_{i1} - x_{i2}| <= g the
// adversary decides the outcome of the comparison (and hence the
// allocation), otherwise the ball is placed in the less loaded bin.
// g = 0 recovers noise-free Two-Choice exactly (step-for-step, given the
// same RNG stream, because our Two-Choice breaks ties with the same coin).
//
// The adversary strategy is a template parameter (see adversary.hpp), so
// the per-ball cost stays free of indirect calls.
#pragma once

#include <cstdlib>
#include <string>

#include "core/noise/adversary.hpp"
#include "core/process.hpp"

namespace nb {

template <typename Strategy>
class g_adv_comp : public process_base<g_adv_comp<Strategy>> {
 public:
  g_adv_comp(bin_count n, load_t g, Strategy strategy = Strategy{})
      : process_base<g_adv_comp>(n), g_(g), strategy_(std::move(strategy)) {
    NB_REQUIRE(g >= 0, "adversary power g must be non-negative");
  }

  [[nodiscard]] std::string name() const {
    const std::string base = std::string(Strategy::label) + "[g=" + std::to_string(g_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] load_t g() const noexcept { return g_; }
  [[nodiscard]] const Strategy& strategy() const noexcept { return strategy_; }

 private:
  friend class process_base<g_adv_comp>;
  using process_base<g_adv_comp>::state_;
  using process_base<g_adv_comp>::model_;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t x1 = state_.load(i1);
    const load_t x2 = state_.load(i2);
    const load_t diff = x1 >= x2 ? x1 - x2 : x2 - x1;
    bin_index chosen;
    if (diff <= g_) {
      chosen = strategy_.decide(i1, i2, state_, rng);
      NB_ASSERT(chosen == i1 || chosen == i2);
    } else {
      chosen = (x1 < x2) ? i1 : i2;
    }
    deposit(state_, model_.weighting, chosen, rng);
  }

  load_t g_;
  Strategy strategy_;
};

/// The two processes the paper names (and benchmarks in Section 12).
using g_bounded = g_adv_comp<greedy_reverser>;
using g_myopic_comp = g_adv_comp<random_decision>;

static_assert(allocation_process<g_bounded>);
static_assert(allocation_process<g_myopic_comp>);
static_assert(modeled_process<g_bounded>);
static_assert(allocation_process<g_adv_comp<always_correct>>);
static_assert(allocation_process<g_adv_comp<overload_booster>>);
static_assert(allocation_process<g_adv_comp<index_bias>>);
static_assert(checkpointable_process<g_bounded>);
static_assert(checkpointable_process<g_myopic_comp>);
static_assert(departable_process<g_bounded>);
static_assert(departable_process<g_myopic_comp>);

}  // namespace nb
