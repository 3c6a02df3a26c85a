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
class g_adv_comp {
 public:
  g_adv_comp(bin_count n, load_t g, Strategy strategy = Strategy{})
      : state_(n), g_(g), strategy_(std::move(strategy)) {
    NB_REQUIRE(g >= 0, "adversary power g must be non-negative");
  }

  void step(rng_t& rng) { step_one(rng, state_.n()); }

  /// Fused bulk loop: n and g hoisted out of the per-ball path.
  void step_many(rng_t& rng, step_count count) {
    const bin_count n = state_.n();
    const load_state::bulk_window window(state_, count);
    for (step_count t = 0; t < count; ++t) step_one(rng, n);
  }

  [[nodiscard]] const load_state& state() const noexcept { return state_; }
  void reset() { state_.reset(); }
  [[nodiscard]] std::string name() const {
    const std::string base = std::string(Strategy::label) + "[g=" + std::to_string(g_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] load_t g() const noexcept { return g_; }
  [[nodiscard]] const Strategy& strategy() const noexcept { return strategy_; }

  void set_model(alloc_model m) { install_model(state_, model_, std::move(m)); }
  [[nodiscard]] const alloc_model& model() const noexcept { return model_; }

  /// One departure event through the model's channel (see depart_ball).
  void depart(rng_t& rng) { depart_ball(state_, model_, rng); }
  /// Applies one engine-merged departure block (see apply_departure_block).
  void commit_departures(const std::vector<std::uint32_t>& rel, step_count k,
                         const range_executor& exec = {}) {
    apply_departure_block(state_, model_, rel, k, exec);
  }

  /// Checkpoint contract: the strategy and parameters are configuration,
  /// the load state is the only mutable member.
  void save_checkpoint(state_writer& w) const { state_.save(w); }
  void restore_checkpoint(state_reader& r) { state_.restore(r); }

 private:
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

  load_state state_;
  alloc_model model_;
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
