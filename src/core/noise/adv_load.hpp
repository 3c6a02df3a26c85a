// The g-Adv-Load setting (Section 2): before each step the adversary fixes
// a load estimate for every bin within +/- g of the truth; the ball then
// goes to the sampled bin with the smaller *estimate*.
//
// The paper notes g-Adv-Load is simulable by (2g)-Adv-Comp, which is why
// its analysis focuses on Adv-Comp.  We implement Adv-Load directly with
// pluggable estimate strategies, both to validate that simulation claim
// experimentally and because the "perturbed load report" form is the one a
// systems user would actually configure.
//
// Estimate strategies (computed lazily for the two sampled bins only -- an
// oblivious per-bin rule fixed before sampling can be evaluated on demand):
//   * inverting_estimates  -- adversarial: overloaded bins under-report by
//     g, underloaded bins over-report by g, flipping every comparison it
//     legally can (the worst oblivious-per-bin adversary).
//   * uniform_noise_estimates -- benign: independent uniform perturbation
//     in [-g, +g] (integer), a discrete analogue of sigma-Noisy-Load.
//   * truthful_estimates   -- reports the exact load (Two-Choice).
#pragma once

#include <string>

#include "core/process.hpp"

namespace nb {

struct inverting_estimates {
  static constexpr const char* label = "g-adv-load-invert";
  /// Over-reports underloaded bins and under-reports overloaded ones.
  double estimate(bin_index i, const load_state& s, load_t g, rng_t& /*rng*/) const {
    const double x = static_cast<double>(s.load(i));
    return x >= s.average_load() ? x - static_cast<double>(g) : x + static_cast<double>(g);
  }
};

struct uniform_noise_estimates {
  static constexpr const char* label = "g-adv-load-uniform";
  double estimate(bin_index i, const load_state& s, load_t g, rng_t& rng) const {
    const auto offset =
        static_cast<double>(bounded(rng, 2 * static_cast<std::uint64_t>(g) + 1)) -
        static_cast<double>(g);
    return static_cast<double>(s.load(i)) + offset;
  }
};

struct truthful_estimates {
  static constexpr const char* label = "g-adv-load-truthful";
  double estimate(bin_index i, const load_state& s, load_t /*g*/, rng_t& /*rng*/) const {
    return static_cast<double>(s.load(i));
  }
};

template <typename EstimateStrategy>
class g_adv_load : public process_base<g_adv_load<EstimateStrategy>> {
 public:
  g_adv_load(bin_count n, load_t g, EstimateStrategy strategy = EstimateStrategy{})
      : process_base<g_adv_load>(n), g_(g), strategy_(std::move(strategy)) {
    NB_REQUIRE(g >= 0, "estimate perturbation g must be non-negative");
  }

  [[nodiscard]] std::string name() const {
    const std::string base = std::string(EstimateStrategy::label) + "[g=" + std::to_string(g_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] load_t g() const noexcept { return g_; }

 private:
  friend class process_base<g_adv_load>;
  using process_base<g_adv_load>::state_;
  using process_base<g_adv_load>::model_;

  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const double e1 = strategy_.estimate(i1, state_, g_, rng);
    const double e2 = strategy_.estimate(i2, state_, g_, rng);
    bin_index chosen;
    if (e1 < e2) {
      chosen = i1;
    } else if (e2 < e1) {
      chosen = i2;
    } else {
      chosen = coin_flip(rng) ? i1 : i2;
    }
    deposit(state_, model_.weighting, chosen, rng);
  }

  load_t g_;
  EstimateStrategy strategy_;
};

static_assert(allocation_process<g_adv_load<inverting_estimates>>);
static_assert(allocation_process<g_adv_load<uniform_noise_estimates>>);
static_assert(allocation_process<g_adv_load<truthful_estimates>>);
static_assert(modeled_process<g_adv_load<inverting_estimates>>);
static_assert(checkpointable_process<g_adv_load<inverting_estimates>>);
static_assert(checkpointable_process<g_adv_load<uniform_noise_estimates>>);
static_assert(departable_process<g_adv_load<inverting_estimates>>);

}  // namespace nb
