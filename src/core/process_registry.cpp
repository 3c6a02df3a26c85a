#include "core/process_registry.hpp"

#include <cmath>
#include <cstdio>
#include <limits>

#include "core/basic_processes.hpp"
#include "core/noise/adv_comp.hpp"
#include "core/noise/adv_load.hpp"
#include "core/noise/batch.hpp"
#include "core/noise/delay.hpp"
#include "core/noise/noisy_comp.hpp"
#include "core/noise/thinning.hpp"

namespace nb {

namespace {

/// The spec's param as an integer of type T, at least `lo`.  The range is
/// checked before the cast (a double outside T's range has no defined
/// conversion), and the error names the kind and the value.
template <typename T>
T integer_param(const process_spec& spec, double lo) {
  // 2^digits is the first integer past T's maximum, and exact as a double.
  const double past_max = std::ldexp(1.0, std::numeric_limits<T>::digits);
  const double p = spec.param;
  if (!(p >= lo && p < past_max && p == std::floor(p))) {
    char value[32];
    std::snprintf(value, sizeof value, "%.17g", p);
    throw contract_error("process kind '" + spec.kind + "': param must be an integer in [" +
                         std::to_string(static_cast<T>(lo)) + ", " +
                         std::to_string(std::numeric_limits<T>::max()) + "], got " + value);
  }
  return static_cast<T>(p);
}

// The param, read as each kind's constructor argument.
double as_real(const process_spec& spec) { return spec.param; }
rho_gaussian as_rho(const process_spec& spec) { return rho_gaussian(spec.param); }
int as_choices(const process_spec& spec) { return integer_param<int>(spec, 1.0); }
load_t as_load(const process_spec& spec) { return integer_param<load_t>(spec, 0.0); }
step_count as_steps(const process_spec& spec) { return integer_param<step_count>(spec, 1.0); }

/// Builds P(n, args(spec)...).
template <typename P, auto... args>
any_process build(const process_spec& spec) {
  return P(spec.n, args(spec)...);
}

/// One registered kind: its name, its one-line description and how to
/// build it.  The one list behind both make_process and
/// registered_process_kinds().
struct kind_entry {
  const char* kind;
  const char* description;
  any_process (*factory)(const process_spec& spec);
};

const kind_entry kKinds[] = {
    {"one-choice", "each ball into a uniformly random bin", build<one_choice>},
    {"two-choice", "less loaded of two uniform samples (ties: coin)", build<two_choice>},
    {"d-choice", "least loaded of param=d uniform samples", build<d_choice, as_choices>},
    {"one-plus-beta", "Two-Choice step w.p. param=beta, else One-Choice",
     build<one_plus_beta, as_real>},
    {"g-bounded", "g-Adv-Comp with the greedy reverser (param=g)", build<g_bounded, as_load>},
    {"g-myopic", "g-Adv-Comp with random decisions among close bins (param=g)",
     build<g_myopic_comp, as_load>},
    {"g-adv-boost", "g-Adv-Comp reversing only onto overloaded bins (param=g)",
     build<g_adv_comp<overload_booster>, as_load>},
    {"g-adv-index", "g-Adv-Comp biased to the smaller bin index (param=g)",
     build<g_adv_comp<index_bias>, as_load>},
    {"g-adv-correct", "g-Adv-Comp playing correctly (== Two-Choice; param=g)",
     build<g_adv_comp<always_correct>, as_load>},
    {"g-adv-load", "estimates perturbed adversarially within +/-g (param=g)",
     build<g_adv_load<inverting_estimates>, as_load>},
    {"g-adv-load-uniform", "estimates perturbed uniformly within +/-g (param=g)",
     build<g_adv_load<uniform_noise_estimates>, as_load>},
    {"sigma-noisy-load", "Gaussian-tail comparison noise, Eq. 2.1 (param=sigma)",
     build<sigma_noisy_load, as_rho>},
    {"sigma-noisy-gauss", "physical Gaussian perturbation of reports (param=sigma)",
     build<sigma_noisy_load_gaussian, as_real>},
    {"b-batch", "loads refreshed every param=b balls (random ties)", build<b_batch, as_steps>},
    {"tau-delay", "adversarial sliding-window estimates (param=tau)",
     build<tau_delay<delay_adversarial>, as_steps>},
    {"tau-delay-oldest", "every report param=tau steps stale",
     build<tau_delay<delay_oldest>, as_steps>},
    {"tau-delay-random", "uniform report from the sliding window (param=tau)",
     build<tau_delay<delay_random>, as_steps>},
    {"mean-thinning",
     "place on sampled bin iff below average, else fresh bin (param=g noise, 0 = exact)",
     build<mean_thinning, as_load>},
    {"noisy-mean-thinning", "mean-thinning with a greedy adversarial threshold test (param=g)",
     build<noisy_mean_thinning<thinning_greedy>, as_load>},
    {"noisy-mean-thinning-myopic",
     "mean-thinning with a random threshold test within +/-g (param=g)",
     build<noisy_mean_thinning<thinning_random>, as_load>},
    {"noisy-one-plus-beta", "(1+beta), beta=0.5, with a greedy g-band adversary (param=g)",
     [](const process_spec& s) -> any_process {
       return noisy_one_plus_beta<greedy_reverser>(s.n, 0.5, as_load(s));
     }},
};

any_process build_process(const process_spec& spec) {
  NB_REQUIRE(spec.n >= 1, "process spec needs n >= 1");
  for (const kind_entry& entry : kKinds) {
    if (spec.kind == entry.kind) return entry.factory(spec);
  }
  throw contract_error("unknown process kind: '" + spec.kind + "'");
}

/// Applies the spec's allocation model to a freshly built process.  The
/// default unit/uniform spec is a no-op, so registry behavior (and every
/// historical golden test) is untouched unless a model is asked for.
any_process with_model(any_process process, const process_spec& spec) {
  if (spec.weighting != "unit" || spec.sampler != "uniform" || spec.departures != "none") {
    process.set_model(
        make_model(spec.weighting, spec.sampler, process.state().n(), spec.departures));
  }
  return process;
}

}  // namespace

any_process make_process(const process_spec& spec) {
  return with_model(build_process(spec), spec);
}

std::vector<std::pair<std::string, std::string>> registered_process_kinds() {
  std::vector<std::pair<std::string, std::string>> kinds;
  for (const kind_entry& entry : kKinds) kinds.emplace_back(entry.kind, entry.description);
  return kinds;
}

}  // namespace nb
