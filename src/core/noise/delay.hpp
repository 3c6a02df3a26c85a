// The tau-Delay setting (Section 2, "Adversarial Delay").
//
// When bins i1, i2 are sampled in step t, an adaptive adversary reports
// load estimates within the sliding windows [x^{t-tau}_i, x^{t-1}_i]; the
// ball goes to the bin with the smaller estimate (ties broken arbitrarily,
// i.e. adversarially).  tau = 1 collapses to noise-free Two-Choice.
//
// Implementation is O(1) per step: a ring buffer stores the targets of the
// last (tau-1) allocations -- exactly the allocations that are "in flight"
// and may be hidden -- and per-bin counters give
//     x^{t-tau}_i = x^{t-1}_i - (allocations to i inside the window).
//
// Estimate strategies:
//   * delay_oldest       -- every bin reports its oldest legal value
//     (maximum staleness everywhere; models "report what you knew tau
//     steps ago").
//   * delay_adversarial  -- the worst case: reverses the true comparison
//     whenever some legal pair of estimates allows it (this is the
//     adversary the paper's reduction to g-Adv-Comp bounds).
//   * delay_random       -- each bin reports a uniform legal value
//     (a benign asynchronous-update model).
#pragma once

#include <string>
#include <vector>

#include "core/process.hpp"

namespace nb {

struct delay_oldest {
  static constexpr const char* label = "tau-delay-oldest";
  bin_index decide(bin_index i1, load_t lo1, load_t /*hi1*/, bin_index i2, load_t lo2,
                   load_t /*hi2*/, rng_t& rng) const {
    if (lo1 < lo2) return i1;
    if (lo2 < lo1) return i2;
    return coin_flip(rng) ? i1 : i2;
  }
};

struct delay_adversarial {
  static constexpr const char* label = "tau-delay-adversarial";
  bin_index decide(bin_index i1, load_t lo1, load_t hi1, bin_index i2, load_t lo2, load_t hi2,
                   rng_t& rng) const {
    // Current (true) loads are the upper window ends.
    if (hi1 == hi2) return coin_flip(rng) ? i1 : i2;
    const bool first_heavier = hi1 > hi2;
    const bin_index heavier = first_heavier ? i1 : i2;
    const bin_index lighter = first_heavier ? i2 : i1;
    const load_t lo_heavy = first_heavier ? lo1 : lo2;
    const load_t hi_light = first_heavier ? hi2 : hi1;
    // The adversary reports lo for the heavier bin and hi for the lighter;
    // with adversarial tie-breaking the heavier bin receives the ball iff
    // lo_heavy <= hi_light.
    return lo_heavy <= hi_light ? heavier : lighter;
  }
};

struct delay_random {
  static constexpr const char* label = "tau-delay-random";
  bin_index decide(bin_index i1, load_t lo1, load_t hi1, bin_index i2, load_t lo2, load_t hi2,
                   rng_t& rng) const {
    const load_t e1 =
        lo1 + static_cast<load_t>(bounded(rng, static_cast<std::uint64_t>(hi1 - lo1) + 1));
    const load_t e2 =
        lo2 + static_cast<load_t>(bounded(rng, static_cast<std::uint64_t>(hi2 - lo2) + 1));
    if (e1 < e2) return i1;
    if (e2 < e1) return i2;
    return coin_flip(rng) ? i1 : i2;
  }
};

template <typename Strategy>
class tau_delay : public process_base<tau_delay<Strategy>> {
 public:
  tau_delay(bin_count n, step_count tau, Strategy strategy = Strategy{})
      : process_base<tau_delay>(n),
        tau_(tau),
        strategy_(std::move(strategy)),
        window_(static_cast<std::size_t>(tau > 0 ? tau - 1 : 0)),
        window_weights_(window_.size(), 1),
        in_window_(n, 0) {
    NB_REQUIRE(tau >= 1, "delay tau must be at least 1");
  }

  void reset() {
    state_.reset();
    std::fill(in_window_.begin(), in_window_.end(), 0);
    window_size_ = 0;
    window_pos_ = 0;
  }

  [[nodiscard]] std::string name() const {
    const std::string base = std::string(Strategy::label) + "[tau=" + std::to_string(tau_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] step_count tau() const noexcept { return tau_; }

  /// Window-parallel probe (see process.hpp): always 0.  tau-Delay's
  /// estimate window [x^{t-tau}, x^{t-1}] *slides* -- ball t+1's estimates
  /// can depend on ball t's target through in_window_ -- so no stretch of
  /// a run decides against frozen state and the shard engine must take the
  /// serial fused loop.  The fully synchronized instance whose windows ARE
  /// frozen is b-Batch (tau = b), which models the full window_parallel
  /// contract.
  [[nodiscard]] static constexpr step_count snapshot_window() noexcept { return 0; }

  /// Oldest legal estimate of bin i, i.e. x^{t-tau}_i (exposed for tests).
  [[nodiscard]] load_t stale_load(bin_index i) const { return state_.load(i) - in_window_[i]; }

  /// Checkpoint contract.  The ring of in-flight allocations (targets +
  /// weights + cursors) is the delay state proper; the per-bin hidden
  /// weight `in_window_` is a pure function of the valid ring entries and
  /// is rebuilt on restore rather than serialized (n entries saved, and
  /// the rebuild doubles as a consistency check on the ring).
  void save_checkpoint(state_writer& w) const {
    state_.save(w);
    w.put_vec(window_);
    w.put_vec(window_weights_);
    w.put_u64(window_size_);
    w.put_u64(window_pos_);
  }
  void restore_checkpoint(state_reader& r) {
    state_.restore(r);
    auto ring = r.get_vec<bin_index>();
    auto weights = r.get_vec<load_t>();
    const std::uint64_t size = r.get_u64();
    const std::uint64_t pos = r.get_u64();
    NB_REQUIRE(ring.size() == window_.size() && weights.size() == window_weights_.size(),
               "checkpoint delay-ring capacity does not match this run's tau");
    NB_REQUIRE(size <= ring.size(), "checkpoint delay-ring fill exceeds its capacity");
    if (size < ring.size()) {
      // Fill phase: entries [0, size) are valid and the cursor trails them.
      NB_REQUIRE(pos == size, "checkpoint delay-ring cursor inconsistent with its fill");
    } else {
      NB_REQUIRE(ring.empty() ? pos == 0 : pos < ring.size(),
                 "checkpoint delay-ring cursor out of range");
    }
    const auto n = static_cast<bin_index>(state_.n());
    std::fill(in_window_.begin(), in_window_.end(), 0);
    const std::size_t valid = size < ring.size() ? static_cast<std::size_t>(size) : ring.size();
    for (std::size_t idx = 0; idx < valid; ++idx) {
      NB_REQUIRE(ring[idx] < n, "checkpoint delay-ring target out of range");
      NB_REQUIRE(weights[idx] >= 1, "checkpoint delay-ring weight must be positive");
      in_window_[ring[idx]] += weights[idx];
    }
    window_ = std::move(ring);
    window_weights_ = std::move(weights);
    window_size_ = static_cast<std::size_t>(size);
    window_pos_ = static_cast<std::size_t>(pos);
  }

 private:
  friend class process_base<tau_delay>;
  using process_base<tau_delay>::state_;
  using process_base<tau_delay>::model_;

  /// One ball: decide against the sliding-window estimates, deposit, and
  /// push the allocation into the ring.  The hidden-allocation accounting
  /// is weight-denominated: each ring entry evicts exactly the weight it
  /// deposited.
  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t hi1 = state_.load(i1);
    const load_t hi2 = state_.load(i2);
    const load_t lo1 = hi1 - in_window_[i1];
    const load_t lo2 = hi2 - in_window_[i2];
    const bin_index chosen = strategy_.decide(i1, lo1, hi1, i2, lo2, hi2, rng);
    NB_ASSERT(chosen == i1 || chosen == i2);
    push_allocation(chosen, deposit(state_, model_.weighting, chosen, rng));
  }

  void push_allocation(bin_index chosen, weight_t w) {
    if (window_.empty()) return;  // tau == 1: no hidden allocations
    if (window_size_ == window_.size()) {
      // Evict the allocation that just became tau steps old.
      in_window_[window_[window_pos_]] -= window_weights_[window_pos_];
    } else {
      ++window_size_;
    }
    window_[window_pos_] = chosen;
    window_weights_[window_pos_] = static_cast<load_t>(w);
    in_window_[chosen] += static_cast<load_t>(w);
    if (++window_pos_ == window_.size()) window_pos_ = 0;
  }

  step_count tau_;
  Strategy strategy_;
  std::vector<bin_index> window_;       // ring buffer of the last tau-1 targets
  std::vector<load_t> window_weights_;  // weight each ring entry deposited
  std::vector<load_t> in_window_;  // per-bin hidden weight inside the ring
  std::size_t window_size_ = 0;
  std::size_t window_pos_ = 0;
};

static_assert(allocation_process<tau_delay<delay_oldest>>);
static_assert(allocation_process<tau_delay<delay_adversarial>>);
static_assert(allocation_process<tau_delay<delay_random>>);
static_assert(window_probed<tau_delay<delay_oldest>>);
static_assert(!window_parallel<tau_delay<delay_oldest>>);
static_assert(modeled_process<tau_delay<delay_oldest>>);
static_assert(checkpointable_process<tau_delay<delay_oldest>>);
static_assert(checkpointable_process<tau_delay<delay_adversarial>>);
static_assert(checkpointable_process<tau_delay<delay_random>>);
static_assert(departable_process<tau_delay<delay_oldest>>);

}  // namespace nb
