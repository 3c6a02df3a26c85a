// The b-Batch process [BCEFN'12] (Section 2): balls arrive in consecutive
// batches of size b; load queries during a batch see the loads from the
// *beginning* of the batch, and ties are broken uniformly at random.  The
// first batch therefore behaves exactly like One-Choice (Observation 11.6),
// and b = 1 collapses to Two-Choice.
//
// b-Batch is the fully synchronized instance of tau-Delay with tau = b.
//
// Implementation: a `stale` snapshot vector, refreshed so that at every
// batch boundary it equals the loads (the boundary law; departures, which
// may land anywhere in a batch, become visible at the next boundary like
// arrivals).  What moved since the last boundary is recorded one of two
// ways, and the refresh follows the record:
//   * serial events (step, depart) append their bin to `touched`, and the
//     boundary re-reads just those bins -- O(m) maintenance over the run
//     regardless of b, where a per-batch copy would cost O(m/b * n);
//   * engine commits (a merged window, a departure block) are O(n)
//     already, so they only flag the whole vector, and the boundary does
//     one contiguous copy of the loads -- no per-bin branch, no list.
// Right after a boundary nothing is recorded, so the snapshot provably IS
// the live loads (snapshot_is_live), which lets the engines range the next
// window's compact snapshot from the level index instead of scanning it.
#pragma once

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace nb {

class b_batch {
 public:
  b_batch(bin_count n, step_count b) : state_(n), b_(b), stale_(n, 0) {
    NB_REQUIRE(b >= 1, "batch size b must be at least 1");
    touched_.reserve(static_cast<std::size_t>(std::min<step_count>(b, 1 << 20)));
  }

  void step(rng_t& rng) {
    step_one(rng, state_.n());
    if (state_.balls() % b_ == 0) refresh_snapshot();
  }

  /// Fused bulk loop: the batch-boundary test moves out of the per-ball
  /// path -- each inner chunk runs to the next boundary with no modulo,
  /// then the snapshot refresh is paid once per batch.
  void step_many(rng_t& rng, step_count count) {
    const bin_count n = state_.n();
    const load_state::bulk_window window(state_, count);
    while (count > 0) {
      const step_count to_boundary = b_ - (state_.balls() % b_);
      const step_count chunk = count < to_boundary ? count : to_boundary;
      for (step_count t = 0; t < chunk; ++t) step_one(rng, n);
      if (chunk == to_boundary) refresh_snapshot();
      count -= chunk;
    }
  }

  [[nodiscard]] const load_state& state() const noexcept { return state_; }

  void reset() {
    state_.reset();
    std::fill(stale_.begin(), stale_.end(), 0);
    touched_.clear();
    stale_all_ = false;
  }

  [[nodiscard]] std::string name() const {
    const std::string base = "b-batch[b=" + std::to_string(b_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] step_count batch_size() const noexcept { return b_; }

  void set_model(alloc_model m) { install_model(state_, model_, std::move(m)); }
  [[nodiscard]] const alloc_model& model() const noexcept { return model_; }

  /// One departure event through the model's channel (see depart_ball);
  /// the bin it left is refreshed at the next boundary.
  void depart(rng_t& rng) { touched_.push_back(depart_ball(state_, model_, rng)); }
  /// Applies one engine-merged departure block (see apply_departure_block).
  /// Lease blocks pop O(k) balls and record their bins; drain/random
  /// blocks already sweep every bin (by range through `exec`), so they
  /// flag a whole-vector refresh.
  void commit_departures(const std::vector<std::uint32_t>& rel, step_count k,
                         const range_executor& exec = {}) {
    if (model_.departures.is_lease()) {
      for (step_count t = 0; t < k; ++t) touched_.push_back(state_.release_oldest());
      return;
    }
    apply_departure_block(state_, model_, rel, k, exec);
    stale_all_ = true;
  }

  /// The load of bin i as reported during the current batch (for tests).
  [[nodiscard]] load_t reported_load(bin_index i) const { return stale_[i]; }

  /// Checkpoint contract.  The stale snapshot is real mid-run state (it
  /// froze at the last batch boundary, which the current loads cannot
  /// reconstruct), so it is serialized along with the touched list.  A
  /// whole-vector flag is written as the equivalent list of every bin.
  void save_checkpoint(state_writer& w) const {
    state_.save(w);
    w.put_vec(stale_);
    if (stale_all_) {
      std::vector<bin_index> all(stale_.size());
      std::iota(all.begin(), all.end(), bin_index{0});
      w.put_vec(all);
    } else {
      w.put_vec(touched_);
    }
  }
  void restore_checkpoint(state_reader& r) {
    state_.restore(r);
    auto stale = r.get_vec<load_t>();
    auto touched = r.get_vec<bin_index>();
    NB_REQUIRE(stale.size() == stale_.size(), "checkpoint snapshot size does not match this run");
    const auto n = static_cast<bin_index>(state_.n());
    for (const load_t x : stale) {
      NB_REQUIRE(x >= 0, "checkpoint snapshot loads must be non-negative");
    }
    for (const bin_index i : touched) {
      NB_REQUIRE(i < n, "checkpoint touched-bin index out of range");
    }
    stale_ = std::move(stale);
    touched_ = std::move(touched);
    // An empty list must mean "stale == loads" (snapshot_is_live relies on
    // it).  Checkpoints from before departures were recorded can break
    // that; the next boundary then copies every bin, restoring the law.
    stale_all_ = touched_.empty() && stale_ != state_.loads();
  }

  // --- window-parallel contract (see process.hpp) ------------------------
  // b-Batch is the fully synchronized batched model: every ball until the
  // next batch boundary decides against the snapshot taken at the batch
  // start, so those balls are embarrassingly parallel.

  /// Balls until the next snapshot refresh; always in [1, b].
  [[nodiscard]] step_count snapshot_window() const noexcept {
    return b_ - state_.balls() % b_;
  }

  /// The frozen loads the current batch's decisions read.
  [[nodiscard]] const std::vector<load_t>& window_snapshot() const noexcept { return stale_; }

  /// True when nothing moved since the last refresh, i.e. the window
  /// snapshot equals the live loads (see live_snapshot_probed).
  [[nodiscard]] bool snapshot_is_live() const noexcept { return !stale_all_ && touched_.empty(); }

  /// b-Batch's snapshot_decide IS the canonical two-sample min rule, so
  /// its windows may run through the lane-interleaved SIMD kernel (the
  /// window_parallel contract; cross-checked by test_kernel.cpp).
  static constexpr bool kernel_min_select = true;

  /// One b-Batch decision over the compact snapshot: less loaded of the
  /// two sampled bins, ties by a fair coin -- the same rule as step_one,
  /// reading 8-bit offsets (order-preserving: common base, no saturation
  /// by compact_snapshot's contract) instead of 32-bit loads.
  static bin_index snapshot_decide(const std::uint8_t* snap, bin_index i1, bin_index i2,
                                   rng_t& rng) {
    const std::uint8_t s1 = snap[i1];
    const std::uint8_t s2 = snap[i2];
    if (s1 < s2) return i1;
    if (s2 < s1) return i2;
    return coin_flip(rng) ? i1 : i2;
  }

  /// Applies a merged window delta (inc[i] balls into bin i, all decided
  /// against the current snapshot) and flags the whole vector stale; a
  /// window that ends a batch then refreshes with one contiguous copy of
  /// the loads, a partial window leaves the copy to a later boundary.
  /// Each counted ball deposits the model's (deterministic) weight; the
  /// engines never route random weightings here.  The commit passes and
  /// the boundary copy run by bin range through `exec`.
  void commit_window(const std::vector<std::uint32_t>& inc, step_count balls,
                     const range_executor& exec = {}) {
    NB_ASSERT(balls >= 1 && balls <= snapshot_window());
    state_.apply_increments(inc, model_.weighting.fixed_weight(), exec);
    stale_all_ = true;
    if (state_.balls() % b_ == 0) refresh_snapshot(exec);
  }

 private:
  void step_one(rng_t& rng, bin_count n) {
    const bin_index i1 = model_.sampler.sample(rng, n);
    const bin_index i2 = model_.sampler.sample(rng, n);
    const load_t s1 = stale_[i1];
    const load_t s2 = stale_[i2];
    bin_index chosen;
    if (s1 < s2) {
      chosen = i1;
    } else if (s2 < s1) {
      chosen = i2;
    } else {
      chosen = coin_flip(rng) ? i1 : i2;  // the paper specifies random ties
    }
    deposit(state_, model_.weighting, chosen, rng);
    touched_.push_back(chosen);
  }

  /// The boundary refresh: afterwards stale_ == loads, and nothing is
  /// recorded.  A whole-vector refresh is one contiguous copy per range.
  void refresh_snapshot(const range_executor& exec = {}) {
    if (stale_all_) {
      const std::vector<load_t>& loads = state_.loads();
      exec.run([&](std::size_t r) {
        const auto [lo, hi] = exec.bounds(r, loads.size());
        std::copy(loads.begin() + static_cast<std::ptrdiff_t>(lo),
                  loads.begin() + static_cast<std::ptrdiff_t>(hi),
                  stale_.begin() + static_cast<std::ptrdiff_t>(lo));
      });
    } else {
      for (const bin_index i : touched_) stale_[i] = state_.load(i);
    }
    touched_.clear();
    stale_all_ = false;
  }

  load_state state_;
  alloc_model model_;
  step_count b_;
  std::vector<load_t> stale_;
  /// Bins serial events moved since the last refresh (may repeat).
  std::vector<bin_index> touched_;
  /// An engine commit moved bins since the last refresh: copy them all.
  bool stale_all_ = false;
};

static_assert(allocation_process<b_batch>);
static_assert(window_parallel<b_batch>);
static_assert(modeled_process<b_batch>);
static_assert(checkpointable_process<b_batch>);
static_assert(departable_process<b_batch>);

}  // namespace nb
