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
//
// A boundary reached by an engine commit does not even copy: it only marks
// the copy pending.  While pending, the boundary loads ARE the live loads,
// so every reader (window_snapshot, reported_load, save_checkpoint) reads
// those, and the first mutator that needs the frozen loads to stay put --
// step, step_many, depart, commit_departures, a commit_window that does
// not end the batch -- makes the copy first.  The bulk commits make it
// inside their own pass, range by range, each range copied just before
// it is committed (with_boundary_copy).  A run driven one whole batch per
// engine window therefore never copies at all.  Execution-only: the copy
// holds the same loads whenever it is made, and checkpoints write the
// same bytes.
#pragma once

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "core/process.hpp"

namespace nb {

/// A process_base that keeps its own step/step_many, departures, reset and
/// checkpoint pair: every one of them moves or reads the stale snapshot.
class b_batch : public process_base<b_batch> {
 public:
  b_batch(bin_count n, step_count b) : process_base(n), b_(b), stale_(n, 0) {
    NB_REQUIRE(b >= 1, "batch size b must be at least 1");
    touched_.reserve(static_cast<std::size_t>(std::min<step_count>(b, 1 << 20)));
  }

  void step(rng_t& rng) {
    materialize_boundary();
    step_one(rng, state_.n());
    if (state_.balls() % b_ == 0) refresh_snapshot();
  }

  /// Fused bulk loop: the batch-boundary test moves out of the per-ball
  /// path -- each inner chunk runs to the next boundary with no modulo,
  /// then the snapshot refresh is paid once per batch.
  void step_many(rng_t& rng, step_count count) {
    const bin_count n = state_.n();
    materialize_boundary();
    const load_state::bulk_window window(state_, count);
    while (count > 0) {
      const step_count to_boundary = b_ - (state_.balls() % b_);
      const step_count chunk = count < to_boundary ? count : to_boundary;
      for (step_count t = 0; t < chunk; ++t) step_one(rng, n);
      if (chunk == to_boundary) refresh_snapshot();
      count -= chunk;
    }
  }

  void reset() {
    state_.reset();
    std::fill(stale_.begin(), stale_.end(), 0);
    touched_.clear();
    stale_all_ = false;
    copy_pending_ = false;
  }

  [[nodiscard]] std::string name() const {
    const std::string base = "b-batch[b=" + std::to_string(b_) + "]";
    return with_model_suffix(base, model_);
  }
  [[nodiscard]] step_count batch_size() const noexcept { return b_; }

  /// One departure event through the model's channel (see depart_ball);
  /// the bin it left is refreshed at the next boundary.
  void depart(rng_t& rng) {
    materialize_boundary();
    touched_.push_back(depart_ball(state_, model_, rng));
  }
  /// Applies one engine-merged departure block (see apply_departure_block).
  /// Lease blocks make a pending boundary copy, then pop O(k) balls and
  /// record their bins; drain/random blocks already sweep every bin (by
  /// range through `exec`), so a pending copy rides that pass -- each
  /// range copied just before it is released -- and they flag a
  /// whole-vector refresh.
  void commit_departures(const std::vector<std::uint32_t>& rel, step_count k,
                         const range_executor& exec = {}) {
    if (model_.departures.is_lease()) {
      materialize_boundary(exec);
      for (step_count t = 0; t < k; ++t) touched_.push_back(state_.release_oldest());
      return;
    }
    apply_departure_block(state_, model_, rel, k, with_boundary_copy(exec));
    copy_pending_ = false;
    stale_all_ = true;
  }
  /// Retires one departure from each listed bin (see apply_departed_bins);
  /// the bins are refreshed at the next boundary (recorded before they
  /// move, and not at all while the whole vector is flagged).
  void commit_departed_bins(const std::vector<bin_index>& bins) {
    materialize_boundary();
    if (!stale_all_) touched_.insert(touched_.end(), bins.begin(), bins.end());
    apply_departed_bins(state_, model_, bins);
  }

  /// The load of bin i as reported during the current batch (for tests).
  [[nodiscard]] load_t reported_load(bin_index i) const { return window_snapshot()[i]; }

  /// Checkpoint contract.  The stale snapshot is real mid-run state (it
  /// froze at the last batch boundary, which the current loads cannot
  /// reconstruct), so it is serialized along with the touched list.  A
  /// whole-vector flag is written as the equivalent list of every bin, and
  /// a pending boundary copy as the loads it would copy.
  void save_checkpoint(state_writer& w) const {
    state_.save(w);
    w.put_vec(window_snapshot());
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
    copy_pending_ = false;
  }

  // --- window-parallel contract (see process.hpp) ------------------------
  // b-Batch is the fully synchronized batched model: every ball until the
  // next batch boundary decides against the snapshot taken at the batch
  // start, so those balls are embarrassingly parallel.

  /// Balls until the next snapshot refresh; always in [1, b].
  [[nodiscard]] step_count snapshot_window() const noexcept {
    return b_ - state_.balls() % b_;
  }

  /// The frozen loads the current batch's decisions read: the live loads
  /// while the boundary copy is pending (they are equal then).
  [[nodiscard]] const std::vector<load_t>& window_snapshot() const noexcept {
    return copy_pending_ ? state_.loads() : stale_;
  }

  /// True when nothing moved since the last refresh, i.e. the window
  /// snapshot equals the live loads (see live_snapshot_probed).
  [[nodiscard]] bool snapshot_is_live() const noexcept { return !stale_all_ && touched_.empty(); }

  /// True while a batch-ending engine commit's boundary copy is still
  /// owed (see the header).  Execution-only, like the copy itself.
  [[nodiscard]] bool boundary_copy_pending() const noexcept { return copy_pending_; }

  /// Makes a pending boundary copy now, by range through `exec`; a no-op
  /// otherwise.  Every mutator calls it before it moves the loads away
  /// from the boundary.
  void materialize_boundary(const range_executor& exec = {}) {
    if (!copy_pending_) return;
    copy_loads(exec);
    copy_pending_ = false;
  }

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
  /// against the current snapshot).  A window that ends a batch leaves the
  /// boundary copy pending (see the header); a partial window makes a
  /// pending copy inside its commit pass, then flags the whole vector
  /// stale for a later boundary.  Each counted ball deposits the model's
  /// (deterministic) weight; the engines never route random weightings
  /// here.  The commit, copy included, is one pass by bin range through
  /// `exec`.
  void commit_window(const std::vector<std::uint32_t>& inc, step_count balls,
                     const range_executor& exec = {}) {
    commit_counts(balls, exec, inc);
  }
  /// The same commit from a byte row with a carry list (the byte form of
  /// kernel_run; see load_state::apply_increments).
  void commit_window(const std::vector<std::uint8_t>& low,
                     const std::vector<std::uint32_t>& carries, step_count balls,
                     const range_executor& exec = {}) {
    commit_counts(balls, exec, low, carries);
  }

 private:
  /// The one body of both commit_window forms: `counts` are the window's
  /// apply_increments arguments.
  template <typename... Counts>
  void commit_counts(step_count balls, const range_executor& exec, const Counts&... counts) {
    NB_ASSERT(balls >= 1 && balls <= snapshot_window());
    const bool ends_batch = balls == snapshot_window();
    // A window that ends the batch never needs the old boundary loads; a
    // partial one makes a pending copy inside its commit pass.
    state_.apply_increments(counts..., model_.weighting.fixed_weight(),
                            ends_batch ? exec : with_boundary_copy(exec));
    if (ends_batch) {
      touched_.clear();
      stale_all_ = false;
      copy_pending_ = true;
    } else {
      copy_pending_ = false;
      stale_all_ = true;
    }
  }

  /// `exec`, with a pending boundary copy added to every range's task
  /// ahead of the commit pass (range_executor::prepared): range r's
  /// boundary loads are copied just before the pass moves them.  A commit
  /// that throws leaves the copy pending, so readers keep seeing the
  /// unchanged live loads.
  [[nodiscard]] range_executor with_boundary_copy(const range_executor& exec) {
    if (!copy_pending_) return exec;
    return exec.prepared([this, &exec](std::size_t r) {
      const auto [lo, hi] = exec.bounds(r, stale_.size());
      copy_range(lo, hi);
      return step_count{0};
    });
  }

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

  /// The serial boundary refresh: afterwards stale_ == loads, and nothing
  /// is recorded.  Never runs with the copy pending (the serial paths
  /// materialize it before their first ball).
  void refresh_snapshot() {
    NB_ASSERT(!copy_pending_);
    if (stale_all_) {
      copy_loads(range_executor{});
    } else {
      for (const bin_index i : touched_) stale_[i] = state_.load(i);
    }
    touched_.clear();
    stale_all_ = false;
  }

  /// stale_ = loads, one contiguous copy per range.
  void copy_loads(const range_executor& exec) {
    exec.run([&](std::size_t r) {
      const auto [lo, hi] = exec.bounds(r, stale_.size());
      copy_range(lo, hi);
    });
  }

  /// stale_[lo, hi) = loads[lo, hi).
  void copy_range(std::size_t lo, std::size_t hi) {
    const std::vector<load_t>& loads = state_.loads();
    std::copy(loads.begin() + static_cast<std::ptrdiff_t>(lo),
              loads.begin() + static_cast<std::ptrdiff_t>(hi),
              stale_.begin() + static_cast<std::ptrdiff_t>(lo));
  }

  step_count b_;
  std::vector<load_t> stale_;
  /// Bins serial events moved since the last refresh (may repeat).
  std::vector<bin_index> touched_;
  /// An engine commit moved bins since the last refresh: copy them all.
  bool stale_all_ = false;
  /// An engine commit ended the batch: the boundary loads are the live
  /// loads, and stale_ is out of date until materialize_boundary copies
  /// them.  Implies !stale_all_ and an empty touched_.
  bool copy_pending_ = false;
};

static_assert(allocation_process<b_batch>);
static_assert(window_parallel<b_batch>);
static_assert(modeled_process<b_batch>);
static_assert(checkpointable_process<b_batch>);
static_assert(departable_process<b_batch>);

}  // namespace nb
