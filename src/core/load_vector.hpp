// The central state of every balls-into-bins process: the load vector x^t.
//
// Paper notation (Section 3): after t allocations the load vector is
// x^t = (x^t_1 .. x^t_n); the normalized load is y^t_i = x^t_i - t/n sorted
// non-increasingly, and Gap(t) = max_i x^t_i - t/n = y^t_1.
//
// Generalized model (PR 5): a ball may deposit an integer *weight* w >= 1
// instead of 1, so levels are weight-based -- level L holds the bins whose
// accumulated weight is exactly L -- and "average load" means total weight
// over n.  Per-bin loads stay 32-bit (they are the hot random-access
// structures; the weighted deposit guards them against overflow), while
// every total accumulates in 64-bit weight_t.  The unit-weight
// configuration keeps every historical identity (level == ball count,
// total weight == balls) bit for bit.
//
// The hot loop only ever calls allocate().  A level-compressed companion
// index (`level_index`) counts how many bins sit at each load level and is
// maintained incrementally, so min/max load are O(1) and the sorted
// normalized vector / overloaded-bin count are O(span) resp. O(n) with no
// sorting, where span = max - min load (O(log n) for every process the
// paper studies).  Weighted allocations can blow the span up (one
// heavy-tailed draw may jump a bin thousands of levels); past
// level_index::max_dense_span the dense index stops paying for itself and
// load_state degrades those queries to explicit scans/sorts over the raw
// loads -- exact, just no longer sort-free.  Unit-weight runs never come
// near the cap, so the paper path keeps the O(1)/O(span) queries.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "common/serialize.hpp"
#include "common/types.hpp"
#include "util/thread_pool.hpp"

namespace nb {

/// Executes an O(n) pass over the bins as ranges() disjoint contiguous bin
/// ranges: run(body) calls body(r) exactly once for every r in
/// [0, ranges()) and returns once every call finished.  The default runs
/// one range on the calling thread; built on a thread_pool (the shard
/// engine hands in its workers), the calls run concurrently through the
/// pool's for_each.  Bodies therefore write only their own range's bins
/// and per-range slots, and never throw: a pass records failures per
/// range and the caller raises the first one after the pass.
/// Execution-only: every pass built on it leaves the same state for any
/// range count.
class range_executor {
 public:
  using body_fn = std::function<void(std::size_t)>;

  range_executor() = default;
  /// `ranges` ranges of `chunk` bins each (the last ones clipped to n),
  /// run as tasks of `pool`, or one after another on the calling thread
  /// when `pool` is null.  A pass over n bins needs ranges * chunk >= n
  /// (covers(n)).
  range_executor(thread_pool* pool, std::size_t ranges, std::size_t chunk)
      : pool_(pool), ranges_(ranges), chunk_(chunk) {
    NB_REQUIRE(ranges_ >= 1 && chunk_ >= 1, "a range executor needs a range of at least one bin");
  }

  [[nodiscard]] std::size_t ranges() const noexcept { return ranges_; }
  [[nodiscard]] std::size_t chunk() const noexcept { return chunk_; }
  /// True when the ranges reach every one of n bins.
  [[nodiscard]] bool covers(std::size_t n) const noexcept {
    return chunk_ >= (n + ranges_ - 1) / ranges_;
  }

  /// This executor with `step` added to every range's task: run() calls
  /// the steps this executor already had, then `step`, then the pass's
  /// body, all in range r's task, so whatever a step writes into range r
  /// is cache-hot when the body reads it.  A commit makes exactly one
  /// run() call, so each range is prepared once, by the task that then
  /// commits it.
  [[nodiscard]] range_executor prepared(body_fn step) const {
    range_executor next = *this;
    if (prepare_) {
      next.prepare_ = [first = prepare_, second = std::move(step)](std::size_t r) {
        first(r);
        second(r);
      };
    } else {
      next.prepare_ = std::move(step);
    }
    return next;
  }

  /// Runs the prepare steps and body(r) for every range.
  void run(const body_fn& body) const {
    const body_fn task = [&](std::size_t r) {
      if (prepare_) prepare_(r);
      body(r);
    };
    if (pool_ == nullptr) {
      for (std::size_t r = 0; r < ranges_; ++r) task(r);
    } else {
      pool_->for_each(ranges_, task);
    }
  }

  /// Bins [first, second) of range r over n bins, so trailing ranges are
  /// empty when the ranges cover more than n bins.
  [[nodiscard]] std::pair<std::size_t, std::size_t> bounds(std::size_t r,
                                                           std::size_t n) const noexcept {
    const std::size_t lo = r < ranges_ && r * chunk_ < n ? r * chunk_ : n;
    return {lo, lo + std::min(chunk_, n - lo)};
  }

 private:
  thread_pool* pool_ = nullptr;
  std::size_t ranges_ = 1;
  /// Bins per range; the default's one range takes every bin.
  std::size_t chunk_ = std::numeric_limits<std::size_t>::max();
  body_fn prepare_;
};

/// Level-compressed summary of a load vector: for each load level L in
/// [min_level, max_level], how many bins currently hold weight exactly L.
///
/// Invariants (checked by tests against from-scratch recomputation):
///   * sum of counts == n,
///   * count_at(min_level) > 0 and count_at(max_level) > 0,
///   * allocations move a bin up (one level per unit weight, w levels per
///     weighted ball) and releases move it down by the released weight.
///
/// Storage is a dense window [base_, base_ + counts_.size()) of levels;
/// empty levels below the minimum are trimmed amortized-O(1), so memory is
/// O(max - min) rather than O(max).  The dense window is capped at
/// max_dense_span levels: a weighted jump or rebuild whose span would
/// exceed the cap reports failure instead of allocating, and the owning
/// load_state falls back to scan-based queries.
class level_index {
 public:
  /// Widest dense window the index will hold (4 MiB of counts).  Paper
  /// processes have spans of O(log n); only heavy-tailed weighted runs can
  /// cross this.
  static constexpr load_t max_dense_span = load_t{1} << 20;

  /// Interleaved sub-histograms a rebuild range counts into (bin i into
  /// sub-histogram i % count_ways), unless count_ways histograms of the
  /// range's span would outweigh its bins or its slot.  Execution-only.
  static constexpr std::size_t count_ways = 8;

  /// Counters in one range's histogram slot (bins per range permitting):
  /// count_ways histograms of 256 levels.  A range of a wider span is
  /// counted by merge_ranges instead.  Execution-only.
  static constexpr std::size_t slot_counters = count_ways * 256;

  level_index() = default;

  /// All n bins at level 0.
  explicit level_index(bin_count n) { reset(n); }

  void reset(bin_count n) {
    counts_.assign(1, n);
    counts_.reserve(64);
    base_ = 0;
    min_ = 0;
    max_ = 0;
    n_ = n;
  }

  /// A bin moves from level `old_load` to `old_load + 1`.  Hot path.
  void on_allocate(load_t old_load) noexcept {
    const auto idx = static_cast<std::size_t>(old_load - base_);
    NB_ASSERT(idx < counts_.size() && counts_[idx] > 0);
    --counts_[idx];
    if (idx + 1 == counts_.size()) counts_.push_back(0);
    ++counts_[idx + 1];
    const load_t updated = old_load + 1;
    if (updated > max_) max_ = updated;
    if (old_load == min_ && counts_[idx] == 0) {
      ++min_;
      trim_front();
    }
  }

  /// Weighted jump: a bin moves from level `old_load` to `old_load + w`.
  /// Returns false -- leaving the index UNCHANGED and no longer
  /// maintainable -- when the resulting span would exceed max_dense_span;
  /// the caller must then stop incremental maintenance and fall back to
  /// scans until a rebuild brings the span back under the cap.
  [[nodiscard]] bool on_allocate(load_t old_load, weight_t w) {
    NB_ASSERT(w >= 1);
    const weight_t updated_wide = static_cast<weight_t>(old_load) + w;
    if (updated_wide - static_cast<weight_t>(min_) > static_cast<weight_t>(max_dense_span)) {
      return false;
    }
    const auto updated = static_cast<load_t>(updated_wide);
    const auto idx = static_cast<std::size_t>(old_load - base_);
    NB_ASSERT(idx < counts_.size() && counts_[idx] > 0);
    const auto target = static_cast<std::size_t>(updated - base_);
    if (target >= counts_.size()) counts_.resize(target + 1, 0);
    --counts_[idx];
    ++counts_[target];
    if (updated > max_) max_ = updated;
    if (old_load == min_ && counts_[idx] == 0) {
      while (counts_[static_cast<std::size_t>(min_ - base_)] == 0) ++min_;
      trim_front();
    }
    return true;
  }

  /// Weighted drop: a bin moves from level `old_load` down to
  /// `old_load - w` (the symmetric counterpart of the weighted
  /// on_allocate, for departures).  Returns false -- leaving the index
  /// UNCHANGED and no longer maintainable -- when the resulting span would
  /// exceed max_dense_span; the caller falls back to scan-based queries
  /// exactly as for an oversized upward jump.  The dense window grows
  /// downward on demand (with slack, so a minimum walking down one level
  /// per release stays amortized O(1)): before churn, levels only ever
  /// moved up, so the window never needed room below base_.
  [[nodiscard]] bool on_release(load_t old_load, weight_t w) {
    NB_ASSERT(w >= 1 && static_cast<weight_t>(old_load) >= w);
    const auto target = static_cast<load_t>(static_cast<weight_t>(old_load) - w);
    if (static_cast<weight_t>(max_) - static_cast<weight_t>(target) >
        static_cast<weight_t>(max_dense_span)) {
      return false;
    }
    if (target < base_) {
      const load_t new_base = target >= 64 ? target - 64 : 0;
      counts_.insert(counts_.begin(), static_cast<std::size_t>(base_ - new_base), 0);
      base_ = new_base;
    }
    const auto idx = static_cast<std::size_t>(old_load - base_);
    NB_ASSERT(idx < counts_.size() && counts_[idx] > 0);
    --counts_[idx];
    ++counts_[static_cast<std::size_t>(target - base_)];
    if (target < min_) min_ = target;
    if (old_load == max_ && counts_[idx] == 0) {
      // The released bin now sits at target >= min_, so the walk stops at
      // a non-empty level without an explicit min_ guard.
      while (counts_[static_cast<std::size_t>(max_ - base_)] == 0) --max_;
    }
    return true;
  }

  /// From-scratch recomputation, used to reconcile after a bulk window in
  /// which per-allocation maintenance was deferred.  O(n + span); yields a
  /// state query-identical to incremental maintenance of the same loads.
  /// Returns false (index unusable) when the span exceeds max_dense_span.
  [[nodiscard]] bool rebuild(const std::vector<load_t>& loads) {
    load_t mn = loads.front();
    load_t mx = loads.front();
    for (const load_t x : loads) {
      if (x < mn) mn = x;
      if (x > mx) mx = x;
    }
    return rebuild(loads, mn, mx);
  }

  /// rebuild() for a caller that already knows the range -- the pass that
  /// just wrote the loads tracked it -- so only the counting sweep runs.
  /// `mn` and `mx` must be exactly the minimum and maximum of `loads`.
  /// One range of the ranged rebuild below, on the calling thread.
  [[nodiscard]] bool rebuild(const std::vector<load_t>& loads, load_t mn, load_t mx) {
    begin_ranges(1, loads.size());
    count_range(0, loads.data(), 0, loads.size(), mn, mx);
    return merge_ranges(loads, mn, mx, range_executor{});
  }

  /// The ranged rebuild, in three steps a ranged pass interleaves with its
  /// own work (load_state's commits do):
  ///   * begin_ranges sizes one histogram slot per range of at most
  ///     `chunk` bins,
  ///   * count_range counts range r's bins into r's slot, keyed on the
  ///     range's own minimum -- concurrently for distinct ranges, each
  ///     while the range is cache-hot from the pass that wrote it,
  ///   * merge_ranges sums the slots into the index at their offsets.
  /// A range whose span outweighs its bins or its slot, or that
  /// count_range never saw, is counted by merge_ranges from the loads, so
  /// the pass never zeroes more counters than it has bins and every shape
  /// ends query-identical to rebuild().
  void begin_ranges(std::size_t ranges, std::size_t chunk);

  /// Counts bins [lo, hi) of `loads` into range r's slot.  `mn` and `mx`
  /// must be exactly the minimum and maximum of those bins.
  void count_range(std::size_t r, const load_t* loads, std::size_t lo, std::size_t hi, load_t mn,
                   load_t mx) noexcept;

  /// Rebuilds the index from the slots of the ranges of `exec` over
  /// `loads`, whose minimum and maximum are exactly `mn` and `mx`.
  /// Returns false (index unusable) when the span exceeds max_dense_span.
  [[nodiscard]] bool merge_ranges(const std::vector<load_t>& loads, load_t mn, load_t mx,
                                  const range_executor& exec);

  [[nodiscard]] load_t min_level() const noexcept { return min_; }
  [[nodiscard]] load_t max_level() const noexcept { return max_; }
  [[nodiscard]] bin_count bins() const noexcept { return n_; }

  /// Number of distinct levels in [min, max] (the "span" + 1).
  [[nodiscard]] load_t level_count() const noexcept { return max_ - min_ + 1; }

  /// Bins with exactly `level` balls.  O(1).
  [[nodiscard]] bin_count count_at(load_t level) const noexcept {
    if (level < min_ || level > max_) return 0;
    return counts_[static_cast<std::size_t>(level - base_)];
  }

  /// Bins with at least `level` balls.  O(span).
  [[nodiscard]] bin_count count_at_or_above(load_t level) const noexcept {
    if (level <= min_) return n_;
    bin_count total = 0;
    for (load_t l = level; l <= max_; ++l) total += count_at(l);
    return total;
  }

  /// Calls f(level, count) for every non-empty level, highest level first.
  template <typename F>
  void for_each_level_desc(F&& f) const {
    for (load_t l = max_; l >= min_; --l) {
      const bin_count c = count_at(l);
      if (c > 0) f(l, c);
    }
  }

 private:
  void trim_front() {
    // Drop levels strictly below the minimum once they dominate the window;
    // the O(size) erase is amortized O(1) per minimum advance.
    const auto dead = static_cast<std::size_t>(min_ - base_);
    if (dead >= 64 && dead * 2 >= counts_.size()) {
      counts_.erase(counts_.begin(), counts_.begin() + static_cast<std::ptrdiff_t>(dead));
      base_ = min_;
    }
  }

  std::vector<bin_count> counts_;  ///< counts_[k] = bins at level base_ + k
  /// The ranged rebuild's histogram slots, slot_stride_ counters apart,
  /// kept so a rebuild per window reuses one buffer ...
  std::vector<bin_count> slots_;
  std::size_t slot_stride_ = 0;
  /// ... and per slot the minimum it is keyed on and the levels it holds
  /// (0: the range is counted by merge_ranges).
  std::vector<load_t> slot_min_;
  std::vector<load_t> slot_levels_;
  load_t base_ = 0;
  load_t min_ = 0;
  load_t max_ = 0;
  bin_count n_ = 0;
};

class load_state;

/// Compact 8-bit view of a frozen load vector: off(i) = loads[i] - base
/// with base = min load.  Valid whenever the span max - min fits in 255,
/// which is the paper regime by a huge margin -- Gap(m) + underload gap is
/// O(log n) w.h.p. for every process studied.  Load *comparisons* against
/// the snapshot only need the offsets (common base), and n = 10^6 bins
/// shrink from 4 MB to 1 MB, so an entire b-Batch window snapshot stays
/// L2-resident while shards hammer it with random reads.
///
/// An inverted assignment (assign_inverted) stores 255 - off(i) instead:
/// a drain block's "fuller of two" select is the allocation kernel's
/// "less loaded of two" over those bytes, so the kernel reads them as
/// they are instead of inverting a private copy per call.  Same range
/// check, base() and max_off(); only the byte encoding differs.
class compact_snapshot {
 public:
  /// Zero bytes kept readable past the last offset so the allocation
  /// kernel's vector backends may gather 4 bytes at any valid bin index.
  static constexpr std::size_t tail_padding = 3;

  /// Rebuilds from `loads`: byte i = loads[i] - base.  O(n): one pass for
  /// the range, one for the bytes, each by bin range through `exec`.
  /// Returns false (and marks the snapshot unusable) when the span exceeds
  /// 255; callers must then fall back to the full-width loads.
  bool assign(const std::vector<load_t>& loads, const range_executor& exec = {});

  /// Snapshot of the live loads of `state`, ranged by its level index in
  /// O(1) (an O(n) scan only once the index gave up, see levels_valid()).
  /// Same bytes, base() and max_off() as assign(state.loads()).
  bool assign(const load_state& state, const range_executor& exec = {});

  /// assign() with every byte inverted: byte i = 255 - (loads[i] - base),
  /// written by the same single pass.  Same return value, base() and
  /// max_off() as assign(loads); a bin's load is base() + 255 - byte.
  bool assign_inverted(const std::vector<load_t>& loads, const range_executor& exec = {});

  /// assign(state) inverted: O(1) ranging, bytes as assign_inverted(loads).
  bool assign_inverted(const load_state& state, const range_executor& exec = {});

  [[nodiscard]] bool ok() const noexcept { return ok_; }
  [[nodiscard]] load_t base() const noexcept { return base_; }
  [[nodiscard]] std::size_t size() const noexcept { return n_; }
  [[nodiscard]] const std::uint8_t* data() const noexcept { return off_.data(); }
  /// Raw byte i: the offset, or 255 minus it after assign_inverted.
  [[nodiscard]] std::uint8_t off(bin_index i) const noexcept { return off_[i]; }
  /// Largest offset (= span of the frozen loads), in either encoding.
  [[nodiscard]] std::uint8_t max_off() const noexcept { return span_; }

 private:
  /// The one assignment pass, by bin range through `exec`: `mn` and `mx`
  /// must be exactly the minimum and maximum of `loads`; byte i =
  /// (loads[i] - mn) ^ mask, where mask 0xFF is the inversion (255 - x ==
  /// x ^ 255 on a byte).
  bool assign(const std::vector<load_t>& loads, load_t mn, load_t mx, std::uint8_t mask,
              const range_executor& exec);

  std::vector<std::uint8_t> off_;  ///< n_ offsets + tail_padding zero bytes
  std::size_t n_ = 0;
  load_t base_ = 0;
  std::uint8_t span_ = 0;
  bool ok_ = false;
};

class load_state {
 public:
  /// Creates n empty bins.  n must be at least 1.
  explicit load_state(bin_count n);

  /// Removes all balls (keeps n).
  void reset();

  [[nodiscard]] bin_count n() const noexcept { return static_cast<bin_count>(loads_.size()); }
  /// Number of allocation events (balls placed), regardless of weight.
  [[nodiscard]] step_count balls() const noexcept { return balls_; }
  /// Accumulated weight of all placed balls; == balls() for unit weights.
  [[nodiscard]] weight_t total_weight() const noexcept { return balls_ + extra_weight_; }
  [[nodiscard]] load_t load(bin_index i) const noexcept { return loads_[i]; }
  [[nodiscard]] const std::vector<load_t>& loads() const noexcept { return loads_; }

  /// Adds one unit-weight ball to bin i.  Hot path: no bounds check beyond
  /// debug assert.  Inside a bulk window the level index is not touched
  /// (one well-predicted branch); outside it every allocation leaves the
  /// index query-consistent.
  void allocate(bin_index i) noexcept {
    NB_ASSERT(i < loads_.size());
    const load_t old_load = loads_[i]++;
    if (!bulk_ && levels_ok_) levels_.on_allocate(old_load);
    ++balls_;
    // One predicted-not-taken branch when the lease channel is off; with
    // it on, recording may grow the ring inside this noexcept hot path
    // (terminate on OOM -- same stance as the level push above).
    if (lease_on_) lease_push(i, 1);
  }

  /// Adds one ball of weight w to bin i.  Weighted path: guards the
  /// 32-bit per-bin load AND the int64 total-weight accumulator against
  /// overflow -- the regression surface once weights replace unit
  /// increments -- and keeps the level index dense while the span allows
  /// it, degrading to scan-based queries past level_index::max_dense_span.
  void allocate(bin_index i, weight_t w) {
    NB_ASSERT(i < loads_.size());
    NB_REQUIRE(w >= 1 && w <= max_ball_weight, "ball weight must be in [1, max_ball_weight]");
    NB_REQUIRE(static_cast<weight_t>(loads_[i]) + w <=
                   static_cast<weight_t>(std::numeric_limits<load_t>::max()),
               "deposit of weight " + std::to_string(w) + " would overflow bin " +
                   std::to_string(i) + "'s 32-bit load (currently " +
                   std::to_string(loads_[i]) + ")");
    NB_REQUIRE(total_weight() <= max_total_weight - w,
               "run would overflow the total-weight accumulator (max_total_weight)");
    const load_t old_load = loads_[i];
    loads_[i] += static_cast<load_t>(w);
    if (!bulk_ && levels_ok_) levels_ok_ = levels_.on_allocate(old_load, w);
    ++balls_;
    extra_weight_ += w - 1;
    if (lease_on_) lease_push(i, w);
  }

  /// Removes one unit-weight ball from bin i (a departure).  The
  /// underflow-guarded mirror of allocate(i).
  void release(bin_index i) { release(i, 1); }

  /// Removes weight w from bin i: one departing ball of weight w (the
  /// lease channel replays the recorded arrival weight), or w = 1 for the
  /// unit-quantum channels (random, drain).  Mirrors the weighted
  /// allocate's guards with the signs flipped: the bin must hold at least
  /// w, a ball must be resident, and the extra-weight accumulator must
  /// cover w - 1, so the loads-vs-totals invariant (sum of loads == balls
  /// + extra weight) survives every departure.  Level-index maintenance
  /// degrades to scans past max_dense_span exactly like allocation.  Not
  /// valid inside a bulk window (departures are never bulk-deferred).
  void release(bin_index i, weight_t w) {
    NB_ASSERT(i < loads_.size());
    NB_ASSERT(!bulk_);
    NB_REQUIRE(w >= 1 && w <= max_ball_weight, "ball weight must be in [1, max_ball_weight]");
    NB_REQUIRE(static_cast<weight_t>(loads_[i]) >= w,
               "release of weight " + std::to_string(w) + " would underflow bin " +
                   std::to_string(i) + " (currently " + std::to_string(loads_[i]) + ")");
    NB_REQUIRE(balls_ >= 1, "release with no resident balls");
    NB_REQUIRE(extra_weight_ >= w - 1,
               "release of weight " + std::to_string(w) +
                   " from bin " + std::to_string(i) +
                   " exceeds the resident extra weight (" +
                   std::to_string(extra_weight_) + ")");
    const load_t old_load = loads_[i];
    loads_[i] -= static_cast<load_t>(w);
    if (levels_ok_) levels_ok_ = levels_.on_release(old_load, w);
    --balls_;
    extra_weight_ -= w - 1;
  }

  /// RAII bulk window: while open, allocate() skips the per-ball level
  /// maintenance; on close the index is rebuilt once from the raw loads
  /// (O(n + span), amortized over the chunk).  Engages only when the
  /// planned chunk is large enough for the rebuild to amortize; otherwise
  /// it is a no-op and allocations stay incrementally indexed.  Level-
  /// dependent queries (min/max load, gap, levels()) are stale while a
  /// window is open, so step_many implementations must not read them
  /// mid-chunk -- every strategy only consumes load()/balls()/
  /// average_load(), which stay exact.
  class bulk_window {
   public:
    bulk_window(load_state& state, step_count planned_count) noexcept
        : state_(planned_count * 4 >= static_cast<step_count>(state.n()) ? &state : nullptr) {
      if (state_ != nullptr) state_->begin_bulk();
    }
    ~bulk_window() {
      if (state_ != nullptr) state_->end_bulk();
    }
    bulk_window(const bulk_window&) = delete;
    bulk_window& operator=(const bulk_window&) = delete;

   private:
    load_state* state_;
  };

  /// Applies a merged parallel-window delta: loads_[i] += add[i] *
  /// weight_per_ball for every bin and balls_ += sum(add), and rebuilds
  /// the level index from the same pass.  The resulting state is
  /// query-identical to having allocated the same balls one at a time.
  /// `add` must have size n; must not be called inside a bulk window.
  /// weight_per_ball covers the deterministic weightings the frozen-window
  /// engines support (unit and fixed); RNG-driven weights never reach this
  /// path (the engines fall back to the serial fused loop).
  ///
  /// The whole commit is ONE pass by bin range through `exec` (default:
  /// one range on the calling thread): each range validates and adds in
  /// one sweep that tracks its min and max, then counts its level
  /// histogram, and the histograms are merged after the join.  The
  /// result, and any error, is the same for every executor.  A bin the
  /// window would push past the 32-bit load is named in the error (the
  /// first such bin), and the pass is undone before the throw: nothing
  /// stays mutated.  The executor's prepare steps must withhold nothing.
  void apply_increments(const std::vector<std::uint32_t>& add, weight_t weight_per_ball = 1,
                        const range_executor& exec = {});

  /// The same commit from a byte row with a carry list (the byte form of
  /// kernel_run): bin i receives low[i] + 256 * (times i appears in
  /// `carries`) balls.  Same checks and error text as the uint32 form --
  /// the total-weight ceiling, and under fixed weights the first bin whose
  /// count, carries included, would overflow its 32-bit load -- nothing
  /// mutated on a throw, and the same lease-ring record in bin order.  The
  /// add pass reads the n bytes; the carries land before it, one store
  /// each.
  void apply_increments(const std::vector<std::uint8_t>& low,
                        const std::vector<std::uint32_t>& carries, weight_t weight_per_ball = 1,
                        const range_executor& exec = {});

  /// Applies a merged departure block: k departing balls, rel[i] of them
  /// leaving bin i, each retiring weight_per_ball.  The mirror of
  /// apply_increments, one validating pass by bin range through `exec`
  /// that is undone before any refusal (strong exception safety), with
  /// the same contract-error vocabulary as release(i, w): no bin may
  /// underflow, a ball must be resident for each departure, and the
  /// extra-weight accumulator must cover the retired weight.  Refuses
  /// under lease tracking (a merged block cannot say *which* resident
  /// balls departed; the lease channel expires per-ball through
  /// release_oldest()).  rel must sum to k.
  void apply_releases(const std::vector<std::uint32_t>& rel, weight_t weight_per_ball,
                      step_count k, const range_executor& exec = {});

  /// ------------------------------------------------------------------
  /// FIFO lease ring (the "lease" departure channel): while tracking is
  /// on, every allocation appends its (bin, weight) and release_oldest()
  /// expires the front entry -- first in, first out, like connections
  /// timing out in arrival order.  Entries pack into one u64 (weight in
  /// the high bits; max_ball_weight fits in 24), so residency costs 8
  /// bytes per ball.

  /// Switches lease recording on or off.  Enabling requires an empty
  /// state (past arrivals were not recorded); disabling drops the ring.
  void set_lease_tracking(bool on) {
    if (on == lease_on_) return;
    NB_REQUIRE(!on || balls_ == 0,
               "lease tracking must be enabled before the first arrival");
    lease_on_ = on;
    lease_slots_.clear();
    lease_head_ = 0;
    lease_count_ = 0;
  }
  [[nodiscard]] bool lease_tracking() const noexcept { return lease_on_; }
  /// Resident (recorded, not yet expired) balls in the lease ring.
  [[nodiscard]] step_count leased() const noexcept {
    return static_cast<step_count>(lease_count_);
  }

  /// Expires the oldest resident ball: releases its recorded weight from
  /// its recorded bin, and returns that bin.  Requires lease tracking and
  /// a resident ball.
  bin_index release_oldest() {
    NB_REQUIRE(lease_on_, "release_oldest requires lease tracking");
    NB_REQUIRE(lease_count_ > 0, "release_oldest with no resident leases");
    const std::uint64_t slot = lease_slots_[lease_head_];
    lease_head_ = (lease_head_ + 1) % lease_slots_.size();
    --lease_count_;
    const auto bin = static_cast<bin_index>(slot & 0xFFFFFFFFu);
    release(bin, static_cast<weight_t>(slot >> 32));
    return bin;
  }

  /// O(1) while the level index is dense; O(n) scan in the wide-span
  /// weighted regime.
  [[nodiscard]] load_t max_load() const noexcept {
    if (levels_ok_) return levels_.max_level();
    load_t mx = loads_.front();
    for (const load_t x : loads_) {
      if (x > mx) mx = x;
    }
    return mx;
  }
  /// O(1) while the level index is dense; O(n) scan otherwise.
  [[nodiscard]] load_t min_load() const noexcept {
    if (levels_ok_) return levels_.min_level();
    load_t mn = loads_.front();
    for (const load_t x : loads_) {
      if (x < mn) mn = x;
    }
    return mn;
  }

  /// The level-compressed load distribution.  Only meaningful while
  /// levels_valid(); wide-span weighted runs must query the raw loads.
  [[nodiscard]] const level_index& levels() const noexcept { return levels_; }

  /// False once a weighted run's span outgrew level_index::max_dense_span
  /// (queries silently switch to exact scans; this is the probe for it).
  [[nodiscard]] bool levels_valid() const noexcept { return levels_ok_; }

  [[nodiscard]] double average_load() const noexcept {
    return static_cast<double>(total_weight()) / static_cast<double>(n());
  }

  /// Gap(t) = max_i x^t_i - W_t/n (W_t = total weight; == t for unit
  /// weights, the paper's definition).  Integer whenever n divides W_t.
  [[nodiscard]] double gap() const noexcept {
    return static_cast<double>(max_load()) - average_load();
  }

  /// "Underload gap": W_t/n - min_i x^t_i (used by the two-sided potentials).
  [[nodiscard]] double underload_gap() const noexcept {
    return average_load() - static_cast<double>(min_load());
  }

  /// y_i = x_i - W_t/n in bin-index order (not sorted).
  [[nodiscard]] std::vector<double> normalized() const;

  /// y_1 >= y_2 >= ... >= y_n, the paper's sorted normalized load vector.
  /// Emitted from the level index in O(n + span) -- no sort -- while the
  /// index is dense; wide-span weighted runs pay one explicit sort.
  [[nodiscard]] std::vector<double> sorted_normalized_desc() const;

  /// Number of overloaded bins |B+| = |{i : y_i >= 0}|.  O(span) via the
  /// level index while dense, O(n) scan otherwise.
  [[nodiscard]] bin_count overloaded_count() const noexcept;

  /// Serializes the full load state (raw loads + ball/weight totals, plus
  /// the lease ring in FIFO order when tracking is on -- residency is
  /// genuine mid-run state: dropping it would expire different balls after
  /// a restore).  The level index is NOT written: it is a pure function of
  /// the loads and
  /// restore() rebuilds it, which by construction yields a state
  /// query-identical to incremental maintenance (same contract as
  /// end_bulk()).  Must not be called inside a bulk window.
  void save(state_writer& w) const;

  /// Inverse of save().  Validates bin count, non-negative loads and the
  /// loads-vs-totals consistency sum before touching *this; throws
  /// contract_error on any mismatch.
  void restore(state_reader& r);

 private:
  void begin_bulk() noexcept {
    NB_ASSERT(!bulk_);
    bulk_ = true;
  }
  void end_bulk() {
    bulk_ = false;
    levels_ok_ = levels_.rebuild(loads_);
  }

  /// One range's record of a commit pass: its new loads' min and max (the
  /// identities while empty or failed), the counts it applied, and its
  /// first bin failing the per-bin check (n = none; a failed range
  /// restores its own bins before the pass returns).
  struct range_commit {
    load_t mn = std::numeric_limits<load_t>::max();
    load_t mx = std::numeric_limits<load_t>::min();
    step_count count = 0;
    std::size_t culprit = 0;
  };

  /// What a commit pass found over all ranges: the counts it applied
  /// (carries included), the new loads' min and max, and the first
  /// failing bin.
  struct commit_pass {
    step_count total = 0;
    load_t mn = std::numeric_limits<load_t>::max();
    load_t mx = std::numeric_limits<load_t>::min();
    std::size_t culprit = 0;
  };

  /// The one pass of every bulk commit, one task per range of `exec`
  /// (after the executor's prepare steps, in the same task): range r
  /// applies its carries, then one sweep adds row[i] * weight_per_ball
  /// to every bin (subtracts it for a release), checks each bin and
  /// tracks the range's min and max, then counts the range into its level
  /// histogram slot while it is cache-hot.  `ranges` receives each
  /// range's record.  Nothing outside loads_ and the level slots changes:
  /// the caller checks the totals, then either undoes the pass
  /// (undo_commit_pass) and refuses, or merges the level index.
  template <typename Count>
  commit_pass run_commit_pass(const Count* row, const std::vector<std::uint32_t>& carries,
                              weight_t weight_per_ball, bool release, const range_executor& exec,
                              std::vector<range_commit>& ranges);

  /// Restores the bins of every range run_commit_pass left mutated.
  template <typename Count>
  void undo_commit_pass(const Count* row, const std::vector<std::uint32_t>& carries,
                        weight_t weight_per_ball, bool release, const range_executor& exec,
                        const std::vector<range_commit>& ranges);

  /// The body of both apply_increments forms: bin i receives low[i] +
  /// 2^(8 sizeof(Count)) * (times i appears in `carries`) balls.
  template <typename Count>
  void apply_counts(const std::vector<Count>& low, const std::vector<std::uint32_t>& carries,
                    weight_t weight_per_ball, const range_executor& exec);

  /// Appends one resident ball to the lease ring, growing (with FIFO
  /// relinearization) when full.
  void lease_push(bin_index i, weight_t w) {
    NB_ASSERT(w >= 1 && w <= max_ball_weight);
    if (lease_count_ == lease_slots_.size()) {
      std::vector<std::uint64_t> grown(std::max<std::size_t>(lease_slots_.size() * 2, 1024));
      for (std::size_t k = 0; k < lease_count_; ++k) {
        grown[k] = lease_slots_[(lease_head_ + k) % lease_slots_.size()];
      }
      lease_slots_ = std::move(grown);
      lease_head_ = 0;
    }
    lease_slots_[(lease_head_ + lease_count_) % lease_slots_.size()] =
        static_cast<std::uint64_t>(w) << 32 | i;
    ++lease_count_;
  }

  std::vector<load_t> loads_;
  level_index levels_;
  step_count balls_ = 0;
  weight_t extra_weight_ = 0;  ///< total_weight() - balls(): 0 for unit runs
  bool bulk_ = false;
  bool levels_ok_ = true;
  /// Lease ring storage: a circular buffer of packed (weight << 32 | bin)
  /// entries, [head_, head_ + count_) mod size.
  std::vector<std::uint64_t> lease_slots_;
  std::size_t lease_head_ = 0;
  std::size_t lease_count_ = 0;
  bool lease_on_ = false;
};

}  // namespace nb
