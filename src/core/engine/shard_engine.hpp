// The windowed engine: shard_engine runs the stale-snapshot windows of a
// window_parallel process (core/process.hpp) and batched departure blocks.
//
// Every decision inside one stale-snapshot window depends only on state
// frozen at the window start, so the window's balls are embarrassingly
// parallel.  shard_engine runs each large enough window through the
// lane-interleaved allocation kernel (core/kernel/) with one master-stream
// token per window.  Arrival windows and departure blocks share one block
// skeleton (run_block): token, leaf, settle, commit.  The shard count
// picks how the leaf runs:
//   * one shard: the whole window is one kernel call seeded by the token
//     itself (lane l draws from derive_seed(token, l)), committed on the
//     calling thread -- no pool, no merge.  An arrival window counts into
//     an n-byte row plus a carry list (kernel_run's byte form: a bin's
//     count is its byte plus 256 per carry entry), which stays
//     L2-resident beside the snapshot where a 4 MB uint32 row would not,
//     and the process commits that pair directly; a drain block counts
//     into the uint32 row merged_;
//   * S >= 2 shards: the window splits into S fixed shards, shard s draws
//     from the substream shard_stream_seed(token, s), and min(threads, S)
//     pool tasks claim the shards from one counter.  Each task folds every
//     shard it claims into its own n-byte row plus carry list (the byte
//     form again; a drain shard runs it over the inverted snapshot).  Then
//     ONE pooled pass over power-of-two bin ranges settles and commits:
//     range r's task sums the used rows' slices of range r, plus 256 per
//     carry in it, into range r of one merged row (a drain block also
//     clamps it to snapshot capacity), and the process commits range r
//     while that slice is L2-hot -- its pending boundary copy, the
//     validating add and the range's level histogram included.  A drain
//     block then re-serves the clamped deficit under the drain kernel's
//     re-serve law, depart_replay, one departure per event -- the one
//     repair of a multi-shard drain block.  So a multi-shard block is two
//     pool fan-outs after its snapshot: the shard folds, and the
//     settle-and-commit; its scratch is min(threads, S) * n bytes of rows.
// Consequence: for one (seed, shards, lanes) the result is bit-identical
// for ANY thread count and ISA backend -- threads only execute shards,
// they never influence sampling, and counts are sums, so which task folded
// which shard cannot change the merged row.  Relative to the serial
// bulk path the engine draws different (but identically distributed)
// randomness, so serial-vs-engine agreement is distributional, not
// bitwise; tests enforce both contracts.
//
// A random-departure block takes neither leaf: at every shard count it is
// one exact serial pass of hypergeometric counts over the live loads
// (depart_block), so its counts depend on (loads, k, token) alone -- not
// on shards, lanes, threads or ISA.
//
// The chunk pattern handed to step_many is also part of the sampling
// contract: a call boundary inside a window splits it into two smaller
// windows (two tokens).  Cuts on window boundaries -- the natural
// checkpoint cadence, e.g. every b balls for b-Batch -- leave the window
// sequence and therefore the results unchanged.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/kernel/kernel.hpp"
#include "core/kernel/kernel_depart.hpp"
#include "core/load_vector.hpp"
#include "core/process.hpp"
#include "util/thread_pool.hpp"

namespace nb {

/// Execution-only wall time the engine spent in the phases of its
/// fast-path windows, summed over `windows` windows: compact snapshot
/// assignment, sampling (the row zeroing plus the kernel, with more shards
/// in every pool task's row) and the process's commit_window -- with more
/// shards the one pooled pass that sums the task rows into the merged row
/// range by range and commits each range.  merge stays 0 for arrival
/// windows, which also count their carry-list entries.  The engine books
/// its departure blocks into a second record of the same shape (`windows`
/// counts blocks, commit is commit_departures, with a multi-shard drain
/// block's row sum and clamp inside its pass, and merge is that block's
/// re-serve of the clamped deficit after the commit; a random block books
/// its whole hypergeometric pass as kernel and no snapshot or merge),
/// which alone also counts what the multi-shard drain settle clamped and
/// re-served.
/// Never read by the sampling code.
struct window_phase_times {
  step_count windows = 0;
  std::int64_t snapshot_ns = 0;
  std::int64_t kernel_ns = 0;
  std::int64_t merge_ns = 0;
  std::int64_t commit_ns = 0;
  /// Carry-list entries of arrival windows: one per 256 balls a bin took
  /// in one row (with several shards, in one pool task's row) in one
  /// window.  0 while no bin reaches 256 (b = n windows).
  step_count carries = 0;
  /// Bin ranges whose merged drain counts the clamp lowered.
  step_count clamped_ranges = 0;
  /// Clamped drain deficit events re-served through depart_replay.
  step_count reserved_events = 0;
};

namespace engine_detail {

/// Monotonic nanoseconds for window_phase_times.
inline std::int64_t phase_clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace engine_detail

/// Configuration of the windowed engine.  `shards` and `lanes` are part of
/// the sampling contract (they decide which streams exist and hence the
/// drawn randomness); `threads` and `isa` are execution only and never
/// affect results.
struct shard_options {
  /// Pool workers; 0 = one per hardware core.  Only a multi-shard engine
  /// has a pool: one shard always runs on the calling thread.
  std::size_t threads = 0;
  /// Fixed shard count per window, in [1, max_thread_flag] (the
  /// constructor checks).  1 is the serial SIMD engine; for more, keep it
  /// >= the largest thread count you will run with (the default covers
  /// typical desktops/CI runners).
  std::size_t shards = 16;
  /// Windows shorter than this run serially (snapshot + commit overhead
  /// would dominate); the engine also requires window >= n/4 so its O(n)
  /// passes amortize.
  step_count min_window = 4096;
  /// Kernel lanes per shard.  Part of the sampling contract exactly like
  /// `shards`: lane seeds derive from the shard stream, so changing the
  /// lane count changes the drawn randomness.
  std::size_t lanes = 8;
  /// Kernel instruction-set backend.  Execution only: backends are
  /// bit-identical for a fixed lane count (kernel contract, enforced by
  /// tests/test_kernel.cpp), so like `threads` this never affects results.
  kernel_isa isa = kernel_isa::auto_detect;
};

/// The options of the single-shard case under its older name, kept as an
/// alias because the repo benchmark (perfbench/) reads
/// kernel_options{}.min_window for its engine-route probes.
using kernel_options = shard_options;

/// The windowed batch engine.  Owns the per-window scratch (compact
/// snapshot, merged count row, byte rows) and, with two or more shards,
/// the worker pool, so one engine instance amortizes both across all
/// windows of a run -- create it once per run (or reuse across runs of
/// the same configuration).
class shard_engine {
 public:
  explicit shard_engine(shard_options opt = {});

  [[nodiscard]] const shard_options& options() const noexcept { return opt_; }
  /// Threads executing shards: the pool's workers, or 1 for one shard.
  [[nodiscard]] std::size_t threads() const noexcept { return pool_ ? pool_->size() : 1; }
  /// The resolved kernel backend this engine's shards execute with.
  [[nodiscard]] kernel_isa isa() const noexcept { return isa_; }
  /// Where this engine's fast-path windows spent their time so far.
  [[nodiscard]] const window_phase_times& phases() const noexcept { return phases_; }
  /// Where this engine's batched departure blocks spent their time so far.
  [[nodiscard]] const window_phase_times& depart_phases() const noexcept {
    return depart_phases_;
  }

  /// Allocates `count` balls through `process`.  Window-parallel processes
  /// run each sufficiently large stale-snapshot window through the kernel;
  /// everything else takes the serial fused loop, drawing from `rng`
  /// exactly like nb::step_many.  The walk cuts `count` at window
  /// boundaries (and at the row cap, which splits oversized windows
  /// deterministically) and routes undersized windows (below min_window
  /// or shorter than n/4 balls, where the per-window O(n) work would not
  /// amortize) and span-saturated snapshots to the serial loop on the
  /// master stream.
  template <single_steppable P>
  void step_many(P& process, rng_t& rng, step_count count) {
    NB_ASSERT(count >= 0);
    if constexpr (!window_parallel<P>) {
      // The caller asked for the engine (threads_per_run or use_kernel)
      // but this process exposes no kernel windows -- the request is
      // accepted but has no effect, which has historically been a silent
      // trap.  Say so, once per process kind.
      warn_once("shard-engine/" + process.name(),
                "the windowed engine (threads_per_run / use_kernel) has no effect on process '" +
                    process.name() +
                    "': it exposes no min-select snapshot windows (window_parallel); "
                    "running the serial fused loop instead");
      nb::step_many(process, rng, count);
    } else {
      if constexpr (modeled_process<P>) {
        // RNG-drawn ball weights cannot ride the count-merging window
        // path: a merged per-bin count row cannot reconstruct which
        // weight draw landed where.  Accepted but ineffective, exactly
        // like the no-window trap above -- say so once.
        if (process.model().weighting.is_random()) {
          warn_once("shard-engine-weighted/" + process.name(),
                    "the windowed engine has no effect on process '" + process.name() +
                        "' with random ball weighting " + process.model().weighting.label() +
                        ": merged count rows cannot carry per-ball weight draws; "
                        "running the serial fused loop instead");
          nb::step_many(process, rng, count);
          return;
        }
      }
      const auto n = static_cast<step_count>(process.state().n());
      while (count > 0) {
        const step_count window = process.snapshot_window();
        if (window <= 0) {  // no frozen window: serial for the whole rest
          nb::step_many(process, rng, count);
          return;
        }
        const step_count k = std::min({window, count, block_cap()});
        if (k < opt_.min_window || k * 4 < n || !run_window(process, rng, k)) {
          nb::step_many(process, rng, k);
        }
        count -= k;
      }
    }
  }

  /// Serves `count` departure events through `process`.  Each
  /// sufficiently large drain or random block reads the LIVE loads
  /// (departures need no frozen window of their own, so windowless
  /// processes batch too) and draws one master-stream token:
  ///   * random: the whole request is one block, one exact serial pass of
  ///     hypergeometric counts over the live loads (depart_block) --
  ///     no snapshot, no span limit, no cut at block_cap();
  ///   * drain: the block snapshots the loads inverted.  One shard serves
  ///     it in one kernel call seeded by the token.  With more, shard s
  ///     draws its share on substream shard_stream_seed(token, s) without
  ///     a capacity check, so the merged counts can overdraw a bin, and
  ///     the settle clamps each bin to its snapshot capacity inside the
  ///     commit pass; after the commit the deficit is re-served from the
  ///     dedicated scalar stream rng_t(derive_seed(token, shards)) under
  ///     the drain kernel's re-serve law (depart_replay) and retired one
  ///     departure at a time -- deterministic, and thread-count invariant
  ///     like step_many.
  /// The lease channel commits in bulk unconditionally (RNG-free);
  /// undersized blocks and span-saturated drain loads fall back to the
  /// serial per-event loop with a one-time diagnostic.  A request for
  /// more departures than resident balls throws contract_error before any
  /// block, state untouched.
  template <single_steppable P>
    requires departable_process<P>
  void depart_many(P& process, rng_t& rng, step_count count) {
    NB_ASSERT(count >= 0);
    if (count == 0) return;
    if constexpr (!batch_departable<P>) {
      warn_once("depart-engine/" + process.name(),
                "batched departures have no effect on process '" + process.name() +
                    "': it has no commit_departures (batch_departable); "
                    "running the serial per-event loop instead");
      nb::depart_many(process, rng, count);
    } else {
      const departure_model& departures = process.model().departures;
      if (departures.is_none()) {
        // Let the per-event law raise its configuration error.
        nb::depart_many(process, rng, count);
        return;
      }
      // Every batched departure retires one resident ball, so more
      // departures than resident balls can never be served (the per-event
      // law runs dry mid-stream, the drain kernel would redraw forever).
      const step_count resident = process.state().balls();
      NB_REQUIRE(count <= resident, "departure request of " + std::to_string(count) +
                                        " events exceeds the " + std::to_string(resident) +
                                        " resident balls");
      if (departures.is_lease()) {
        merged_.clear();
        process.commit_departures(merged_, count);
        return;
      }
      const auto n = static_cast<step_count>(process.state().n());
      const bool random = departures.departure_kind() == departure_model::kind::random;
      while (count > 0) {
        const step_count k = random ? count : std::min(count, block_cap());
        if (k < opt_.min_window || k * 4 < n) {
          warn_once("depart-engine-window/" + process.name(),
                    "batched departures fall back to the serial per-event loop on process '" +
                        process.name() +
                        "': departure blocks under min_window (or shorter than n/4 events) "
                        "cannot amortize the per-block snapshot");
          nb::depart_many(process, rng, k);
        } else if (!depart_block(process, rng, k)) {
          warn_once("depart-engine-drain-span/" + process.name(),
                    "batched drain departures fall back to the serial per-event loop on "
                    "process '" +
                        process.name() +
                        "': the live load span exceeds the compact snapshot's 8-bit range");
          nb::depart_many(process, rng, k);
        }
        count -= k;
      }
    }
  }

  /// Type-erased processes: one virtual call per chunk, engine dispatch on
  /// the wrapped concrete type behind it.
  void step_many(any_process& process, rng_t& rng, step_count count);
  void depart_many(any_process& process, rng_t& rng, step_count count);

 private:
  /// Fewest bins whose snapshot and commit run by range on the pool
  /// (block_executor).  Below it the pool round trips cost more than they
  /// split, and both run the same bodies range by range on the calling
  /// thread.  Measured for the one settle-and-commit pass with
  /// bench/throughput.cpp --scale --scale-m 2e7 or 5e7 (b-Batch b = n,
  /// 4 threads, 16 shards, drain churn at 8n) on a 4-core AVX-512 Xeon VM
  /// shared with other tenants: alternating pairs of this cutoff against
  /// pooling at every size, medians of shard / churn-shard events per
  /// second, calling thread vs pooled (pairs pooling won):
  /// 2^12 bins 9.3e7 / 8.8e7 vs 7.7e7 / 7.4e7 (2/8, 0/8);
  /// 2^14 bins 1.35e8 / 1.08e8 vs 9.4e7 / 1.07e8 (6/14, 5/14);
  /// 2^15 bins 7.4e7 / 7.8e7 vs 5.6e7 / 6.8e7 (4/16, 5/16);
  /// 2^16 bins 1.35e8 / 1.42e8 vs 1.94e8 / 1.47e8 (8/14, 9/14).
  /// At 2^17 bins, where both builds pool, the same pairs read 2/14 and
  /// 6/14: the host's multi-thread spread is as wide as every gap from
  /// 2^14 up, so no size below the cutoff shows a resolved gain from
  /// pooling, and 2^12 shows a loss.
  static constexpr bin_count kMinPooledCommitBins = bin_count{1} << 17;

  /// Largest arrival window or drain block one call serves: a shard
  /// serves at most shard_deltas::max_row_count balls or events, so
  /// multi-shard windows split deterministically (the cap depends only on
  /// the shard count, never on threads).  One shard's counts need no cap
  /// (its byte row carries every wrap, its departure row is uint32), and
  /// a run is bounded by max_run_balls.
  [[nodiscard]] step_count block_cap() const noexcept {
    return pool_ ? static_cast<step_count>(opt_.shards) * shard_deltas::max_row_count
                 : max_run_balls;
  }

  /// Widest bin range of the multi-shard settle: 2^16 bins, so a range's
  /// slice of merged_ (256 KiB) stays L2-resident while every task row's
  /// slice is summed into it and the commit then reads it.
  static constexpr unsigned kMaxRangeBits = 16;

  /// Assigns the window's compact snapshot by range through `exec`: from
  /// the live loads' O(1) level range when the process proves the frozen
  /// snapshot is live, by a ranged scan of the frozen vector otherwise.
  template <typename P>
  bool assign_window_snapshot(const P& process, const range_executor& exec) {
    if constexpr (live_snapshot_probed<P>) {
      if (process.snapshot_is_live()) return snapshot_.assign(process.state(), exec);
    }
    return snapshot_.assign(process.window_snapshot(), exec);
  }

  /// Balls (or events) of shard s when k split over the shards.
  [[nodiscard]] step_count shard_share(step_count k, std::size_t s) const noexcept {
    const auto shards = static_cast<step_count>(opt_.shards);
    return k / shards + (static_cast<step_count>(s) < k % shards ? 1 : 0);
  }

  /// Lays the multi-shard engine's bin ranges over n bins: power-of-two
  /// ranges about one shard's share of the bins wide (at most 2^16), so
  /// there are roughly as many ranges as shards.  The ranges carry the
  /// pooled passes around the shard folds -- snapshot, settle and commit --
  /// and are execution-only (counts do not depend on them), but depend on
  /// (n, shards) alone, so the clamp counters are thread invariant too.
  void layout_ranges(bin_count n);

  /// The ranges of layout_ranges as an executor: pool tasks from
  /// kMinPooledCommitBins bins up, one after another on the calling
  /// thread below; one calling-thread range for one shard.
  [[nodiscard]] range_executor block_executor(bin_count n) {
    if (!pool_) return {};
    return range_executor(n >= kMinPooledCommitBins ? &*pool_ : nullptr, range_count_,
                          std::size_t{1} << range_bits_);
  }

  /// Bins [first, second) of bin range r.
  [[nodiscard]] std::pair<std::size_t, std::size_t> range_bounds(std::size_t r,
                                                                 bin_count n) const noexcept {
    const std::size_t lo = r << range_bits_;
    return {lo, std::min(lo + (std::size_t{1} << range_bits_), std::size_t{n})};
  }

  /// Writes range r's slice of merged_: the sum of the slices of every
  /// task row the block used, plus 256 for each of their carry entries in
  /// the range.  The slice is L2-resident across the rows.
  void count_range(std::size_t r, bin_count n);

  /// The drain settle of range r, after count_range: clamps every bin of
  /// the slice to its snapshot capacity (a bin's snapshot load is
  /// base + 255 - byte) and returns the clamped excess, which the block
  /// re-serves after its commit (reserve_deficit).
  step_count clamp_range(std::size_t r, bin_count n, weight_t w);

  /// The block skeleton of arrival windows and departure blocks alike:
  /// draws the block's one master-stream token and decides the block from
  /// it.  One shard is one `leaf(k, seed)` call on the calling thread,
  /// seeded by the token itself, which counts into rows of its own choice
  /// (rows_[0] and carries_[0] for arrivals, merged_ for drain blocks).
  /// S >= 2 shards run as fold_shards' pool tasks, each shard one `fold`.
  /// `commit()` then applies the counts; with S >= 2 it is one pass by
  /// bin range (block_executor) whose prepare step settles each range's
  /// slice of merged_ from the task rows just before the range commits.
  /// Books the kernel and commit phases, and returns the token.
  template <typename Leaf, typename Fold, typename Commit>
  std::uint64_t run_block(rng_t& rng, bin_count n, step_count k, window_phase_times& phases,
                          Leaf&& leaf, Fold&& fold, Commit&& commit) {
    ++phases.windows;
    const std::int64_t t_kernel = engine_detail::phase_clock_ns();
    // Every stream of the block derives from this token, so no result can
    // depend on the thread count.
    const std::uint64_t token = rng.next();
    if (!pool_) {
      leaf(k, token);
    } else {
      fold_shards(n, k, token, fold);
    }
    const std::int64_t t_commit = engine_detail::phase_clock_ns();
    phases.kernel_ns += t_commit - t_kernel;
    commit();
    phases.commit_ns += engine_detail::phase_clock_ns() - t_commit;
    return token;
  }

  /// The S >= 2 shards of a block of `k` balls or events: one pool task
  /// per row of rows_, each claiming shards from one counter until none
  /// are left.  A task zeroes its row on its first claim (marking it in
  /// row_used_) and folds shard s into it and its carry list,
  /// `fold(low, carries, count, shard_stream_seed(token, s))`.  Counts are
  /// sums, so the rows' total does not depend on which task claimed which
  /// shard.  Rows and carry lists are sized before the fan-out, so no task
  /// allocates: a task's list takes one entry per 256 of its <= k balls.
  template <typename Fold>
  void fold_shards(bin_count n, step_count k, std::uint64_t token, Fold& fold) {
    const std::size_t tasks = rows_.size();
    for (std::size_t w = 0; w < tasks; ++w) {
      rows_[w].resize(n);
      carries_[w].clear();
      carries_[w].reserve(static_cast<std::size_t>((k + 255) / 256));
    }
    row_used_.assign(tasks, 0);
    std::atomic<std::size_t> next{0};
    pool_->for_each(tasks, [&](std::size_t w) {
      for (std::size_t s = next++; s < opt_.shards; s = next++) {
        if (row_used_[w] == 0) {
          std::fill(rows_[w].begin(), rows_[w].end(), std::uint8_t{0});
          row_used_[w] = 1;
        }
        const step_count count = shard_share(k, s);
        if (count > 0) fold(rows_[w].data(), carries_[w], count, shard_stream_seed(token, s));
      }
    });
  }

  /// One fast-path window of `k` balls, all decided against the window
  /// snapshot; false when it cannot compact (the caller runs the window
  /// serially).
  template <window_parallel P>
  bool run_window(P& process, rng_t& rng, step_count k) {
    const bin_count n = process.state().n();
    if (pool_) layout_ranges(n);
    const std::int64_t t_snapshot = engine_detail::phase_clock_ns();
    const bool compact = assign_window_snapshot(process, block_executor(n));
    phases_.snapshot_ns += engine_detail::phase_clock_ns() - t_snapshot;
    if (!compact) return false;
    const std::uint8_t* snap = snapshot_.data();
    // Non-uniform bin sampling rides the same window machinery: leaves
    // draw their bin pairs from the model's alias table instead of the
    // uniform Lemire path.  The table is immutable for the whole window
    // (the process is not stepped while leaves run).
    const alias_table* table = nullptr;
    if constexpr (modeled_process<P>) {
      if (!process.model().sampler.is_uniform()) table = &process.model().sampler.table();
    }
    const auto fold = [&](std::uint8_t* low, std::vector<std::uint32_t>& carries,
                          step_count balls, std::uint64_t seed) {
      if (table != nullptr) {
        kernel_run_alias(isa_, opt_.lanes, n, snap, table->thresholds(), table->aliases(), low,
                         carries, balls, seed);
      } else {
        kernel_run(isa_, opt_.lanes, n, snap, low, carries, balls, seed);
      }
    };
    run_block(
        rng, n, k, phases_,
        [&](step_count balls, std::uint64_t seed) {
          rows_[0].assign(n, 0);
          carries_[0].clear();
          fold(rows_[0].data(), carries_[0], balls, seed);
        },
        fold,
        [&] {
          if (!pool_) {
            process.commit_window(rows_[0], carries_[0], k);
            return;
          }
          merged_.resize(n);
          process.commit_window(merged_, k,
                                block_executor(n).prepared([this, n](std::size_t r) {
                                  count_range(r, n);
                                  return step_count{0};
                                }));
        });
    for (const std::vector<std::uint32_t>& carries : carries_) {
      phases_.carries += static_cast<step_count>(carries.size());
    }
    return true;
  }

  /// One batched departure block of `k` events; false when the live
  /// loads cannot compact for a drain block (the caller falls back to the
  /// serial loop).
  ///
  /// A random block is k uniform draws of resident load units without
  /// replacement, so its per-bin counts are multivariate hypergeometric
  /// over the live loads: count_random_departures draws them exactly in
  /// one serial pass from rng_t(token), at every shard count, and the
  /// counts are committed directly -- no snapshot, kernel, clamp or
  /// re-serve, and nothing a shard, lane, thread or ISA setting changes.
  ///
  /// With several shards, drain shards always run the unchecked byte form
  /// of kernel_run over the inverted snapshot.  A shard whose counts stay
  /// within capacity everywhere decides exactly what the checked
  /// kernel_depart would; a bin one shard alone draws past its capacity
  /// is over capacity in the merged counts too, so the settle's clamp and
  /// re-serve repair it like any bin the shards overdraw together.
  template <batch_departable P>
  bool depart_block(P& process, rng_t& rng, step_count k) {
    const bin_count n = process.state().n();
    if (pool_) layout_ranges(n);
    if (process.model().departures.departure_kind() == departure_model::kind::random) {
      ++depart_phases_.windows;
      const std::int64_t t_kernel = engine_detail::phase_clock_ns();
      count_random_departures(process.state(), k, rng.next());
      const std::int64_t t_commit = engine_detail::phase_clock_ns();
      depart_phases_.kernel_ns += t_commit - t_kernel;
      process.commit_departures(merged_, k, block_executor(n));
      depart_phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
      return true;
    }
    // The drain kernel reads the inverted bytes as they are
    // (kernel_depart.hpp): one inverted assignment serves the whole block.
    const std::int64_t t_snapshot = engine_detail::phase_clock_ns();
    const bool compact = snapshot_.assign_inverted(process.state(), block_executor(n));
    depart_phases_.snapshot_ns += engine_detail::phase_clock_ns() - t_snapshot;
    if (!compact) return false;
    const std::uint8_t* inv = snapshot_.data();
    const load_t base = snapshot_.base();
    const weight_t w = drain_weight(process.model().weighting);
    const std::uint64_t token = run_block(
        rng, n, k, depart_phases_,
        // Cannot throw: depart_many admitted at most the resident balls, so
        // no shard's drain ever runs out of snapshot capacity.
        [&](step_count events, std::uint64_t seed) {
          merged_.assign(n, 0);
          kernel_depart(isa_, opt_.lanes, n, inv, base, w, merged_.data(), events, seed);
        },
        [&](std::uint8_t* low, std::vector<std::uint32_t>& carries, step_count events,
            std::uint64_t seed) {
          kernel_run(isa_, opt_.lanes, n, inv, low, carries, events, seed);
        },
        [&] {
          if (!pool_) {
            process.commit_departures(merged_, k);
            return;
          }
          merged_.resize(n);
          range_deficits_.assign(range_count_, 0);
          // The clamp withholds each range's excess from the commit.
          process.commit_departures(merged_, k,
                                    block_executor(n).prepared([this, n, w](std::size_t r) {
                                      count_range(r, n);
                                      return range_deficits_[r] = clamp_range(r, n, w);
                                    }));
        });
    if (pool_) {
      const std::int64_t t_merge = engine_detail::phase_clock_ns();
      if (reserve_deficit(n, w, token)) process.commit_departed_bins(reserved_);
      depart_phases_.merge_ns += engine_detail::phase_clock_ns() - t_merge;
    }
    return true;
  }

  /// The random block's counts: one pass over the bins in bin order
  /// drawing c_i ~ Hypergeometric(k_rem, load_i, M_rem) from rng_t(token)
  /// (nb::hypergeometric's draw order), where k_rem and M_rem are the
  /// departures and resident load units not yet assigned; empty bins draw
  /// nothing, and the pass stops drawing once k_rem reaches 0.  Writes
  /// every bin of merged_.
  void count_random_departures(const load_state& state, step_count k, std::uint64_t token);

  /// The multi-shard drain block's re-serve, after its commit: books the
  /// ranges the clamp lowered and draws the clamped deficit into
  /// reserved_, one bin per event, under the drain kernel's re-serve law
  /// (depart_replay) from the stream one past the shard substreams,
  /// rng_t(derive_seed(token, shards)), over the snapshot and the clamped
  /// counts -- which together are the just-committed live loads.
  /// Returns false when nothing was clamped.
  bool reserve_deficit(bin_count n, weight_t w, std::uint64_t token);

  shard_options opt_;
  kernel_isa isa_;
  /// The workers executing shards; empty for one shard.
  std::optional<thread_pool> pool_;
  /// The current window's or block's compact snapshot.  One buffer is
  /// enough: every pool task that reads it is joined before the commit.
  compact_snapshot snapshot_;
  /// The per-bin counts the process commits for multi-shard blocks and
  /// for departure blocks (with one shard, the drain kernel's own row; at
  /// any shard count, the random pass's).  One-shard arrival windows
  /// never touch it ...
  std::vector<std::uint32_t> merged_;
  /// ... they count into n bytes plus the bins whose byte wrapped, one
  /// entry per wrap (kernel_run's byte form): rows_[0] and carries_[0].
  /// A multi-shard block has one such pair per pool task, min(threads,
  /// shards) of them, and row_used_[w] marks the pairs it wrote.
  std::vector<std::vector<std::uint8_t>> rows_;
  std::vector<std::vector<std::uint32_t>> carries_;
  std::vector<std::uint8_t> row_used_;
  /// Bin ranges of 2^range_bits_ bins, range_count_ of them.
  unsigned range_bits_ = 0;
  std::size_t range_count_ = 0;
  /// Per-range clamped excess of the current drain block ...
  std::vector<step_count> range_deficits_;
  /// ... and the bins its re-serve drew, one per event.
  std::vector<bin_index> reserved_;
  window_phase_times phases_;
  window_phase_times depart_phases_;
};

}  // namespace nb
