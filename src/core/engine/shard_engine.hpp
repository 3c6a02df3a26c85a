// The windowed engine: shard_engine runs the stale-snapshot windows of a
// window_parallel process (core/process.hpp) and batched departure blocks.
//
// Every decision inside one stale-snapshot window depends only on state
// frozen at the window start, so the window's balls are embarrassingly
// parallel.  shard_engine runs each large enough window through the
// lane-interleaved allocation kernel (core/kernel/) with one master-stream
// token per window.  Arrival windows and drain blocks share one block
// skeleton at every shard count (run_block): token and shard folds, then
// one commit.
// The window splits into S fixed shards, and min(threads, S) pool tasks
// claim them from one counter (one shard: one task, on a one-worker pool
// that starts no thread).  Each task folds every shard it claims into its
// own n-byte row plus carry list (kernel_run's byte form: a bin's count
// is its byte plus 256 per carry entry), which stays L2-resident beside
// the snapshot where a 4 MB uint32 row would not.  A lone shard draws
// from the token itself (lane l from derive_seed(token, l)); shard s of
// S >= 2 from the substream shard_stream_seed(token, s).  No window or
// block is cut below what the caller asked for: a byte row with its carry
// list counts any number of balls.  Then:
//   * an arrival window with one task row (one shard, or one thread)
//     commits that row and its carries directly; with more task rows, ONE
//     pass over power-of-two bin ranges settles and commits: range r's
//     task sums the used rows' slices of range r, plus 256 per carry in
//     it, into range r of one merged row, and the process commits range r
//     while that slice is L2-hot -- its pending boundary copy, the
//     validating add and the range's level histogram included;
//   * a drain block (its shards run kernel_run over the inverted
//     snapshot: two-choice in reverse, the fuller bin loses a ball) first
//     settles by range: each range sums the task rows into merged_ and
//     clamps the counts to snapshot capacity.  The block then re-serves
//     the clamped deficit into merged_ under the re-serve law
//     (depart_replay), one event at a time -- the drain law's one repair,
//     at every shard count -- and commits merged_, which now sums to the
//     block size, in one ranged commit_departures.
// So an arrival block is two pool fan-outs after its snapshot (the shard
// folds, and the settle-and-commit), a drain block three (the folds, the
// settle, the commit); the scratch is min(threads, S) * n bytes of rows.
// Consequence: for one (seed, shards) the result is bit-identical
// for ANY thread count and ISA backend -- threads only execute shards,
// they never influence sampling, and counts are sums, so which task folded
// which shard cannot change the merged row.  Relative to the serial
// bulk path the engine draws different (but identically distributed)
// randomness, so serial-vs-engine agreement is distributional, not
// bitwise; tests enforce both contracts.
//
// A random-departure block folds no shards: at every shard count it is
// one exact serial pass of hypergeometric counts over the live loads
// (depart_block), so its counts depend on (loads, k, token) alone -- not
// on shards, threads or ISA.
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
#include <string>
#include <utility>
#include <vector>

#include "core/kernel/kernel.hpp"
#include "core/load_vector.hpp"
#include "core/process.hpp"
#include "util/thread_pool.hpp"

namespace nb {

/// Execution-only wall time the engine spent in the phases of its
/// fast-path windows, summed over `windows` windows: compact snapshot
/// assignment, sampling (the row zeroing plus the kernel, in every pool
/// task's row) and the process's commit_window -- with more than one task
/// row the one pass that sums the task rows into the merged row range by
/// range and commits each range.  merge stays 0 for arrival
/// windows, which also count their carry-list entries.  The engine books
/// its departure blocks into a second record of the same shape (`windows`
/// counts blocks, commit is commit_departures, and merge is a drain
/// block's settle -- the row sum and clamp -- plus its re-serve of the
/// clamped deficit; a random block books its whole hypergeometric pass as
/// kernel and no snapshot or merge), which alone also counts what the
/// drain settle clamped and re-served.
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

/// The drain law's re-serve: serves one drain departure serially over
/// remaining load -- a bin's snapshot load snap_base + 255 - inv[i] (inv
/// is the inverted compact snapshot) less weight_per_ball per departure
/// already counted in `rel`.  It redraws (i, j[, tie]) from `replay`
/// under the serial drain law: skip the pair when neither bin covers the
/// weight, else the fuller bin wins (ties by the top bit of one raw
/// draw).  After 4096 attempts it falls back to the fullest bin, first
/// index winning.  `++rel[chosen]`, and returns `chosen`.  Throws
/// contract_error when no bin's remaining load covers weight_per_ball.
std::uint32_t depart_replay(bin_count n, const std::uint8_t* inv, load_t snap_base,
                            weight_t weight_per_ball, std::uint32_t* rel, rng_t& replay);

}  // namespace engine_detail

/// Configuration of the windowed engine.  `shards` is part of the sampling
/// contract (it decides which streams exist and hence the drawn
/// randomness); `threads` and `isa` are execution only and never affect
/// results.
struct shard_options {
  /// Pool workers; 0 = one per hardware core.  One shard always runs on
  /// the calling thread: its pool has one worker whatever this says.
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
  /// Kernel instruction-set backend.  Execution only: backends are
  /// bit-identical (kernel contract, enforced by tests/test_kernel.cpp), so
  /// like `threads` this never affects results.
  kernel_isa isa = kernel_isa::auto_detect;
};

/// Leftovers the repo benchmark (perfbench/) reads, which ROADMAP item 4's
/// declared benchmark change removes; the engine reads neither.  The
/// options under their older single-shard name (perfbench's engine-route
/// probes read kernel_options{}.min_window), and the per-shard bound of
/// the deleted multi-shard block cap (churn_drain's route probe still caps
/// windows at shards * max_row_count).  The other lane leftovers,
/// engine_config::lanes (sim/runner.hpp) and the uint32 kernel_run's
/// `lanes`, refuse anything but kernel_lanes.
using kernel_options = shard_options;
struct shard_deltas {
  static constexpr step_count max_row_count = 65535;
};

/// The windowed batch engine.  Owns the per-window scratch (compact
/// snapshot, merged count row, byte rows) and the worker pool, so one
/// engine instance amortizes both across all windows of a run -- create
/// it once per run (or reuse across runs of the same configuration).
class shard_engine {
 public:
  explicit shard_engine(shard_options opt = {});

  [[nodiscard]] const shard_options& options() const noexcept { return opt_; }
  /// Threads executing shards: the pool's workers, 1 for one shard.
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }
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
  /// boundaries only, and routes undersized windows (below min_window or
  /// shorter than n/4 balls, where the per-window O(n) work would not
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
        const step_count k = std::min(window, count);
        if (k < opt_.min_window || k * 4 < n || !run_window(process, rng, k)) {
          nb::step_many(process, rng, k);
        }
        count -= k;
      }
    }
  }

  /// Serves `count` departure events through `process`.  A sufficiently
  /// large drain or random request is one block that reads the LIVE loads
  /// (departures need no frozen window of their own, so windowless
  /// processes batch too) and draws one master-stream token:
  ///   * random: one exact serial pass of hypergeometric counts over the
  ///     live loads (depart_block) -- no snapshot, no span limit;
  ///   * drain: the block snapshots the loads inverted, and its shards
  ///     draw their shares like arrival shards, without a capacity check,
  ///     so the counts can overdraw a bin; the settle clamps each bin to
  ///     its snapshot capacity, the deficit is re-served into the counts
  ///     from the dedicated scalar stream one past the block's own
  ///     (reserve_deficit) under the re-serve law
  ///     (engine_detail::depart_replay), and the block commits once --
  ///     deterministic, and thread-count invariant like step_many.
  /// Lease requests take the per-event law (nb::depart_many): FIFO expiry
  /// draws nothing, so that is the whole block.  Undersized requests and
  /// span-saturated drain loads fall back to the serial per-event loop
  /// with a one-time diagnostic.  A request for more departures than
  /// resident balls throws contract_error before any block, state
  /// untouched.
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
      // law runs dry mid-stream, the drain re-serve would find no bin).
      const step_count resident = process.state().balls();
      NB_REQUIRE(count <= resident, "departure request of " + std::to_string(count) +
                                        " events exceeds the " + std::to_string(resident) +
                                        " resident balls");
      if (departures.is_lease()) {
        // FIFO expiry draws no randomness and picks no bins: the per-event
        // law serves the request as it is.
        nb::depart_many(process, rng, count);
        return;
      }
      const auto n = static_cast<step_count>(process.state().n());
      if (count < opt_.min_window || count * 4 < n) {
        warn_once("depart-engine-window/" + process.name(),
                  "batched departures fall back to the serial per-event loop on process '" +
                      process.name() +
                      "': departure blocks under min_window (or shorter than n/4 events) "
                      "cannot amortize the per-block snapshot");
        nb::depart_many(process, rng, count);
      } else if (!depart_block(process, rng, count)) {
        warn_once("depart-engine-drain-span/" + process.name(),
                  "batched drain departures fall back to the serial per-event loop on "
                  "process '" +
                      process.name() +
                      "': the live load span exceeds the compact snapshot's 8-bit range");
        nb::depart_many(process, rng, count);
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

  /// Widest bin range of the settle: 2^16 bins, so a range's
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

  /// Lays the engine's bin ranges over n bins: power-of-two ranges about
  /// one shard's share of the bins wide (at most 2^16), so there are
  /// roughly as many ranges as shards.  The ranges carry the passes around
  /// the shard folds -- snapshot, settle and commit -- and are
  /// execution-only (counts do not depend on them), but depend on
  /// (n, shards) alone, so the clamp counters are thread invariant too.
  void layout_ranges(bin_count n);

  /// The ranges of layout_ranges as an executor: pool tasks from
  /// kMinPooledCommitBins bins up, one after another on the calling
  /// thread below.
  [[nodiscard]] range_executor block_executor(bin_count n) {
    return range_executor(n >= kMinPooledCommitBins ? &pool_ : nullptr, range_count_,
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
  /// re-serves before its commit (reserve_deficit).
  step_count clamp_range(std::size_t r, bin_count n, weight_t w);

  /// The block skeleton of arrival windows and drain blocks alike: draws
  /// the block's one master-stream token and folds the block's shards into
  /// the task rows (fold_shards, each shard one `fold`).  Books the block
  /// and its kernel phase, and returns the token; the caller then commits
  /// the rows.
  template <typename Fold>
  std::uint64_t run_block(rng_t& rng, bin_count n, step_count k, window_phase_times& phases,
                          Fold&& fold) {
    ++phases.windows;
    const std::int64_t t_kernel = engine_detail::phase_clock_ns();
    // Every stream of the block derives from this token, so no result can
    // depend on the thread count.
    const std::uint64_t token = rng.next();
    fold_shards(n, k, token, fold);
    phases.kernel_ns += engine_detail::phase_clock_ns() - t_kernel;
    return token;
  }

  /// The shards of a block of `k` balls or events: one pool task per row
  /// of rows_, each claiming shards from one counter until none are left.
  /// A task zeroes its row on its first claim (marking it in row_used_)
  /// and folds shard s into it and its carry list,
  /// `fold(low, carries, count, shard_seed(token, s))`.  Counts are sums,
  /// so the rows' total does not depend on which task claimed which
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
    pool_.for_each(tasks, [&](std::size_t w) {
      for (std::size_t s = next++; s < opt_.shards; s = next++) {
        if (row_used_[w] == 0) {
          std::fill(rows_[w].begin(), rows_[w].end(), std::uint8_t{0});
          row_used_[w] = 1;
        }
        const step_count count = shard_share(k, s);
        if (count > 0) fold(rows_[w].data(), carries_[w], count, shard_seed(token, s));
      }
    });
  }

  /// Seed of shard s of a block: a lone shard draws from the token itself
  /// (lane l from derive_seed(token, l)), shard s of S >= 2 from the
  /// substream shard_stream_seed(token, s).
  [[nodiscard]] std::uint64_t shard_seed(std::uint64_t token, std::size_t s) const noexcept {
    return opt_.shards == 1 ? token : shard_stream_seed(token, s);
  }

  /// One fast-path window of `k` balls, all decided against the window
  /// snapshot; false when it cannot compact (the caller runs the window
  /// serially).
  template <window_parallel P>
  bool run_window(P& process, rng_t& rng, step_count k) {
    const bin_count n = process.state().n();
    layout_ranges(n);
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
        kernel_run_alias(isa_, n, snap, table->thresholds(), table->aliases(), low, carries, balls,
                         seed);
      } else {
        kernel_run(isa_, n, snap, low, carries, balls, seed);
      }
    };
    run_block(rng, n, k, phases_, fold);
    const std::int64_t t_commit = engine_detail::phase_clock_ns();
    if (rows_.size() == 1) {
      // Summing a lone row into merged_ first gives the same counts, but
      // its 4 MB at n = 10^6 raised perfbench batch_insert's peak RSS from
      // 37.05 to 45.25 MB (10/10 alternating pairs, events/s flat; 4-core
      // AVX-512 Xeon VM), so the byte row and carries commit directly.
      process.commit_window(rows_[0], carries_[0], k);
    } else {
      // The commit reads each range's slice of merged_ right after its
      // task summed it from the task rows.
      merged_.resize(n);
      process.commit_window(merged_, k, block_executor(n).prepared([this, n](std::size_t r) {
        count_range(r, n);
      }));
    }
    phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
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
  /// re-serve, and nothing a shard, thread or ISA setting changes.
  ///
  /// Drain shards run the unchecked byte form of kernel_run over the
  /// inverted snapshot at every shard count: per event, the fuller of two
  /// sampled bins (by snapshot) loses a ball, ties fair.  A bin the shards
  /// draw past its capacity, alone or together, is over capacity in the
  /// summed counts, so the settle's clamp and re-serve repair it before
  /// the block's one commit.
  template <batch_departable P>
  bool depart_block(P& process, rng_t& rng, step_count k) {
    const bin_count n = process.state().n();
    layout_ranges(n);
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
    // kernel_run's min-select over the inverted bytes is the drain's
    // max-select: one inverted assignment serves the whole block.
    const std::int64_t t_snapshot = engine_detail::phase_clock_ns();
    const bool compact = snapshot_.assign_inverted(process.state(), block_executor(n));
    depart_phases_.snapshot_ns += engine_detail::phase_clock_ns() - t_snapshot;
    if (!compact) return false;
    const std::uint8_t* inv = snapshot_.data();
    const weight_t w = drain_weight(process.model().weighting);
    const std::uint64_t token =
        run_block(rng, n, k, depart_phases_,
                  [&](std::uint8_t* low, std::vector<std::uint32_t>& carries, step_count events,
                      std::uint64_t seed) {
                    kernel_run(isa_, n, inv, low, carries, events, seed);
                  });
    const std::int64_t t_merge = engine_detail::phase_clock_ns();
    merged_.resize(n);
    range_deficits_.assign(range_count_, 0);
    block_executor(n).run([this, n, w](std::size_t r) {
      count_range(r, n);
      range_deficits_[r] = clamp_range(r, n, w);
    });
    reserve_deficit(n, w, token);
    const std::int64_t t_commit = engine_detail::phase_clock_ns();
    depart_phases_.merge_ns += t_commit - t_merge;
    process.commit_departures(merged_, k, block_executor(n));
    depart_phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
    return true;
  }

  /// The random block's counts: one pass over the bins in bin order
  /// drawing c_i ~ Hypergeometric(k_rem, load_i, M_rem) from rng_t(token)
  /// (nb::hypergeometric's draw order), where k_rem and M_rem are the
  /// departures and resident load units not yet assigned; empty bins draw
  /// nothing, and the pass stops drawing once k_rem reaches 0.  Writes
  /// every bin of merged_.
  void count_random_departures(const load_state& state, step_count k, std::uint64_t token);

  /// The drain block's re-serve, between its settle and its commit: books
  /// the ranges the clamp lowered and adds the clamped deficit to merged_,
  /// one event at a time, under the re-serve law (engine_detail::
  /// depart_replay) over the snapshot less the counts so far, from the
  /// first stream past the block's own: rng_t(derive_seed(token,
  /// kernel_lanes)) for one shard, whose lanes draw from
  /// derive_seed(token, 0..kernel_lanes-1), and rng_t(derive_seed(token,
  /// shards)) past the shard substreams of S >= 2.  Afterwards merged_
  /// sums to the block size.
  void reserve_deficit(bin_count n, weight_t w, std::uint64_t token);

  shard_options opt_;
  kernel_isa isa_;
  /// The workers executing shards: one worker (no thread) for one shard.
  thread_pool pool_;
  /// The current window's or block's compact snapshot.  One buffer is
  /// enough: every pool task that reads it is joined before the commit.
  compact_snapshot snapshot_;
  /// The per-bin counts the process commits when the task rows are summed
  /// (drain blocks, and arrival windows with several task rows), and the
  /// random pass's counts.
  std::vector<std::uint32_t> merged_;
  /// The task rows: n bytes plus the bins whose byte wrapped, one entry
  /// per wrap (kernel_run's byte form), one pair per pool task --
  /// min(threads, shards) of them -- and row_used_[w] marks the pairs the
  /// block wrote.
  std::vector<std::vector<std::uint8_t>> rows_;
  std::vector<std::vector<std::uint32_t>> carries_;
  std::vector<std::uint8_t> row_used_;
  /// Bin ranges of 2^range_bits_ bins, range_count_ of them.
  unsigned range_bits_ = 0;
  std::size_t range_count_ = 0;
  /// Per-range clamped excess of the current drain block.
  std::vector<step_count> range_deficits_;
  window_phase_times phases_;
  window_phase_times depart_phases_;
};

}  // namespace nb
