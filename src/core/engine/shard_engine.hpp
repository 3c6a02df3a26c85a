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
//   * one shard: the whole window is one kernel call into one uint32 row
//     seeded by the token itself (lane l draws from derive_seed(token, l)),
//     committed on the calling thread -- no pool, no merge;
//   * S >= 2 shards: the window splits into S fixed shards, shard s draws
//     from the substream shard_stream_seed(token, s), a worker pool
//     executes the shards, each shard writes its chosen bins into a pick
//     buffer and counting-sorts them into power-of-two bin ranges, and the
//     settle counts every shard's bucket r, in shard order, into range r
//     of one merged row (a departure block's settle also clamps the counts
//     to snapshot capacity and re-serves the deficit under the departure
//     kernel's re-serve law, depart_replay).
// Consequence: for one (seed, shards, lanes) the result is bit-identical
// for ANY thread count and ISA backend -- threads only execute shards,
// they never influence sampling or merge order.  Relative to the serial
// bulk path the engine draws different (but identically distributed)
// randomness, so serial-vs-engine agreement is distributional, not
// bitwise; tests enforce both contracts.
//
// The chunk pattern handed to step_many is also part of the sampling
// contract: a call boundary inside a window splits it into two smaller
// windows (two tokens).  Cuts on window boundaries -- the natural
// checkpoint cadence, e.g. every b balls for b-Batch -- leave the window
// sequence and therefore the results unchanged.
#pragma once

#include <algorithm>
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
/// assignment, sampling (with one shard the row zeroing plus the kernel,
/// with more the shards' picks and bucket sorts), the bucket count into
/// the merged row (0 with one shard) and the process's commit_window.  The engine books its departure
/// blocks into a second record of the same shape (`windows` counts blocks,
/// merge is the bucket count + clamp + re-serve, commit is
/// commit_departures), which alone also counts what the multi-shard settle
/// had to repair.  Never read by the sampling code.
struct window_phase_times {
  step_count windows = 0;
  std::int64_t snapshot_ns = 0;
  std::int64_t kernel_ns = 0;
  std::int64_t merge_ns = 0;
  std::int64_t commit_ns = 0;
  /// Bin ranges whose merged counts the departure clamp lowered.
  step_count clamped_ranges = 0;
  /// Clamped deficit events re-served through depart_replay.
  step_count reserved_events = 0;
  /// Drain shards that overdrew a bin on their own and were recomputed
  /// through the checked kernel_depart.
  step_count recomputed_shards = 0;
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
/// snapshot, merged count row, shard picks) and, with two or more shards,
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
  /// sufficiently large drain/random block snapshots the LIVE loads
  /// (departures need no frozen window of their own -- the block freezes
  /// its snapshot at the block start, so windowless processes batch too),
  /// draws one master-stream token and runs the SIMD departure kernel.
  /// One shard serves the whole block in one kernel call seeded by the
  /// token.  With more, shard s serves its share on substream
  /// shard_stream_seed(token, s) exactly as one kernel_depart call would;
  /// shards capacity-check against the shared snapshot with only their OWN
  /// counts, so the merged counts can overdraw a bin, and the settle clamps
  /// each bin to its snapshot capacity and re-serves the deficit from the
  /// dedicated scalar stream rng_t(derive_seed(token, shards)) under the
  /// departure kernel's re-serve law (depart_replay) -- deterministic, and
  /// thread-count invariant like step_many.  The lease channel commits in
  /// bulk unconditionally (RNG-free); undersized blocks and span-saturated
  /// loads fall back to the serial per-event loop with a one-time
  /// diagnostic.  A request for more departures than resident balls
  /// throws contract_error before any block, state untouched.
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
      // Every batched channel retires whole resident balls, so more
      // departures than resident balls can never be served (the per-event
      // law runs dry mid-stream, the kernels would redraw forever).
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
      while (count > 0) {
        const step_count k = std::min(count, block_cap());
        if (k < opt_.min_window || k * 4 < n) {
          warn_once("depart-engine-window/" + process.name(),
                    "batched departures fall back to the serial per-event loop on process '" +
                        process.name() +
                        "': departure blocks under min_window (or shorter than n/4 events) "
                        "cannot amortize the per-block snapshot");
          nb::depart_many(process, rng, k);
        } else if (!depart_block(process, rng, k)) {
          warn_once("depart-engine-span/" + process.name(),
                    "batched departures fall back to the serial per-event loop on process '" +
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
  /// Fewest bins whose commit runs by range on the pool (run_block).
  /// Below it the pool round trips of the commit's passes cost more than
  /// they split.  Measured with bench/throughput.cpp --scale (b-Batch b = n,
  /// 4 threads, 16 shards, drain churn at 8n) on a 4-core AVX-512 Xeon VM,
  /// median of 5 alternating runs, shard / churn-shard events per second,
  /// pooled vs calling-thread commit, when the engine still merged
  /// per-shard rows: 2^14 bins 3.4e7 / 3.1e7 vs 6.1e7 / 6.1e7; 2^16 bins
  /// 5.5e7 / 5.3e7 vs 6.8e7 / 8.6e7; 2^17 bins 1.29e8 / 1.05e8 vs 1.20e8 /
  /// 1.04e8; 2^18 bins 1.35e8 / 1.16e8 vs 1.30e8 / 1.07e8.
  static constexpr bin_count kMinPooledCommitBins = bin_count{1} << 17;

  /// Largest window/block one call serves: a shard serves at most
  /// shard_deltas::max_row_count balls or events, so its counts fit the
  /// 16-bit scratch rows, and multi-shard windows split deterministically
  /// (the cap depends only on the shard count, never on threads).  One
  /// shard counts into uint32 and a run is bounded by max_run_balls anyway.
  [[nodiscard]] step_count block_cap() const noexcept {
    return pool_ ? static_cast<step_count>(opt_.shards) * shard_deltas::max_row_count
                 : max_run_balls;
  }

  /// Widest bin range of the multi-shard settle: 2^16 bins, so a bin's
  /// offset in its range fits the 16-bit bucket entries and a range's
  /// slice of merged_ (256 KiB) stays L2-resident while every shard's
  /// bucket counts into it.
  static constexpr unsigned kMaxRangeBits = 16;

  /// Assigns the window's compact snapshot: from the live loads' O(1)
  /// level range when the process proves the frozen snapshot is live, by a
  /// full scan of the frozen vector otherwise.
  template <typename P>
  bool assign_window_snapshot(const P& process) {
    if constexpr (live_snapshot_probed<P>) {
      if (process.snapshot_is_live()) return snapshot_.assign(process.state());
    }
    return snapshot_.assign(process.window_snapshot());
  }

  /// Balls (or events) of shard s when k split over the shards.
  [[nodiscard]] step_count shard_share(step_count k, std::size_t s) const noexcept {
    const auto shards = static_cast<step_count>(opt_.shards);
    return k / shards + (static_cast<step_count>(s) < k % shards ? 1 : 0);
  }

  /// Index of shard s's first pick in picks_: the shares of shards < s.
  [[nodiscard]] step_count shard_begin(step_count k, std::size_t s) const noexcept {
    const auto shards = static_cast<step_count>(opt_.shards);
    const auto index = static_cast<step_count>(s);
    return index * (k / shards) + std::min(index, k % shards);
  }

  /// Pool tasks a multi-shard block fans out to (thread_pool::for_each
  /// over the shards), so per-task scratch needs min(threads, shards)
  /// copies.
  [[nodiscard]] std::size_t shard_tasks() const noexcept {
    return std::min(pool_->size(), opt_.shards);
  }

  /// Task t's zeroed 16-bit scratch count row over n bins.  Users leave it
  /// zero again, re-zeroing only the bins they counted.
  std::uint16_t* scratch_row(std::size_t t, bin_count n);

  /// Sizes the multi-shard scratch for k picks over n bins: power-of-two
  /// bin ranges about one shard's share of the bins wide (at most 2^16),
  /// so there are roughly as many ranges as shards.  The range split is
  /// execution-only -- counts do not depend on it -- but depends on
  /// (n, shards) alone, so the clamp counters are thread invariant too.
  void layout_ranges(bin_count n, step_count k);

  /// Distance between two shards' bucket bounds in buckets_: the
  /// range_count_ + 1 bounds plus one cache line, so no two shards' bounds
  /// share a line while their tasks count into them.
  [[nodiscard]] std::size_t bucket_stride() const noexcept {
    return range_count_ + 1 + 64 / sizeof(std::uint32_t);
  }

  /// Bins [first, second) of bin range r.
  [[nodiscard]] std::pair<std::size_t, std::size_t> range_bounds(std::size_t r,
                                                                 bin_count n) const noexcept {
    const std::size_t lo = r << range_bits_;
    return {lo, std::min(lo + (std::size_t{1} << range_bits_), std::size_t{n})};
  }

  /// Shard s's bucket bounds: bucket r is sorted_[b[r], b[r + 1]).
  [[nodiscard]] std::uint32_t* shard_buckets(std::size_t s) noexcept {
    return buckets_.data() + s * bucket_stride();
  }

  /// Counting-sorts shard s's `count` picks at picks_[begin..) into its
  /// bin-range buckets in sorted_[begin..), each stored as its offset
  /// within the range.
  void bucket_shard(std::size_t s, step_count begin, step_count count);

  /// Zeroes range r's slice of merged_, then counts every shard's bucket r
  /// into it in shard order.  The slice is L2-resident across the shards.
  void count_range(std::size_t r, bin_count n);

  /// Runs body(r) for every bin range r as pool tasks and joins them.
  void run_ranges(const range_executor::body_fn& body) {
    range_executor(*pool_, range_count_).run(body);
  }

  /// The block skeleton of arrival windows and departure blocks alike:
  /// draws the block's one master-stream token and decides the block from
  /// it.  One shard is one `leaf(row, k, seed)` call into merged_ on the
  /// calling thread, seeded by the token itself.  S >= 2 shards are
  /// shard-claiming pool tasks: shard s runs `pick(picks, count, seed,
  /// task)` on seed shard_stream_seed(token, s), writing its decided bins
  /// into its segment of picks_, then buckets them; `settle(token)` then
  /// fills merged_ from the buckets.  `commit(exec)` finally applies
  /// merged_.  Every phase after the snapshot is booked here.
  template <typename Leaf, typename Pick, typename Settle, typename Commit>
  void run_block(rng_t& rng, bin_count n, step_count k, window_phase_times& phases, Leaf&& leaf,
                 Pick&& pick, Settle&& settle, Commit&& commit) {
    ++phases.windows;
    const std::int64_t t_kernel = engine_detail::phase_clock_ns();
    // Every stream of the block derives from this token, so no result can
    // depend on the thread count.
    const std::uint64_t token = rng.next();
    if (!pool_) {
      merged_.assign(n, 0);
      leaf(merged_.data(), k, token);
    } else {
      layout_ranges(n, k);
      // Each shard's picks and buckets land in its own segments.
      pool_->for_each(opt_.shards, [&](std::size_t s, std::size_t task) {
        const step_count begin = shard_begin(k, s);
        const step_count count = shard_share(k, s);
        if (count > 0) pick(picks_.data() + begin, count, shard_stream_seed(token, s), task);
        bucket_shard(s, begin, count);
      });
    }
    const std::int64_t t_merge = engine_detail::phase_clock_ns();
    phases.kernel_ns += t_merge - t_kernel;
    std::int64_t t_commit = t_merge;
    if (pool_) {
      merged_.resize(n);
      settle(token);
      t_commit = engine_detail::phase_clock_ns();
      phases.merge_ns += t_commit - t_merge;
    }
    // From kMinPooledCommitBins bins up the commit runs by range on the
    // pool; below, on the calling thread.
    commit(pool_ && n >= kMinPooledCommitBins ? ranges_ : range_executor{});
    phases.commit_ns += engine_detail::phase_clock_ns() - t_commit;
  }

  /// One fast-path window of `k` balls, all decided against the window
  /// snapshot; false when it cannot compact (the caller runs the window
  /// serially).
  template <window_parallel P>
  bool run_window(P& process, rng_t& rng, step_count k) {
    const std::int64_t t_snapshot = engine_detail::phase_clock_ns();
    const bool compact = assign_window_snapshot(process);
    phases_.snapshot_ns += engine_detail::phase_clock_ns() - t_snapshot;
    if (!compact) return false;
    const bin_count n = process.state().n();
    const std::uint8_t* snap = snapshot_.data();
    // Non-uniform bin sampling rides the same window machinery: leaves
    // draw their bin pairs from the model's alias table instead of the
    // uniform Lemire path.  The table is immutable for the whole window
    // (the process is not stepped while leaves run).
    const alias_table* table = nullptr;
    if constexpr (modeled_process<P>) {
      if (!process.model().sampler.is_uniform()) table = &process.model().sampler.table();
    }
    run_block(
        rng, n, k, phases_,
        [&](std::uint32_t* row, step_count balls, std::uint64_t seed) {
          if (table != nullptr) {
            kernel_run_alias(isa_, opt_.lanes, n, snap, table->thresholds(), table->aliases(),
                             row, balls, seed);
          } else {
            kernel_run(isa_, opt_.lanes, n, snap, row, balls, seed);
          }
        },
        [&](std::uint32_t* picks, step_count balls, std::uint64_t seed, std::size_t) {
          if (table != nullptr) {
            kernel_pick_alias(isa_, opt_.lanes, n, snap, table->thresholds(), table->aliases(),
                              picks, balls, seed);
          } else {
            kernel_pick(isa_, opt_.lanes, n, snap, picks, balls, seed);
          }
        },
        [&](std::uint64_t) { run_ranges([&](std::size_t r) { count_range(r, n); }); },
        [&](const range_executor& exec) { process.commit_window(merged_, k, exec); });
    return true;
  }

  /// One batched departure block of `k` events; false when the live loads
  /// cannot compact (caller falls back to the serial loop).
  ///
  /// With several shards, drain shards run the unchecked pick fill over
  /// the inverted snapshot: the kernel's per-event drained-dry check fires
  /// only once a shard alone has picked a bin more often than its capacity,
  /// so a shard whose counts stay within capacity everywhere decides
  /// exactly what kernel_depart would.  A shard that does overdraw pushes
  /// the merged count of that bin over capacity too, so the settle recounts
  /// per shard only the ranges where the clamp fired, and recomputes each
  /// overdrawn shard through the checked kernel_depart on its own seed.
  /// Random shards cannot skip the check (their acceptance test reads the
  /// shard's running counts on every attempt), so they run kernel_depart
  /// into one scratch row per pool task and emit their served bins; drain
  /// shards do the same after a heavily clamped block (drain_checked_).
  template <batch_departable P>
  bool depart_block(P& process, rng_t& rng, step_count k) {
    const bool drain =
        process.model().departures.departure_kind() == departure_model::kind::drain;
    // The drain kernel reads the inverted bytes as they are
    // (kernel_depart.hpp): one inverted assignment serves the whole block.
    const std::int64_t t_snapshot = engine_detail::phase_clock_ns();
    const bool compact =
        drain ? snapshot_.assign_inverted(process.state()) : snapshot_.assign(process.state());
    depart_phases_.snapshot_ns += engine_detail::phase_clock_ns() - t_snapshot;
    if (!compact) return false;
    const bin_count n = process.state().n();
    const std::uint8_t* snap = snapshot_.data();
    const load_t base = snapshot_.base();
    const std::uint8_t span = snapshot_.max_off();
    const depart_channel channel = drain ? depart_channel::drain : depart_channel::random;
    const weight_t w = drain ? drain_weight(process.model().weighting) : weight_t{1};
    const bool checked = !drain || drain_checked_;
    // Scratch rows are sized here, on the calling thread, never by a task.
    if (pool_ && checked) {
      for (std::size_t t = 0; t < shard_tasks(); ++t) (void)scratch_row(t, n);
    }
    run_block(
        rng, n, k, depart_phases_,
        // Cannot throw: depart_many admitted at most the resident balls, so
        // no shard's drain ever runs out of snapshot capacity.
        [&](std::uint32_t* rel, step_count events, std::uint64_t seed) {
          kernel_depart(isa_, opt_.lanes, channel, n, snap, base, span, w, rel, events, seed);
        },
        [&](std::uint32_t* picks, step_count events, std::uint64_t seed, std::size_t task) {
          if (!checked) {
            kernel_pick(isa_, opt_.lanes, n, snap, picks, events, seed);
            return;
          }
          std::uint16_t* row = scratch_rows_[task].data();
          kernel_depart(isa_, opt_.lanes, channel, n, snap, base, span, w, row, events, seed,
                        picks);
          for (step_count e = 0; e < events; ++e) row[picks[e]] = 0;
        },
        [&](std::uint64_t token) { settle_departures(channel, n, k, w, token, checked); },
        [&](const range_executor& exec) { process.commit_departures(merged_, k, exec); });
    return true;
  }

  /// The multi-shard departure settle: counts the buckets into merged_,
  /// clamps every bin to its snapshot capacity (a bin's snapshot load is
  /// base + (byte ^ mask) in either encoding), repairs the drain shards
  /// that overdrew unless the shards ran `checked`, and re-serves the
  /// clamped deficit under the kernel's re-serve law from the stream one
  /// past the shard substreams.
  void settle_departures(depart_channel channel, bin_count n, step_count k, weight_t w,
                         std::uint64_t token, bool checked);

  shard_options opt_;
  kernel_isa isa_;
  /// The workers executing shards; empty for one shard.
  std::optional<thread_pool> pool_;
  /// The current window's or block's compact snapshot.  One buffer is
  /// enough: every pool task that reads it is joined before the commit.
  compact_snapshot snapshot_;
  /// The pool as a bin-range executor, one range per shard: the commit.
  range_executor ranges_;
  /// The merged per-bin counts the process commits (with one shard, the
  /// kernel's own row).
  std::vector<std::uint32_t> merged_;
  /// Multi-shard block scratch, O(n + k) in all: every shard's decided
  /// bins in ball (or serve) order, shard s from shard_begin(k, s) on ...
  std::vector<std::uint32_t> picks_;
  /// ... the same picks bucketed by bin range, as offsets within it ...
  std::vector<std::uint16_t> sorted_;
  /// ... and each shard's range_count_ + 1 bucket bounds into sorted_,
  /// bucket_stride() apart.
  std::vector<std::uint32_t> buckets_;
  /// Bin ranges of 2^range_bits_ bins, range_count_ of them.
  unsigned range_bits_ = 0;
  std::size_t range_count_ = 0;
  /// Zeroed 16-bit count rows, one per pool task: the random channel's
  /// checked shards and the drain recompute use them (row 0 also serves
  /// the drain recount); a drain block whose clamp never fires needs none.
  std::vector<std::vector<std::uint16_t>> scratch_rows_;
  /// Per-range departure settle state: the clamped excess, and per
  /// (range, shard) whether the shard overdrew a bin there.
  std::vector<step_count> range_deficits_;
  std::vector<std::uint8_t> overdrawn_;
  /// The drain shards the current block recomputes.
  std::vector<std::size_t> redo_;
  /// Whether the next drain block's shards run the checked kernel_depart
  /// (into scratch rows, like random shards) instead of the unchecked pick
  /// fill: set when the clamp fired in more than half the previous drain
  /// block's ranges.  Such a block drains most bins near dry, so nearly
  /// every shard overdraws on its own and would be recomputed anyway.
  /// Execution-only: both fills give every shard the same served bins.
  bool drain_checked_ = false;
  window_phase_times phases_;
  window_phase_times depart_phases_;
};

}  // namespace nb
