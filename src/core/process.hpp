// The allocation-process abstraction.
//
// A process owns a load_state and knows how to allocate one ball per step
// given a source of randomness.  Concrete processes are plain value types
// (copyable, no virtual calls) so the simulation drivers can be templates
// with fully inlined hot loops; `any_process` adds type erasure for
// registry-style code.
//
// Bulk stepping: the free function `step_many(p, rng, count)` allocates
// `count` balls.  Processes that define a member `step_many(rng, count)`
// get a fused batch loop (amortized snapshot/window maintenance, hoisted
// invariants, and -- through any_process -- one indirect call per chunk
// instead of one per ball); everything else falls back to a plain loop
// over step().  Contract: a member step_many must consume randomness in
// exactly the same order as `count` calls of step(), so per-ball and bulk
// execution are bit-identical for a fixed seed (enforced by the
// step/step_many parity tests).
//
// Event streams: arrivals-only stepping is the degenerate case of the
// general traffic contract.  `advance(p, rng, traffic_spec)` interleaves
// arrivals (via step_many) with departures (via the process's depart(),
// which routes through its model's departure_model); a spec with zero
// departures IS step_many, bit for bit, so every historical stream is an
// event stream with an empty departure channel.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/alloc_model.hpp"
#include "core/kernel/kernel.hpp"
#include "core/kernel/kernel_depart.hpp"
#include "core/load_vector.hpp"
#include "rng/rng.hpp"
#include "util/thread_pool.hpp"

namespace nb {

/// The library-wide generator type.  All processes consume randomness from
/// an explicit instance of this; nothing keeps hidden RNG state.
using rng_t = xoshiro256pp;

/// A type that can allocate one ball per step.
template <typename P>
concept single_steppable = requires(P p, rng_t& g) {
  { p.step(g) } -> std::same_as<void>;
};

/// A type with a native fused bulk loop.
template <typename P>
concept bulk_steppable = requires(P p, rng_t& g, step_count c) {
  { p.step_many(g, c) } -> std::same_as<void>;
};

/// Allocates `count` balls: dispatches to the process's fused member
/// `step_many` when it has one, otherwise loops over step().  This is the
/// entry point every driver (simulate, record_trace, the bench harness)
/// uses; both paths draw randomness in the same order, so results are
/// bit-identical either way.
template <single_steppable P>
inline void step_many(P& process, rng_t& rng, step_count count) {
  NB_ASSERT(count >= 0);
  if constexpr (bulk_steppable<P>) {
    process.step_many(rng, count);
  } else {
    for (step_count t = 0; t < count; ++t) process.step(rng);
  }
}

/// Concept every allocation process satisfies.  Bulk stepping is part of
/// the contract, but via the free-function dispatcher above, so processes
/// without a native member step_many keep working through the fallback.
template <typename P>
concept allocation_process = single_steppable<P> &&
    requires(P p, const P cp, rng_t& g, step_count c) {
      { step_many(p, g, c) } -> std::same_as<void>;
      { cp.state() } -> std::convertible_to<const load_state&>;
      { p.reset() } -> std::same_as<void>;
      { cp.name() } -> std::convertible_to<std::string>;
    };

/// A process whose full mid-run state can be serialized and restored.
/// Contract (the whole-simulation generalization of the RNG
/// save/draw/restore/identical-next-draw contract): after
///
///   p.save_checkpoint(w);  ...arbitrary further stepping of p...
///   q.restore_checkpoint(r)   // q freshly constructed with the SAME
///                             // configuration (n, params, model)
///
/// q is indistinguishable from p at the moment of the save -- stepping q
/// and the saved-state p with identical randomness produces bit-identical
/// results.  save_checkpoint must capture every mutable member (loads,
/// ball counts, delay rings, batch snapshots, cached Gaussian halves);
/// configuration (n, process parameters, the alloc_model) is NOT written
/// -- it is the caller's job to rebuild the process from its spec first,
/// and restore_checkpoint must validate sizes against it (throwing
/// nb::contract_error on mismatch, never reading out of bounds).
template <typename P>
concept checkpointable_process = allocation_process<P> &&
    requires(P p, const P cp, state_writer& w, state_reader& r) {
      { cp.save_checkpoint(w) } -> std::same_as<void>;
      { p.restore_checkpoint(r) } -> std::same_as<void>;
    };

/// Samples one bin uniformly at random (One-Choice primitive).
inline bin_index sample_bin(rng_t& rng, bin_count n) {
  return static_cast<bin_index>(bounded(rng, n));
}

// ---------------------------------------------------------------------------
// The generalized (weighting, sampler) contract.
//
// Every library process carries an alloc_model (core/alloc_model.hpp) and
// threads it through its step/step_many loops: bin samples go through the
// model's bin_sampler (uniform = the historical nb::bounded stream, bit
// for bit) and each placed ball deposits the model's ball weight (unit =
// the historical allocate(), drawing no randomness).  Draw order is part
// of the sampling contract: all of a ball's *bin* draws come first, the
// *weight* draw (if the weighting is random) comes after the placement
// decision, immediately before the deposit.

/// A process that exposes the generalized allocation model.  set_model is
/// a configuration call (pre-run); swapping models mid-run is legal but
/// changes the sampling contract from that ball on.
template <typename P>
concept modeled_process = requires(P p, const P cp, alloc_model m) {
  { cp.model() } -> std::convertible_to<const alloc_model&>;
  { p.set_model(m) } -> std::same_as<void>;
};

/// Deposits one decided ball and returns its weight: the unit fast path
/// is the historical allocate(i); weighted models draw the ball's weight
/// (after every bin draw of the step, per the contract above) and take
/// the guarded weighted path.  The returned weight feeds processes whose
/// bookkeeping is weight-denominated (e.g. tau-Delay's hidden-allocation
/// window); most callers ignore it.
inline weight_t deposit(load_state& state, const ball_weighting& weighting, bin_index i,
                        rng_t& rng) {
  if (weighting.is_unit()) {
    state.allocate(i);
    return 1;
  }
  const weight_t w = weighting.draw(rng);
  state.allocate(i, w);
  return w;
}

/// Installs a model on a process: validates it against the state's bin
/// count, switches lease tracking on/off to match the departure channel
/// (enabling requires an empty state, so lease models must be installed
/// before the first arrival), and moves the model into the process's
/// slot.  Every library process's set_model is this one call.
inline void install_model(load_state& state, alloc_model& slot, alloc_model m) {
  check_model(m, state.n());
  state.set_lease_tracking(m.departures.is_lease());
  slot = std::move(m);
}

/// The weight one drain departure retires under `weighting`: the fixed
/// per-ball weight for deterministic non-unit weightings (every resident
/// ball carries exactly that weight, so the departing ball's actual
/// weight is known), one load unit otherwise -- trivially under unit
/// weights, and under RNG-drawn weightings because the load vector
/// cannot recover which weight draw landed where.
[[nodiscard]] inline weight_t drain_weight(const ball_weighting& weighting) {
  return !weighting.is_unit() && !weighting.is_random() ? weighting.fixed_weight() : 1;
}

/// Removes one departure event's worth of load from `state` per the
/// model's departure channel, and returns the bin it left (processes that
/// keep a stale view record it, so the departure becomes visible at their
/// next refresh).  The departure counterpart of deposit(): every library
/// process's depart() delegates here, so the three channel laws live in
/// exactly one place.
///
///   * random -- one resident load unit uniformly at random: rejection-
///     sample (bin draw, acceptance draw) pairs until a draw lands on
///     resident load.  Uniform over balls under unit weights and weight-
///     proportional otherwise; releases a unit quantum, mirroring how
///     unit arrivals deposit one.
///   * lease -- FIFO expiry: the oldest resident ball departs whole, at
///     its recorded arrival weight (load_state's lease ring).
///   * drain -- weighted two-choice in reverse: sample two bins, release
///     one departing ball's weight (drain_weight above) from the FULLER
///     one that can cover it (ties broken by the next draw's top bit,
///     mirroring the arrival tie-break; pairs where neither bin covers
///     the weight redraw).  Under the unit law this is exactly the
///     historical "release a unit from the fuller non-empty bin", bit
///     for bit; a bin whose load cannot cover the fixed weight (a state
///     the fixed weighting never produces) trips release()'s underflow
///     contract error, naming the bin and the weight.
///
/// Draw order is part of the sampling contract exactly like arrivals:
/// each channel's draws above are exhaustive and consumed in the order
/// listed, so per-event and interleaved execution are bit-identical.
inline bin_index depart_ball(load_state& state, const alloc_model& model, rng_t& rng) {
  const departure_model& departures = model.departures;
  NB_REQUIRE(!departures.is_none(),
             "depart() needs a departure channel, but the model's departure_model is 'none'");
  NB_REQUIRE(state.balls() > 0, "depart() with no resident balls");
  const bin_count n = state.n();
  const auto& loads = state.loads();
  switch (departures.departure_kind()) {
    case departure_model::kind::none:
      break;
    case departure_model::kind::random: {
      // Acceptance bound hoisted: the maximum cannot change while we
      // reject, and in the degraded wide-span regime max_load() is an
      // O(n) scan we must not repeat per attempt.
      const auto bound = static_cast<std::uint64_t>(state.max_load());
      for (;;) {
        const auto j = static_cast<bin_index>(bounded(rng, n));
        if (bounded(rng, bound) < static_cast<std::uint64_t>(loads[j])) {
          state.release(j);
          return j;
        }
      }
    }
    case departure_model::kind::lease:
      return state.release_oldest();
    case departure_model::kind::drain: {
      const weight_t w = drain_weight(model.weighting);
      for (;;) {
        const auto i = static_cast<bin_index>(bounded(rng, n));
        const auto j = static_cast<bin_index>(bounded(rng, n));
        const load_t li = loads[i];
        const load_t lj = loads[j];
        if (static_cast<weight_t>(li) < w && static_cast<weight_t>(lj) < w) continue;
        bin_index chosen;
        if (li != lj) {
          chosen = li > lj ? i : j;
        } else {
          chosen = (rng.next() >> 63) != 0 ? i : j;
        }
        state.release(chosen, w);
        return chosen;
      }
    }
  }
  return 0;  // kind::none: unreachable, guarded above
}

/// A process that can serve one departure event.
template <typename P>
concept departable_process = requires(P p, rng_t& g) {
  { p.depart(g) } -> std::same_as<void>;
};

/// Serves `count` departure events through the process's per-event
/// depart() -- the serial reference law batched paths are measured
/// against.  The per-event stream here IS the historical one, bit for
/// bit; the engines' depart_many draws different (identically
/// distributed) randomness, exactly like their step_many.
template <departable_process P>
inline void depart_many(P& process, rng_t& rng, step_count count) {
  NB_ASSERT(count >= 0);
  for (step_count t = 0; t < count; ++t) process.depart(rng);
}

/// Applies one merged departure block to `state` -- the bulk counterpart
/// of depart_ball, shared by every process's commit_departures.  The
/// lease channel expires the k oldest balls through the ring (RNG-free,
/// bit-identical to k per-event departures; `rel` is ignored); drain and
/// random apply a departure kernel's per-bin counts in one validated
/// pass, retiring the drain weight (resp. unit quanta) per departing
/// ball with release()'s contract-error vocabulary on any overdraw.
/// Those passes run by bin range through `exec` (load_state::
/// apply_releases); the lease pop is inherently sequential.
inline void apply_departure_block(load_state& state, const alloc_model& model,
                                  const std::vector<std::uint32_t>& rel, step_count k,
                                  const range_executor& exec = {}) {
  const departure_model& departures = model.departures;
  NB_REQUIRE(!departures.is_none(),
             "commit_departures needs a departure channel, but the model's "
             "departure_model is 'none'");
  switch (departures.departure_kind()) {
    case departure_model::kind::none:
      return;  // unreachable: guarded above
    case departure_model::kind::lease:
      for (step_count t = 0; t < k; ++t) state.release_oldest();
      return;
    case departure_model::kind::drain:
      state.apply_releases(rel, drain_weight(model.weighting), k, exec);
      return;
    case departure_model::kind::random:
      state.apply_releases(rel, 1, k, exec);
      return;
  }
}

/// A process whose departures can be served in merged blocks: it exposes
/// its model (the engines route on the departure channel) and applies a
/// per-bin departure-count row in one commit, its O(n) passes run by bin
/// range through the caller's executor (default: one range on the calling
/// thread).  Every library process implements commit_departures via
/// apply_departure_block.
template <typename P>
concept batch_departable = departable_process<P> && modeled_process<P> &&
    requires(P p, const std::vector<std::uint32_t>& rel, step_count k,
             const range_executor& exec) {
      { p.commit_departures(rel, k) } -> std::same_as<void>;
      { p.commit_departures(rel, k, exec) } -> std::same_as<void>;
    };

/// An arrival/departure mix for advance(): `arrivals` balls arrive and
/// `departures` events depart, spread evenly across the stream.
struct traffic_spec {
  step_count arrivals = 0;
  step_count departures = 0;
  /// Departure granularity: departures are served in blocks of up to
  /// `grain` events, the arrival stream cut at the block boundaries
  /// (Bresenham over blocks instead of single events).  <= 1 reproduces
  /// the historical per-event interleave bit for bit.  Coarser grains
  /// are a declared sampling-contract parameter -- they regroup the
  /// stream's draw order -- and exist so engine-batched departure paths
  /// see blocks big enough to amortize (window granularity, e.g. the
  /// churn cycle length).
  step_count grain = 1;
};

/// Runs an event stream through `process`: departures are spread evenly
/// across the arrivals (Bresenham interleave, arrivals first within each
/// slice), each arrival slice going through the bulk step_many dispatcher
/// so fused loops and engines keep their speed under churn.  A spec with
/// departures == 0 is EXACTLY step_many(process, rng, arrivals) -- same
/// call, same draws, bit-identical to every historical stream.
template <single_steppable P>
  requires departable_process<P>
inline void advance(P& process, rng_t& rng, const traffic_spec& traffic) {
  const step_count a = traffic.arrivals;
  const step_count d = traffic.departures;
  const step_count g = traffic.grain > 1 ? traffic.grain : 1;
  NB_ASSERT(a >= 0 && d >= 0);
  if (d == 0) {
    nb::step_many(process, rng, a);
    return;
  }
  step_count placed = 0;
  for (step_count served = 0; served < d;) {
    const step_count block = g < d - served ? g : d - served;
    // The block ends after floor(a*(served+block)/d) arrivals; with
    // grain <= 1 this is the historical per-event Bresenham slice.
    // a,d <= max_run_balls keeps the product well inside int64.
    const step_count upto = a * (served + block) / d;
    nb::step_many(process, rng, upto - placed);
    placed = upto;
    nb::depart_many(process, rng, block);
    served += block;
  }
}

// ---------------------------------------------------------------------------
// The windowed engine.
//
// In the paper's batched/delayed settings every allocation decision inside
// one stale-snapshot window depends only on state frozen at the window
// start, so the window's balls are embarrassingly parallel.  A process that
// can expose such windows implements the window_parallel contract below;
// shard_engine then runs each large enough window through the
// lane-interleaved allocation kernel (core/kernel/) with one master-stream
// token per window.  The shard count picks the leaf body:
//   * one shard: the whole window is one kernel call into one uint32 row
//     seeded by the token itself (lane l draws from derive_seed(token, l)),
//     committed on the calling thread -- no pool, no merge;
//   * S >= 2 shards: the window splits into S fixed shards, shard s draws
//     from the substream shard_stream_seed(token, s) into its own uint16
//     row, a worker pool executes the shards, and the rows merge in fixed
//     shard order.
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

/// A process that can at least *report* whether its upcoming decisions are
/// frozen against a stale snapshot.  tau-Delay models only this probe (its
/// sliding window advances every step, so the answer is always 0 balls);
/// b-Batch models the full window_parallel contract.
template <typename P>
concept window_probed = requires(const P p) {
  { p.snapshot_window() } -> std::convertible_to<step_count>;
};

/// Full intra-run window-parallel contract:
///   * snapshot_window(): how many upcoming balls decide against frozen
///     state (0 = none; the engine falls back to the serial fused loop),
///   * window_snapshot(): the frozen loads those decisions read,
///   * `static constexpr bool kernel_min_select = true`: the decision rule
///     is the canonical two-sample min rule the kernel implements ("less
///     loaded of the two sampled bins, ties broken by the next draw's top
///     bit"; cross-checked against the process's own rule by the kernel
///     test suite),
///   * commit_window(inc, balls[, exec]): apply the merged per-bin
///     increments and refresh whatever the process keeps stale (inc[i]
///     balls into bin i, sum(inc) == balls == the window length the engine
///     ran), its O(n) passes run by bin range through `exec` (default: one
///     range on the calling thread).
///
/// Optionally, snapshot_is_live() proves the window snapshot equals the
/// live loads right now (b-Batch right after a boundary commit); the
/// engine then ranges the compact snapshot from the level index in O(1)
/// instead of scanning the frozen vector (see live_snapshot_probed).
template <typename P>
concept window_parallel = allocation_process<P> && window_probed<P> &&
    requires(P p, const P cp, const std::vector<std::uint32_t>& inc, step_count k,
             const range_executor& exec) {
      requires P::kernel_min_select;
      { cp.window_snapshot() } -> std::convertible_to<const std::vector<load_t>&>;
      { p.commit_window(inc, k) } -> std::same_as<void>;
      { p.commit_window(inc, k, exec) } -> std::same_as<void>;
    };

/// A window-parallel process that can prove its window snapshot is the
/// live load vector.  Execution-only: the compact snapshot's bytes are the
/// same either way, only the range scan is skipped.
template <typename P>
concept live_snapshot_probed = requires(const P p) {
  { p.snapshot_is_live() } -> std::convertible_to<bool>;
};

/// Execution-only wall time the engine spent in the phases of its
/// fast-path windows, summed over `windows` windows: compact snapshot
/// assignment, sampling (row/counter zeroing plus the kernel or shard
/// fan-out), the fixed-order shard-row merge (0 with one shard) and the
/// process's commit_window.  The engine books its departure blocks into a
/// second record of the same shape (`windows` counts blocks, merge is the
/// shard-row merge + clamp + repair, commit is commit_departures).  Never
/// read by the sampling code.
struct window_phase_times {
  step_count windows = 0;
  std::int64_t snapshot_ns = 0;
  std::int64_t kernel_ns = 0;
  std::int64_t merge_ns = 0;
  std::int64_t commit_ns = 0;
};

namespace engine_detail {

/// Monotonic nanoseconds for window_phase_times.
inline std::int64_t phase_clock_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace engine_detail

/// A range_executor running its `ranges` bin ranges as tasks on `pool` and
/// returning once they finished.  It joins through wait_idle, so work
/// queued on the pool ahead of it is waited for too: queue deferred work
/// after the pass, not before.
inline range_executor pool_ranges(thread_pool& pool, std::size_t ranges) {
  return range_executor(ranges,
                        [&pool](std::size_t count, const range_executor::body_fn& body) {
                          for (std::size_t r = 0; r < count; ++r) {
                            pool.submit([&body, r] { body(r); });
                          }
                          pool.wait_idle();
                        });
}

/// Configuration of the windowed engine.  `shards` and `lanes` are part of
/// the sampling contract (they decide which streams exist and hence the
/// drawn randomness); `threads` and `isa` are execution only and never
/// affect results.
struct shard_options {
  /// Pool workers; 0 = one per hardware core.  Only a multi-shard engine
  /// has a pool: one shard always runs on the calling thread.
  std::size_t threads = 0;
  /// Fixed shard count per window.  1 is the serial SIMD engine; for more,
  /// keep it >= the largest thread count you will run with (the default
  /// covers typical desktops/CI runners).
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

class any_process;

/// The windowed batch engine.  Owns the per-window scratch (compact
/// snapshot, count rows) and, with two or more shards, the worker pool, so
/// one engine instance amortizes both across all windows of a run --
/// create it once per run (or reuse across runs of the same
/// configuration).
class shard_engine {
 public:
  explicit shard_engine(shard_options opt = {})
      : opt_(opt), isa_(resolve_kernel_isa(opt.isa)) {
    NB_REQUIRE(opt.shards >= 1, "need at least one shard");
    NB_REQUIRE(opt.min_window >= 1, "min_window must be positive");
    NB_REQUIRE(opt.lanes >= 1 && opt.lanes <= kernel_max_lanes,
               "kernel lanes must be in [1, kernel_max_lanes]");
    if (opt.shards > 1) {
      pool_.emplace(opt.threads);
      ranges_ = pool_ranges(*pool_, opt.shards);
      // More workers than hardware threads only time-slices (results are
      // thread-count-independent by contract, so oversubscribing buys
      // nothing); this is the threads_per_run > cores trap, say so once.
      warn_if_oversubscribed(pool_->size(), "shard-engine threads_per_run");
    }
  }

  /// Deferred row clears may still be queued on the pool; they touch
  /// deltas_, which is destroyed before pool_ (reverse declaration
  /// order), so join them first.
  ~shard_engine() {
    if (pool_) pool_->wait_idle();
  }

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
        if (k < opt_.min_window || k * 4 < n) {
          nb::step_many(process, rng, k);
        } else {
          compact_snapshot& snapshot = next_snapshot();
          const std::int64_t t0 = engine_detail::phase_clock_ns();
          const bool compact = assign_window_snapshot(snapshot, process);
          phases_.snapshot_ns += engine_detail::phase_clock_ns() - t0;
          if (compact) {
            ++phases_.windows;
            run_window(process, rng, k, snapshot);
          } else {
            nb::step_many(process, rng, k);
          }
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
  /// shard_stream_seed(token, s) into its own uint16 row; shards
  /// capacity-check against the shared snapshot with only their OWN
  /// counts, so the merged row can overdraw a bin, and the merge clamps
  /// each bin to its snapshot capacity and re-serves the deficit from the
  /// dedicated scalar stream rng_t(derive_seed(token, shards)) under the
  /// serial channel law over remaining loads -- deterministic, and
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
  /// the wrapped concrete type behind it (defined after any_process).
  void step_many(any_process& process, rng_t& rng, step_count count);
  void depart_many(any_process& process, rng_t& rng, step_count count);

 private:
  /// Fewest bins whose commit runs by range on the pool (commit_and_clear).
  /// Below it the pool round trips of the commit's passes cost more than
  /// they split.  Measured with bench/throughput.cpp --scale (b-Batch b = n,
  /// 4 threads, 16 shards, drain churn at 8n) on a 4-core AVX-512 Xeon VM,
  /// median of 5 alternating runs, shard / churn-shard events per second,
  /// pooled vs calling-thread commit: 2^14 bins 3.4e7 / 3.1e7 vs 6.1e7 /
  /// 6.1e7; 2^16 bins 5.5e7 / 5.3e7 vs 6.8e7 / 8.6e7; 2^17 bins 1.29e8 /
  /// 1.05e8 vs 1.20e8 / 1.04e8; 2^18 bins 1.35e8 / 1.16e8 vs 1.30e8 /
  /// 1.07e8.
  static constexpr bin_count kMinPooledCommitBins = bin_count{1} << 17;

  /// Largest window/block one call serves: a shard that routed every one
  /// of its balls into a single bin must not overflow its 16-bit row, so
  /// multi-shard windows split deterministically (the cap depends only on
  /// the shard count, never on threads).  One shard counts into uint32
  /// and a run is bounded by max_run_balls anyway.
  [[nodiscard]] step_count block_cap() const noexcept {
    return pool_ ? static_cast<step_count>(opt_.shards) * shard_deltas::max_row_count
                 : max_run_balls;
  }

  /// The compact snapshot to assign next.  With a pool the two buffers
  /// alternate, so assigning window k+1's snapshot on the master thread
  /// never races pool work still in flight from window k (today the
  /// deferred row clears; the swap makes any such overlap safe by
  /// construction).  One shard reuses the first buffer.
  compact_snapshot& next_snapshot() noexcept {
    if (pool_) snapshot_index_ ^= 1;
    return snapshots_[snapshot_index_];
  }

  /// Assigns the window's compact snapshot: from the live loads' O(1)
  /// level range when the process proves the frozen snapshot is live, by a
  /// full scan of the frozen vector otherwise.
  template <typename P>
  static bool assign_window_snapshot(compact_snapshot& snapshot, const P& process) {
    if constexpr (live_snapshot_probed<P>) {
      if (process.snapshot_is_live()) return snapshot.assign(process.state());
    }
    return snapshot.assign(process.window_snapshot());
  }

  /// Leaf body: `balls` kernel decisions against `snap`, counted into
  /// `row`, lane streams derived from `seed`.  Non-uniform samplers take
  /// the kernel's alias lane path.
  template <typename Row>
  void run_leaf(bin_count n, const std::uint8_t* snap, const alias_table* table, Row* row,
                step_count balls, std::uint64_t seed) const {
    if (table != nullptr) {
      kernel_run_alias(isa_, opt_.lanes, n, snap, table->thresholds(), table->aliases(), row,
                       balls, seed);
    } else {
      kernel_run(isa_, opt_.lanes, n, snap, row, balls, seed);
    }
  }

  /// Balls (or events) of shard s when k split over the shards.
  [[nodiscard]] step_count shard_share(step_count k, std::size_t s) const noexcept {
    const auto shards = static_cast<step_count>(opt_.shards);
    return k / shards + (static_cast<step_count>(s) < k % shards ? 1 : 0);
  }

  /// Makes the delta rows fit (shards, n) after joining the previous
  /// window's deferred clears; returns whether every row is already zero.
  bool prepare_rows(bin_count n) {
    drain_deferred_clears();
    if (deltas_.shards() != opt_.shards || deltas_.bins() != n) {
      deltas_.reset(opt_.shards, n);
      rows_clean_ = true;
    }
    return rows_clean_;
  }

  /// One fast-path window of `k` balls, all decided against `snapshot`.
  template <window_parallel P>
  void run_window(P& process, rng_t& rng, step_count k, const compact_snapshot& snapshot) {
    const bin_count n = process.state().n();
    // Non-uniform bin sampling rides the same window machinery: leaves
    // draw their bin pairs from the model's alias table instead of the
    // uniform Lemire path.  The table is immutable for the whole window
    // (the process is not stepped while leaves run).
    const alias_table* table = nullptr;
    if constexpr (modeled_process<P>) {
      if (!process.model().sampler.is_uniform()) table = &process.model().sampler.table();
    }
    const std::uint8_t* snap = snapshot.data();
    const std::int64_t t_kernel = engine_detail::phase_clock_ns();
    if (!pool_) {
      // One master-stream draw per window seeds the whole window.
      const std::uint64_t token = rng.next();
      merged_.assign(n, 0);
      run_leaf(n, snap, table, merged_.data(), k, token);
      const std::int64_t t_commit = engine_detail::phase_clock_ns();
      phases_.kernel_ns += t_commit - t_kernel;
      process.commit_window(merged_, k);
      phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
      return;
    }
    // rows_clean: the previous window's clears already zeroed every row
    // (the steady state), so shard tasks skip the redundant re-clear; the
    // first window after a geometry change is clean via reset().
    const bool clean = prepare_rows(n);
    // One draw from the master stream per window; every shard substream
    // derives from this token, so shard results cannot depend on threads.
    const std::uint64_t token = rng.next();
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      const step_count shard_balls = shard_share(k, s);
      std::uint16_t* row = deltas_.row(s);
      if (shard_balls == 0) {
        // Ball-less shard (k < shards): its row still feeds the merge, so
        // make sure no counts linger from the previous window.
        if (!clean) deltas_.clear_row(s);
        continue;
      }
      pool_->submit([this, n, snap, table, row, shard_balls, clean,
                     seed = shard_stream_seed(token, s)] {
        if (!clean) std::fill_n(row, n, std::uint16_t{0});
        run_leaf(n, snap, table, row, shard_balls, seed);
      });
    }
    pool_->wait_idle();
    rows_clean_ = false;
    const std::int64_t t_merge = engine_detail::phase_clock_ns();
    phases_.kernel_ns += t_merge - t_kernel;
    // Merge: fixed shard order per bin, bin ranges summed concurrently
    // (disjoint, so still deterministic).
    merged_.resize(n);
    ranges_.run([&](std::size_t r) {
      const auto [lo, hi] = ranges_.bounds(r, n);
      deltas_.sum_rows(merged_, static_cast<bin_index>(lo), static_cast<bin_index>(hi));
    });
    const std::int64_t t_commit = engine_detail::phase_clock_ns();
    phases_.merge_ns += t_commit - t_merge;
    commit_and_clear(n, [&](const range_executor& exec) {
      process.commit_window(merged_, k, exec);
      phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
    });
  }

  /// One batched departure block of `k` events; false when the live loads
  /// cannot compact (caller falls back to the serial loop).
  template <batch_departable P>
  bool depart_block(P& process, rng_t& rng, step_count k) {
    const std::int64_t t_snapshot = engine_detail::phase_clock_ns();
    compact_snapshot& snapshot = next_snapshot();
    const bool drain =
        process.model().departures.departure_kind() == departure_model::kind::drain;
    // The drain kernel reads the inverted bytes as they are
    // (kernel_depart.hpp): one inverted assignment serves the whole block.
    const bool compact =
        drain ? snapshot.assign_inverted(process.state()) : snapshot.assign(process.state());
    const std::int64_t t_kernel = engine_detail::phase_clock_ns();
    depart_phases_.snapshot_ns += t_kernel - t_snapshot;
    if (!compact) return false;
    ++depart_phases_.windows;
    const bin_count n = process.state().n();
    const std::uint8_t* snap = snapshot.data();
    const load_t base = snapshot.base();
    const std::uint8_t span = snapshot.max_off();
    const depart_channel channel = drain ? depart_channel::drain : depart_channel::random;
    const weight_t w = drain ? drain_weight(process.model().weighting) : weight_t{1};
    if (!pool_) {
      // One shard never overdraws: the kernel's own capacity fold keeps
      // every count within its bin, so there is nothing to clamp.
      const std::uint64_t token = rng.next();
      merged_.assign(n, 0);
      kernel_depart(isa_, opt_.lanes, channel, n, snap, base, span, w, merged_.data(), k, token);
      const std::int64_t t_commit = engine_detail::phase_clock_ns();
      depart_phases_.kernel_ns += t_commit - t_kernel;
      process.commit_departures(merged_, k);
      depart_phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
      return true;
    }
    const std::size_t shards = opt_.shards;
    const bool clean = prepare_rows(n);
    const std::uint64_t token = rng.next();
    for (std::size_t s = 0; s < shards; ++s) {
      const step_count shard_events = shard_share(k, s);
      std::uint16_t* row = deltas_.row(s);
      if (shard_events == 0) {
        if (!clean) deltas_.clear_row(s);
        continue;
      }
      // Cannot throw: depart_many admitted at most the resident balls, so
      // no shard's drain ever runs out of snapshot capacity.
      pool_->submit([n, snap, base, span, channel, w, row, shard_events, clean,
                     seed = shard_stream_seed(token, s), lanes = opt_.lanes, isa = isa_] {
        if (!clean) std::fill_n(row, n, std::uint16_t{0});
        kernel_depart(isa, lanes, channel, n, snap, base, span, w, row, shard_events, seed);
      });
    }
    pool_->wait_idle();
    rows_clean_ = false;
    const std::int64_t t_merge = engine_detail::phase_clock_ns();
    depart_phases_.kernel_ns += t_merge - t_kernel;
    // Merge and clamp, by bin range on the pool: each shard guarded only
    // its own counts, so the merged row may overdraw a bin.  Every range
    // sums its bins in fixed shard order, clamps each to its snapshot
    // capacity and books its clamped total.  A bin's snapshot load is
    // base + (byte ^ mask) in either snapshot encoding.
    const std::uint8_t mask = drain ? 0xFF : 0;
    merged_.resize(n);
    range_totals_.assign(ranges_.ranges(), 0);
    ranges_.run([&](std::size_t r) {
      const auto [lo, hi] = ranges_.bounds(r, n);
      deltas_.sum_rows(merged_, static_cast<bin_index>(lo), static_cast<bin_index>(hi));
      step_count total = 0;
      for (std::size_t i = lo; i < hi; ++i) {
        // Unit weights skip the 64-bit division: per bin it costs more
        // than the rest of this pass together.
        const weight_t load = static_cast<weight_t>(base) + (snap[i] ^ mask);
        const auto capacity = static_cast<std::uint32_t>(w == 1 ? load : load / w);
        if (merged_[i] > capacity) merged_[i] = capacity;
        total += merged_[i];
      }
      range_totals_[r] = total;
    });
    step_count total = 0;
    for (const step_count t : range_totals_) total += t;
    // Repair: re-serve the clamped deficit serially from the stream one
    // past the shard substreams -- the same law the kernel's drain replay
    // uses, here over the merged remaining loads.
    const auto remaining = [&](bin_index c) -> weight_t {
      return static_cast<weight_t>(base) + (snap[c] ^ mask) -
             static_cast<weight_t>(merged_[c]) * w;
    };
    if (total < k) {
      rng_t repair(derive_seed(token, shards));
      const std::uint64_t bound = static_cast<std::uint64_t>(base) + span;
      for (step_count t = total; t < k; ++t) {
        if (!drain) {  // random: rejection-sample over remaining load
          for (;;) {
            const auto j = static_cast<bin_index>(bounded(repair, n));
            if (bounded(repair, bound) < static_cast<std::uint64_t>(remaining(j))) {
              ++merged_[j];
              break;
            }
          }
          continue;
        }
        int attempts = 0;
        for (;;) {
          if (++attempts > 4096) {  // deterministic fullest-bin fallback
            bin_index best = 0;
            weight_t best_rem = remaining(0);
            for (bin_index i = 1; i < n; ++i) {
              const weight_t r = remaining(i);
              if (r > best_rem) {
                best = i;
                best_rem = r;
              }
            }
            NB_REQUIRE(best_rem >= w, "drain departure block cannot retire weight " +
                                          std::to_string(w) +
                                          ": no bin's remaining load covers it");
            ++merged_[best];
            break;
          }
          const auto i = static_cast<bin_index>(bounded(repair, n));
          const auto j = static_cast<bin_index>(bounded(repair, n));
          const weight_t ri = remaining(i);
          const weight_t rj = remaining(j);
          if (ri < w && rj < w) continue;
          const bin_index c =
              ri != rj ? (ri > rj ? i : j) : ((repair.next() >> 63) != 0 ? i : j);
          ++merged_[c];
          break;
        }
      }
    }
    const std::int64_t t_commit = engine_detail::phase_clock_ns();
    depart_phases_.merge_ns += t_commit - t_merge;
    commit_and_clear(n, [&](const range_executor& exec) {
      process.commit_departures(merged_, k, exec);
      depart_phases_.commit_ns += engine_detail::phase_clock_ns() - t_commit;
    });
    return true;
  }

  /// Runs `commit(exec)` over n bins and queues the next window's row
  /// clears (~2n bytes per shard of stores) on the pool around it.  From
  /// kMinPooledCommitBins bins up the commit runs by range on the pool and
  /// the clears go AFTER it: its range tasks join through wait_idle, so
  /// clears queued ahead would hold it back, and they overlap the master
  /// thread's next snapshot assignment instead.  Below that the commit
  /// runs on the calling thread with the clears queued first, overlapping
  /// it.
  template <typename Commit>
  void commit_and_clear(bin_count n, Commit&& commit) {
    if (n < kMinPooledCommitBins) {
      queue_row_clears();
      commit(range_executor{});
    } else {
      commit(ranges_);
      queue_row_clears();
    }
  }

  /// Queues the next window's row clears on the pool.
  void queue_row_clears() {
    for (std::size_t s = 0; s < deltas_.shards(); ++s) {
      pool_->submit([this, s] { deltas_.clear_row(s); });
    }
    clears_pending_ = true;
  }

  /// Joins the deferred row clears of the previous window (no-op in the
  /// common case where the pool already drained them while the master
  /// thread was busy committing / assigning the next snapshot).
  void drain_deferred_clears() {
    if (!clears_pending_) return;
    pool_->wait_idle();
    clears_pending_ = false;
    rows_clean_ = true;
  }

  shard_options opt_;
  kernel_isa isa_;
  /// The workers executing shards; empty for one shard.
  std::optional<thread_pool> pool_;
  /// Two snapshot buffers, alternated per window with a pool (see
  /// next_snapshot); one shard only ever assigns the first.
  compact_snapshot snapshots_[2];
  std::size_t snapshot_index_ = 0;
  /// The pool as a bin-range executor, one range per shard: the merge
  /// (and departure clamp) pass and the commit.
  range_executor ranges_;
  shard_deltas deltas_;
  /// The merged per-bin counts the process commits (with one shard, the
  /// kernel's own row).
  std::vector<std::uint32_t> merged_;
  /// Per-range clamped departure totals of the current block.
  std::vector<step_count> range_totals_;
  window_phase_times phases_;
  window_phase_times depart_phases_;
  /// Deferred-clear state: true while the previous window's row-clear
  /// tasks may still be on the pool / once they finished, respectively.
  bool clears_pending_ = false;
  bool rows_clean_ = false;
};

/// Type-erased handle so heterogeneous processes can share registries,
/// factories and driver code.  Copy = deep clone.
class any_process {
 public:
  template <allocation_process P>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit wrap is the point.
  any_process(P process) : impl_(std::make_unique<model_t<P>>(std::move(process))) {}

  any_process(const any_process& other) : impl_(other.impl_->clone()) {}
  any_process& operator=(const any_process& other) {
    if (this != &other) impl_ = other.impl_->clone();
    return *this;
  }
  any_process(any_process&&) noexcept = default;
  any_process& operator=(any_process&&) noexcept = default;

  void step(rng_t& rng) { impl_->step(rng); }
  /// One indirect call for the whole chunk; the wrapped process's fused
  /// loop (or the fallback loop) runs fully inlined behind it.
  void step_many(rng_t& rng, step_count count) { impl_->step_many(rng, count); }
  /// One indirect call per chunk into the windowed engine: window-parallel
  /// wrapped types run their windows through it, everything else takes the
  /// serial fused loop -- same dispatch as the template path, behind type
  /// erasure.
  void step_many(rng_t& rng, step_count count, shard_engine& engine) {
    impl_->step_many(rng, count, engine);
  }
  /// One departure event through the wrapped process's channel.  Throws
  /// contract_error when the wrapped type is not departable (pre-churn
  /// process types that never adopted depart()).
  void depart(rng_t& rng) { impl_->depart(rng); }
  /// `count` departure events through the wrapped process's serial
  /// per-event loop -- one indirect call for the whole block.
  void depart_many(rng_t& rng, step_count count) { impl_->depart_many(rng, count); }
  /// Same, through the windowed engine's batched departure path
  /// (batch-departable wrapped types; everything else falls back to the
  /// serial per-event loop inside the engine).
  void depart_many(rng_t& rng, step_count count, shard_engine& engine) {
    impl_->depart_many(rng, count, engine);
  }
  [[nodiscard]] const load_state& state() const { return impl_->state(); }
  void reset() { impl_->reset(); }
  [[nodiscard]] std::string name() const { return impl_->name(); }
  /// Generalized-model plumbing: forwards to the wrapped process when it
  /// models the (weighting, sampler) contract; otherwise only the default
  /// unit/uniform model is accepted (anything else is a configuration
  /// error the caller must hear about).
  void set_model(alloc_model m) { impl_->set_model(std::move(m)); }
  [[nodiscard]] const alloc_model& model() const { return impl_->model(); }
  /// Checkpoint plumbing behind the erasure.  checkpointable() probes the
  /// wrapped type; save/restore on a non-checkpointable process throws
  /// contract_error (drivers probe first and degrade to checkpoint-free
  /// execution with a diagnostic).
  [[nodiscard]] bool checkpointable() const noexcept { return impl_->checkpointable(); }
  void save_checkpoint(state_writer& w) const { impl_->save_checkpoint(w); }
  void restore_checkpoint(state_reader& r) { impl_->restore_checkpoint(r); }
  /// Window probe for checkpoint cadence: balls until the wrapped
  /// process's next stale-snapshot window boundary (0 = no frozen window,
  /// any cut is a boundary).  Checkpoint cuts aligned to this leave the
  /// engines' window sequence -- and therefore the results -- unchanged.
  [[nodiscard]] step_count snapshot_window() const { return impl_->snapshot_window(); }

 private:
  struct base {
    virtual ~base() = default;
    virtual void step(rng_t&) = 0;
    virtual void step_many(rng_t&, step_count) = 0;
    virtual void step_many(rng_t&, step_count, shard_engine&) = 0;
    virtual void depart(rng_t&) = 0;
    virtual void depart_many(rng_t&, step_count) = 0;
    virtual void depart_many(rng_t&, step_count, shard_engine&) = 0;
    [[nodiscard]] virtual const load_state& state() const = 0;
    virtual void reset() = 0;
    [[nodiscard]] virtual std::string name() const = 0;
    virtual void set_model(alloc_model) = 0;
    [[nodiscard]] virtual const alloc_model& model() const = 0;
    [[nodiscard]] virtual bool checkpointable() const noexcept = 0;
    virtual void save_checkpoint(state_writer&) const = 0;
    virtual void restore_checkpoint(state_reader&) = 0;
    [[nodiscard]] virtual step_count snapshot_window() const = 0;
    [[nodiscard]] virtual std::unique_ptr<base> clone() const = 0;
  };

  template <allocation_process P>
  struct model_t final : base {
    explicit model_t(P p) : process(std::move(p)) {}
    void step(rng_t& rng) override { process.step(rng); }
    void step_many(rng_t& rng, step_count count) override {
      nb::step_many(process, rng, count);
    }
    void step_many(rng_t& rng, step_count count, shard_engine& engine) override {
      engine.step_many(process, rng, count);
    }
    void depart(rng_t& rng) override {
      if constexpr (departable_process<P>) {
        process.depart(rng);
      } else {
        throw contract_error("process '" + process.name() + "' does not support departures");
      }
    }
    void depart_many(rng_t& rng, step_count count) override {
      if constexpr (departable_process<P>) {
        nb::depart_many(process, rng, count);
      } else {
        throw contract_error("process '" + process.name() + "' does not support departures");
      }
    }
    void depart_many(rng_t& rng, step_count count, shard_engine& engine) override {
      if constexpr (departable_process<P>) {
        engine.depart_many(process, rng, count);
      } else {
        throw contract_error("process '" + process.name() + "' does not support departures");
      }
    }
    [[nodiscard]] const load_state& state() const override { return process.state(); }
    void reset() override { process.reset(); }
    [[nodiscard]] std::string name() const override { return process.name(); }
    void set_model(alloc_model m) override {
      if constexpr (modeled_process<P>) {
        process.set_model(std::move(m));
      } else {
        NB_REQUIRE(m.is_default(), "process '" + process.name() +
                                       "' does not support weighted/non-uniform allocation");
      }
    }
    [[nodiscard]] const alloc_model& model() const override {
      if constexpr (modeled_process<P>) {
        return process.model();
      } else {
        static const alloc_model default_model{};
        return default_model;
      }
    }
    [[nodiscard]] bool checkpointable() const noexcept override {
      return checkpointable_process<P>;
    }
    void save_checkpoint(state_writer& w) const override {
      if constexpr (checkpointable_process<P>) {
        process.save_checkpoint(w);
      } else {
        throw contract_error("checkpoint save/restore is not supported by process " +
                             process.name());
      }
    }
    void restore_checkpoint(state_reader& r) override {
      if constexpr (checkpointable_process<P>) {
        process.restore_checkpoint(r);
      } else {
        throw contract_error("checkpoint save/restore is not supported by process " +
                             process.name());
      }
    }
    [[nodiscard]] step_count snapshot_window() const override {
      if constexpr (window_probed<P>) {
        return process.snapshot_window();
      } else {
        return 0;
      }
    }
    [[nodiscard]] std::unique_ptr<base> clone() const override {
      return std::make_unique<model_t<P>>(process);
    }
    P process;
  };

  std::unique_ptr<base> impl_;
};

static_assert(allocation_process<any_process>);
static_assert(departable_process<any_process>);

inline void shard_engine::step_many(any_process& process, rng_t& rng, step_count count) {
  process.step_many(rng, count, *this);
}

inline void shard_engine::depart_many(any_process& process, rng_t& rng, step_count count) {
  process.depart_many(rng, count, *this);
}

/// Type-erased overload of the serial reference depart_many.
inline void depart_many(any_process& process, rng_t& rng, step_count count) {
  process.depart_many(rng, count);
}

}  // namespace nb
