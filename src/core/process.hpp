// The allocation-process abstraction.
//
// A process owns a load_state and knows how to allocate one ball per step
// given a source of randomness.  Concrete processes are plain value types
// (copyable, no virtual calls) so the simulation drivers can be templates
// with fully inlined hot loops; `any_process` adds type erasure for
// registry-style code.
//
// Every library process derives from `process_base` (below): the class
// supplies its decision rule as one `step_one(rng, n)` hook, the base owns
// the load state, the model, the per-ball and bulk loops, departures and
// checkpoints.
//
// Bulk stepping: the free function `step_many(p, rng, count)` allocates
// `count` balls.  Processes with a member `step_many(rng, count)` -- every
// process_base, through its one fused loop, and b_batch, whose loop runs
// to each batch boundary -- amortize per-chunk work (the load state's
// bulk_window, hoisted n, and through any_process one indirect call per
// chunk instead of one per ball); everything else falls back to a plain
// loop over step().  Contract: a member step_many must consume randomness
// in exactly the same order as `count` calls of step(), so per-ball and
// bulk execution are bit-identical for a fixed seed (enforced by the
// step/step_many parity tests, which also pin every registered kind's
// serial stream).
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
#include <atomic>
#include <bit>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <functional>
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

/// The skeleton every library process shares.  Each process of the paper
/// is Two-Choice with its own decision rule, so a process class is its
/// constructor, parameters, name() and one private hook
///
///   void step_one(rng_t& rng, bin_count n);  // decide one ball, deposit it
///
/// and derives from process_base<itself> (CRTP: no virtual calls, the hook
/// inlines into both loops) for the rest: the load state and model,
/// reset(), step() and the one fused step_many over step_one, depart() and
/// commit_departures() through depart_ball / apply_departure_block, and the
/// checkpoint pair of the load state.  A class declares
/// `friend class process_base<...>;` so the hook can stay private.  A
/// process with more mutable state re-declares only what must see it:
/// reset() and the checkpoint pair (the Gaussian cache, tau-Delay's ring),
/// and for b-Batch also step/step_many and the departure pair, which move
/// its stale snapshot.
template <typename Derived>
class process_base {
 public:
  [[nodiscard]] const load_state& state() const noexcept { return state_; }
  void reset() { state_.reset(); }

  void set_model(alloc_model m) { install_model(state_, model_, std::move(m)); }
  [[nodiscard]] const alloc_model& model() const noexcept { return model_; }

  void step(rng_t& rng) { self().step_one(rng, state_.n()); }

  /// The fused bulk loop: n hoisted, one bulk_window for the whole chunk
  /// (deferred level-index maintenance), step_one per ball -- the draws of
  /// `count` calls of step(), in the same order.
  void step_many(rng_t& rng, step_count count) {
    const bin_count n = state_.n();
    const load_state::bulk_window window(state_, count);
    for (step_count t = 0; t < count; ++t) self().step_one(rng, n);
  }

  /// One departure event through the model's channel (see depart_ball).
  void depart(rng_t& rng) { depart_ball(state_, model_, rng); }
  /// Applies one engine-merged departure block (see apply_departure_block).
  void commit_departures(const std::vector<std::uint32_t>& rel, step_count k,
                         const range_executor& exec = {}) {
    apply_departure_block(state_, model_, rel, k, exec);
  }

  /// Checkpoint contract: the load state is the only mutable member
  /// (parameters and model are configuration, rebuilt from the spec).
  void save_checkpoint(state_writer& w) const { state_.save(w); }
  void restore_checkpoint(state_reader& r) { state_.restore(r); }

 protected:
  explicit process_base(bin_count n) : state_(n) {}

  load_state state_;
  alloc_model model_;

 private:
  Derived& self() noexcept { return static_cast<Derived&>(*this); }
};

/// An arrival/departure mix for advance(): `arrivals` balls arrive and
/// `departures` events depart, spread evenly across the stream.
struct traffic_spec {
  step_count arrivals = 0;
  step_count departures = 0;
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
  NB_ASSERT(a >= 0 && d >= 0);
  if (d == 0) {
    nb::step_many(process, rng, a);
    return;
  }
  step_count placed = 0;
  for (step_count served = 1; served <= d; ++served) {
    // Departure `served` follows floor(a*served/d) arrivals; a,d <=
    // max_run_balls keeps the product well inside int64.
    const step_count upto = a * served / d;
    nb::step_many(process, rng, upto - placed);
    placed = upto;
    nb::depart_many(process, rng, 1);
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
///   * window_snapshot(): the frozen loads those decisions read (the
///     live loads are a valid answer while they equal the frozen ones:
///     b-Batch returns them while a batch-ending commit's boundary copy
///     is pending, see below),
///   * `static constexpr bool kernel_min_select = true`: the decision rule
///     is the canonical two-sample min rule the kernel implements ("less
///     loaded of the two sampled bins, ties broken by the next draw's top
///     bit"; cross-checked against the process's own rule by the kernel
///     test suite),
///   * commit_window(inc, balls[, exec]): apply the merged per-bin
///     increments and refresh whatever the process keeps stale (inc[i]
///     balls into bin i, sum(inc) == balls == the window length the engine
///     ran), its O(n) passes run by bin range through `exec` (default: one
///     range on the calling thread).  The refresh may be deferred: a
///     b-Batch commit that ends a batch only marks its boundary copy
///     pending, and the process's next mutator makes it (through that
///     mutator's executor), so back-to-back whole-batch windows never
///     copy.
///
/// Optionally, snapshot_is_live() proves the window snapshot equals the
/// live loads right now (b-Batch right after a boundary commit, pending
/// copy or not); the engine then ranges the compact snapshot from the
/// level index in O(1) instead of scanning the frozen vector (see
/// live_snapshot_probed).
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
/// same either way, only the range scan is skipped.  While b-Batch's
/// boundary copy is pending the proof is trivial -- window_snapshot() then
/// IS the live vector -- and the engine's snapshot reads the loads the
/// copy would have duplicated, so the copy is never needed.
template <typename P>
concept live_snapshot_probed = requires(const P p) {
  { p.snapshot_is_live() } -> std::convertible_to<bool>;
};

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

/// A range_executor running its `ranges` bin ranges as tasks on `pool` and
/// returning once they finished.  It joins through wait_idle, so work
/// queued on the pool ahead of it is waited for too.
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
/// snapshot, merged count row, shard picks) and, with two or more shards,
/// the worker pool, so one engine instance amortizes both across all
/// windows of a run -- create it once per run (or reuse across runs of
/// the same configuration).
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
  /// the wrapped concrete type behind it (defined after any_process).
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

  /// Pool tasks a multi-shard block fans out to; each claims shards until
  /// none are left, so per-task scratch needs min(threads, shards) copies.
  [[nodiscard]] std::size_t shard_tasks() const noexcept {
    return std::min(pool_->size(), opt_.shards);
  }

  /// Runs body(i, task) for every i in [0, count) on at most shard_tasks()
  /// pool tasks, each claiming indices until none are left; `task` is the
  /// claiming task's index, for its scratch row.  Which task runs which
  /// index varies, so bodies write only index-owned (or task-owned) data.
  void claim(std::size_t count, const std::function<void(std::size_t, std::size_t)>& body) {
    std::atomic<std::size_t> next{0};
    for (std::size_t t = 0; t < std::min(shard_tasks(), count); ++t) {
      pool_->submit([&body, &next, count, t] {
        for (std::size_t i = next.fetch_add(1); i < count; i = next.fetch_add(1)) body(i, t);
      });
    }
    pool_->wait_idle();
  }

  /// Task t's zeroed 16-bit scratch count row over n bins.  Users leave it
  /// zero again, re-zeroing only the bins they counted.
  std::uint16_t* scratch_row(std::size_t t, bin_count n) {
    if (scratch_rows_.size() <= t) scratch_rows_.resize(t + 1);
    if (scratch_rows_[t].size() != n) scratch_rows_[t].assign(n, 0);
    return scratch_rows_[t].data();
  }

  /// Sizes the multi-shard scratch for k picks over n bins: power-of-two
  /// bin ranges about one shard's share of the bins wide (at most 2^16),
  /// so there are roughly as many ranges as shards.  The range split is
  /// execution-only -- counts do not depend on it -- but depends on
  /// (n, shards) alone, so the clamp counters are thread invariant too.
  void layout_ranges(bin_count n, step_count k) {
    const std::uint64_t per_shard = (std::uint64_t{n} + opt_.shards - 1) / opt_.shards;
    range_bits_ = std::min(kMaxRangeBits, static_cast<unsigned>(std::bit_width(per_shard - 1)));
    range_count_ = (std::size_t{n} + (std::size_t{1} << range_bits_) - 1) >> range_bits_;
    picks_.resize(static_cast<std::size_t>(k));
    sorted_.resize(static_cast<std::size_t>(k));
    buckets_.resize(opt_.shards * bucket_stride());
  }

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
  void bucket_shard(std::size_t s, step_count begin, step_count count) {
    const unsigned bits = range_bits_;
    const auto mask = static_cast<std::uint32_t>((std::size_t{1} << bits) - 1);
    std::uint32_t* b = shard_buckets(s);
    std::fill_n(b, range_count_ + 1, 0);
    const std::uint32_t* picks = picks_.data() + begin;
    const auto size = static_cast<std::size_t>(count);
    for (std::size_t i = 0; i < size; ++i) ++b[picks[i] >> bits];
    auto at = static_cast<std::uint32_t>(begin);
    for (std::size_t r = 0; r <= range_count_; ++r) at += std::exchange(b[r], at);
    // Scattering advances b[r] to bucket r's end, which is bucket r + 1's
    // start; the shift below restores the starts.
    for (std::size_t i = 0; i < size; ++i) {
      sorted_[b[picks[i] >> bits]++] = static_cast<std::uint16_t>(picks[i] & mask);
    }
    for (std::size_t r = range_count_; r > 0; --r) b[r] = b[r - 1];
    b[0] = static_cast<std::uint32_t>(begin);
  }

  /// Zeroes range r's slice of merged_, then counts every shard's bucket r
  /// into it in shard order.  The slice is L2-resident across the shards.
  void count_range(std::size_t r, bin_count n) {
    const auto [lo, hi] = range_bounds(r, n);
    std::uint32_t* slice = merged_.data() + lo;
    std::fill(slice, merged_.data() + hi, 0);
    for (std::size_t s = 0; s < opt_.shards; ++s) {
      const std::uint32_t* b = shard_buckets(s);
      for (std::uint32_t j = b[r]; j < b[r + 1]; ++j) ++slice[sorted_[j]];
    }
  }

  /// Runs body(r) for every bin range r as pool tasks and joins them.
  void run_ranges(const range_executor::body_fn& body) {
    pool_ranges(*pool_, range_count_).run(body);
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
      claim(opt_.shards, [&](std::size_t s, std::size_t task) {
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
                         std::uint64_t token, bool checked) {
    const bool drain = channel == depart_channel::drain;
    const std::uint8_t* snap = snapshot_.data();
    const load_t base = snapshot_.base();
    const std::uint8_t mask = drain ? 0xFF : 0;
    // Copies, not references: merged_'s stores could otherwise alias them
    // and keep the clamp loop from vectorizing.
    const auto load = [snap, base = static_cast<std::uint32_t>(base), mask](std::size_t i) {
      return base + (snap[i] ^ mask);
    };
    const auto capacity = [load, w](std::size_t i) {
      return w == 1 ? load(i) : static_cast<std::uint32_t>(load(i) / w);
    };
    // A range's deficit is positive exactly when its clamp fired.
    range_deficits_.resize(range_count_);
    const auto count_and_clamp = [&](std::size_t r) {
      range_deficits_[r] = 0;
      count_range(r, n);
      const auto [lo, hi] = range_bounds(r, n);
      std::uint32_t* merged = merged_.data();
      const auto clamp = [&](const auto& cap_of) {
        // Every pick is counted, so the range's deficit is its clamped
        // excess.  The clamp rarely fires: the first loop only detects it
        // (a vectorizable reduction), the second clamps.
        std::uint32_t over = 0;
        for (std::size_t i = lo; i < hi; ++i) over |= merged[i] > cap_of(i) ? 1U : 0U;
        if (over == 0) return;
        step_count deficit = 0;
        for (std::size_t i = lo; i < hi; ++i) {
          const std::uint32_t cap = cap_of(i);
          if (merged[i] > cap) {
            deficit += merged[i] - cap;
            merged[i] = cap;
          }
        }
        range_deficits_[r] = deficit;
      };
      // Unit weights get their own loop: the 64-bit division costs more
      // per bin than the rest of the pass together.
      if (w == 1) {
        clamp(load);
      } else {
        clamp(capacity);
      }
    };
    run_ranges(count_and_clamp);
    const auto clamped_ranges = [&] {
      return std::count_if(range_deficits_.begin(), range_deficits_.end(),
                           [](step_count d) { return d > 0; });
    };
    if (!checked && clamped_ranges() > 0) {
      // Recount each clamped range shard by shard in one scratch row (the
      // ranges are disjoint, so their tasks share it), flagging the shards
      // that overdrew a bin on their own.
      std::uint16_t* row = scratch_row(0, n);
      overdrawn_.assign(range_count_ * opt_.shards, 0);
      run_ranges([&](std::size_t r) {
        if (range_deficits_[r] == 0) return;
        const std::size_t lo = range_bounds(r, n).first;
        for (std::size_t s = 0; s < opt_.shards; ++s) {
          const std::uint32_t* b = shard_buckets(s);
          bool overdrew = false;
          for (std::uint32_t j = b[r]; j < b[r + 1]; ++j) {
            const std::size_t c = lo + sorted_[j];
            overdrew |= static_cast<std::uint32_t>(++row[c]) > capacity(c);
          }
          for (std::uint32_t j = b[r]; j < b[r + 1]; ++j) row[lo + sorted_[j]] = 0;
          overdrawn_[r * opt_.shards + s] = overdrew ? 1 : 0;
        }
      });
      redo_.clear();
      for (std::size_t s = 0; s < opt_.shards; ++s) {
        bool overdrew = false;
        for (std::size_t r = 0; r < range_count_; ++r) {
          overdrew |= overdrawn_[r * opt_.shards + s] != 0;
        }
        if (overdrew) redo_.push_back(s);
      }
      // Each recomputing task needs its own row.
      for (std::size_t t = 1; t < std::min(shard_tasks(), redo_.size()); ++t) {
        (void)scratch_row(t, n);
      }
      claim(redo_.size(), [&](std::size_t i, std::size_t task) {
        const std::size_t s = redo_[i];
        const step_count begin = shard_begin(k, s);
        const step_count events = shard_share(k, s);
        std::uint16_t* scratch = scratch_rows_[task].data();
        std::uint32_t* served = picks_.data() + begin;
        kernel_depart(isa_, opt_.lanes, channel, n, snap, base, snapshot_.max_off(), w, scratch,
                      events, shard_stream_seed(token, s), served);
        for (step_count e = 0; e < events; ++e) scratch[served[e]] = 0;
        bucket_shard(s, begin, events);
      });
      depart_phases_.recomputed_shards += static_cast<step_count>(redo_.size());
      if (!redo_.empty()) run_ranges(count_and_clamp);
    }
    depart_phases_.clamped_ranges += clamped_ranges();
    if (drain) drain_checked_ = 2 * clamped_ranges() > static_cast<std::ptrdiff_t>(range_count_);
    step_count deficit = 0;
    for (const step_count d : range_deficits_) deficit += d;
    depart_phases_.reserved_events += deficit;
    rng_t replay(derive_seed(token, opt_.shards));
    for (; deficit > 0; --deficit) {
      depart_replay(channel, n, snap, base, snapshot_.max_off(), w, merged_.data(), replay);
    }
  }

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
