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

#include <concepts>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/serialize.hpp"
#include "core/alloc_model.hpp"
#include "core/load_vector.hpp"
#include "rng/rng.hpp"

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
/// That pass runs by bin range through `exec` (load_state::
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

/// Retires one departing ball from each listed bin, in list order, each
/// through release(i, w) with the channel's departing weight (the drain
/// weight, or 1 for random) -- the bulk departure's per-ball tail: the
/// events a multi-shard drain settle withheld from its block commit and
/// re-served (core/engine/shard_engine.hpp).  The lease channel has no
/// chosen bins (it expires the oldest ball) and is refused.
inline void apply_departed_bins(load_state& state, const alloc_model& model,
                                const std::vector<bin_index>& bins) {
  const departure_model::kind kind = model.departures.departure_kind();
  NB_REQUIRE(kind == departure_model::kind::drain || kind == departure_model::kind::random,
             "departures from chosen bins need the drain or random departure channel");
  state.release_each(bins, kind == departure_model::kind::drain ? drain_weight(model.weighting) : 1);
}

/// A process whose departures can be served in merged blocks: it exposes
/// its model (the engines route on the departure channel), applies a
/// per-bin departure-count row in one commit, its O(n) pass ONE run() of
/// the caller's executor (default: one range on the calling thread; see
/// commit_window below), and retires departures from listed bins one by
/// one.  Every
/// library process implements the pair via apply_departure_block and
/// apply_departed_bins.
template <typename P>
concept batch_departable = departable_process<P> && modeled_process<P> &&
    requires(P p, const std::vector<std::uint32_t>& rel, step_count k,
             const range_executor& exec, const std::vector<bin_index>& bins) {
      { p.commit_departures(rel, k) } -> std::same_as<void>;
      { p.commit_departures(rel, k, exec) } -> std::same_as<void>;
      { p.commit_departed_bins(bins) } -> std::same_as<void>;
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
  /// Retires one departure from each listed bin (see apply_departed_bins).
  void commit_departed_bins(const std::vector<bin_index>& bins) {
    apply_departed_bins(state_, model_, bins);
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
// The window-parallel contract.
//
// In the paper's batched/delayed settings every allocation decision inside
// one stale-snapshot window depends only on state frozen at the window
// start, so the window's balls are embarrassingly parallel.  A process that
// can expose such windows implements the window_parallel contract below;
// the windowed engine, shard_engine (core/engine/shard_engine.hpp), runs
// them.

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
///     ran), as ONE run() of `exec` (default: one range on the calling
///     thread), so the executor's prepare steps (the multi-shard engine's
///     settle) run once per range, just ahead of that range's commit.
///     The refresh may be deferred: a b-Batch commit that ends a batch
///     only marks its boundary copy pending, and the process's next
///     mutator makes it (inside that mutator's own pass), so back-to-back
///     whole-batch windows never copy,
///   * commit_window(low, carries, balls[, exec]): the same commit from a
///     byte row with a carry list (bin i gets low[i] + 256 * (times i
///     appears in carries) balls), which the one-shard engine folds its
///     arrival windows into (kernel_run's byte form).
///
/// Optionally, snapshot_is_live() proves the window snapshot equals the
/// live loads right now (b-Batch right after a boundary commit, pending
/// copy or not); the engine then ranges the compact snapshot from the
/// level index in O(1) instead of scanning the frozen vector (see
/// live_snapshot_probed).
template <typename P>
concept window_parallel = allocation_process<P> && window_probed<P> &&
    requires(P p, const P cp, const std::vector<std::uint32_t>& inc,
             const std::vector<std::uint8_t>& low, step_count k, const range_executor& exec) {
      requires P::kernel_min_select;
      { cp.window_snapshot() } -> std::convertible_to<const std::vector<load_t>&>;
      { p.commit_window(inc, k) } -> std::same_as<void>;
      { p.commit_window(inc, k, exec) } -> std::same_as<void>;
      { p.commit_window(low, inc, k) } -> std::same_as<void>;
      { p.commit_window(low, inc, k, exec) } -> std::same_as<void>;
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

class shard_engine;

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

  // Engine is always shard_engine: spelling it as a parameter defers the
  // engine calls below to instantiation, where shard_engine is complete.
  template <allocation_process P, typename Engine = shard_engine>
  struct model_t final : base {
    explicit model_t(P p) : process(std::move(p)) {}
    void step(rng_t& rng) override { process.step(rng); }
    void step_many(rng_t& rng, step_count count) override {
      nb::step_many(process, rng, count);
    }
    void step_many(rng_t& rng, step_count count, Engine& engine) override {
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
    void depart_many(rng_t& rng, step_count count, Engine& engine) override {
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

/// Type-erased overload of the serial reference depart_many.
inline void depart_many(any_process& process, rng_t& rng, step_count count) {
  process.depart_many(rng, count);
}

}  // namespace nb

// any_process's engine overloads call into shard_engine's templates, so
// every includer of this header gets the engine too.
#include "core/engine/shard_engine.hpp"
