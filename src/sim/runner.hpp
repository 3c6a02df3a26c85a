// Single-run drivers: run a process for m balls through the engine an
// engine_config selects, and collect the gap observables the paper
// reports.  Repeated runs (R independent seeds per configuration) go
// through the campaign orchestrator, exp/campaign.hpp.
//
// Every driver moves balls through step_many (the bulk allocation path),
// so even an any_process pays one indirect call per chunk rather than one
// per ball, with the process's fused loop inlined behind it.
#pragma once

#include <optional>
#include <string>

#include "core/engine/shard_engine.hpp"
#include "core/process.hpp"

namespace nb {

/// Outcome of one simulated run.
struct run_result {
  double gap = 0.0;          ///< Gap(m) = max load - m/n
  double underload_gap = 0.0;///< m/n - min load
  load_t max_load = 0;
  load_t min_load = 0;
  step_count balls = 0;
  std::uint64_t seed = 0;
};

/// THE engine-selection struct, shared by every driver that moves balls
/// (the campaign orchestrator, the checkpointed-run driver, the churn
/// driver); campaign_options holds one as its `engine` member.
/// threads_per_run > 0 selects the windowed engine with `shards` shards on
/// that many workers, else use_kernel the same engine with one shard (the
/// serial SIMD engine), else the plain fused loop.  shards / use_kernel
/// are part of the sampling contract; threads_per_run and isa are
/// execution-only and never affect results.
///
/// threads_per_run > 0 is intended for few, huge runs: combined with a
/// driver's own `threads` > 1 the two multiply.  Processes without
/// parallel windows run serially regardless; the engine emits a one-time
/// warn_once diagnostic when that happens.
struct engine_config {
  std::size_t threads_per_run = 0;
  std::size_t shards = 16;
  bool use_kernel = false;
  /// A leftover the repo benchmark (perfbench/) pins, next to
  /// kernel_options (core/engine/shard_engine.hpp): it must be
  /// kernel_lanes, and anything else throws contract_error naming the
  /// value.  ROADMAP item 4's declared benchmark change removes it.
  std::size_t lanes = kernel_lanes;
  kernel_isa isa = kernel_isa::auto_detect;

  /// Returns *this, so the older accessor spelling `options.engine()`
  /// still reads the `engine` member (perfbench's noisy_campaign uses it).
  [[nodiscard]] const engine_config& operator()() const noexcept { return *this; }
};

struct engine_flag_values;

/// The engine the shared --threads-per-run / --shards / --kernel flags
/// (util/cli add_engine_flags) select: --kernel off keeps serial runs on
/// the fused loop, a backend name routes them through the kernel.  Throws
/// contract_error naming the offending --kernel value.
[[nodiscard]] engine_config engine_from_flags(const engine_flag_values& flags);

/// One run's engine: owns the shard_engine the options select (if any)
/// and presents a single step() entry point, so drivers stop duplicating
/// the serial/engine dispatch.  Create one per run (the engine amortizes
/// its scratch across all chunks of that run).
class run_engine {
 public:
  explicit run_engine(const engine_config& opt) : fingerprint_(fingerprint_of(opt)) {
    churn_fingerprint_ = fingerprint_;
    if (opt.threads_per_run > 0 || opt.use_kernel) {
      engine_.emplace(shard_options{.threads = opt.threads_per_run,
                                    .shards = opt.threads_per_run > 0 ? opt.shards : 1,
                                    .isa = opt.isa});
      // Engine-selected runs serve departure blocks through the batched
      // path, an additional sampling-contract parameter the insertion
      // fingerprint does not carry (insertion-only journals stay
      // restorable across this change).
      churn_fingerprint_.insert(churn_fingerprint_.size() - 1, ",depart=batch");
    }
  }

  /// The fingerprint() of the engine `opt` selects, without building it:
  /// "serial", "kernel[lanes=8]" for one shard (use_kernel, or
  /// threads_per_run with shards = 1), "shard[shards=S,lanes=8]" for more.
  /// The constant lane count stays in the string, so journals and
  /// checkpoints written while it was a setting still resume.  Throws
  /// contract_error when opt.lanes is not kernel_lanes.
  [[nodiscard]] static std::string fingerprint_of(const engine_config& opt) {
    NB_REQUIRE(opt.lanes == kernel_lanes, "engine_config::lanes got " +
                                              std::to_string(opt.lanes) +
                                              "; the kernel runs exactly " +
                                              std::to_string(kernel_lanes) + " lanes");
    if (opt.threads_per_run == 0 && !opt.use_kernel) return "serial";
    const std::string lanes = "lanes=" + std::to_string(kernel_lanes) + "]";
    if (opt.threads_per_run == 0 || opt.shards == 1) return "kernel[" + lanes;
    return "shard[shards=" + std::to_string(opt.shards) + "," + lanes;
  }

  /// Allocates `count` balls through the selected engine, drawing from
  /// `rng` exactly like shard_engine::step_many (or nb::step_many when no
  /// engine is selected).
  template <single_steppable P>
  void step(P& process, rng_t& rng, step_count count) {
    if (engine_.has_value()) {
      engine_->step_many(process, rng, count);
    } else {
      nb::step_many(process, rng, count);
    }
  }

  /// Serves `count` departure events through the selected engine: its
  /// batched blocks for qualifying drain/random requests, lease requests
  /// on the per-event law after the engine's up-front resident-ball check,
  /// or the serial per-event reference loop.
  template <single_steppable P>
    requires departable_process<P>
  void depart(P& process, rng_t& rng, step_count count) {
    if (engine_.has_value()) {
      engine_->depart_many(process, rng, count);
    } else {
      nb::depart_many(process, rng, count);
    }
  }

  /// The engine's sampling-contract identity: mode plus the parameter
  /// that influences the drawn randomness (shards) -- and nothing
  /// execution-only (threads, ISA backend).  A checkpoint written under
  /// one fingerprint may only be restored under the same one; resuming
  /// with a different thread count or ISA is legal by construction.
  [[nodiscard]] const std::string& fingerprint() const noexcept { return fingerprint_; }

  /// The sampling-contract identity of runs that also serve departures
  /// through this engine (churn runs): equal to fingerprint() for the
  /// serial engine, and tagged with the batched-departure contract
  /// otherwise (e.g. "kernel[lanes=8,depart=batch]") -- a churn
  /// checkpoint written under the batched path must not resume under a
  /// pre-batch journal's engine, and vice versa.  Insertion-only
  /// checkpoints keep using fingerprint(), which is unchanged.
  [[nodiscard]] const std::string& churn_fingerprint() const noexcept {
    return churn_fingerprint_;
  }

 private:
  std::optional<shard_engine> engine_;
  std::string fingerprint_;
  std::string churn_fingerprint_;
};

namespace detail {
template <typename P>
run_result collect_run_result(const P& process) {
  run_result r;
  const load_state& s = process.state();
  r.gap = s.gap();
  r.underload_gap = s.underload_gap();
  r.max_load = s.max_load();
  r.min_load = s.min_load();
  r.balls = s.balls();
  return r;
}

template <typename P>
void check_run_ceiling(const P& process, step_count m) {
  NB_REQUIRE(m >= 0, "ball count must be non-negative");
  NB_REQUIRE(process.state().balls() + m <= max_run_balls,
             "run would overflow the per-bin load representation (max_run_balls)");
}
}  // namespace detail

/// Runs `process` (from its current state) for `m` additional balls via
/// the bulk path (one step_many call; bit-identical to the per-ball loop).
template <allocation_process P>
run_result simulate(P& process, step_count m, rng_t& rng) {
  detail::check_run_ceiling(process, m);
  step_many(process, rng, m);
  return detail::collect_run_result(process);
}

/// Options-routed variant: moves the m balls through whichever engine the
/// options selected (run_engine).  This is what the campaign cells use.
template <allocation_process P>
run_result simulate_with(P& process, step_count m, rng_t& rng, run_engine& engine) {
  detail::check_run_ceiling(process, m);
  engine.step(process, rng, m);
  return detail::collect_run_result(process);
}

}  // namespace nb
