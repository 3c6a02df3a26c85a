// The steady-state churn driver: warm-up-to-occupancy, then churn.
//
// A churn run has two phases.  The warm-up allocates `occupancy` balls
// from an empty state through the selected engine (an ordinary insertion
// run).  The churn phase then serves `events` arrival/departure pairs in
// fixed-size cycles: each cycle moves `cycle` arrivals through the engine
// followed by a block of `cycle` departures through the SAME engine --
// qualifying drain blocks run the SIMD kernel over the inverted snapshot
// and random blocks one exact hypergeometric pass
// (core/engine/shard_engine.hpp), and everything else (lease
// departures, which draw nothing, and every serial-engine run) takes the
// per-event reference loop on the master stream, so fused loops and
// engine windows keep their speed under churn.  At every cycle
// boundary the resident ball count is back at `occupancy` -- that is
// where telemetry samples and checkpoint marks land.
//
// Sampling contract: `cycle` is part of it (it decides how arrivals and
// departures interleave in the master stream), exactly like the engines'
// shard counts and the batched-departure path itself
// (run_engine::churn_fingerprint); threads and the ISA backend remain
// execution-only.  The gap trajectory is therefore bit-identical for any
// thread count, across ISA backends, and -- for processes without
// stale-snapshot windows under the serial per-event departure law, where
// every engine takes the identical serial fused loop -- across the
// serial/shard/kernel engines too (tests/test_churn.cpp).
//
// Checkpoint/resume: progress is counted in events, not resident balls
// (departures make balls() non-monotone), as warm-up balls first and
// occupancy + 2 * pairs after; marks land only at cycle boundaries, so a
// resumed run re-enters the exact engine-call sequence the uninterrupted
// run would have issued from that boundary -- bit-identity by
// construction, with the lease ring restored in flight.
#pragma once

#include <functional>
#include <vector>

#include "sim/runner.hpp"

namespace nb {

/// Steady-state run description.  `occupancy` and `events` are the load
/// and length; `cycle` is the arrival/departure interleaving grain
/// (sampling contract, see above).
struct churn_options {
  /// Resident balls after warm-up (and at every cycle boundary).
  step_count occupancy = 0;
  /// Arrival/departure pairs to serve after warm-up.
  step_count events = 0;
  /// Pairs per cycle: `cycle` engine arrivals, then `cycle` serial
  /// departures.  Part of the sampling contract.
  step_count cycle = 8192;
  /// > 0: record a gap/occupancy telemetry point at the first cycle
  /// boundary at or after each multiple of this many pairs (the final
  /// boundary is always recorded).  0 = final point only.
  step_count telemetry_every = 0;
};

/// One occupancy-telemetry sample, taken at a cycle boundary.
struct churn_point {
  step_count events_done = 0;  ///< pairs served when the sample was taken
  double gap = 0.0;
  double underload_gap = 0.0;
  load_t max_load = 0;
  step_count resident = 0;  ///< balls in the system (== occupancy here)
};

/// Outcome of a churn run: the final-state observables plus the recorded
/// gap trajectory.
struct churn_result {
  run_result final_state;
  std::vector<churn_point> trajectory;
  step_count occupancy = 0;
  step_count events = 0;
};

/// Runs warm-up + churn on `process` (which must be freshly reset and
/// carry a model with a non-none departure channel) through `engine`.
[[nodiscard]] churn_result run_churn(any_process& process, const churn_options& opt, rng_t& rng,
                                     run_engine& engine);

/// Preemptible variant: calls `at_mark(progress)` at window-aligned
/// warm-up boundaries and churn cycle boundaries, about every
/// `checkpoint_every` progress units (progress = balls during warm-up,
/// occupancy + 2 * pairs during churn; 0 = no marks).  `progress_done`
/// resumes from a checkpoint previously captured at one of these marks
/// (restore the process/RNG first -- see restore_checkpoint_identity);
/// the resumed run is bit-identical to an uninterrupted one.
[[nodiscard]] churn_result run_churn_checkpointed(
    any_process& process, const churn_options& opt, rng_t& rng, run_engine& engine,
    step_count checkpoint_every, const std::function<void(step_count)>& at_mark,
    step_count progress_done = 0);

/// Total progress units of a churn run (the checkpointed driver's final
/// counter): occupancy warm-up balls + 2 per churn pair.
[[nodiscard]] step_count churn_total_progress(const churn_options& opt);

}  // namespace nb
