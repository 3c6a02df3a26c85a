// Parameter sweeps: the value-range helpers shared by the bench binaries
// plus the declarative cross-run grid the experiment orchestrator
// (src/exp/campaign.hpp) expands into campaign configurations.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "core/process_registry.hpp"

namespace nb {

/// {1, 2, ..., hi} (the paper's Fig. 12.1 x-axis when hi = 20).
[[nodiscard]] std::vector<std::int64_t> arithmetic_range(std::int64_t lo, std::int64_t hi,
                                                         std::int64_t step = 1);

/// The paper's Fig. 12.2 batch-size axis: {5, 10, 50, 100, 500, ..., hi}.
[[nodiscard]] std::vector<std::int64_t> one_five_decades(std::int64_t lo, std::int64_t hi);

/// Bulk-execution planning for an observed run: the number of balls to
/// move in one step_many call so that the next multiple of `interval`
/// (the next observation checkpoint) lands exactly on the chunk boundary,
/// capped by the `remaining` balls of the run.  Drivers loop this with
/// O(1) memory: step_many(chunk), observe, repeat until remaining is 0.
/// Returns 0 iff remaining is 0.
[[nodiscard]] step_count checkpoint_chunk(step_count balls_so_far, step_count remaining,
                                          step_count interval);

// ---------------------------------------------------------------------------
// Declarative sweep grids.

/// A cross-run experiment grid: every combination of process kind, noise
/// parameter and bin count becomes one sweep point, with m either fixed
/// (`m_override`) or scaled with n (`m_multiplier`, the paper's m = 1000n
/// convention).  Parameter meaning follows process_spec (g / sigma / b /
/// tau / beta / d depending on the kind); kinds that take no parameter
/// ignore it, so the default single 0 works for them.
struct sweep_grid {
  std::vector<std::string> kinds;
  std::vector<double> params = {0.0};
  std::vector<bin_count> bins;
  /// m = m_multiplier * n when m_override == 0.
  std::int64_t m_multiplier = 1000;
  /// > 0: the same m for every point, regardless of n.
  step_count m_override = 0;
  /// Generalized-model axes (specs per make_weighting / make_sampler in
  /// core/alloc_model.hpp).  The defaults add no new grid dimension and
  /// leave every expanded point's spec/label exactly as before.
  std::vector<std::string> weightings = {"unit"};
  std::vector<std::string> samplers = {"uniform"};
  /// Departure-channel axis (specs per make_departures): "none" keeps the
  /// historical insertion-only points; anything else marks the point for
  /// the steady-state churn driver.
  std::vector<std::string> departures = {"none"};
};

/// One expanded point of a sweep_grid.
struct sweep_point {
  std::string label;  ///< "kind/param@n=..." -- stable key for outputs.
  process_spec process;
  step_count m = 0;
};

/// Expands `grid` in a fixed, documented order: bins outermost, then
/// kinds, then params, then weightings, then samplers, then departures
/// (the model axes innermost, so default single-element axes reproduce
/// the historical order exactly) -- the points for one n are a contiguous
/// block of size kinds.size() * params.size() * weightings.size() *
/// samplers.size() * departures.size(), laid out kind-major.  Drivers
/// rely on this order to index results.
[[nodiscard]] std::vector<sweep_point> expand_grid(const sweep_grid& grid);

}  // namespace nb
