// The experiment orchestrator: deterministic multi-run campaigns.
//
// A campaign is a list of configurations (process x n x m grid points),
// each repeated `repeats` times.  Every (configuration, repetition) pair
// is one *cell* -- the schedulable unit -- with flat index
// `config * repeats + rep` and RNG seed `derive_seed(campaign_seed, index)`.
// Cells run across the shared thread_pool in any order; because sampling
// depends only on the cell index (never on scheduling) and aggregation
// always folds cells in index order, campaign results -- including the
// emitted aggregate JSON -- are byte-identical for ANY worker count
// (enforced by tests/test_orchestrator.cpp).
//
// This is the one repeated-run driver: every bench binary and example
// runs its R-runs-per-configuration experiments through run_campaign.
// Each cell moves through the run_engine of sim/runner.hpp
// (campaign_options::engine, an engine_config): threads_per_run > 0
// engages the intra-run shard engine, use_kernel the serial SIMD kernel
// engine, anything else the serial fused loop.
//
// Cells are scheduled by parallel_for's chunked work-stealing distributor
// (util/thread_pool.hpp): heterogeneous cells rebalance onto idle workers
// instead of straggling behind a fixed hand-out order, and because the
// schedule never feeds into sampling or fold order, stealing cannot
// perturb results.
//
// Aggregation is streaming: per configuration the campaign keeps a
// cell_aggregator (Welford gap/underload/max-load stats + an integer gap
// histogram for quantiles), so memory stays O(cells) regardless of m.
//
// Checkpoint/resume: with a journal path every finished cell is appended
// to an append-only JSONL file (see exp/journal.hpp); `resume` replays the
// journal, skips completed cells, and -- because journal doubles
// round-trip bit-exactly -- produces byte-identical aggregates to an
// uninterrupted run.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/process_registry.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "stats/histogram.hpp"
#include "stats/summary.hpp"

namespace nb {

/// One campaign grid point.  Processes come either from the registry
/// (`process.kind`, journaled and reported as metadata) or from an
/// arbitrary `factory` (which wins when both are set and must be safe to
/// call concurrently).  Field order keeps the historical positional
/// brace-init `{label, factory, m}` of the bench cell lists compiling.
struct campaign_config {
  std::string label;
  std::function<any_process()> factory;
  step_count m = 0;
  process_spec process{};
  /// > 0: steady-state churn cell -- warm the process up to this many
  /// resident balls, then serve `m` arrival/departure pairs through its
  /// departure channel (which must not be "none").  0 = the historical
  /// insertion-only cell.  make_config defaults it to m for sweep points
  /// with a departure axis (occupancy ~ m, the steady-state regime).
  step_count churn_occupancy = 0;
};

/// Builds a registry-backed configuration from an expanded sweep point.
[[nodiscard]] campaign_config make_config(const sweep_point& point);
[[nodiscard]] std::vector<campaign_config> make_configs(const std::vector<sweep_point>& points);

/// Command-line model overrides for a configuration list: the string-level
/// values of util/cli's shared model flag family, applied in one place so
/// every binary maps the flags identically.
struct model_overrides {
  std::string weighting = "unit";
  std::string sampler = "uniform";
  std::string departures = "none";
  /// Occupancy for configs the `departures` override turns into
  /// steady-state churn cells (0 = each config's own m).
  step_count churn_occupancy = 0;
};

/// Applies the overrides to every registry-backed configuration.  Factory
/// cells own their model, so non-default overrides on them trigger the
/// house accepted-but-ineffective diagnostic instead of silence.  A
/// non-none departure override also makes each config a steady-state churn
/// cell (see campaign_config::churn_occupancy).
void apply_model_overrides(std::vector<campaign_config>& configs, const model_overrides& o);

/// Campaign execution knobs.  Only `repeats`, `seed` and the engine's
/// mode, shards and lanes are part of the sampling contract; threads,
/// worker counts and the ISA backend never affect results.
struct campaign_options {
  std::size_t repeats = 10;
  std::uint64_t seed = 1;
  /// Scheduler workers over cells; 0 = one per hardware core, clamped to
  /// cores / engine.threads_per_run when intra-run parallelism is also on
  /// (the product is what actually lands on the machine).  Explicit values
  /// are honored but warn_once when they oversubscribe.
  std::size_t threads = 0;
  /// Engine every cell moves through (see engine_config).
  engine_config engine;
  /// Non-empty: append every finished cell to this JSONL journal.
  std::string journal_path;
  /// Replay `journal_path` first and run only the missing cells.
  bool resume = false;
  /// > 0: checkpoint every cell's mid-run state about every this many
  /// balls (first stale-snapshot window boundary at or after each
  /// multiple -- see exp/checkpoint.hpp), into one file per cell next to
  /// the journal.  With `resume`, a cell whose checkpoint survived picks
  /// up mid-run instead of restarting from ball zero.  Execution-only:
  /// the cadence NEVER affects results -- checkpointed, resumed and
  /// uninterrupted campaigns emit byte-identical aggregate JSON (enforced
  /// by tests/test_checkpoint.cpp and tools/crash_fuzz.py).  Requires a
  /// journal_path; processes without checkpoint support degrade to
  /// checkpoint-free execution with a one-time diagnostic.
  step_count checkpoint_every = 0;
  /// Churn-cell telemetry cadence (churn_options::telemetry_every),
  /// applied to every churn cell.  Execution-observability only: the
  /// trajectory is recorded, not journaled, and never affects results.
  step_count churn_telemetry_every = 0;
};

/// Path of the intra-cell checkpoint file for `cell`, derived from the
/// campaign's journal path (the journal names the campaign; its cells'
/// checkpoints live beside it).
[[nodiscard]] std::string checkpoint_cell_path(const std::string& journal_path, std::size_t cell);

/// Streaming per-configuration aggregate: Welford stats over the cells'
/// gap / underload gap / max load, plus the integer gap histogram the
/// paper's tables report (gaps rounded to nearest integer -- exact
/// whenever n | m, which holds for every paper experiment).
class cell_aggregator {
 public:
  void add(const run_result& r);
  void merge(const cell_aggregator& other);

  [[nodiscard]] std::size_t count() const noexcept { return gap_.count(); }
  [[nodiscard]] const running_stats& gap() const noexcept { return gap_; }
  [[nodiscard]] const running_stats& underload_gap() const noexcept { return underload_; }
  [[nodiscard]] const running_stats& max_load() const noexcept { return max_load_; }
  [[nodiscard]] const int_histogram& gap_histogram() const noexcept { return histogram_; }

  [[nodiscard]] double mean_gap() const noexcept { return gap_.mean(); }
  [[nodiscard]] double gap_stddev() const noexcept { return gap_.stddev(); }
  /// Quantile of the rounded-gap distribution (from the histogram).
  [[nodiscard]] std::int64_t gap_quantile(double q) const;

 private:
  running_stats gap_;
  running_stats underload_;
  running_stats max_load_;
  int_histogram histogram_;
};

/// One configuration's outcome.
struct config_result {
  campaign_config config;
  cell_aggregator aggregate;
};

/// Outcome of a whole campaign.
struct campaign_result {
  std::vector<config_result> configs;
  /// Flat per-cell results, config-major: cell = config * repeats + rep.
  std::vector<run_result> cells;
  std::size_t repeats = 0;
  std::uint64_t seed = 0;
  /// Cells executed fresh this invocation vs. replayed from the journal.
  /// Deliberately NOT part of to_json(): a resumed campaign must emit the
  /// same bytes as an uninterrupted one.
  std::size_t cells_executed = 0;
  std::size_t cells_resumed = 0;
  /// Of the executed cells, how many picked up mid-run from an intra-cell
  /// checkpoint file (subset of cells_executed; same to_json() exclusion).
  std::size_t cells_restored = 0;

  /// Deterministic aggregate JSON (config order, %.17g doubles): the
  /// machine-readable campaign archive.
  [[nodiscard]] std::string to_json() const;
  void write_json(const std::string& path) const;
  /// One row per configuration, through util/csv.
  void write_csv(const std::string& path) const;
};

/// Runs the campaign: expands configs x repeats into cells, schedules
/// them over the pool, journals, aggregates.  See the file comment for
/// the determinism and resume contracts.
[[nodiscard]] campaign_result run_campaign(const std::vector<campaign_config>& configs,
                                           const campaign_options& opt);

/// Declarative-grid convenience overload.
[[nodiscard]] campaign_result run_campaign(const sweep_grid& grid, const campaign_options& opt);

}  // namespace nb
