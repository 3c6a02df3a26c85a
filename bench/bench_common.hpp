// Shared infrastructure for the reproduction bench binaries:
//   * standard CLI (mode quick/paper, overrides for n/runs/seed/threads,
//     campaign journal/resume/JSON knobs)
//   * campaign_options_for(): maps the standard flags onto the experiment
//     orchestrator (src/exp/campaign.hpp), which owns cell scheduling --
//     the flattened (configuration, repetition) work queue, per-cell
//     derived seeds, engine routing, journaling and streaming aggregation
//   * the paper's published results (Tables 12.3 and 12.4) embedded for
//     side-by-side comparison
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "noisebalance.hpp"

namespace nb::bench {

/// Standard configuration shared by every bench binary.
struct bench_config {
  std::string mode = "quick";       // quick | paper
  std::int64_t n_override = 0;      // 0 = per-mode default
  std::int64_t runs_override = 0;   // 0 = per-mode default
  std::int64_t m_multiplier = 1000; // m = multiplier * n (the paper's ratio)
  std::uint64_t seed = 1;
  std::size_t threads = 0;          // 0 = hardware concurrency
  engine_config engine;             // --threads-per-run/--shards/--kernel/--lanes
  std::string weighting = "unit";   // ball-weighting spec (make_weighting)
  std::string sampler = "uniform";  // bin-sampler spec (make_sampler)
  std::string departures = "none";  // departure-channel spec (make_departures)
  std::int64_t churn = 0;           // churn occupancy override (0 = m)
  std::int64_t churn_telemetry = 0; // churn telemetry cadence in pairs
  std::string csv;                  // optional CSV output path ("" = none)
  std::string journal;              // optional campaign JSONL journal ("" = none)
  bool resume = false;              // replay --journal, run only missing cells
  std::string json;                 // optional campaign aggregate JSON ("" = none)

  [[nodiscard]] bool paper_mode() const { return mode == "paper"; }

  [[nodiscard]] std::vector<bin_count> bin_counts() const {
    if (n_override > 0) return {static_cast<bin_count>(n_override)};
    if (paper_mode()) return {10000, 50000, 100000};
    return {10000};
  }

  [[nodiscard]] std::size_t runs() const {
    if (runs_override > 0) return static_cast<std::size_t>(runs_override);
    return paper_mode() ? 100 : 10;
  }
};

/// Registers the standard flags on `cli`.  The engine-selection and
/// allocation-model families come from util/cli's shared registration, so
/// every binary spells them identically and a new flag lands once.
inline void add_standard_flags(cli_parser& cli) {
  cli.add_string("mode", "quick", "quick (n=10^4, 10 runs) or paper (n up to 10^5, 100 runs)");
  cli.add_int("n", 0, "override the number of bins (0 = per-mode default)");
  cli.add_int("runs", 0, "override the repetition count (0 = per-mode default)");
  cli.add_int("m-mult", 1000, "balls per bin: m = m-mult * n (paper uses 1000)");
  cli.add_int("seed", 1, "master seed; every run derives its own stream");
  cli.add_int("threads", 0, "worker threads (0 = hardware concurrency)");
  add_engine_flags(cli);
  add_model_flags(cli);
  cli.add_string("csv", "", "also write results to this CSV file");
  cli.add_string("journal", "",
                 "append-only JSONL cell journal for checkpoint/resume (see README "
                 "\"Running experiment campaigns\")");
  cli.add_bool("resume", false,
               "replay --journal and run only the cells it does not already contain");
  cli.add_string("json", "", "also write the campaign aggregate JSON to this file");
}

/// Parses standard flags into a bench_config.  Returns nullopt on --help.
inline std::optional<bench_config> parse_standard(cli_parser& cli, int argc,
                                                  const char* const* argv) {
  if (!cli.parse(argc, argv)) return std::nullopt;
  bench_config cfg;
  cfg.mode = cli.get_string("mode");
  NB_REQUIRE(cfg.mode == "quick" || cfg.mode == "paper", "--mode must be quick or paper");
  cfg.n_override = cli.get_int("n");
  NB_REQUIRE(cfg.n_override >= 0 && cfg.n_override <= 0xFFFFFFFFLL,
             "--n got " + std::to_string(cfg.n_override) + "; it must be in [0, 2^32)");
  cfg.runs_override = cli.get_int("runs");
  NB_REQUIRE(cfg.runs_override >= 0,
             "--runs got " + std::to_string(cfg.runs_override) + "; it must be non-negative");
  cfg.m_multiplier = cli.get_int("m-mult");
  // Checked by division: m-mult * n itself could overflow int64.
  const auto n_max = static_cast<step_count>(std::ranges::max(cfg.bin_counts()));
  NB_REQUIRE(cfg.m_multiplier >= 1 && cfg.m_multiplier <= max_run_balls / n_max,
             "--m-mult got " + std::to_string(cfg.m_multiplier) + "; it must be in [1, " +
                 std::to_string(max_run_balls / n_max) + "] so that m-mult * n (n up to " +
                 std::to_string(n_max) + ") stays within max_run_balls");
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed"));
  cfg.threads = thread_count_flag("--threads", cli.get_int("threads"));
  cfg.engine = engine_from_flags(get_engine_flags(cli));
  const model_flag_values model = get_model_flags(cli);
  cfg.weighting = model.weighting;
  cfg.sampler = model.sampler;
  cfg.departures = model.churn.departures;
  cfg.churn = model.churn.churn;
  cfg.churn_telemetry = model.churn.telemetry;
  // Parse-validate the weighting and departure specs up front; the sampler
  // is built per process (its table depends on n), so its spec is
  // validated on first use.
  (void)make_weighting(cfg.weighting);
  (void)make_departures(cfg.departures);
  cfg.csv = cli.get_string("csv");
  cfg.journal = cli.get_string("journal");
  cfg.resume = cli.get_bool("resume");
  NB_REQUIRE(!cfg.resume || !cfg.journal.empty(), "--resume needs --journal");
  cfg.json = cli.get_string("json");
  return cfg;
}

/// Maps the standard bench flags onto orchestrator options.  `repeats`
/// comes from the config's runs() (quick/paper default or --runs).
inline campaign_options campaign_options_for(const bench_config& cfg) {
  campaign_options opt;
  opt.repeats = cfg.runs();
  opt.seed = cfg.seed;
  opt.threads = cfg.threads;
  opt.engine = cfg.engine;
  opt.journal_path = cfg.journal;
  opt.resume = cfg.resume;
  opt.churn_telemetry_every = static_cast<step_count>(cfg.churn_telemetry);
  return opt;
}

/// Applies the --weighting/--sampler flags to a declarative grid: the
/// model axes become single-element dimensions, so the expansion order and
/// labels are unchanged when the flags are left at their defaults.
inline void apply_model_flags(sweep_grid& grid, const bench_config& cfg) {
  grid.weightings = {cfg.weighting};
  grid.samplers = {cfg.sampler};
  grid.departures = {cfg.departures};
  if (cfg.churn > 0) {
    warn_once("bench-churn-grid",
              "--churn has no effect on declarative-grid binaries: churn cells expanded "
              "from a grid use the steady-state default occupancy = m");
  }
}

/// Same for an explicit configuration list, through the orchestrator's
/// shared override mapping (exp/campaign.hpp): registry-backed configs
/// take the specs; factory-built cells own their model, so non-default
/// flags on them trigger the house accepted-but-ineffective diagnostic
/// instead of silence.
inline void apply_model_flags(std::vector<campaign_config>& configs, const bench_config& cfg) {
  model_overrides overrides;
  overrides.weighting = cfg.weighting;
  overrides.sampler = cfg.sampler;
  overrides.departures = cfg.departures;
  overrides.churn_occupancy = static_cast<step_count>(cfg.churn);
  apply_model_overrides(configs, overrides);
}

/// For binaries whose cells are all factory-built (or that bypass the
/// campaign layer entirely): one-time diagnostic that non-default
/// --weighting/--sampler/--departures flags were accepted but cannot apply.
inline void warn_model_flags_unsupported(const bench_config& cfg, const std::string& binary) {
  if (cfg.weighting == "unit" && cfg.sampler == "uniform" && cfg.departures == "none") return;
  warn_once("bench-model-flags/" + binary,
            "--weighting/--sampler/--departures have no effect in " + binary +
                ": its cells are factory-built; the flags apply to registry-backed configs only");
}

/// Standard post-campaign emission: aggregate JSON (--json) and a
/// progress note about journal/resume cell accounting.
inline void report_campaign(const campaign_result& campaign, const bench_config& cfg) {
  if (!cfg.json.empty()) {
    campaign.write_json(cfg.json);
    std::printf("[campaign aggregate JSON -> %s]\n", cfg.json.c_str());
  }
  if (!cfg.journal.empty()) {
    std::printf("[journal %s: %zu cells executed, %zu resumed]\n", cfg.journal.c_str(),
                campaign.cells_executed, campaign.cells_resumed);
  }
}

/// Why a binary that does not run exactly one campaign has no use for
/// --journal, --resume and --json.
inline constexpr const char* kSeveralCampaigns =
    "it runs several campaigns, and a journal or JSON archive describes one";
inline constexpr const char* kNoCampaign =
    "it runs no campaign, so there is no journal or JSON archive to write";

/// For binaries that run several campaigns under one seed (one campaign
/// per section; folding them into one would re-seed the cells) or none at
/// all: a journal or aggregate JSON describes a single campaign, so
/// --journal, --resume and --json are rejected before any run instead of
/// being ignored.  `reason` is kSeveralCampaigns or kNoCampaign.
inline void reject_campaign_file_flags(const bench_config& cfg, const std::string& binary,
                                       const char* reason) {
  const auto reject = [&binary, reason](bool set, const char* flag) {
    NB_REQUIRE(!set, std::string(flag) + " is not supported by " + binary + ": " + reason);
  };
  reject(cfg.resume, "--resume");
  reject(!cfg.journal.empty(), "--journal");
  reject(!cfg.json.empty(), "--json");
}

/// Runs one campaign and returns each configuration's mean gap, in
/// configuration order.
[[nodiscard]] inline std::vector<double> mean_gaps(const std::vector<campaign_config>& configs,
                                                   const campaign_options& opt) {
  const auto campaign = run_campaign(configs, opt);
  std::vector<double> gaps;
  gaps.reserve(campaign.configs.size());
  for (const auto& c : campaign.configs) gaps.push_back(c.aggregate.mean_gap());
  return gaps;
}

/// Wall-clock helper.
class stopwatch {
 public:
  stopwatch() : start_(std::chrono::steady_clock::now()) {}
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_).count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Wall-clock statistics over repeated timed reps of one workload.
/// Reported numbers are medians; min/max bound the scheduling noise (a
/// single cold shot -- the old harness -- reads as min == median == max
/// with reps = 1 and warmup = 0, so JSON consumers can tell them apart).
struct timing_stats {
  int warmup = 0;
  int reps = 0;
  double min_s = 0.0;
  double median_s = 0.0;
  double max_s = 0.0;
  /// Coefficient of variation of the timed reps: sample standard
  /// deviation over mean (0 with one rep).  A leg whose cv rivals the
  /// change it is meant to show needs more reps.
  double cv = 0.0;

  /// Throughput views of the same sample (work units / seconds).
  [[nodiscard]] double rate_median(double work) const { return work / median_s; }
  [[nodiscard]] double rate_min(double work) const { return work / max_s; }
  [[nodiscard]] double rate_max(double work) const { return work / min_s; }
};

/// Times `body()` with `warmup` untimed shots (cache/branch-predictor/page
/// warm-in) followed by `reps` timed shots; returns min/median/max and cv.  The
/// body must be a repeatable workload -- same seed, same work -- so the
/// spread measures the machine, not the benchmark.
template <typename Body>
timing_stats time_median_of(int warmup, int reps, const Body& body) {
  NB_REQUIRE(reps >= 1, "need at least one timed rep");
  NB_REQUIRE(warmup >= 0, "warmup count must be non-negative");
  for (int i = 0; i < warmup; ++i) body();
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    const stopwatch clock;
    body();
    samples.push_back(clock.seconds());
  }
  std::sort(samples.begin(), samples.end());
  timing_stats out;
  out.warmup = warmup;
  out.reps = reps;
  out.min_s = samples.front();
  out.max_s = samples.back();
  // Median of an even sample: mean of the middle pair.
  const std::size_t mid = samples.size() / 2;
  out.median_s =
      samples.size() % 2 != 0 ? samples[mid] : 0.5 * (samples[mid - 1] + samples[mid]);
  if (samples.size() > 1) {
    double mean = 0.0;
    for (const double x : samples) mean += x;
    mean /= static_cast<double>(samples.size());
    double squares = 0.0;
    for (const double x : samples) squares += (x - mean) * (x - mean);
    out.cv = std::sqrt(squares / static_cast<double>(samples.size() - 1)) / mean;
  }
  return out;
}

// ---------------------------------------------------------------------------
// Published results (Tables 12.3 and 12.4 of the paper), for side-by-side
// comparison columns.  Keys: (process, parameter, n).

using distribution = std::vector<std::pair<int, int>>;  // (gap value, percent)

struct paper_key {
  std::string process;
  int param;
  std::int64_t n;
  bool operator<(const paper_key& o) const {
    return std::tie(process, param, n) < std::tie(o.process, o.param, o.n);
  }
};

/// The paper's Table 12.3 (g-Bounded / g-Myopic-Comp / sigma-Noisy-Load)
/// and Table 12.4 (b-Batch / One-Choice) empirical gap distributions.
[[nodiscard]] inline const std::map<paper_key, distribution>& paper_distributions() {
  static const std::map<paper_key, distribution> table = {
      // ----- Table 12.3: g-Bounded -----
      {{"g-bounded", 0, 10000}, {{2, 46}, {3, 54}}},
      {{"g-bounded", 1, 10000}, {{4, 74}, {5, 26}}},
      {{"g-bounded", 2, 10000}, {{5, 1}, {6, 89}, {7, 10}}},
      {{"g-bounded", 4, 10000}, {{8, 1}, {9, 82}, {10, 17}}},
      {{"g-bounded", 8, 10000}, {{13, 1}, {14, 35}, {15, 51}, {16, 11}, {17, 2}}},
      {{"g-bounded", 16, 10000}, {{23, 4}, {24, 37}, {25, 43}, {26, 11}, {27, 5}}},
      {{"g-bounded", 0, 50000}, {{2, 4}, {3, 96}}},
      {{"g-bounded", 1, 50000}, {{4, 13}, {5, 86}, {6, 1}}},
      {{"g-bounded", 2, 50000}, {{6, 67}, {7, 33}}},
      {{"g-bounded", 4, 50000}, {{9, 46}, {10, 51}, {11, 3}}},
      {{"g-bounded", 8, 50000}, {{14, 3}, {15, 72}, {16, 24}, {17, 1}}},
      {{"g-bounded", 16, 50000}, {{25, 25}, {26, 47}, {27, 23}, {28, 4}, {29, 1}}},
      {{"g-bounded", 0, 100000}, {{3, 100}}},
      {{"g-bounded", 1, 100000}, {{4, 1}, {5, 99}}},
      {{"g-bounded", 2, 100000}, {{6, 50}, {7, 50}}},
      {{"g-bounded", 4, 100000}, {{9, 32}, {10, 67}, {11, 1}}},
      {{"g-bounded", 8, 100000}, {{15, 39}, {16, 57}, {17, 4}}},
      {{"g-bounded", 16, 100000}, {{25, 9}, {26, 50}, {27, 33}, {28, 7}, {29, 1}}},
      // ----- Table 12.3: g-Myopic-Comp -----
      {{"g-myopic", 0, 10000}, {{2, 46}, {3, 54}}},
      {{"g-myopic", 1, 10000}, {{4, 97}, {5, 3}}},
      {{"g-myopic", 2, 10000}, {{5, 49}, {6, 51}}},
      {{"g-myopic", 4, 10000}, {{7, 2}, {8, 87}, {9, 11}}},
      {{"g-myopic", 8, 10000}, {{12, 37}, {13, 50}, {14, 12}, {15, 1}}},
      {{"g-myopic", 16, 10000}, {{20, 14}, {21, 47}, {22, 29}, {23, 8}, {25, 2}}},
      {{"g-myopic", 0, 50000}, {{2, 4}, {3, 96}}},
      {{"g-myopic", 1, 50000}, {{4, 73}, {5, 27}}},
      {{"g-myopic", 2, 50000}, {{5, 1}, {6, 97}, {7, 2}}},
      {{"g-myopic", 4, 50000}, {{8, 50}, {9, 50}}},
      {{"g-myopic", 8, 50000}, {{12, 1}, {13, 50}, {14, 44}, {15, 5}}},
      {{"g-myopic", 16, 50000}, {{21, 10}, {22, 44}, {23, 39}, {24, 6}, {26, 1}}},
      {{"g-myopic", 0, 100000}, {{3, 100}}},
      {{"g-myopic", 1, 100000}, {{4, 59}, {5, 41}}},
      {{"g-myopic", 2, 100000}, {{6, 99}, {7, 1}}},
      {{"g-myopic", 4, 100000}, {{8, 19}, {9, 78}, {10, 3}}},
      {{"g-myopic", 8, 100000}, {{13, 21}, {14, 72}, {15, 7}}},
      {{"g-myopic", 16, 100000}, {{22, 24}, {23, 51}, {24, 24}, {26, 1}}},
      // ----- Table 12.3: sigma-Noisy-Load -----
      {{"sigma-noisy-load", 0, 10000}, {{2, 46}, {3, 54}}},
      {{"sigma-noisy-load", 1, 10000}, {{3, 29}, {4, 71}}},
      {{"sigma-noisy-load", 2, 10000}, {{4, 9}, {5, 84}, {6, 7}}},
      {{"sigma-noisy-load", 4, 10000}, {{6, 20}, {7, 73}, {8, 7}}},
      {{"sigma-noisy-load", 8, 10000}, {{9, 36}, {10, 50}, {11, 12}, {12, 2}}},
      {{"sigma-noisy-load", 16, 10000},
       {{12, 2}, {13, 33}, {14, 42}, {15, 16}, {16, 6}, {18, 1}}},
      {{"sigma-noisy-load", 0, 50000}, {{2, 4}, {3, 96}}},
      {{"sigma-noisy-load", 1, 50000}, {{4, 98}, {5, 2}}},
      {{"sigma-noisy-load", 2, 50000}, {{5, 61}, {6, 39}}},
      {{"sigma-noisy-load", 4, 50000}, {{7, 51}, {8, 48}, {10, 1}}},
      {{"sigma-noisy-load", 8, 50000}, {{9, 1}, {10, 37}, {11, 52}, {12, 8}, {13, 2}}},
      {{"sigma-noisy-load", 16, 50000}, {{14, 24}, {15, 45}, {16, 24}, {17, 6}, {18, 1}}},
      {{"sigma-noisy-load", 0, 100000}, {{3, 100}}},
      {{"sigma-noisy-load", 1, 100000}, {{4, 95}, {5, 5}}},
      {{"sigma-noisy-load", 2, 100000}, {{5, 58}, {6, 41}, {7, 1}}},
      {{"sigma-noisy-load", 4, 100000}, {{7, 26}, {8, 69}, {9, 4}, {10, 1}}},
      {{"sigma-noisy-load", 8, 100000}, {{10, 13}, {11, 56}, {12, 26}, {13, 4}, {14, 1}}},
      {{"sigma-noisy-load", 16, 100000},
       {{14, 1}, {15, 49}, {16, 35}, {17, 8}, {18, 6}, {19, 1}}},
      // ----- Table 12.4: b-Batch at n = 10^4, m = 1000 n -----
      {{"b-batch", 10, 10000}, {{3, 44}, {4, 56}}},
      {{"b-batch", 100, 10000}, {{3, 40}, {4, 60}}},
      {{"b-batch", 1000, 10000}, {{4, 91}, {5, 9}}},
      {{"b-batch", 10000, 10000}, {{5, 29}, {6, 49}, {7, 18}, {8, 4}}},
      {{"b-batch", 100000, 10000},
       {{16, 1}, {17, 8}, {18, 15}, {19, 28}, {20, 18}, {21, 12}, {22, 14}, {24, 1}, {25, 2}, {26, 1}}},
      // ----- Table 12.4: One-Choice with m = b balls, n = 10^4 -----
      {{"one-choice", 10, 10000}, {{1, 100}}},
      {{"one-choice", 100, 10000}, {{1, 47}, {2, 52}, {3, 1}}},
      {{"one-choice", 1000, 10000}, {{2, 5}, {3, 88}, {4, 7}}},
      {{"one-choice", 10000, 10000}, {{6, 22}, {7, 56}, {8, 19}, {9, 3}}},
      {{"one-choice", 100000, 10000},
       {{21, 2}, {22, 12}, {23, 13}, {24, 21}, {25, 18}, {26, 17}, {27, 4}, {28, 8}, {29, 4}, {31, 1}}},
  };
  return table;
}

/// Mean of a published distribution.
[[nodiscard]] inline double paper_mean(const distribution& d) {
  double num = 0.0;
  double den = 0.0;
  for (const auto& [value, pct] : d) {
    num += static_cast<double>(value) * pct;
    den += pct;
  }
  return den > 0 ? num / den : 0.0;
}

/// Looks up the paper's mean gap if published for this configuration.
[[nodiscard]] inline std::optional<double> paper_mean_for(const std::string& process, int param,
                                                          std::int64_t n) {
  const auto& table = paper_distributions();
  const auto it = table.find(paper_key{process, param, n});
  if (it == table.end()) return std::nullopt;
  return paper_mean(it->second);
}

/// "v1:p1%  v2:p2%" rendering of a published distribution.
[[nodiscard]] inline std::string paper_style(const distribution& d) {
  std::string out;
  for (const auto& [value, pct] : d) {
    if (!out.empty()) out += "  ";
    out += std::to_string(value) + ":" + std::to_string(pct) + "%";
  }
  return out;
}

/// Formats an optional paper value for a table cell.
[[nodiscard]] inline std::string opt_str(std::optional<double> v, int decimals = 2) {
  return v ? format_fixed(*v, decimals) : "-";
}

}  // namespace nb::bench
