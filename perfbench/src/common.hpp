// Shared plumbing of perfbench_driver: run options, output checks,
// metrics, the replay/attribution record, clocks and order statistics.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "noisebalance.hpp"
#include "trace.hpp"

namespace perfbench {

/// Command-line options of one perfbench_driver run.
struct run_options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny problem sizes, for the self-check (seconds-scale, any machine).
  bool toy = false;
  /// Deliberately corrupts one expectation per workload, so the self-check
  /// can show that the output checks fail when they should.
  bool corrupt = false;
};

/// Output checks.  Every expectation counts as attempted; a false one
/// counts as failed and its message goes to stderr (the first few only).
class checker {
 public:
  explicit checker(bool corrupt) : corrupt_(corrupt) {}

  void expect(bool ok, const std::string& what);

  /// `value` with the deliberate corruption applied (off by one).
  [[nodiscard]] std::int64_t expected(std::int64_t value) const noexcept {
    return corrupt_ ? value + 1 : value;
  }

  [[nodiscard]] std::int64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::int64_t failed() const noexcept { return failed_; }

 private:
  bool corrupt_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

struct metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one workload run produces.  `record` is the replay and
/// attribution record: (key, raw JSON value) pairs, in insertion order.
struct run_output {
  explicit run_output(bool corrupt) : checks(corrupt) {}

  checker checks;
  std::vector<metric> metrics;
  std::vector<std::pair<std::string, std::string>> record;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  void note(const std::string& key, const std::string& raw_json) {
    record.emplace_back(key, raw_json);
  }
  void note(const std::string& key, double value);
  void note_str(const std::string& key, const std::string& value);
};

/// Per-layer metrics, with units, in the order every traced run emits
/// them.  Each workload fills the ones its layers exercise; the rest read
/// 0, meaning the workload bypasses that layer.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

/// Fills every per-layer metric `out` does not already carry with 0.
void complete_per_layer(run_output& out);

// --- workloads ------------------------------------------------------------

void run_noisy_campaign(const run_options& opt, run_output& out, tracer* trace);

/// Per-layer measurements of the campaign path (exp, the core/noise decide
/// rules, rng draws, load_state deposits): the Table 12.3 campaign at
/// n = 10^4 (and 10^5 with `both_n`) run untraced and then traced, whose
/// cells must match, plus isolated per-ball probes.  Returns the traced
/// campaign's overhead over the untraced one.
double measure_campaign_layers(const run_options& opt, bool both_n, run_output& out,
                               tracer* trace);
void run_batch_insert(const run_options& opt, run_output& out, tracer* trace);
void run_churn_drain(const run_options& opt, run_output& out, tracer* trace);

// --- helpers ----------------------------------------------------------------

/// Seconds of user + system CPU this process has used (all threads).
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of this process, in MB (10^6 bytes).
[[nodiscard]] double peak_rss_mb();
/// Seconds since `start`.
[[nodiscard]] double since(clock_type::time_point start);

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] double sum(const std::vector<double>& v);

/// Effective core clock in GHz, timed on a chain of dependent multiplies.
/// About two milliseconds.
[[nodiscard]] double core_ghz();

/// The timed phase of a workload: chunks of work, each timed by the wall
/// and CPU clocks, with the core clock measured around each chunk.
struct timed_phase {
  std::vector<double> rates;  ///< events per second of each chunk
  std::vector<double> ghz;    ///< core clock around each chunk
  double wall_s = 0.0;
  double cpu_s = 0.0;
  std::int64_t events = 0;

  template <typename Body>
  void chunk(std::int64_t chunk_events, const Body& body) {
    const double before = core_ghz();
    const double c0 = cpu_seconds();
    const auto t0 = clock_type::now();
    body();
    const double dt = since(t0);
    cpu_s += cpu_seconds() - c0;
    wall_s += dt;
    events += chunk_events;
    rates.push_back(static_cast<double>(chunk_events) / dt);
    ghz.push_back(0.5 * (before + core_ghz()));
  }

  /// Events over wall time, all chunks together.
  [[nodiscard]] double rate() const { return static_cast<double>(events) / wall_s; }
};

/// Adds the end-to-end metrics of an untraced run.
void add_end_to_end(run_output& out, double events_per_s, const std::vector<double>& setup_s,
                    const timed_phase& phase);

/// FNV-1a digest of a load vector, for the record.
[[nodiscard]] std::uint64_t digest(const std::vector<nb::load_t>& loads);

/// Sum of a load vector (64-bit).
[[nodiscard]] std::int64_t load_sum(const std::vector<nb::load_t>& loads);

/// The median normalized load y_{n/2} (the scale leg's per-window
/// observation), read from the level index in O(span).
[[nodiscard]] double median_normalized(const nb::load_state& s);

[[nodiscard]] std::string json_quote(const std::string& raw);
[[nodiscard]] std::string json_number(double v);
/// "[a, b, ...]" of already-encoded JSON values.
[[nodiscard]] std::string json_array(const std::vector<std::string>& raw);

}  // namespace perfbench
