// Tiny declarative command-line flag parser for the bench/example binaries.
//
// Supported syntax: --name value, --name=value, and bare --flag for booleans.
// Unknown flags are an error (catches typos in experiment scripts); --help
// prints the registered flags with defaults and descriptions.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace nb {

class cli_parser {
 public:
  explicit cli_parser(std::string program_description);

  void add_int(const std::string& name, std::int64_t default_value, const std::string& help);
  void add_double(const std::string& name, double default_value, const std::string& help);
  void add_string(const std::string& name, const std::string& default_value, const std::string& help);
  void add_bool(const std::string& name, bool default_value, const std::string& help);

  /// Parses argv.  Returns false if --help was requested (help text is
  /// printed to stdout); throws nb::contract_error on malformed input.
  bool parse(int argc, const char* const* argv);

  [[nodiscard]] std::int64_t get_int(const std::string& name) const;
  [[nodiscard]] double get_double(const std::string& name) const;
  [[nodiscard]] const std::string& get_string(const std::string& name) const;
  [[nodiscard]] bool get_bool(const std::string& name) const;

  [[nodiscard]] std::string help_text() const;

 private:
  enum class kind { integer, real, text, boolean };
  struct flag {
    kind type;
    std::string help;
    std::int64_t int_value = 0;
    double double_value = 0.0;
    std::string string_value;
    bool bool_value = false;
  };

  const flag& find(const std::string& name, kind expected) const;
  void set_from_text(const std::string& name, const std::string& text);

  std::string description_;
  std::map<std::string, flag> flags_;
  std::vector<std::string> order_;
};

/// Largest value a thread-count flag accepts.
inline constexpr std::int64_t max_thread_flag = 1024;

/// Validates the value of a thread-count flag (`flag` is its spelling,
/// e.g. "--threads"): returns it as a count, or throws contract_error
/// naming the flag and the value unless it lies in [0, max_thread_flag].
[[nodiscard]] std::size_t thread_count_flag(const std::string& flag, std::int64_t value);

// ---------------------------------------------------------------------------
// Shared flag families.
//
// The engine-selection and allocation-model flags are common to every
// model-facing binary (the bench/ tools, examples/campaign, the fig/table
// reproductions).  They are registered HERE, once, with the canonical
// spelling, defaults and help text, so a new flag -- like the steady-state
// --departures/--churn family -- lands in one place and every binary picks
// it up.  This layer is string-level only: util knows nothing about models
// or kernels, so validation stays where the specs live (make_weighting,
// make_departures, kernel_isa_from_name, ...).

/// Raw values of the engine-selection family (execution routing; shards
/// and lanes are part of the sampling contract, the rest never affects
/// results).
struct engine_flag_values {
  std::size_t threads_per_run = 0;
  std::int64_t shards = 16;
  std::string kernel;  ///< "off" or a kernel backend spec
  std::int64_t lanes = 8;
};

/// Registers --threads-per-run, --shards, --kernel, --lanes.  --kernel and
/// --lanes are validated by engine_from_flags (sim/runner.hpp).
void add_engine_flags(cli_parser& cli);
[[nodiscard]] engine_flag_values get_engine_flags(const cli_parser& cli);

/// Raw values of the steady-state churn family (see README
/// "Steady-state churn").
struct churn_flag_values {
  std::string departures;       ///< departure-channel spec ("none" = insertion-only)
  std::int64_t churn = 0;       ///< occupancy override for churn cells (0 = m)
  std::int64_t telemetry = 0;   ///< gap-telemetry cadence in pairs (0 = final only)
};

/// Registers --departures, --churn, --churn-telemetry.
void add_churn_flags(cli_parser& cli);
[[nodiscard]] churn_flag_values get_churn_flags(const cli_parser& cli);

/// Raw values of the allocation-model family (all sampling contract).
struct model_flag_values {
  std::string weighting;
  std::string sampler;
  churn_flag_values churn;
};

/// Registers --weighting, --sampler and the churn family.
void add_model_flags(cli_parser& cli);
[[nodiscard]] model_flag_values get_model_flags(const cli_parser& cli);

}  // namespace nb
