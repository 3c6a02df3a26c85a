#include "util/cli.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "common/error.hpp"

namespace nb {

cli_parser::cli_parser(std::string program_description)
    : description_(std::move(program_description)) {}

void cli_parser::add_int(const std::string& name, std::int64_t default_value, const std::string& help) {
  NB_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flag f;
  f.type = kind::integer;
  f.help = help;
  f.int_value = default_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void cli_parser::add_double(const std::string& name, double default_value, const std::string& help) {
  NB_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flag f;
  f.type = kind::real;
  f.help = help;
  f.double_value = default_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void cli_parser::add_string(const std::string& name, const std::string& default_value,
                            const std::string& help) {
  NB_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flag f;
  f.type = kind::text;
  f.help = help;
  f.string_value = default_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void cli_parser::add_bool(const std::string& name, bool default_value, const std::string& help) {
  NB_REQUIRE(!flags_.count(name), "duplicate flag: " + name);
  flag f;
  f.type = kind::boolean;
  f.help = help;
  f.bool_value = default_value;
  flags_.emplace(name, std::move(f));
  order_.push_back(name);
}

void cli_parser::set_from_text(const std::string& name, const std::string& text) {
  auto it = flags_.find(name);
  NB_REQUIRE(it != flags_.end(), "unknown flag: --" + name);
  flag& f = it->second;
  try {
    switch (f.type) {
      case kind::integer:
        f.int_value = std::stoll(text);
        break;
      case kind::real:
        f.double_value = std::stod(text);
        break;
      case kind::text:
        f.string_value = text;
        break;
      case kind::boolean:
        if (text == "true" || text == "1" || text == "yes") {
          f.bool_value = true;
        } else if (text == "false" || text == "0" || text == "no") {
          f.bool_value = false;
        } else {
          throw std::invalid_argument("not a boolean");
        }
        break;
    }
  } catch (const std::exception&) {
    throw contract_error("invalid value for --" + name + ": '" + text + "'");
  }
}

bool cli_parser::parse(int argc, const char* const* argv) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::fputs(help_text().c_str(), stdout);
      return false;
    }
    NB_REQUIRE(arg.rfind("--", 0) == 0, "expected --flag, got '" + arg + "'");
    arg = arg.substr(2);
    const auto eq = arg.find('=');
    if (eq != std::string::npos) {
      set_from_text(arg.substr(0, eq), arg.substr(eq + 1));
      continue;
    }
    auto it = flags_.find(arg);
    NB_REQUIRE(it != flags_.end(), "unknown flag: --" + arg);
    if (it->second.type == kind::boolean) {
      // Bare --flag sets true unless the next token is an explicit boolean.
      if (i + 1 < argc) {
        const std::string next = argv[i + 1];
        if (next == "true" || next == "false" || next == "0" || next == "1") {
          set_from_text(arg, next);
          ++i;
          continue;
        }
      }
      it->second.bool_value = true;
      continue;
    }
    NB_REQUIRE(i + 1 < argc, "missing value for --" + arg);
    set_from_text(arg, argv[++i]);
  }
  return true;
}

const cli_parser::flag& cli_parser::find(const std::string& name, kind expected) const {
  auto it = flags_.find(name);
  NB_REQUIRE(it != flags_.end(), "flag not registered: " + name);
  NB_REQUIRE(it->second.type == expected, "flag type mismatch for: " + name);
  return it->second;
}

std::int64_t cli_parser::get_int(const std::string& name) const {
  return find(name, kind::integer).int_value;
}
double cli_parser::get_double(const std::string& name) const {
  return find(name, kind::real).double_value;
}
const std::string& cli_parser::get_string(const std::string& name) const {
  return find(name, kind::text).string_value;
}
bool cli_parser::get_bool(const std::string& name) const {
  return find(name, kind::boolean).bool_value;
}

std::string cli_parser::help_text() const {
  std::ostringstream os;
  os << description_ << "\n\nFlags:\n";
  for (const auto& name : order_) {
    const flag& f = flags_.at(name);
    os << "  --" << name;
    switch (f.type) {
      case kind::integer:
        os << " <int>     (default " << f.int_value << ")";
        break;
      case kind::real:
        os << " <float>   (default " << f.double_value << ")";
        break;
      case kind::text:
        os << " <string>  (default '" << f.string_value << "')";
        break;
      case kind::boolean:
        os << "           (default " << (f.bool_value ? "true" : "false") << ")";
        break;
    }
    os << "\n      " << f.help << "\n";
  }
  return os.str();
}

std::size_t thread_count_flag(const std::string& flag, std::int64_t value) {
  NB_REQUIRE(value >= 0 && value <= max_thread_flag,
             flag + " got " + std::to_string(value) + "; it must be in [0, " +
                 std::to_string(max_thread_flag) + "]");
  return static_cast<std::size_t>(value);
}

// ---------------------------------------------------------------------------
// Shared flag families.

void add_engine_flags(cli_parser& cli) {
  cli.add_int("threads-per-run", 0,
              "intra-run shard-engine workers (0 = serial runs; stale-snapshot "
              "windows, e.g. b-batch batches, then run shard-parallel)");
  cli.add_int("shards", 16, "fixed shard count for the parallel engine (sampling contract)");
  cli.add_string("kernel", "off",
                 "allocation-kernel backend for frozen windows: off | scalar | "
                 "avx2 | avx512 | auto | simd (auto/simd = best this CPU supports; "
                 "an unsupported request warns once and falls back; backends are "
                 "bit-identical for a fixed lane count)");
  cli.add_int("lanes", 8, "kernel RNG lanes (sampling contract, like shards)");
}

engine_flag_values get_engine_flags(const cli_parser& cli) {
  engine_flag_values v;
  v.threads_per_run = thread_count_flag("--threads-per-run", cli.get_int("threads-per-run"));
  v.shards = cli.get_int("shards");
  v.kernel = cli.get_string("kernel");
  v.lanes = cli.get_int("lanes");
  NB_REQUIRE(v.shards >= 1, "--shards must be positive");
  return v;
}

void add_churn_flags(cli_parser& cli) {
  cli.add_string("departures", "none",
                 "departure-channel spec: none | random | lease | drain (sampling "
                 "contract; non-none turns cells into steady-state churn cells -- "
                 "see README \"Steady-state churn\")");
  cli.add_int("churn", 0,
              "steady-state occupancy for churn cells (0 = m, the steady-state "
              "default; needs a non-none --departures)");
  cli.add_int("churn-telemetry", 0,
              "record a gap/occupancy telemetry point about every N churn pairs "
              "(0 = final point only; execution-only, never affects results)");
}

churn_flag_values get_churn_flags(const cli_parser& cli) {
  churn_flag_values v;
  v.departures = cli.get_string("departures");
  v.churn = cli.get_int("churn");
  v.telemetry = cli.get_int("churn-telemetry");
  NB_REQUIRE(v.churn >= 0, "--churn must be >= 0");
  NB_REQUIRE(v.telemetry >= 0, "--churn-telemetry must be >= 0");
  NB_REQUIRE(v.churn == 0 || v.departures != "none",
             "--churn needs a departure channel (--departures random | lease | drain)");
  return v;
}

void add_model_flags(cli_parser& cli) {
  cli.add_string("weighting", "unit",
                 "ball-weighting spec: unit | fixed:<w> | two-point:<lo>,<hi>,<p> | "
                 "pareto:<alpha>[,<cap>] (sampling contract; see README \"Weighted balls\")");
  cli.add_string("sampler", "uniform",
                 "bin-sampler spec: uniform | zipf:<s> | hot:<k>,<f> (sampling contract)");
  add_churn_flags(cli);
}

model_flag_values get_model_flags(const cli_parser& cli) {
  model_flag_values v;
  v.weighting = cli.get_string("weighting");
  v.sampler = cli.get_string("sampler");
  v.churn = get_churn_flags(cli);
  return v;
}

}  // namespace nb
