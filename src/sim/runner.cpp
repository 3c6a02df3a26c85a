#include "sim/runner.hpp"

#include <cmath>

#include "util/cli.hpp"

namespace nb {

engine_config engine_from_flags(const engine_flag_values& flags) {
  const std::optional<kernel_isa> backend = kernel_isa_flag("--kernel", flags.kernel, true);
  engine_config engine;
  engine.threads_per_run = static_cast<std::size_t>(flags.threads_per_run);
  engine.shards = static_cast<std::size_t>(flags.shards);
  engine.use_kernel = backend.has_value() && engine.threads_per_run == 0;
  engine.lanes = kernel_lanes_flag(flags.lanes);
  engine.isa = backend.value_or(kernel_isa::auto_detect);
  return engine;
}

summary repeat_result::gap_summary() const {
  std::vector<double> gaps;
  gaps.reserve(runs.size());
  for (const auto& r : runs) gaps.push_back(r.gap);
  return summarize(std::move(gaps));
}

double repeat_result::mean_gap() const {
  if (runs.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& r : runs) acc += r.gap;
  return acc / static_cast<double>(runs.size());
}

repeat_result run_repeated(const std::function<any_process()>& factory, step_count m,
                           const repeat_options& opt) {
  NB_REQUIRE(factory != nullptr, "process factory must not be empty");
  return run_repeated_with(factory, m, opt);
}

}  // namespace nb
