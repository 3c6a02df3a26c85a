#include "sim/runner.hpp"

#include "util/cli.hpp"

namespace nb {

engine_config engine_from_flags(const engine_flag_values& flags) {
  const std::optional<kernel_isa> backend = kernel_isa_flag("--kernel", flags.kernel, true);
  engine_config engine;
  engine.threads_per_run = flags.threads_per_run;
  engine.shards = flags.shards;
  engine.use_kernel = backend.has_value() && engine.threads_per_run == 0;
  engine.isa = backend.value_or(kernel_isa::auto_detect);
  return engine;
}

}  // namespace nb
