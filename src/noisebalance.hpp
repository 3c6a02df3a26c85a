// Umbrella header: the full public API of the noisebalance library.
//
// Quick start:
//
//   #include "noisebalance.hpp"
//   nb::two_choice p(10'000);
//   nb::rng_t rng(42);
//   auto result = nb::simulate(p, 10'000'000, rng);
//   std::cout << "Gap(m) = " << result.gap << '\n';
//
// See examples/ for complete programs and README.md's "Layer map" for the
// architecture.
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/alloc_model.hpp"
#include "core/analysis/allocation_probability.hpp"
#include "core/analysis/exact_chain.hpp"
#include "core/basic_processes.hpp"
#include "core/engine/shard_engine.hpp"
#include "core/kernel/kernel.hpp"
#include "core/load_vector.hpp"
#include "core/noise/adv_comp.hpp"
#include "core/noise/adv_load.hpp"
#include "core/noise/batch.hpp"
#include "core/noise/delay.hpp"
#include "core/noise/noisy_comp.hpp"
#include "core/noise/thinning.hpp"
#include "core/potential/majorization.hpp"
#include "core/potential/potentials.hpp"
#include "core/potential/super_exp_ladder.hpp"
#include "core/process.hpp"
#include "core/process_registry.hpp"
#include "core/theory/bounds.hpp"
#include "exp/campaign.hpp"
#include "exp/checkpoint.hpp"
#include "exp/journal.hpp"
#include "rng/rng.hpp"
#include "sim/churn.hpp"
#include "sim/recorder.hpp"
#include "sim/runner.hpp"
#include "sim/sweep.hpp"
#include "stats/histogram.hpp"
#include "stats/regression.hpp"
#include "stats/summary.hpp"
#include "util/cli.hpp"
#include "util/csv.hpp"
#include "util/fsio.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
