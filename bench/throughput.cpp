// Bulk-allocation throughput: balls/sec of the per-ball path (one
// step()/virtual call per ball -- the pre-refactor driver) against the
// bulk path (step_many with fused inner loops), plus the cost of
// observation checkpoints with and without the level-compressed load
// index.  Not a paper experiment -- this is the evidence that paper-scale
// runs (10^8 balls) are routine on a laptop.
//
// The scale section (--scale) is the before/after of the allocation
// kernel: one huge b-Batch observed run (paper regime n = 10^6, m = 10^8,
// b = n) executed by the serial fused loop, the lane-interleaved kernel
// (scalar and SIMD backends), and the shard-parallel engine, every leg
// timed warm with median-of-k reps.  Emits BENCH_throughput.json as an
// array of per-config entries {kernel, isa, threads, balls_per_sec, ...}.
//
// The scaling matrix (--threads-list / --workers-list, both part of
// --scale) makes multicore throughput a measured, regression-gated
// property: the shard engine sweeps intra-run worker threads and the
// campaign orchestrator sweeps cross-run workers over a heterogeneous
// cell mix, each leg reporting speedup-vs-1-thread, parallel efficiency
// and hardware perf counters (IPC, LLC misses, stalled cycles -- null on
// runners without a PMU), and each leg replayed single-threaded for bit
// (shard) / byte (campaign JSON) parity.  Host metadata (CPU model,
// cache line, hardware_concurrency) rides along so a committed baseline
// is interpretable on a different machine.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "util/host_info.hpp"
#include "util/perf_counters.hpp"

namespace {

using namespace nb;
using nb::bench::time_median_of;
using nb::bench::timing_stats;

constexpr int kWarmup = 1;  // untimed warm-in shots per workload
constexpr int kReps = 3;    // timed reps; medians suppress scheduling noise

struct measurement {
  timing_stats timing;
  double gap = 0.0;
  std::vector<load_t> loads;
};

/// Warm median-of-kReps timing of `body(process, rng, m)`; every shot
/// re-creates the process and generator so shots are identical workloads.
template <typename MakeProcess, typename Body>
measurement time_run(const MakeProcess& make, step_count m, std::uint64_t seed, const Body& body) {
  measurement out;
  out.timing = time_median_of(kWarmup, kReps, [&] {
    auto process = make();
    rng_t rng(seed);
    body(process, rng, m);
    out.gap = process.state().gap();
    out.loads = process.state().loads();
  });
  return out;
}

template <typename MakeProcess>
void report(const char* label, const MakeProcess& make, step_count m, std::uint64_t seed) {
  const auto work = static_cast<double>(m);
  const auto per_ball = time_run(make, m, seed, [](auto& p, rng_t& rng, step_count balls) {
    for (step_count t = 0; t < balls; ++t) p.step(rng);
  });
  const auto bulk = time_run(make, m, seed, [](auto& p, rng_t& rng, step_count balls) {
    step_many(p, rng, balls);
  });
  if (per_ball.loads != bulk.loads) {
    std::printf("PARITY FAILURE for %s: per-ball and bulk load vectors differ\n", label);
    std::exit(1);
  }
  std::printf("%-34s %14.3e %14.3e %9.2fx   (gap %.1f)\n", label,
              per_ball.timing.rate_median(work), bulk.timing.rate_median(work),
              bulk.timing.rate_median(work) / per_ball.timing.rate_median(work), bulk.gap);
}

/// The end-to-end observed run: gap, underload gap and the median
/// normalized load at every checkpoint (one checkpoint per `interval`
/// balls; the default, interval = n, is one observation per unit of
/// normalized time -- the cadence of the paper's gap-dynamics traces).
///
/// Baseline = the pre-refactor execution strategy, reconstructed inline:
/// one step() per ball, and each checkpoint pays normalized() + an
/// O(n log n) descending sort (exactly what sorted_normalized_desc did
/// before the level index existed).  Bulk = step_many between checkpoints
/// and the sort-free level-index queries.  Both record the same values.
double report_observed_run(bin_count n, step_count m, step_count interval, std::uint64_t seed) {
  const auto make = [n] { return two_choice(n); };
  const auto work = static_cast<double>(m);
  double check_per_ball = 0.0;
  double check_bulk = 0.0;
  const auto per_ball = time_run(make, m, seed, [&](auto& p, rng_t& rng, step_count balls) {
    double sink = 0.0;
    for (step_count t = 1; t <= balls; ++t) {
      p.step(rng);
      if (t % interval == 0 || t == balls) {
        const auto& s = p.state();
        const double avg = s.average_load();
        std::vector<double> y(s.loads().begin(), s.loads().end());
        std::sort(y.begin(), y.end(), std::greater<>());
        sink += (y.front() - avg) + (avg - y.back()) + (y[y.size() / 2] - avg);
      }
    }
    check_per_ball = sink;
  });
  const auto bulk = time_run(make, m, seed, [&](auto& p, rng_t& rng, step_count balls) {
    double sink = 0.0;
    for (step_count done = 0; done < balls; done += interval) {
      step_many(p, rng, std::min(interval, balls - done));
      const auto& s = p.state();
      const auto y = s.sorted_normalized_desc();
      sink += s.gap() + s.underload_gap() + y[y.size() / 2];
    }
    check_bulk = sink;
  });
  if (check_per_ball != check_bulk) {
    std::printf("PARITY FAILURE for observed run: %.6f != %.6f\n", check_per_ball, check_bulk);
    std::exit(1);
  }
  std::printf("%-34s %14.3e %14.3e %9.2fx   (gap %.1f)\n", "two-choice observed run",
              per_ball.timing.rate_median(work), bulk.timing.rate_median(work),
              bulk.timing.rate_median(work) / per_ball.timing.rate_median(work), bulk.gap);
  return bulk.timing.rate_median(work) / per_ball.timing.rate_median(work);
}

// ---------------------------------------------------------------------------
// Scale benchmark: the allocation-kernel before/after on one huge b-Batch
// observed run (paper regime: n = 10^6 bins, m = 10^8 balls, b = n, one
// observation per batch).  Legs:
//   * kernel off      -- PR 1's serial fused step_many loop,
//   * kernel scalar   -- the lane-interleaved kernel, portable backend,
//   * kernel <simd>   -- the same kernel on every SIMD backend this CPU
//                        supports (avx2 / avx512; bit-identical to
//                        scalar by contract, verified here run against
//                        run),
//   * shard-parallel  -- the intra-run shard engine, kernel inside shards.
// Every leg is timed warm (kWarmup) with median-of-kReps.  Kernel and
// shard legs also report their engine's per-window phase split
// (window_phases_ms: snapshot, kernel, merge, commit; a shard leg's
// task-row sum runs inside its commit pass, so its merge reads 0).

struct scale_measurement {
  double gap = 0.0;
  double sink = 0.0;  // checkpoint observations folded into one number
  std::vector<load_t> loads;
};

/// One observed run of `make()`; `move` advances the process by a chunk.
template <typename Make, typename Move>
scale_measurement scale_observed_run_with(const Make& make, step_count m, step_count interval,
                                          std::uint64_t seed, const Move& move) {
  auto process = make();
  rng_t rng(seed);
  scale_measurement out;
  for (step_count done = 0; done < m;) {
    const step_count chunk = checkpoint_chunk(done, m - done, interval);
    move(process, rng, chunk);
    done += chunk;
    const auto& s = process.state();
    const auto y = s.sorted_normalized_desc();
    out.sink += s.gap() + s.underload_gap() + y[y.size() / 2];
  }
  out.gap = process.state().gap();
  out.loads = process.state().loads();
  return out;
}

/// The historical b-Batch (b = n) observed run the scale legs compare on.
template <typename Move>
scale_measurement scale_observed_run(bin_count n, step_count m, step_count interval,
                                     std::uint64_t seed, const Move& move) {
  return scale_observed_run_with([n] { return b_batch(n, static_cast<step_count>(n)); }, m,
                                 interval, seed, move);
}

/// One timed leg of the scale benchmark (a row of the JSON results array).
struct scale_entry {
  std::string kernel;  // off | kernel | shard | campaign | churn*
  std::string isa;     // resolved backend ("none" for the fused loop)
  std::size_t threads = 1;
  std::string process = "b-batch";   // workload the leg times
  std::string weighting = "unit";    // ball-weighting spec (leg key)
  std::string sampler = "uniform";   // bin-sampler spec (leg key)
  std::string departures = "none";   // departure-channel spec (leg key)
  timing_stats timing;
  scale_measurement run;
  /// Hardware counters over the leg's warmup + timed shots (available ==
  /// false on runners without a usable PMU; emitted as "perf": null).
  perf_sample perf;
  /// Execution environment the leg actually ran under, so a committed
  /// baseline number is attributable: the CPU's detected best backend and
  /// a --isa override if one forced the legs ("" = none).
  std::string isa_detected;
  std::string isa_forced;
  /// Scaling-matrix legs additionally report speedup and efficiency
  /// against the matrix's 1-thread leg, plus whether the single-threaded
  /// parity replay passed (it exits on failure, so an emitted leg always
  /// says true).
  bool has_scaling = false;
  double speedup_vs_1t = 0.0;
  double efficiency = 0.0;
  bool parity_checked = false;
  /// Kernel and shard legs: where the leg engine's windows spent their
  /// time over all its shots (emitted per window as window_phases_ms).
  window_phase_times phases;
  /// Engine churn legs: the same split for the engine's departure blocks
  /// (emitted per block as depart_phases_ms, whose merge is a drain
  /// block's settle + re-serve and whose reserve is the re-serve alone,
  /// with the record's repair counts as depart_repairs).
  window_phase_times depart_phases;
  /// Like-with-like ratios (0 = not reported): a shard leg's rate over the
  /// one-shard kernel leg at t = 1 on the same ISA, and the churn-shard
  /// leg's rate over the churn-kernel leg of its channel.
  double speedup_vs_one_shard = 0.0;
  double churn_shard_vs_kernel = 0.0;
};

/// --isa override in effect for every engine the scale legs construct
/// (auto_detect = none requested) and its CLI spelling for the JSON.
kernel_isa g_isa_request = kernel_isa::auto_detect;
std::string g_isa_forced;

/// Stamps the environment fields on a finished leg.
void annotate_env(scale_entry& entry) {
  entry.isa_detected = kernel_isa_name(detect_kernel_isa());
  entry.isa_forced = g_isa_forced;
}

/// Records `phases` on a kernel/shard leg and prints its per-window split.
void note_phases(scale_entry& entry, const window_phase_times& phases) {
  entry.phases = phases;
  if (phases.windows == 0) return;
  const double ms = 1e-6 / static_cast<double>(phases.windows);
  const double total = static_cast<double>(phases.snapshot_ns + phases.kernel_ns +
                                           phases.merge_ns + phases.commit_ns);
  std::printf("    per window: snapshot %.3f ms, kernel %.3f ms, merge %.3f ms, commit %.3f ms "
              "(commit %.0f%%)",
              static_cast<double>(phases.snapshot_ns) * ms,
              static_cast<double>(phases.kernel_ns) * ms,
              static_cast<double>(phases.merge_ns) * ms,
              static_cast<double>(phases.commit_ns) * ms,
              total > 0.0 ? 100.0 * static_cast<double>(phases.commit_ns) / total : 0.0);
  // One-shard windows fold into a byte row: say how many bins wrapped it.
  if (entry.kernel == "kernel") {
    std::printf("; carries %lld", static_cast<long long>(phases.carries));
  }
  std::printf("\n");
}

/// Prints an engine churn leg's per-departure-block split and repairs.  A
/// drain block's merge phase is its settle (the task-row sum and clamp)
/// plus the re-serve of the clamped deficit, both before its one commit,
/// at every shard count; the re-serve column is that re-serve alone.
void note_depart_phases(const window_phase_times& phases) {
  if (phases.windows == 0) return;
  const double ms = 1e-6 / static_cast<double>(phases.windows);
  std::printf("    per departure block: snapshot %.3f ms, kernel %.3f ms, "
              "settle + re-serve %.3f ms (re-serve %.3f ms), commit %.3f ms; repairs: %lld "
              "clamped ranges, %lld re-served events\n",
              static_cast<double>(phases.snapshot_ns) * ms,
              static_cast<double>(phases.kernel_ns) * ms,
              static_cast<double>(phases.merge_ns) * ms,
              static_cast<double>(phases.reserve_ns) * ms,
              static_cast<double>(phases.commit_ns) * ms,
              static_cast<long long>(phases.clamped_ranges),
              static_cast<long long>(phases.reserved_events));
}

/// Sets a shard leg's speedup_vs_one_shard: its rate over the one-shard
/// kernel leg at t = 1 with the same ISA (left 0 when no such leg ran).
void note_vs_one_shard(scale_entry& shard, const std::vector<scale_entry>& results,
                       double work) {
  for (const scale_entry& e : results) {
    if (e.kernel == "kernel" && e.threads == 1 && e.isa == shard.isa) {
      shard.speedup_vs_one_shard = shard.timing.rate_median(work) / e.timing.rate_median(work);
      std::printf("    vs one-shard kernel (t=1, %s) %.2fx\n", e.isa.c_str(),
                  shard.speedup_vs_one_shard);
      return;
    }
  }
}

/// "ipc 1.23, llc 4.5e+07" console tail for a leg, or the explicit
/// unavailability note.
std::string perf_note(const perf_sample& p) {
  if (!p.available) return "perf n/a";
  char buf[96];
  if (p.llc_misses >= 0.0) {
    std::snprintf(buf, sizeof buf, "ipc %.2f, llc %.2e", p.ipc(), p.llc_misses);
  } else {
    std::snprintf(buf, sizeof buf, "ipc %.2f", p.ipc());
  }
  return buf;
}

template <typename Move>
scale_entry time_scale_leg(std::string kernel, std::string isa, std::size_t threads, bin_count n,
                           step_count m, step_count interval, std::uint64_t seed,
                           perf_counter_set& counters, const Move& move) {
  scale_entry entry;
  entry.kernel = std::move(kernel);
  entry.isa = std::move(isa);
  entry.threads = threads;
  counters.start();
  entry.timing =
      time_median_of(kWarmup, kReps, [&] { entry.run = scale_observed_run(n, m, interval, seed, move); });
  entry.perf = counters.stop();
  annotate_env(entry);
  const auto work = static_cast<double>(m);
  std::printf("  %-10s isa=%-7s t=%zu %12.3e balls/s   (min %.3e, max %.3e, gap %.1f, %s)\n",
              entry.kernel.c_str(), entry.isa.c_str(), entry.threads,
              entry.timing.rate_median(work), entry.timing.rate_min(work),
              entry.timing.rate_max(work), entry.run.gap, perf_note(entry.perf).c_str());
  return entry;
}

// ---------------------------------------------------------------------------
// Scaling matrix.

/// Intra-run thread sweep: the shard engine at every requested worker
/// count on the same paper-scale b-Batch observed run.  Each leg is
/// replayed with 1 worker + the scalar backend and must match bit for bit
/// (loads AND checkpoint observations) -- the determinism contract is
/// *verified at paper scale per leg*, not assumed.  `threads_list` must
/// start with 1 (the caller normalizes): speedup and efficiency are
/// relative to that leg.  results[shard_leg] is the scale shard leg, the
/// same configuration at its own thread count: that count joins the
/// matrix through it instead of being timed twice under one gate key.
void run_threads_matrix(bin_count n, step_count m, step_count interval,
                        const std::vector<std::size_t>& threads_list, std::size_t shards,
                        std::uint64_t seed, std::size_t shard_leg,
                        std::vector<scale_entry>& results) {
  if (threads_list.empty()) return;
  const auto work = static_cast<double>(m);
  std::printf("\n  shard-engine thread scaling (shards = %zu, per-leg 1-thread replay):\n",
              shards);
  double rate_1t = 0.0;
  for (const std::size_t t : threads_list) {
    const bool timed = results[shard_leg].threads == t;
    if (!timed) {
      // Counters open before the engine so its pool threads, cloned after,
      // inherit them; the sample then covers the shard work, not just the
      // master thread.
      perf_counter_set counters;
      shard_engine engine(
          shard_options{.threads = t, .shards = shards, .isa = g_isa_request});
      results.push_back(time_scale_leg("shard", kernel_isa_name(engine.isa()), t, n, m, interval,
                                       seed, counters,
                                       [&engine](b_batch& p, rng_t& rng, step_count chunk) {
                                         engine.step_many(p, rng, chunk);
                                       }));
      note_phases(results.back(), engine.phases());
      note_vs_one_shard(results.back(), results, work);
    }
    scale_entry& entry = timed ? results[shard_leg] : results.back();
    if (!entry.parity_checked) {
      // Per-leg parity replay: 1 worker, scalar backend, same (seed,
      // shards) sampling contract.
      shard_engine replay_engine(
          shard_options{.threads = 1, .shards = shards, .isa = kernel_isa::scalar});
      const auto replay = scale_observed_run(
          n, m, interval, seed, [&replay_engine](b_batch& p, rng_t& rng, step_count chunk) {
            replay_engine.step_many(p, rng, chunk);
          });
      if (replay.loads != entry.run.loads || replay.sink != entry.run.sink) {
        std::printf("DETERMINISM FAILURE: %zu-thread %s leg diverged from its 1-thread "
                    "scalar replay\n",
                    t, entry.isa.c_str());
        std::exit(1);
      }
    }
    entry.has_scaling = true;
    entry.parity_checked = true;
    if (t == 1 && rate_1t == 0.0) rate_1t = entry.timing.rate_median(work);
    if (rate_1t > 0.0) {
      entry.speedup_vs_1t = entry.timing.rate_median(work) / rate_1t;
      entry.efficiency = entry.speedup_vs_1t / static_cast<double>(t);
    }
    std::printf("    t=%-3zu %12.3e balls/s   speedup %5.2fx  efficiency %5.1f%%  "
                "replay ok  (%s)\n",
                t, entry.timing.rate_median(work), entry.speedup_vs_1t,
                100.0 * entry.efficiency, perf_note(entry.perf).c_str());
  }
}

/// Cross-run worker sweep: the campaign orchestrator's claim-loop
/// scheduler over a deliberately heterogeneous cell mix -- kernel-path
/// b-Batch cells alternating with fused-loop zipf two-choice cells, the
/// straggler pattern dynamic claiming exists for.  Every leg's aggregate
/// JSON must be byte-identical to the 1-worker leg's (the orchestrator's
/// determinism contract under any claim order).
void run_workers_matrix(bin_count n, step_count total_m,
                        const std::vector<std::size_t>& workers_list, std::uint64_t seed,
                        std::vector<scale_entry>& results) {
  if (workers_list.empty()) return;
  constexpr std::size_t kCells = 8;
  const step_count m_cell = std::max<step_count>(1, total_m / kCells);
  std::vector<campaign_config> configs;
  for (std::size_t c = 0; c < kCells; ++c) {
    campaign_config config;
    config.m = m_cell;
    if (c % 2 == 0) {
      config.label = "b-batch-" + std::to_string(c);
      config.factory = [n] { return any_process(b_batch(n, static_cast<step_count>(n))); };
    } else {
      config.label = "two-choice-zipf-" + std::to_string(c);
      config.factory = [n] {
        two_choice p(n);
        p.set_model(make_model("unit", "zipf:1", n));
        return any_process(std::move(p));
      };
    }
    configs.push_back(std::move(config));
  }
  const auto work = static_cast<double>(m_cell) * static_cast<double>(kCells);
  std::printf("\n  campaign worker scaling (%zu mixed cells x %lld balls, claim loop, "
              "byte-parity vs 1 worker):\n",
              kCells, static_cast<long long>(m_cell));
  std::string reference_json;
  double rate_1w = 0.0;
  for (const std::size_t w : workers_list) {
    campaign_options opt;
    opt.repeats = 1;
    opt.seed = seed;
    opt.threads = w;
    opt.engine = engine_config{.use_kernel = true, .isa = g_isa_request};
    perf_counter_set counters;
    counters.start();
    scale_entry entry;
    entry.kernel = "campaign";
    entry.isa = kernel_isa_name(resolve_kernel_isa(g_isa_request));
    entry.threads = w;
    entry.process = "mixed";
    std::string json;
    entry.timing = time_median_of(kWarmup, kReps, [&] {
      const auto campaign = run_campaign(configs, opt);
      json = campaign.to_json();
    });
    entry.perf = counters.stop();
    annotate_env(entry);
    if (reference_json.empty()) {
      reference_json = json;  // workers_list starts with 1 (normalized)
    } else if (json != reference_json) {
      std::printf("DETERMINISM FAILURE: %zu-worker campaign aggregate JSON diverged from "
                  "the 1-worker reference\n",
                  w);
      std::exit(1);
    }
    entry.has_scaling = true;
    entry.parity_checked = true;
    if (w == 1 && rate_1w == 0.0) rate_1w = entry.timing.rate_median(work);
    if (rate_1w > 0.0) {
      entry.speedup_vs_1t = entry.timing.rate_median(work) / rate_1w;
      entry.efficiency = entry.speedup_vs_1t / static_cast<double>(w);
    }
    std::printf("    w=%-3zu %12.3e balls/s   speedup %5.2fx  efficiency %5.1f%%  "
                "json ok  (%s)\n",
                w, entry.timing.rate_median(work), entry.speedup_vs_1t,
                100.0 * entry.efficiency, perf_note(entry.perf).c_str());
    results.push_back(std::move(entry));
  }
}

/// The price of kill-safety: the serial fused b-batch run re-timed with
/// real (encoded, CRC'd, fsync'd) checkpoint files written about every
/// `every` balls, against the same run without.  Returns the relative
/// slowdown; exits if checkpointing perturbed the loads at all.
double measure_checkpoint_overhead(bin_count n, step_count m, step_count every,
                                   std::uint64_t seed) {
  const std::string path = "BENCH_checkpoint.ckpt";
  const process_spec spec{"b-batch", n, static_cast<double>(n)};
  std::vector<load_t> plain_loads;
  std::vector<load_t> ckpt_loads;
  const auto timed_run = [&](step_count cadence, std::vector<load_t>& loads_out) {
    return time_median_of(kWarmup, kReps, [&] {
      any_process process = make_process(spec);
      rng_t rng(seed);
      run_engine engine((engine_config{}));
      (void)run_checkpointed(process, m, rng, engine, cadence, [&](step_count) {
        write_checkpoint_file(path,
                              capture_checkpoint(process, rng, engine.fingerprint(), 0, seed));
      });
      loads_out = process.state().loads();
    });
  };
  const timing_stats t_plain = timed_run(0, plain_loads);
  const timing_stats t_ckpt = timed_run(every, ckpt_loads);
  std::remove(path.c_str());
  if (plain_loads != ckpt_loads) {
    std::printf("CHECKPOINT PERTURBATION FAILURE: checkpointed run diverged from plain run\n");
    std::exit(1);
  }
  const double overhead = t_ckpt.median_s / t_plain.median_s - 1.0;
  const auto marks = static_cast<long long>(every > 0 ? (m - 1) / every : 0);
  std::printf("  checkpoint overhead   %+13.2f%% (every %lld balls: %lld fsync'd "
              "checkpoint file(s), loads unperturbed)\n",
              overhead * 100.0, static_cast<long long>(every), marks);
  return overhead;
}

void run_scale_benchmark(bin_count n, step_count m, std::size_t threads, std::size_t shards,
                         const std::string& kernel_flag, std::uint64_t seed, bool verify,
                         const std::string& alias_spec, step_count checkpoint_every,
                         const std::vector<std::size_t>& threads_list,
                         const std::vector<std::size_t>& workers_list,
                         const std::string& departures_spec, step_count churn_occupancy,
                         const std::string& json_path) {
  const auto interval = static_cast<step_count>(n);
  const auto work = static_cast<double>(m);
  const kernel_isa best = detect_kernel_isa();
  const host_info host = detect_host_info();
  std::printf("\nscale benchmark: b-batch b=n observed run, n = %u, m = %lld, lanes = %zu\n", n,
              static_cast<long long>(m), kernel_lanes);
  std::printf("  warm median of %d reps (+%d warmup); CPU's best backend: %s\n", kReps, kWarmup,
              kernel_isa_name(best));
  std::printf("  host: %s (%u hardware threads, %zu-byte cache lines)\n",
              host.cpu_model.empty() ? "unknown CPU" : host.cpu_model.c_str(),
              host.hardware_concurrency, host.cache_line_size);

  std::vector<scale_entry> results;

  // Leg 1: the serial fused loop -- the scalar one-ball-at-a-time
  // baseline every kernel leg is measured against.
  {
    perf_counter_set counters;
    results.push_back(time_scale_leg(
        "off", "none", 1, n, m, interval, seed, counters,
        [](b_batch& p, rng_t& rng, step_count chunk) { step_many(p, rng, chunk); }));
  }
  const double fused_rate = results.front().timing.rate_median(work);

  // Legs 2..: the serial kernel engine per requested backend.  --kernel
  // scalar or simd narrows the list; auto runs scalar plus EVERY SIMD
  // backend this binary compiled in and this CPU supports, so e.g. avx2
  // and avx512 coexist as separately regression-gated legs.  An --isa
  // override wins over all of that and pins the single requested backend
  // (resolve_kernel_isa warn_once-falls-back if this CPU lacks it).
  std::vector<kernel_isa> backends;
  if (g_isa_request != kernel_isa::auto_detect) {
    backends = {resolve_kernel_isa(g_isa_request)};
  } else if (kernel_flag == "scalar") {
    backends = {kernel_isa::scalar};
  } else if (kernel_flag == "simd") {
    backends = {best};
  } else {  // auto
    backends = {kernel_isa::scalar};
    for (const kernel_isa isa : {kernel_isa::avx2, kernel_isa::avx512}) {
      if (kernel_isa_supported(isa)) backends.push_back(isa);
    }
  }
  const std::size_t first_kernel_leg = results.size();
  for (const kernel_isa isa : backends) {
    perf_counter_set counters;
    shard_engine engine(shard_options{.shards = 1, .isa = isa});
    results.push_back(time_scale_leg(
        "kernel", kernel_isa_name(engine.isa()), 1, n, m, interval, seed, counters,
        [&engine](b_batch& p, rng_t& rng, step_count chunk) {
          engine.step_many(p, rng, chunk);
        }));
    note_phases(results.back(), engine.phases());
  }

  // Kernel contract spot-check at full scale: every backend's leg ran the
  // same seed's sampling, so loads AND observations must be
  // bit-identical across the board.
  for (std::size_t i = first_kernel_leg + 1; i < results.size(); ++i) {
    if (results[i].run.loads != results[first_kernel_leg].run.loads ||
        results[i].run.sink != results[first_kernel_leg].run.sink) {
      std::printf("ISA PARITY FAILURE: %s (%s) diverged from %s\n", results[i].isa.c_str(),
                  results[i].kernel.c_str(), results[first_kernel_leg].isa.c_str());
      std::exit(1);
    }
  }
  // Only a run with >= 2 distinct backends actually exercised the
  // cross-ISA comparison; a single-backend run must not claim it.
  const bool isa_verified = backends.size() > 1;
  if (isa_verified) {
    std::printf("  isa parity            %zu backends (%s .. %s) bit for bit "
                "(loads + observations)\n",
                backends.size(), kernel_isa_name(backends.front()),
                kernel_isa_name(backends.back()));
  }
  // Headline speedup: the fastest kernel leg (backends.back() is the best
  // requested ISA in every mode, but let the measurement decide).
  std::size_t best_kernel_leg = first_kernel_leg;
  for (std::size_t i = first_kernel_leg; i < results.size(); ++i) {
    if (results[i].timing.rate_median(work) >
        results[best_kernel_leg].timing.rate_median(work)) {
      best_kernel_leg = i;
    }
  }
  const double kernel_speedup =
      results[best_kernel_leg].timing.rate_median(work) / fused_rate;
  std::printf("  kernel vs fused       %14.2fx (%s, 1 thread)\n", kernel_speedup,
              results[best_kernel_leg].isa.c_str());

  // Shard leg: the shard-parallel engine with the kernel inside each
  // shard (counters before the engine so pool threads are inherited).
  perf_counter_set shard_counters;
  shard_engine engine(shard_options{.threads = threads, .shards = shards, .isa = g_isa_request});
  results.push_back(time_scale_leg(
      "shard", kernel_isa_name(engine.isa()), engine.threads(), n, m, interval, seed,
      shard_counters,
      [&engine](b_batch& p, rng_t& rng, step_count chunk) {
        engine.step_many(p, rng, chunk);
      }));
  note_phases(results.back(), engine.phases());
  note_vs_one_shard(results.back(), results, work);
  const std::size_t shard_leg = results.size() - 1;
  const scale_entry shard = results.back();  // copy: the alias leg below may reallocate
  std::printf("  shard vs fused        %14.2fx on %u hardware cores\n",
              shard.timing.rate_median(work) / fused_rate, std::thread::hardware_concurrency());

  // Alias-sampled two-choice leg: the generalized-model smoke signal.  A
  // zipf-skewed bin sampler through the serial fused loop -- keyed by its
  // (weighting, sampler) pair in the JSON so the regression gate tracks
  // the alias fast path separately from the uniform legs.
  if (!alias_spec.empty()) {
    scale_entry alias_leg;
    alias_leg.kernel = "off";
    alias_leg.isa = "none";
    alias_leg.threads = 1;
    alias_leg.process = "two-choice";
    alias_leg.sampler = alias_spec;
    const auto make_alias_two_choice = [n, &alias_spec] {
      two_choice p(n);
      p.set_model(make_model("unit", alias_spec, n));
      return p;
    };
    perf_counter_set counters;
    counters.start();
    alias_leg.timing = time_median_of(kWarmup, kReps, [&] {
      alias_leg.run = scale_observed_run_with(
          make_alias_two_choice, m, interval, seed,
          [](two_choice& p, rng_t& rng, step_count chunk) { step_many(p, rng, chunk); });
    });
    alias_leg.perf = counters.stop();
    annotate_env(alias_leg);
    std::printf("  %-10s sampler=%-9s t=1 %12.3e balls/s   (two-choice, gap %.1f)\n", "off",
                alias_spec.c_str(), alias_leg.timing.rate_median(work), alias_leg.run.gap);
    results.push_back(std::move(alias_leg));
  }

  // Steady-state churn legs: the event-stream API under load, per
  // departure channel, each reporting EVENTS per second (arrivals +
  // departures) at fixed occupancy:
  //   * "churn"        -- a workload leg: a two-choice system warmed to
  //                       `churn_occupancy` residents, then advance() on
  //                       the master stream (the committed key, law
  //                       unchanged).  A different process, so it is no
  //                       ratio's reference.
  //   * "churn-serial" -- the serial per-event reference of the batched
  //                       legs: the SAME warmed b-Batch system (b = the
  //                       churn cycle, so arrivals vectorize on the
  //                       engines) churned in the SAME cycles of arrivals
  //                       then departures, through step_many and the
  //                       per-event depart_many.
  //   * "churn-kernel" -- those cycles through the serial kernel engine
  //                       (kernel arrivals + kernel departure blocks);
  //   * "churn-shard"  -- those cycles through the shard engine.
  // The cycle is max(min_window, n) -- the committed observed-run window
  // b = n, which amortizes the per-block O(n) snapshot/commit passes over
  // a full window of events.  Engine legs also report their departure
  // blocks' phase split (depart_phases_ms) and repair counts
  // (depart_repairs).  Keyed by (kernel, process, departures) in the JSON;
  // the tail records per-channel speedups of churn-kernel over
  // churn-serial, and the churn-shard leg its speedup over churn-kernel
  // (churn_shard_vs_kernel) -- like with like: same process, same cycle,
  // same warmed state.  --departures narrows to one channel; the default
  // sweeps all three.
  const step_count churn_pairs = m / 10;
  std::vector<std::pair<std::string, double>> churn_speedups;
  if (churn_pairs > 0) {
    const std::vector<std::string> channels =
        departures_spec.empty() || departures_spec == "none"
            ? std::vector<std::string>{"random", "lease", "drain"}
            : std::vector<std::string>{departures_spec};
    const step_count occupancy =
        churn_occupancy > 0 ? churn_occupancy : static_cast<step_count>(n);
    const double churn_work = 2.0 * static_cast<double>(churn_pairs);
    const step_count cycle = std::max<step_count>(4096, static_cast<step_count>(n));
    for (const std::string& channel : channels) {
      {
        scale_entry leg;
        leg.kernel = "churn";
        leg.isa = "none";
        leg.threads = 1;
        leg.process = "two-choice";
        leg.departures = channel;
        perf_counter_set churn_counters;
        two_choice warmed(n);
        warmed.set_model(make_model("unit", "uniform", n, channel));
        rng_t warm_rng(seed);
        nb::step_many(warmed, warm_rng, occupancy);
        churn_counters.start();
        leg.timing = time_median_of(kWarmup, kReps, [&] {
          two_choice p = warmed;  // every shot churns the same warmed system
          rng_t rng = warm_rng;
          advance(p, rng, traffic_spec{churn_pairs, churn_pairs});
          const auto& s = p.state();
          leg.run.gap = s.gap();
          leg.run.sink = s.gap() + s.underload_gap();
          leg.run.loads = s.loads();
        });
        leg.perf = churn_counters.stop();
        annotate_env(leg);
        std::printf("  %-12s dep=%-8s t=1 %12.3e events/s  (workload: two-choice at occupancy "
                    "%lld, gap %.1f, %s)\n",
                    "churn", channel.c_str(), leg.timing.rate_median(churn_work),
                    static_cast<long long>(occupancy), leg.run.gap, perf_note(leg.perf).c_str());
        results.push_back(std::move(leg));
      }
      // One warmed b-Batch system for the three like-with-like legs.
      b_batch warmed(n, cycle);
      warmed.set_model(make_model("unit", "uniform", n, channel));
      rng_t warm_rng(seed);
      {
        shard_engine warm_engine(shard_options{.shards = 1, .isa = g_isa_request});
        warm_engine.step_many(warmed, warm_rng, occupancy);
      }
      // Times cycles of `arrive` then `depart` from the warmed system.
      const auto time_batch_churn = [&](const char* kernel, std::size_t leg_threads,
                                        perf_counter_set& churn_counters, const auto& arrive,
                                        const auto& depart) {
        scale_entry leg;
        leg.kernel = kernel;
        leg.threads = leg_threads;
        leg.process = "b-batch";
        leg.departures = channel;
        leg.timing = time_median_of(kWarmup, kReps, [&] {
          b_batch p = warmed;
          rng_t rng = warm_rng;
          for (step_count served = 0; served < churn_pairs;) {
            const step_count k = std::min(cycle, churn_pairs - served);
            arrive(p, rng, k);
            depart(p, rng, k);
            served += k;
          }
          const auto& s = p.state();
          leg.run.gap = s.gap();
          leg.run.sink = s.gap() + s.underload_gap();
          leg.run.loads = s.loads();
        });
        leg.perf = churn_counters.stop();
        annotate_env(leg);
        return leg;
      };
      const auto print_batch_leg = [&](const scale_entry& leg, double reference) {
        const double rate = leg.timing.rate_median(churn_work);
        std::printf("  %-12s dep=%-8s isa=%-7s t=%zu %10.3e events/s  (b-batch cycle %lld",
                    leg.kernel.c_str(), channel.c_str(), leg.isa.c_str(), leg.threads, rate,
                    static_cast<long long>(cycle));
        if (reference > 0.0) std::printf(", %5.2fx vs churn-serial", rate / reference);
        std::printf(", gap %.1f, %s)\n", leg.run.gap, perf_note(leg.perf).c_str());
        note_depart_phases(leg.depart_phases);
      };
      double serial_rate = 0.0;
      double kernel_rate = 0.0;
      {
        perf_counter_set churn_counters;
        churn_counters.start();
        scale_entry leg = time_batch_churn(
            "churn-serial", 1, churn_counters,
            [](b_batch& p, rng_t& rng, step_count k) { nb::step_many(p, rng, k); },
            [](b_batch& p, rng_t& rng, step_count k) { nb::depart_many(p, rng, k); });
        leg.isa = "none";
        serial_rate = leg.timing.rate_median(churn_work);
        print_batch_leg(leg, 0.0);
        results.push_back(std::move(leg));
      }
      {
        perf_counter_set churn_counters;
        shard_engine kengine(shard_options{.shards = 1, .isa = g_isa_request});
        churn_counters.start();
        scale_entry leg = time_batch_churn(
            "churn-kernel", 1, churn_counters,
            [&](b_batch& p, rng_t& rng, step_count k) { kengine.step_many(p, rng, k); },
            [&](b_batch& p, rng_t& rng, step_count k) { kengine.depart_many(p, rng, k); });
        leg.isa = kernel_isa_name(kengine.isa());
        leg.depart_phases = kengine.depart_phases();
        kernel_rate = leg.timing.rate_median(churn_work);
        if (serial_rate > 0.0) {
          churn_speedups.emplace_back(channel, leg.timing.rate_median(churn_work) / serial_rate);
        }
        print_batch_leg(leg, serial_rate);
        results.push_back(std::move(leg));
      }
      {
        perf_counter_set churn_counters;  // before the engine: pool threads inherit it
        churn_counters.start();
        shard_engine sengine(
            shard_options{.threads = threads, .shards = shards, .isa = g_isa_request});
        scale_entry leg = time_batch_churn(
            "churn-shard", sengine.threads(), churn_counters,
            [&](b_batch& p, rng_t& rng, step_count k) { sengine.step_many(p, rng, k); },
            [&](b_batch& p, rng_t& rng, step_count k) {
              sengine.depart_many(p, rng, k);
            });
        leg.isa = kernel_isa_name(sengine.isa());
        leg.depart_phases = sengine.depart_phases();
        leg.churn_shard_vs_kernel = leg.timing.rate_median(churn_work) / kernel_rate;
        print_batch_leg(leg, serial_rate);
        std::printf("    vs churn-kernel (t=1) %.2fx\n", leg.churn_shard_vs_kernel);
        results.push_back(std::move(leg));
      }
    }
  }

  // Checkpoint-overhead leg: recorded (not speed-gated) so the cost of
  // making a run preemptible stays visible next to the throughput it taxes.
  double ckpt_overhead = -1.0;
  if (checkpoint_every > 0) {
    ckpt_overhead = measure_checkpoint_overhead(n, m, checkpoint_every, seed);
  }

  bool identical = true;
  if (verify) {
    // Determinism contract: same seed + same shards under ONE
    // worker thread and the scalar backend must reproduce the
    // multi-threaded SIMD run bit for bit, including every checkpoint.
    shard_engine engine1(shard_options{.threads = 1, .shards = shards, .isa = kernel_isa::scalar});
    const auto replay = scale_observed_run(
        n, m, interval, seed, [&engine1](b_batch& p, rng_t& rng, step_count chunk) {
          engine1.step_many(p, rng, chunk);
        });
    identical = replay.loads == shard.run.loads && replay.sink == shard.run.sink;
    if (!identical) {
      std::printf("DETERMINISM FAILURE: 1-thread scalar replay diverged from %zu-thread %s run\n",
                  shard.threads, shard.isa.c_str());
      std::exit(1);
    }
    results[shard_leg].parity_checked = true;
    std::printf("  determinism           1-thread scalar replay bit-identical\n");
  }

  // The scaling matrix: intra-run threads x cross-run campaign workers.
  run_threads_matrix(n, m, interval, threads_list, shards, seed, shard_leg, results);
  // Campaign legs split a half-size total over 8 heterogeneous cells;
  // scheduling overhead, not per-ball throughput, is what they measure.
  run_workers_matrix(n, m / 2, workers_list, seed, results);

  if (!json_path.empty()) {
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    NB_REQUIRE(f != nullptr, "cannot open --json output path");
    // CPU model strings are plain ASCII in practice; neutralize the two
    // characters that could still break the JSON literal.
    std::string cpu_model = host.cpu_model;
    for (char& c : cpu_model) {
      if (c == '"' || c == '\\') c = ' ';
    }
    // Every backend this binary + CPU pair can actually run: the
    // regression gate uses this to skip (with notice) baseline legs whose
    // ISA a fresh runner cannot reproduce, instead of failing them.
    std::string supported_isas;
    for (const kernel_isa isa : {kernel_isa::scalar, kernel_isa::avx2, kernel_isa::avx512}) {
      if (!kernel_isa_supported(isa)) continue;
      if (!supported_isas.empty()) supported_isas += ", ";
      supported_isas += '"';
      supported_isas += kernel_isa_name(isa);
      supported_isas += '"';
    }
    std::fprintf(f,
                 "{\n"
                 "  \"bench\": \"throughput_scale\",\n"
                 "  \"process\": \"b-batch\",\n"
                 "  \"n\": %u,\n  \"m\": %lld,\n  \"b\": %u,\n  \"interval\": %lld,\n"
                 "  \"seed\": %llu,\n  \"shards\": %zu,\n  \"lanes\": %zu,\n"
                 "  \"cpu_model\": \"%s\",\n"
                 "  \"hardware_concurrency\": %u,\n"
                 "  \"cache_line\": %zu,\n"
                 "  \"supported_isas\": [%s],\n"
                 "  \"isa_forced\": %s%s%s,\n"
                 "  \"timing\": {\"warmup\": %d, \"reps\": %d, \"statistic\": \"median\"},\n"
                 "  \"results\": [\n",
                 n, static_cast<long long>(m), n, static_cast<long long>(interval),
                 static_cast<unsigned long long>(seed), shards, kernel_lanes, cpu_model.c_str(),
                 host.hardware_concurrency, host.cache_line_size, supported_isas.c_str(),
                 g_isa_forced.empty() ? "null" : "\"", g_isa_forced.c_str(),
                 g_isa_forced.empty() ? "" : "\"", kWarmup, kReps);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const scale_entry& e = results[i];
      // Campaign legs split the work over half the balls (see above) and
      // churn legs count events (arrivals + departures), so their rates
      // use their own work terms.
      const double leg_work =
          e.kernel == "campaign" ? static_cast<double>(std::max<step_count>(1, m / 2 / 8)) * 8.0
          : e.kernel.rfind("churn", 0) == 0 ? 2.0 * static_cast<double>(churn_pairs)
                                             : work;
      std::fprintf(f,
                   "    {\"kernel\": \"%s\", \"isa\": \"%s\", \"threads\": %zu,\n"
                   "     \"process\": \"%s\", \"weighting\": \"%s\", \"sampler\": \"%s\",\n"
                   "     \"departures\": \"%s\",\n"
                   "     \"isa_detected\": \"%s\", \"isa_forced\": %s%s%s,\n"
                   "     \"balls_per_sec\": %.6e, \"balls_per_sec_min\": %.6e,\n"
                   "     \"balls_per_sec_max\": %.6e, \"seconds_median\": %.6f,\n"
                   "     \"cv\": %.4f, \"gap\": %.2f",
                   e.kernel.c_str(), e.isa.c_str(), e.threads, e.process.c_str(),
                   e.weighting.c_str(), e.sampler.c_str(), e.departures.c_str(),
                   e.isa_detected.c_str(),
                   e.isa_forced.empty() ? "null" : "\"", e.isa_forced.c_str(),
                   e.isa_forced.empty() ? "" : "\"",
                   e.timing.rate_median(leg_work), e.timing.rate_min(leg_work),
                   e.timing.rate_max(leg_work), e.timing.median_s, e.timing.cv, e.run.gap);
      if (e.has_scaling) {
        std::fprintf(f,
                     ",\n     \"speedup_vs_1thread\": %.4f, \"parallel_efficiency\": %.4f,\n"
                     "     \"bit_identical_to_1thread\": %s",
                     e.speedup_vs_1t, e.efficiency, e.parity_checked ? "true" : "false");
      }
      // Per-window (per-block) phase splits, when the leg's engine booked any.
      // One-shard kernel legs add the carry count of their byte rows, and
      // departure blocks the re-serve part of their merge.
      const auto emit_phases = [f](const char* key, const char* count_key,
                                   const window_phase_times& p, bool carries, bool reserve) {
        if (p.windows == 0) return;
        const double ms = 1e-6 / static_cast<double>(p.windows);
        std::fprintf(f,
                     ",\n     \"%s\": {\"%s\": %lld, \"snapshot\": %.4f, \"kernel\": %.4f, "
                     "\"merge\": %.4f, \"commit\": %.4f",
                     key, count_key, static_cast<long long>(p.windows),
                     static_cast<double>(p.snapshot_ns) * ms,
                     static_cast<double>(p.kernel_ns) * ms, static_cast<double>(p.merge_ns) * ms,
                     static_cast<double>(p.commit_ns) * ms);
        if (carries) std::fprintf(f, ", \"carries\": %lld", static_cast<long long>(p.carries));
        if (reserve) std::fprintf(f, ", \"reserve\": %.4f", static_cast<double>(p.reserve_ns) * ms);
        std::fprintf(f, "}");
      };
      emit_phases("window_phases_ms", "windows", e.phases, e.kernel == "kernel", false);
      emit_phases("depart_phases_ms", "blocks", e.depart_phases, false, true);
      if (e.depart_phases.windows > 0) {
        std::fprintf(f,
                     ",\n     \"depart_repairs\": {\"clamped_ranges\": %lld, "
                     "\"reserved_events\": %lld}",
                     static_cast<long long>(e.depart_phases.clamped_ranges),
                     static_cast<long long>(e.depart_phases.reserved_events));
      }
      if (e.speedup_vs_one_shard > 0.0) {
        std::fprintf(f, ",\n     \"speedup_vs_one_shard\": %.4f", e.speedup_vs_one_shard);
      }
      if (e.churn_shard_vs_kernel > 0.0) {
        std::fprintf(f, ",\n     \"churn_shard_vs_kernel\": %.4f", e.churn_shard_vs_kernel);
      }
      if (e.perf.available) {
        std::fprintf(f, ",\n     \"perf\": {\"cycles\": %.6e, \"instructions\": %.6e, "
                        "\"ipc\": %.4f, ",
                     e.perf.cycles, e.perf.instructions, e.perf.ipc());
        if (e.perf.llc_misses >= 0.0) {
          std::fprintf(f, "\"llc_misses\": %.6e, ", e.perf.llc_misses);
        } else {
          std::fprintf(f, "\"llc_misses\": null, ");
        }
        if (e.perf.stalled_cycles >= 0.0) {
          std::fprintf(f, "\"stalled_cycles\": %.6e, \"stalled_frac\": %.4f}",
                       e.perf.stalled_cycles, e.perf.stalled_frac());
        } else {
          std::fprintf(f, "\"stalled_cycles\": null, \"stalled_frac\": null}");
        }
      } else {
        // Explicitly unavailable (no usable PMU on this runner), never
        // silently absent.
        std::fprintf(f, ",\n     \"perf\": null");
      }
      std::fprintf(f, "}%s\n", i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f,
                 "  ],\n"
                 "  \"kernel_vs_fused_speedup\": %.4f,\n"
                 "  \"shard_vs_fused_speedup\": %.4f,\n",
                 kernel_speedup, shard.timing.rate_median(work) / fused_rate);
    // Per-channel batched-departure speedups: churn-kernel events/s over
    // churn-serial (same b-Batch process, cycle and warmed state).
    if (churn_speedups.empty()) {
      std::fprintf(f, "  \"churn_kernel_vs_serial_speedup\": null,\n");
    } else {
      std::fprintf(f, "  \"churn_kernel_vs_serial_speedup\": {");
      for (std::size_t i = 0; i < churn_speedups.size(); ++i) {
        std::fprintf(f, "%s\"%s\": %.4f", i ? ", " : "", churn_speedups[i].first.c_str(),
                     churn_speedups[i].second);
      }
      std::fprintf(f, "},\n");
    }
    if (ckpt_overhead >= -0.5) {
      std::fprintf(f,
                   "  \"checkpoint_every\": %lld,\n  \"checkpoint_overhead_frac\": %.4f,\n",
                   static_cast<long long>(checkpoint_every), ckpt_overhead);
    } else {
      std::fprintf(f, "  \"checkpoint_every\": 0,\n  \"checkpoint_overhead_frac\": null,\n");
    }
    std::fprintf(f,
                 "  \"identical_across_isa_backends\": %s,\n"
                 "  \"identical_across_thread_counts\": %s\n"
                 "}\n",
                 isa_verified ? "true" : "null", verify ? "true" : "null");
    std::fclose(f);
    std::printf("  wrote %s\n", json_path.c_str());
  }
}

/// Parses a comma-separated list of positive thread counts ("1,2,4").
/// Normalized for the scaling matrix: sorted ascending, deduplicated, and
/// 1 prepended when missing (speedup/parity legs need the 1-thread
/// reference first).  Empty spec = matrix off.
std::vector<std::size_t> parse_count_list(const std::string& flag, const std::string& spec) {
  std::vector<std::size_t> out;
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t next = spec.find(',', pos);
    if (next == std::string::npos) next = spec.size();
    const std::string token = spec.substr(pos, next - pos);
    if (!token.empty()) {
      NB_REQUIRE(token.find_first_not_of("0123456789") == std::string::npos,
                 "--" + flag + " entries must be positive integers");
      const unsigned long value = std::strtoul(token.c_str(), nullptr, 10);
      NB_REQUIRE(value >= 1 && value <= static_cast<unsigned long>(max_thread_flag),
                 "--" + flag + " entries must be in [1, " + std::to_string(max_thread_flag) + "]");
      out.push_back(static_cast<std::size_t>(value));
    }
    pos = next + 1;
  }
  if (out.empty()) return out;
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  if (out.front() != 1) out.insert(out.begin(), 1);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  cli_parser cli(
      "Throughput of the per-ball vs bulk (step_many) allocation paths.\n"
      "Columns: balls/sec per-ball, balls/sec bulk, speedup.");
  cli.add_int("n", 10000, "number of bins");
  cli.add_int("m", 10000000, "number of balls");
  cli.add_int("interval", 0, "observation interval for the observed-run row (0 = n)");
  cli.add_int("seed", 42, "RNG seed (same stream for both paths)");
  cli.add_bool("scale", false, "also run the allocation-kernel scale benchmark (b-batch b=n)");
  cli.add_int("scale-n", 1000000, "bins for the scale benchmark (paper scale: 10^6)");
  cli.add_int("scale-m", 100000000, "balls for the scale benchmark (paper scale: 10^8)");
  cli.add_int("scale-threads", 0, "intra-run worker threads for the shard leg (0 = cores)");
  cli.add_int("shards", 16, "fixed shard count for the parallel engine (sampling contract)");
  cli.add_string("kernel", "auto",
                 "scale-benchmark kernel legs: scalar | simd | auto (auto = compare "
                 "scalar against every SIMD backend this CPU supports)");
  cli.add_string("isa", "",
                 "force one kernel ISA backend for every scale leg (scalar | avx2 | "
                 "avx512; \"\" = auto-detect; unsupported requests warn once and fall "
                 "back)");
  cli.add_bool("scale-verify", true,
               "replay the shard leg on 1 thread with the scalar backend and require bit parity");
  cli.add_string("alias-sampler", "zipf:1",
                 "bin-sampler spec for the alias-sampled two-choice scale leg "
                 "(\"\" = skip the leg)");
  cli.add_int("checkpoint-every", 10000000,
              "scale benchmark: also time the fused leg with fsync'd mid-run checkpoint "
              "files about every N balls and record the overhead (0 = skip the leg)");
  cli.add_string("threads-list", "1,2,4",
                 "scaling matrix: comma-separated shard-engine worker counts to sweep "
                 "(normalized to include 1; \"\" = skip the thread matrix)");
  cli.add_string("workers-list", "1,2,4",
                 "scaling matrix: comma-separated campaign worker counts to sweep over a "
                 "heterogeneous cell mix (\"\" = skip the campaign matrix)");
  // Shared steady-state churn family (util/cli).  Here --departures picks
  // the channel of the scale benchmark's churn leg ("none" = the default
  // channel, random) and --churn overrides its occupancy (0 = scale-n).
  add_churn_flags(cli);
  cli.add_string("json", "BENCH_throughput.json", "scale-result JSON path (\"\" = skip)");
  if (!cli.parse(argc, argv)) return 0;

  NB_REQUIRE(cli.get_int("n") >= 1 && cli.get_int("n") <= 0xFFFFFFFFLL,
             "--n must be in [1, 2^32)");
  NB_REQUIRE(cli.get_int("m") >= 1 && cli.get_int("m") <= max_run_balls,
             "--m must be in [1, max_run_balls]");
  const auto n = static_cast<bin_count>(cli.get_int("n"));
  const auto m = static_cast<step_count>(cli.get_int("m"));
  const auto interval =
      cli.get_int("interval") > 0 ? static_cast<step_count>(cli.get_int("interval"))
                                  : static_cast<step_count>(n);
  const auto seed = static_cast<std::uint64_t>(cli.get_int("seed"));

  std::printf("n = %u, m = %lld, warm median of %d reps; per-ball = step() per ball,\n", n,
              static_cast<long long>(m), kReps);
  std::printf("bulk = one step_many call (bit-identical results, checked per row)\n\n");
  std::printf("%-34s %14s %14s %10s\n", "process", "per-ball b/s", "bulk b/s", "speedup");

  report("one-choice", [n] { return one_choice(n); }, m, seed);
  report("two-choice", [n] { return two_choice(n); }, m, seed);
  report("two-choice (type-erased driver)", [n] { return any_process(two_choice(n)); }, m, seed);
  report("d-choice (d=4)", [n] { return d_choice(n, 4); }, m, seed);
  report("(1+beta) beta=0.5", [n] { return one_plus_beta(n, 0.5); }, m, seed);
  report("g-bounded g=8", [n] { return g_bounded(n, 8); }, m, seed);
  report("g-myopic g=8", [n] { return g_myopic_comp(n, 8); }, m, seed);
  report("sigma-noisy-load s=8", [n] { return sigma_noisy_load(n, rho_gaussian(8.0)); }, m, seed);
  report("sigma-noisy-gauss s=8", [n] { return sigma_noisy_load_gaussian(n, 8.0); }, m, seed);
  report("b-batch b=n", [n] { return b_batch(n, n); }, m, seed);
  report("b-batch b=n (type-erased driver)", [n] { return any_process(b_batch(n, n)); }, m, seed);
  report("tau-delay tau=n", [n] { return tau_delay<delay_adversarial>(n, n); }, m, seed);
  const double observed_speedup = report_observed_run(n, m, interval, seed);

  std::printf(
      "\nheadline: the observed-run row is the before/after of PR 1's\n"
      "bulk-step refactor -- per-ball stepping with the sort-based\n"
      "per-checkpoint observations the old code paid (O(n log n) each)\n"
      "versus step_many between checkpoints plus the level-compressed load\n"
      "index (sort-free).  Observed-run speedup: %.2fx at one checkpoint\n"
      "per %lld balls.  The scale section (--scale) is the allocation\n"
      "kernel's before/after at paper scale.\n",
      observed_speedup, static_cast<long long>(interval));

  if (cli.get_bool("scale")) {
    NB_REQUIRE(cli.get_int("scale-n") >= 1 && cli.get_int("scale-n") <= 0xFFFFFFFFLL,
               "--scale-n must be in [1, 2^32)");
    NB_REQUIRE(cli.get_int("scale-m") >= 1 && cli.get_int("scale-m") <= max_run_balls,
               "--scale-m must be in [1, max_run_balls]");
    const std::size_t shards = shard_count_flag("--shards", cli.get_int("shards"));
    const std::size_t scale_threads =
        thread_count_flag("--scale-threads", cli.get_int("scale-threads"));
    const std::string kernel_flag = cli.get_string("kernel");
    NB_REQUIRE(kernel_flag == "scalar" || kernel_flag == "simd" || kernel_flag == "auto",
               "--kernel got '" + kernel_flag + "'; accepted: scalar, simd, auto");
    NB_REQUIRE(cli.get_int("checkpoint-every") >= 0, "--checkpoint-every must be >= 0");
    const std::string isa_flag = cli.get_string("isa");
    if (!isa_flag.empty()) {
      const auto parsed = kernel_isa_flag("--isa", isa_flag, false);
      if (*parsed != kernel_isa::auto_detect) {  // "--isa auto" = no force
        g_isa_request = *parsed;
        g_isa_forced = kernel_isa_name(*parsed);
      }
    }
    const churn_flag_values churn = get_churn_flags(cli);
    // "none" (the default) sweeps all three churn channels; an explicit
    // --departures narrows the churn legs to that one channel.
    const std::string departures_spec = churn.departures;
    if (departures_spec != "none") {
      (void)make_departures(departures_spec);  // validate the spec up front
    }
    if (churn.telemetry > 0) {
      warn_once("throughput-churn-telemetry",
                "--churn-telemetry has no effect here: the churn leg times throughput and "
                "records only its final gap");
    }
    run_scale_benchmark(static_cast<bin_count>(cli.get_int("scale-n")),
                        static_cast<step_count>(cli.get_int("scale-m")),
                        scale_threads, shards, kernel_flag, seed,
                        cli.get_bool("scale-verify"), cli.get_string("alias-sampler"),
                        static_cast<step_count>(cli.get_int("checkpoint-every")),
                        parse_count_list("threads-list", cli.get_string("threads-list")),
                        parse_count_list("workers-list", cli.get_string("workers-list")),
                        departures_spec, static_cast<step_count>(churn.churn),
                        cli.get_string("json"));
  }
  return 0;
}
